/**
 * @file
 * Tests for the serving layer: request-stream determinism, batch
 * formation policies, the batch-of-1 bit-identity contract against
 * Evaluator::simulate, and thread-count determinism of the full
 * serving simulation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "eval/evaluator.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"
#include "serve/serving_sim.h"
#include "workload/profiles.h"

namespace focus
{
namespace
{

QueueConfig
smallOpenConfig(int requests = 6)
{
    QueueConfig q;
    q.process = ArrivalProcess::OpenPoisson;
    q.arrival_rate_rps = 0.05;
    q.num_requests = requests;
    q.seed = 42;

    RequestClass focus_cls;
    focus_cls.model = "Llava-Vid";
    focus_cls.dataset = "VideoMME";
    focus_cls.method = MethodConfig::focusFull();
    focus_cls.weight = 3.0;
    focus_cls.slo_latency_s = 120.0;
    q.mix.push_back(focus_cls);

    RequestClass dense_cls;
    dense_cls.model = "Llava-Vid";
    dense_cls.dataset = "VideoMME";
    dense_cls.method = MethodConfig::dense();
    dense_cls.weight = 1.0;
    dense_cls.slo_latency_s = 480.0;
    q.mix.push_back(dense_cls);
    return q;
}

EvalOptions
smallEval()
{
    EvalOptions opts;
    opts.samples = 2;
    opts.seed = 42;
    return opts;
}

/** Hand-built stream with fixed arrivals and one class. */
std::vector<ServeRequest>
arrivalsAt(const std::vector<double> &times)
{
    std::vector<ServeRequest> stream;
    for (size_t i = 0; i < times.size(); ++i) {
        ServeRequest r;
        r.id = static_cast<int64_t>(i);
        r.arrival_s = times[i];
        r.slo_latency_s = 100.0;
        stream.push_back(r);
    }
    return stream;
}

// ---- request queue ----

TEST(RequestQueue, OpenLoopDeterministicAndSorted)
{
    const QueueConfig q = smallOpenConfig(32);
    const std::vector<ServeRequest> a = RequestQueue(q).generate();
    const std::vector<ServeRequest> b = RequestQueue(q).generate();
    ASSERT_EQ(a.size(), 32u);
    ASSERT_EQ(b.size(), a.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, static_cast<int64_t>(i));
        EXPECT_EQ(a[i].class_id, b[i].class_id);
        EXPECT_EQ(a[i].arrival_s, b[i].arrival_s);
        EXPECT_GE(a[i].class_id, 0);
        EXPECT_LT(a[i].class_id, static_cast<int>(q.mix.size()));
        if (i > 0) {
            EXPECT_GE(a[i].arrival_s, a[i - 1].arrival_s);
        }
        EXPECT_EQ(a[i].slo_latency_s,
                  q.mix[static_cast<size_t>(a[i].class_id)]
                      .slo_latency_s);
    }
    // A different seed produces a different stream.
    QueueConfig q2 = q;
    q2.seed = 43;
    const std::vector<ServeRequest> c = RequestQueue(q2).generate();
    bool differs = false;
    for (size_t i = 0; i < c.size(); ++i) {
        differs = differs || c[i].arrival_s != a[i].arrival_s;
    }
    EXPECT_TRUE(differs);
}

TEST(RequestQueue, ClosedLoopRoundRobinThinkTimes)
{
    QueueConfig q = smallOpenConfig(9);
    q.process = ArrivalProcess::ClosedLoop;
    q.clients = 3;
    q.think_mean_s = 5.0;
    const std::vector<ServeRequest> s = RequestQueue(q).generate();
    ASSERT_EQ(s.size(), 9u);
    for (size_t i = 0; i < s.size(); ++i) {
        EXPECT_EQ(s[i].client, static_cast<int>(i % 3));
        EXPECT_GE(s[i].think_s, 0.0);
        EXPECT_EQ(s[i].arrival_s, 0.0);
    }
}

TEST(RequestQueueDeathTest, RejectsBadConfigs)
{
    QueueConfig empty = smallOpenConfig();
    empty.mix.clear();
    EXPECT_EXIT(RequestQueue{empty}, ::testing::ExitedWithCode(1),
                "empty request mix");

    QueueConfig bad_rate = smallOpenConfig();
    bad_rate.arrival_rate_rps = 0.0;
    EXPECT_EXIT(RequestQueue{bad_rate},
                ::testing::ExitedWithCode(1), "arrival rate");

    QueueConfig bad_clients = smallOpenConfig();
    bad_clients.process = ArrivalProcess::ClosedLoop;
    bad_clients.clients = 0;
    EXPECT_EXIT(RequestQueue{bad_clients},
                ::testing::ExitedWithCode(1), "client count");
}

// ---- batch scheduler ----

TEST(BatchScheduler, FixedSizeChunksWithEndFlush)
{
    SchedulerConfig cfg;
    cfg.policy = BatchPolicy::FixedSize;
    cfg.max_batch = 3;
    const BatchScheduler sched(cfg);
    const std::vector<ServeRequest> stream =
        arrivalsAt({0, 1, 2, 3, 10});
    const std::vector<BatchKey> keys(stream.size(), BatchKey{});
    const std::vector<PlannedBatch> plan =
        sched.planOpenLoop(stream, keys);
    ASSERT_EQ(plan.size(), 2u);
    EXPECT_EQ(plan[0].members,
              (std::vector<size_t>{0, 1, 2}));
    EXPECT_EQ(plan[0].ready_s, 2.0); // closes when full
    EXPECT_EQ(plan[1].members, (std::vector<size_t>{3, 4}));
    EXPECT_EQ(plan[1].ready_s, 10.0); // stream-end flush
}

TEST(BatchScheduler, TimeoutBoundsOldestWait)
{
    SchedulerConfig cfg;
    cfg.policy = BatchPolicy::Timeout;
    cfg.max_batch = 8;
    cfg.timeout_s = 10.0;
    const BatchScheduler sched(cfg);
    const std::vector<ServeRequest> stream =
        arrivalsAt({0, 5, 100});
    const std::vector<BatchKey> keys(stream.size(), BatchKey{});
    const std::vector<PlannedBatch> plan =
        sched.planOpenLoop(stream, keys);
    ASSERT_EQ(plan.size(), 2u);
    EXPECT_EQ(plan[0].members, (std::vector<size_t>{0, 1}));
    EXPECT_EQ(plan[0].ready_s, 10.0); // opened at 0, timed out
    EXPECT_EQ(plan[1].members, (std::vector<size_t>{2}));
    EXPECT_EQ(plan[1].ready_s, 110.0);
}

TEST(BatchScheduler, ModelsNeverShareABatch)
{
    SchedulerConfig cfg;
    cfg.policy = BatchPolicy::FixedSize;
    cfg.max_batch = 4;
    const BatchScheduler sched(cfg);
    const std::vector<ServeRequest> stream =
        arrivalsAt({0, 1, 2, 3});
    std::vector<BatchKey> keys(stream.size(), BatchKey{});
    keys[1].model = 1;
    keys[3].model = 1;
    const std::vector<PlannedBatch> plan =
        sched.planOpenLoop(stream, keys);
    ASSERT_EQ(plan.size(), 2u);
    EXPECT_EQ(plan[0].members, (std::vector<size_t>{0, 2}));
    EXPECT_EQ(plan[1].members, (std::vector<size_t>{1, 3}));
}

TEST(BatchScheduler, ConcAwareGroupsByRetainedTokenBand)
{
    SchedulerConfig cfg;
    cfg.policy = BatchPolicy::ConcAware;
    cfg.max_batch = 4;
    cfg.timeout_s = 100.0;
    const BatchScheduler sched(cfg);
    const std::vector<ServeRequest> stream =
        arrivalsAt({0, 1, 2, 3});
    std::vector<BatchKey> keys(stream.size(), BatchKey{});
    keys[0].cost = 1100; // same power-of-two band as 1900
    keys[1].cost = 5000; // different band
    keys[2].cost = 1900;
    keys[3].cost = 5500;
    const std::vector<PlannedBatch> plan =
        sched.planOpenLoop(stream, keys);
    ASSERT_EQ(plan.size(), 2u);
    EXPECT_EQ(plan[0].members, (std::vector<size_t>{0, 2}));
    EXPECT_EQ(plan[1].members, (std::vector<size_t>{1, 3}));
}

TEST(BatchScheduler, PickPendingHonoursPolicyAndOrder)
{
    SchedulerConfig cfg;
    cfg.policy = BatchPolicy::ConcAware;
    cfg.max_batch = 2;
    const BatchScheduler sched(cfg);
    std::vector<BatchKey> keys(4, BatchKey{});
    keys[0].cost = 1100;
    keys[1].cost = 5000;
    keys[2].cost = 1900;
    keys[3].cost = 1500;
    const std::vector<size_t> pending{0, 1, 2, 3};
    const std::vector<size_t> picked =
        sched.pickPending(pending, keys);
    // Oldest first, filled with band-compatible requests, capped.
    EXPECT_EQ(picked, (std::vector<size_t>{0, 2}));

    SchedulerConfig single;
    single.policy = BatchPolicy::Single;
    single.max_batch = 4;
    EXPECT_EQ(BatchScheduler(single).pickPending(pending, keys),
              (std::vector<size_t>{0}));
}

// ---- serving simulation ----

TEST(ServingSim, BatchOfOneIsBitIdenticalToEvaluatorSimulate)
{
    QueueConfig q = smallOpenConfig(3);
    q.mix.resize(1); // Focus class only
    ServingSimulator sim(q, AccelConfig::focus(), smallEval());

    SchedulerConfig sched;
    sched.policy = BatchPolicy::Single;
    sched.max_batch = 1;
    const ServingReport rep = sim.run(sched);

    const Evaluator ev("Llava-Vid", "VideoMME", smallEval());
    const RunMetrics ref =
        ev.simulate(MethodConfig::focusFull(), AccelConfig::focus());

    ASSERT_EQ(rep.batches.size(), 3u);
    for (const BatchRecord &b : rep.batches) {
        EXPECT_EQ(b.metrics.cycles, ref.cycles);
        EXPECT_EQ(b.metrics.stall_sec, ref.stall_sec);
        EXPECT_EQ(b.metrics.dram_act_read, ref.dram_act_read);
        EXPECT_EQ(b.metrics.dram_weights, ref.dram_weights);
        EXPECT_EQ(b.metrics.sfu_ops, ref.sfu_ops);
        EXPECT_EQ(b.metrics.sec_ops, ref.sec_ops);
        EXPECT_EQ(b.metrics.energy.total(), ref.energy.total());
        EXPECT_EQ(b.service_s, ref.seconds());
    }
    for (const RequestOutcome &o : rep.outcomes) {
        EXPECT_EQ(o.batch_size, 1);
        EXPECT_EQ(o.finish_s, o.start_s + ref.seconds());
    }
}

TEST(ServingSim, DeterministicAcrossThreadCounts)
{
    const QueueConfig q = smallOpenConfig(6);
    SchedulerConfig sched;
    sched.policy = BatchPolicy::Timeout;
    sched.max_batch = 3;
    sched.timeout_s = 30.0;

    ThreadPool p1(1), p4(4);
    ServingSimulator sim1(q, AccelConfig::focus(), smallEval());
    ServingSimulator sim4(q, AccelConfig::focus(), smallEval());
    const ServingReport r1 = sim1.run(sched, &p1);
    const ServingReport r4 = sim4.run(sched, &p4);

    ASSERT_EQ(r1.outcomes.size(), r4.outcomes.size());
    for (size_t i = 0; i < r1.outcomes.size(); ++i) {
        EXPECT_EQ(r1.outcomes[i].arrival_s, r4.outcomes[i].arrival_s);
        EXPECT_EQ(r1.outcomes[i].start_s, r4.outcomes[i].start_s);
        EXPECT_EQ(r1.outcomes[i].finish_s, r4.outcomes[i].finish_s);
        EXPECT_EQ(r1.outcomes[i].batch_id, r4.outcomes[i].batch_id);
    }
    ASSERT_EQ(r1.batches.size(), r4.batches.size());
    for (size_t b = 0; b < r1.batches.size(); ++b) {
        EXPECT_EQ(r1.batches[b].metrics.cycles,
                  r4.batches[b].metrics.cycles);
        EXPECT_EQ(r1.batches[b].service_s, r4.batches[b].service_s);
    }
    EXPECT_EQ(r1.throughput_rps, r4.throughput_rps);
    EXPECT_EQ(r1.latency.p99, r4.latency.p99);
}

TEST(ServingSim, ClosedLoopRespectsClientCausality)
{
    QueueConfig q = smallOpenConfig(8);
    q.process = ArrivalProcess::ClosedLoop;
    q.clients = 2;
    q.think_mean_s = 5.0;
    ServingSimulator sim(q, AccelConfig::focus(), smallEval());

    SchedulerConfig sched;
    sched.policy = BatchPolicy::Timeout;
    sched.max_batch = 2;
    const ServingReport rep = sim.run(sched);

    ASSERT_EQ(rep.outcomes.size(), 8u);
    for (const RequestOutcome &o : rep.outcomes) {
        EXPECT_GE(o.start_s, o.arrival_s);
        EXPECT_GT(o.finish_s, o.start_s);
    }
    // A client's next request is issued only after its previous one
    // finished (plus think time).
    for (size_t i = 0; i + 2 < rep.outcomes.size(); ++i) {
        EXPECT_GE(rep.outcomes[i + 2].arrival_s,
                  rep.outcomes[i].finish_s);
    }
    // Batches never overlap on the single accelerator.
    for (size_t b = 1; b < rep.batches.size(); ++b) {
        EXPECT_GE(rep.batches[b].start_s,
                  rep.batches[b - 1].start_s +
                      rep.batches[b - 1].service_s);
    }
}

/** Counters mode with a zeroed registry for one test's scope. */
struct CountersGuard
{
    obs::ObsMode saved = obs::activeObsMode();
    CountersGuard()
    {
        obs::setObsMode(obs::ObsMode::Counters);
        obs::MetricsRegistry::instance().resetAll();
    }
    ~CountersGuard()
    {
        obs::MetricsRegistry::instance().resetAll();
        obs::setObsMode(saved);
    }
};

/**
 * Bucket counts (overflow last) of a registered histogram, read back
 * from the registry's metrics.json; empty when not registered.
 */
std::vector<uint64_t>
histogramCounts(const std::string &name)
{
    const std::string json = obs::MetricsRegistry::instance().toJson();
    const size_t at = json.find("\"" + name + "\"");
    if (at == std::string::npos) {
        return {};
    }
    const std::string tag = "\"counts\": [";
    const size_t open = json.find(tag, at) + tag.size();
    std::istringstream in(json.substr(open, json.find(']', open) - open));
    std::vector<uint64_t> counts;
    std::string item;
    while (std::getline(in, item, ',')) {
        counts.push_back(std::stoull(item));
    }
    return counts;
}

TEST(ServingSim, LatencyHistogramCoversQueuedLatencies)
{
    CountersGuard guard;
    // A 12-request burst onto one FIFO engine: the queue backs up to
    // many full-scale prefills, pushing the latency tail far past the
    // few-minute range.
    QueueConfig q = smallOpenConfig(12);
    q.arrival_rate_rps = 1.0;
    SchedulerConfig sched;
    sched.policy = BatchPolicy::Single;
    ServingSimulator sim(q, AccelConfig::focus(), smallEval());
    const ServingReport rep = sim.run(sched);
    ASSERT_GT(rep.latency.max, 256.0);

    for (const ClassOutcome &co : rep.classes) {
        const std::vector<uint64_t> counts =
            histogramCounts("serve.class." + co.label + ".latency_s");
        ASSERT_FALSE(counts.empty()) << co.label;
        uint64_t total = 0;
        for (const uint64_t c : counts) {
            total += c;
        }
        EXPECT_EQ(total, static_cast<uint64_t>(co.requests));
        // Every simulated latency lands in a finite bucket.
        EXPECT_EQ(counts.back(), 0u) << co.label;
    }
}

TEST(ServingSim, ReportStatsAreConsistent)
{
    const QueueConfig q = smallOpenConfig(6);
    ServingSimulator sim(q, AccelConfig::focus(), smallEval());
    SchedulerConfig sched;
    sched.policy = BatchPolicy::Timeout;
    sched.max_batch = 3;
    sched.timeout_s = 30.0;
    const ServingReport rep = sim.run(sched);

    EXPECT_GT(rep.throughput_rps, 0.0);
    EXPECT_GT(rep.makespan_s, 0.0);
    EXPECT_LE(rep.latency.p50, rep.latency.p95);
    EXPECT_LE(rep.latency.p95, rep.latency.p99);
    EXPECT_LE(rep.latency.p99, rep.latency.max);
    EXPECT_GT(rep.mean_occupancy, 0.0);
    EXPECT_LE(rep.mean_occupancy, 1.0);
    for (const RequestOutcome &o : rep.outcomes) {
        EXPECT_EQ(o.slo_met,
                  o.latency_s() <=
                      q.mix[static_cast<size_t>(o.class_id)]
                          .slo_latency_s);
    }
    ASSERT_EQ(rep.classes.size(), q.mix.size());
    int total = 0;
    for (const ClassOutcome &c : rep.classes) {
        total += c.requests;
        EXPECT_GE(c.solo_latency_s, 0.0);
    }
    EXPECT_EQ(total, q.num_requests);
    // The dense class is its own dense reference: delta == 0.
    EXPECT_EQ(rep.classes[1].accuracyDelta(), 0.0);
}

TEST(ServingSim, EvaluatorSimulateBatchMatchesSeam)
{
    EvalOptions opts;
    opts.samples = 1;
    const Evaluator ev("Llava-Vid", "VideoMME", opts);

    // Singleton batch: bit-identical to the unbatched entry point.
    const RunMetrics solo =
        ev.simulate(MethodConfig::focusFull(), AccelConfig::focus());
    const RunMetrics batch1 = ev.simulateBatch(
        {MethodConfig::focusFull()}, AccelConfig::focus());
    EXPECT_EQ(batch1.cycles, solo.cycles);
    EXPECT_EQ(batch1.energy.total(), solo.energy.total());

    // Two-method batch: per-query quadratic terms sum (never
    // (r1+r2)^2), and shared-weight fusion plus DMA overlap make the
    // fused pass cheaper than back-to-back runs.
    const RunMetrics dense =
        ev.simulate(MethodConfig::dense(), AccelConfig::focus());
    const RunMetrics fused = ev.simulateBatch(
        {MethodConfig::focusFull(), MethodConfig::dense()},
        AccelConfig::focus());
    EXPECT_EQ(fused.sfu_ops, solo.sfu_ops + dense.sfu_ops);
    EXPECT_EQ(fused.sec_ops, solo.sec_ops + dense.sec_ops);
    EXPECT_LT(fused.cycles, solo.cycles + dense.cycles);
    EXPECT_LT(fused.dram_weights,
              solo.dram_weights + dense.dram_weights);
}

// ---- long-video profile roster ----

TEST(ServingWorkloads, LongVideoProfileDoublesFrameCount)
{
    const DatasetProfile lv = datasetProfile("MLVU-Long");
    int max_paper_frames = 0;
    int64_t max_paper_tokens = 0;
    for (const std::string &name : videoDatasetNames()) {
        const DatasetProfile p = datasetProfile(name);
        max_paper_frames = std::max(max_paper_frames, p.frames);
        max_paper_tokens =
            std::max(max_paper_tokens, p.full_visual_tokens);
    }
    EXPECT_GE(lv.frames, 2 * max_paper_frames);
    EXPECT_GE(lv.full_visual_tokens, 2 * max_paper_tokens);
    EXPECT_TRUE(lv.isVideo());
}

TEST(ServingWorkloads, ExtendedRosterRegistersLongVideo)
{
    const std::vector<std::string> ext = extendedVideoDatasetNames();
    for (const std::string &name : videoDatasetNames()) {
        EXPECT_NE(std::find(ext.begin(), ext.end(), name), ext.end());
    }
    EXPECT_NE(std::find(ext.begin(), ext.end(), "MLVU-Long"),
              ext.end());
    EXPECT_EQ(ext.size(), videoDatasetNames().size() + 1);
    // Every roster entry resolves to a profile.
    for (const std::string &name : ext) {
        EXPECT_FALSE(datasetProfile(name).name.empty());
    }
}

TEST(ServingWorkloads, StandardMixUsesHeavyTokenRegime)
{
    const std::vector<RequestClass> mix = standardServingMix();
    ASSERT_GE(mix.size(), 3u);
    bool has_long = false;
    for (const RequestClass &c : mix) {
        has_long = has_long || c.dataset == "MLVU-Long";
    }
    EXPECT_TRUE(has_long);
}

} // namespace
} // namespace focus