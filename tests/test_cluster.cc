/**
 * @file
 * Tests for the cluster serving layer (serve/cluster.h).
 *
 * The load-bearing contract is *bit-identity*: a cluster of one
 * replica with default knobs must reproduce every ServingSimulator
 * metric exactly, at every thread count and under both cycle-model
 * backends.  Around it sit property tests for the consistent-hash
 * ring (balance, minimal remapping, history independence), the
 * interconnect term's exact-zero-at-split-1 guarantee, and behaviour
 * tests for shedding, continuous batching and replica scaling.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "runtime/thread_pool.h"
#include "serve/cluster.h"
#include "sim/accel_model.h"
#include "sim/systolic.h"
#include "sim/trace.h"

namespace focus
{
namespace
{

QueueConfig
smallOpenConfig(int requests = 6, double rate_rps = 0.05)
{
    QueueConfig q;
    q.process = ArrivalProcess::OpenPoisson;
    q.arrival_rate_rps = rate_rps;
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

/** Restore the ambient cycle-model backend on scope exit. */
struct BackendGuard
{
    SimBackend saved = activeSimBackend();
    ~BackendGuard() { setSimBackend(saved); }
};

// ---- hash ring: properties ----

TEST(HashRing, RoutesDeterministicallyInRange)
{
    const HashRing ring(8);
    EXPECT_EQ(ring.replicas(), 8);
    for (int i = 0; i < 1000; ++i) {
        const std::string key = "key-" + std::to_string(i);
        const int r = ring.route(key);
        EXPECT_GE(r, 0);
        EXPECT_LT(r, 8);
        EXPECT_EQ(r, ring.route(key));
        EXPECT_EQ(r, ring.route(HashRing::hashKey(key)));
    }
}

TEST(HashRing, VirtualNodesBoundLoadImbalance)
{
    const int replicas = 8;
    const int keys = 20000;
    const HashRing ring(replicas);
    std::vector<int> hits(replicas, 0);
    for (int i = 0; i < keys; ++i) {
        hits[static_cast<size_t>(
            ring.route("prefix#" + std::to_string(i)))] += 1;
    }
    const double mean =
        static_cast<double>(keys) / static_cast<double>(replicas);
    for (int r = 0; r < replicas; ++r) {
        // Every replica owns a meaningful share...
        EXPECT_GT(hits[static_cast<size_t>(r)], 0.5 * mean);
        // ...and none dominates (64 vnodes keep max/mean modest).
        EXPECT_LT(hits[static_cast<size_t>(r)], 1.5 * mean);
    }
}

TEST(HashRing, NearIdenticalKeysStillSpread)
{
    // The serving router's real key space: a handful of class labels
    // crossed with small sequential prefix ids.  Keys differing only
    // in a short suffix must not cluster on the ring (this is why
    // hashKey finishes with an avalanche mix — bare FNV-1a fails it).
    const int replicas = 8;
    const HashRing ring(replicas);
    std::vector<int> hits(replicas, 0);
    int keys = 0;
    for (const char *cls : {"Llava-Vid/VideoMME/Focus",
                            "Llava-Vid/VideoMME/Dense",
                            "MiniCPM/MVBench/Focus",
                            "Llava-OV/MLVU-Long/Focus"}) {
        for (int p = 0; p < 64; ++p) {
            hits[static_cast<size_t>(ring.route(
                std::string(cls) + "#" + std::to_string(p)))] += 1;
            keys += 1;
        }
    }
    const double mean =
        static_cast<double>(keys) / static_cast<double>(replicas);
    for (int r = 0; r < replicas; ++r) {
        // Loose band — 256 keys carry real sampling noise — but each
        // replica must own a share, and a clustered hash (a ~4x
        // pile-up on 3 of 8 replicas) must fail loudly.
        EXPECT_GT(hits[static_cast<size_t>(r)], 0.3 * mean);
        EXPECT_LT(hits[static_cast<size_t>(r)], 2.0 * mean);
    }
}

TEST(HashRing, AddingAReplicaMovesOnlyItsShare)
{
    const int keys = 4000;
    HashRing ring(7);
    std::vector<int> before(keys);
    for (int i = 0; i < keys; ++i) {
        before[static_cast<size_t>(i)] =
            ring.route("k" + std::to_string(i));
    }
    const int added = ring.addReplica();
    EXPECT_EQ(added, 7);
    EXPECT_EQ(ring.replicas(), 8);
    int moved = 0;
    for (int i = 0; i < keys; ++i) {
        const int now = ring.route("k" + std::to_string(i));
        if (now != before[static_cast<size_t>(i)]) {
            // A key only ever moves *to* the new replica.
            EXPECT_EQ(now, added);
            moved += 1;
        }
    }
    // Expected movement is K/N = 500; allow 2x slack, but demand
    // some movement (the new replica is not idle).
    EXPECT_GT(moved, 0);
    EXPECT_LT(moved, 2 * keys / 8);
}

TEST(HashRing, RemovingAReplicaStrandsOnlyItsKeys)
{
    const int keys = 4000;
    HashRing ring(8);
    std::vector<int> before(keys);
    for (int i = 0; i < keys; ++i) {
        before[static_cast<size_t>(i)] =
            ring.route("k" + std::to_string(i));
    }
    ring.removeReplica(3);
    EXPECT_EQ(ring.replicas(), 7);
    for (int i = 0; i < keys; ++i) {
        const int now = ring.route("k" + std::to_string(i));
        if (before[static_cast<size_t>(i)] != 3) {
            // Survivors keep every key they already owned.
            EXPECT_EQ(now, before[static_cast<size_t>(i)]);
        } else {
            EXPECT_NE(now, 3);
        }
    }
}

TEST(HashRing, PlacementIndependentOfMembershipHistory)
{
    // Same member set reached three ways: directly, by shrinking,
    // and by growing.  Placement must be a pure function of the set.
    const HashRing direct(5);
    HashRing shrunk(6);
    shrunk.removeReplica(5);
    HashRing grown(3);
    grown.addReplica();
    grown.addReplica();
    ASSERT_EQ(shrunk.members(), direct.members());
    ASSERT_EQ(grown.members(), direct.members());
    for (int i = 0; i < 2000; ++i) {
        const std::string key = "key#" + std::to_string(i);
        EXPECT_EQ(shrunk.route(key), direct.route(key));
        EXPECT_EQ(grown.route(key), direct.route(key));
    }
}

TEST(HashRingDeathTest, RejectsDegenerateRings)
{
    EXPECT_EXIT(HashRing(0), ::testing::ExitedWithCode(1),
                "replica");
    EXPECT_EXIT(HashRing(-1), ::testing::ExitedWithCode(1),
                "replica");
    EXPECT_EXIT(HashRing(2, 0), ::testing::ExitedWithCode(1),
                "virtual-node");
    HashRing ring(2);
    EXPECT_EXIT(ring.removeReplica(9), ::testing::ExitedWithCode(1),
                "unknown replica");
    ring.removeReplica(0);
    EXPECT_EXIT(ring.removeReplica(1), ::testing::ExitedWithCode(1),
                "last replica");
}

TEST(ClusterDeathTest, RejectsInvalidConfigs)
{
    const QueueConfig q = smallOpenConfig();
    ServingSimulator base(q, AccelConfig::focus(), smallEval());

    ClusterConfig c0;
    c0.replicas = 0;
    EXPECT_EXIT(ClusterSimulator(base, c0),
                ::testing::ExitedWithCode(1), "replica");

    ClusterConfig bad_tp;
    bad_tp.tensor_parallel = 0;
    EXPECT_EXIT(ClusterSimulator(base, bad_tp),
                ::testing::ExitedWithCode(1),
                "invalid split factor");

    ClusterConfig bad_dp;
    bad_dp.data_parallel = -2;
    EXPECT_EXIT(ClusterSimulator(base, bad_dp),
                ::testing::ExitedWithCode(1),
                "invalid split factor");

    ClusterConfig bad_theta;
    bad_theta.continuous_theta = 1.0;
    EXPECT_EXIT(ClusterSimulator(base, bad_theta),
                ::testing::ExitedWithCode(1), "theta");

    ClusterConfig bad_shed;
    bad_shed.shed_backlog_s = -0.5;
    EXPECT_EXIT(ClusterSimulator(base, bad_shed),
                ::testing::ExitedWithCode(1), "backlog");

    ClusterConfig bad_vnodes;
    bad_vnodes.vnodes = 0;
    EXPECT_EXIT(ClusterSimulator(base, bad_vnodes),
                ::testing::ExitedWithCode(1), "virtual-node");

    QueueConfig closed = q;
    closed.process = ArrivalProcess::ClosedLoop;
    closed.clients = 2;
    ServingSimulator closed_base(closed, AccelConfig::focus(),
                                 smallEval());
    ClusterSimulator cluster(closed_base, ClusterConfig{});
    EXPECT_EXIT(cluster.run(SchedulerConfig{}),
                ::testing::ExitedWithCode(1), "open-loop");
}

// ---- cluster of one: bit-identity ----

void
expectReportsIdentical(const ServingReport &a, const ServingReport &b)
{
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.makespan_s, b.makespan_s);
    EXPECT_EQ(a.throughput_rps, b.throughput_rps);
    EXPECT_EQ(a.latency.mean, b.latency.mean);
    EXPECT_EQ(a.latency.p50, b.latency.p50);
    EXPECT_EQ(a.latency.p95, b.latency.p95);
    EXPECT_EQ(a.latency.p99, b.latency.p99);
    EXPECT_EQ(a.latency.max, b.latency.max);
    EXPECT_EQ(a.mean_occupancy, b.mean_occupancy);
    EXPECT_EQ(a.slo_attainment, b.slo_attainment);
    EXPECT_EQ(a.shed, b.shed);

    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (size_t i = 0; i < a.outcomes.size(); ++i) {
        const RequestOutcome &x = a.outcomes[i];
        const RequestOutcome &y = b.outcomes[i];
        EXPECT_EQ(x.id, y.id);
        EXPECT_EQ(x.class_id, y.class_id);
        EXPECT_EQ(x.batch_id, y.batch_id);
        EXPECT_EQ(x.batch_size, y.batch_size);
        EXPECT_EQ(x.arrival_s, y.arrival_s);
        EXPECT_EQ(x.start_s, y.start_s);
        EXPECT_EQ(x.finish_s, y.finish_s);
        EXPECT_EQ(x.slo_met, y.slo_met);
        EXPECT_EQ(x.shed, y.shed);
    }

    ASSERT_EQ(a.batches.size(), b.batches.size());
    for (size_t i = 0; i < a.batches.size(); ++i) {
        const BatchRecord &x = a.batches[i];
        const BatchRecord &y = b.batches[i];
        EXPECT_EQ(x.request_ids, y.request_ids);
        EXPECT_EQ(x.ready_s, y.ready_s);
        EXPECT_EQ(x.start_s, y.start_s);
        EXPECT_EQ(x.service_s, y.service_s);
        EXPECT_EQ(x.metrics.cycles, y.metrics.cycles);
        EXPECT_EQ(x.metrics.dramTotalBytes(),
                  y.metrics.dramTotalBytes());
    }

    ASSERT_EQ(a.classes.size(), b.classes.size());
    for (size_t i = 0; i < a.classes.size(); ++i) {
        const ClassOutcome &x = a.classes[i];
        const ClassOutcome &y = b.classes[i];
        EXPECT_EQ(x.label, y.label);
        EXPECT_EQ(x.requests, y.requests);
        EXPECT_EQ(x.shed, y.shed);
        EXPECT_EQ(x.accuracy, y.accuracy);
        EXPECT_EQ(x.mean_latency_s, y.mean_latency_s);
        EXPECT_EQ(x.slo_attainment, y.slo_attainment);
        EXPECT_EQ(x.solo_latency_s, y.solo_latency_s);
    }
}

TEST(ClusterEquivalence, ClusterOfOneIsBitIdenticalToServingSim)
{
    const QueueConfig q = smallOpenConfig(6);
    SchedulerConfig sched;
    sched.policy = BatchPolicy::Timeout;
    sched.max_batch = 4;
    sched.timeout_s = 25.0;

    BackendGuard guard;
    for (const SimBackend backend :
         {SimBackend::Walk, SimBackend::Fast}) {
        setSimBackend(backend);
        for (const int threads : {1, 4}) {
            ThreadPool pool(threads);

            ServingSimulator ref(q, AccelConfig::focus(),
                                 smallEval());
            const ServingReport expect = ref.run(sched, &pool);

            ServingSimulator base(q, AccelConfig::focus(),
                                  smallEval());
            ClusterConfig one;
            one.replicas = 1;
            ClusterSimulator cluster(base, one);
            const ClusterReport got = cluster.run(sched, &pool);

            expectReportsIdentical(expect, got.merged);
            EXPECT_EQ(got.admitted, 6);
            EXPECT_EQ(got.shed, 0);
            EXPECT_EQ(got.shed_rate, 0.0);
            EXPECT_EQ(got.load_imbalance, 1.0);
            EXPECT_EQ(got.interconnect_bytes, 0u);
            ASSERT_EQ(got.replicas.size(), 1u);
            EXPECT_EQ(got.replicas[0].routed, 6);
            EXPECT_EQ(got.replicas[0].batches,
                      static_cast<int>(expect.batches.size()));
            EXPECT_EQ(got.replicas[0].makespan_s, expect.makespan_s);
            for (const BatchRecord &b : got.merged.batches) {
                EXPECT_EQ(b.replica, 0);
            }
        }
    }
}

TEST(ClusterEquivalence, RoundRobinRoutingMatchesHashRingOfOne)
{
    const QueueConfig q = smallOpenConfig(6);
    const SchedulerConfig sched;
    ServingSimulator base(q, AccelConfig::focus(), smallEval());

    ClusterConfig ring_cfg;
    ClusterConfig rr_cfg;
    rr_cfg.routing = RoutingPolicy::RoundRobin;
    const ClusterReport a =
        ClusterSimulator(base, ring_cfg).run(sched);
    const ClusterReport b =
        ClusterSimulator(base, rr_cfg).run(sched);
    expectReportsIdentical(a.merged, b.merged);
}

// ---- multi-replica behaviour ----

TEST(Cluster, RoundRobinSpreadsRequestsEvenly)
{
    const QueueConfig q = smallOpenConfig(9, 0.5);
    ServingSimulator base(q, AccelConfig::focus(), smallEval());
    ClusterConfig cfg;
    cfg.replicas = 3;
    cfg.routing = RoutingPolicy::RoundRobin;
    const ClusterReport rep =
        ClusterSimulator(base, cfg).run(SchedulerConfig{});
    ASSERT_EQ(rep.replicas.size(), 3u);
    for (const ReplicaStats &rs : rep.replicas) {
        EXPECT_EQ(rs.routed, 3);
    }
    EXPECT_EQ(rep.load_imbalance, 1.0);
    EXPECT_EQ(rep.shed, 0);
}

TEST(Cluster, HashRoutingKeepsPrefixAffinity)
{
    // Same (class, prefix) key always lands on the same replica.
    const QueueConfig q = smallOpenConfig(24, 0.5);
    const std::vector<ServeRequest> stream =
        RequestQueue(q).generate();
    const HashRing ring(4);
    std::map<std::string, int> seen;
    for (const ServeRequest &r : stream) {
        const RequestClass &cls =
            q.mix[static_cast<size_t>(r.class_id)];
        const std::string key = prefixKey(r, cls);
        const int replica = ring.route(key);
        const auto it = seen.find(key);
        if (it != seen.end()) {
            EXPECT_EQ(it->second, replica);
        } else {
            seen.emplace(key, replica);
        }
    }
}

TEST(Cluster, MoreReplicasNeverSlowTheFleet)
{
    const QueueConfig q = smallOpenConfig(10, 1.0);
    ServingSimulator base(q, AccelConfig::focus(), smallEval());
    // Single policy: removing requests from a FIFO server never
    // delays the rest, so sharding monotonically helps (batching
    // policies add timeout-flush dynamics that can mask this).
    SchedulerConfig sched;
    sched.policy = BatchPolicy::Single;

    double prev_makespan = 0.0;
    bool first = true;
    for (const int replicas : {1, 2, 4}) {
        ClusterConfig cfg;
        cfg.replicas = replicas;
        cfg.routing = RoutingPolicy::RoundRobin;
        const ClusterReport rep =
            ClusterSimulator(base, cfg).run(sched);
        EXPECT_EQ(rep.merged.outcomes.size(), 10u);
        EXPECT_EQ(rep.shed, 0);
        if (!first) {
            EXPECT_LE(rep.merged.makespan_s, prev_makespan);
        }
        prev_makespan = rep.merged.makespan_s;
        first = false;
    }
}

TEST(Cluster, SheddingBoundsBacklogAndCountsMisses)
{
    // An overloaded single replica with a tight backlog bound must
    // shed, and everything it sheds counts as an SLO miss.
    const QueueConfig q = smallOpenConfig(12, 100.0);
    ServingSimulator base(q, AccelConfig::focus(), smallEval());

    ClusterConfig tight;
    tight.shed_backlog_s = 1.0;
    const ClusterReport shed_rep =
        ClusterSimulator(base, tight).run(SchedulerConfig{});
    EXPECT_GT(shed_rep.shed, 0);
    EXPECT_EQ(shed_rep.admitted + shed_rep.shed, 12);
    EXPECT_EQ(shed_rep.merged.shed, shed_rep.shed);
    EXPECT_EQ(shed_rep.merged.outcomes.size(), 12u);

    int shed_seen = 0;
    for (const RequestOutcome &o : shed_rep.merged.outcomes) {
        if (o.shed) {
            shed_seen += 1;
            EXPECT_FALSE(o.slo_met);
            EXPECT_EQ(o.batch_id, -1);
            EXPECT_EQ(o.finish_s, o.arrival_s);
        }
    }
    EXPECT_EQ(shed_seen, shed_rep.shed);

    int class_shed = 0;
    for (const ClassOutcome &c : shed_rep.merged.classes) {
        class_shed += c.shed;
    }
    EXPECT_EQ(class_shed, shed_rep.shed);

    // A looser bound sheds no more than a tighter one; no bound
    // sheds nothing.
    ClusterConfig loose = tight;
    loose.shed_backlog_s = 1e9;
    const ClusterReport loose_rep =
        ClusterSimulator(base, loose).run(SchedulerConfig{});
    EXPECT_LE(loose_rep.shed, shed_rep.shed);

    const ClusterReport open_rep =
        ClusterSimulator(base, ClusterConfig{})
            .run(SchedulerConfig{});
    EXPECT_EQ(open_rep.shed, 0);
    // Shedding can only improve the served latency tail.
    EXPECT_LE(shed_rep.merged.latency.p99,
              open_rep.merged.latency.p99);
}

TEST(Cluster, TensorParallelAddsInterconnectAndCutsMakespan)
{
    const QueueConfig q = smallOpenConfig(6, 1.0);
    ServingSimulator base(q, AccelConfig::focus(), smallEval());
    const SchedulerConfig sched;

    ClusterConfig plain;
    const ClusterReport unsplit =
        ClusterSimulator(base, plain).run(sched);
    // The interconnect term is *exactly* zero without a split.
    EXPECT_EQ(unsplit.interconnect_bytes, 0u);
    for (const BatchRecord &b : unsplit.merged.batches) {
        EXPECT_EQ(b.metrics.interconnect_bytes, 0u);
        EXPECT_EQ(b.metrics.interconnect_cycles, 0u);
        EXPECT_EQ(b.metrics.energy.interconnect, 0.0);
    }

    ClusterConfig tp2 = plain;
    tp2.tensor_parallel = 2;
    const ClusterReport split =
        ClusterSimulator(base, tp2).run(sched);
    EXPECT_GT(split.interconnect_bytes, 0u);
    // Each shard computes roughly half a layer between collectives,
    // so batches finish faster despite the interconnect tax.
    EXPECT_LT(split.merged.makespan_s, unsplit.merged.makespan_s);
    for (const BatchRecord &b : split.merged.batches) {
        EXPECT_GT(b.metrics.interconnect_bytes, 0u);
        EXPECT_GT(b.metrics.interconnect_cycles, 0u);
    }
}

TEST(Cluster, LayerCyclesPartitionTotalCycles)
{
    const QueueConfig q = smallOpenConfig(4);
    ServingSimulator base(q, AccelConfig::focus(), smallEval());
    ClusterSimulator cluster(base, ClusterConfig{});
    const ClusterReport rep = cluster.run(SchedulerConfig{});
    for (const BatchRecord &b : rep.merged.batches) {
        ASSERT_FALSE(b.metrics.layer_cycles.empty());
        uint64_t sum = 0;
        for (const uint64_t c : b.metrics.layer_cycles) {
            sum += c;
        }
        EXPECT_EQ(sum, b.metrics.cycles);
    }
}

TEST(Cluster, ContinuousBatchingNeverStretchesTheMakespan)
{
    // Launching at the SEC knee can only overlap work that serial
    // boundaries would serialize.
    const QueueConfig q = smallOpenConfig(10, 2.0);
    ServingSimulator base(q, AccelConfig::focus(), smallEval());
    SchedulerConfig sched;
    sched.policy = BatchPolicy::FixedSize;
    sched.max_batch = 2;

    ClusterConfig serial;
    const ClusterReport serial_rep =
        ClusterSimulator(base, serial).run(sched);

    ClusterConfig cont;
    cont.continuous_theta = 0.5;
    const ClusterReport cont_rep =
        ClusterSimulator(base, cont).run(sched);

    EXPECT_GT(cont_rep.merged.makespan_s, 0.0);
    EXPECT_LE(cont_rep.merged.makespan_s,
              serial_rep.merged.makespan_s);
    EXPECT_EQ(cont_rep.merged.outcomes.size(), 10u);
    for (const RequestOutcome &o : cont_rep.merged.outcomes) {
        EXPECT_GE(o.start_s, o.arrival_s);
        EXPECT_GT(o.finish_s, o.start_s);
    }
}

/**
 * Oracle for a serial-boundary split replay: every batch's cost is
 * recomputed directly — splitDataParallel -> splitTensorParallel ->
 * simulateAccelerator, keeping the slowest shard and summing every
 * shard's interconnect — and must equal the recorded batch, and the
 * fleet's interconnect total must equal the sum over batches.
 */
void
expectSplitCostsMatchOracle(ServingSimulator &base,
                            const ClusterReport &rep, int tp, int dp)
{
    std::map<int64_t, const RequestOutcome *> by_id;
    for (const RequestOutcome &o : rep.merged.outcomes) {
        by_id[o.id] = &o;
    }
    uint64_t interconnect = 0;
    size_t largest = 0;
    for (const BatchRecord &b : rep.merged.batches) {
        largest = std::max(largest, b.request_ids.size());
        std::vector<const WorkloadTrace *> parts;
        for (const int64_t id : b.request_ids) {
            const RequestOutcome &o = *by_id.at(id);
            parts.push_back(&base.codeTrace(ServingSimulator::comboCode(
                base.classCombo(o.class_id), o.prefix_hit)));
        }
        const int groups =
            std::min(dp, static_cast<int>(parts.size()));
        double worst = -1.0;
        uint64_t cycles = 0;
        for (const WorkloadTrace &g : splitDataParallel(parts, groups)) {
            for (const WorkloadTrace &sh : splitTensorParallel(g, tp)) {
                const RunMetrics m =
                    simulateAccelerator(AccelConfig::focus(), sh);
                interconnect += m.interconnect_bytes;
                if (m.seconds() > worst) {
                    worst = m.seconds();
                    cycles = m.cycles;
                }
            }
        }
        EXPECT_EQ(b.metrics.cycles, cycles);
        EXPECT_EQ(b.service_s, worst);
    }
    EXPECT_EQ(rep.interconnect_bytes, interconnect);
    // Some batch must actually split across data-parallel groups.
    EXPECT_GT(largest, 1u);
}

TEST(Cluster, AdvancedKnobsStayThreadDeterministic)
{
    const QueueConfig q = smallOpenConfig(8, 1.0);
    SchedulerConfig sched;
    sched.policy = BatchPolicy::Timeout;
    sched.max_batch = 4;

    // Continuous batching with shedding, then serial batch
    // boundaries on a tp x dp split engine — the replica replay that
    // pre-costs its split compositions across the pool.
    ClusterConfig continuous;
    continuous.replicas = 2;
    continuous.tensor_parallel = 2;
    continuous.continuous_theta = 0.3;
    continuous.shed_backlog_s = 500.0;
    ClusterConfig split;
    split.replicas = 2;
    split.tensor_parallel = 2;
    split.data_parallel = 2;

    for (const ClusterConfig &cfg : {continuous, split}) {
        ThreadPool pool1(1);
        ServingSimulator base1(q, AccelConfig::focus(), smallEval());
        const ClusterReport a =
            ClusterSimulator(base1, cfg).run(sched, &pool1);

        ThreadPool pool4(4);
        ServingSimulator base4(q, AccelConfig::focus(), smallEval());
        const ClusterReport b =
            ClusterSimulator(base4, cfg).run(sched, &pool4);

        expectReportsIdentical(a.merged, b.merged);
        EXPECT_EQ(a.interconnect_bytes, b.interconnect_bytes);
        EXPECT_GT(a.interconnect_bytes, 0u);
        EXPECT_EQ(a.shed, b.shed);
        ASSERT_EQ(a.replicas.size(), b.replicas.size());
        for (size_t r = 0; r < a.replicas.size(); ++r) {
            EXPECT_EQ(a.replicas[r].routed, b.replicas[r].routed);
            EXPECT_EQ(a.replicas[r].busy_s, b.replicas[r].busy_s);
            EXPECT_EQ(a.replicas[r].interconnect_bytes,
                      b.replicas[r].interconnect_bytes);
        }
        if (cfg.continuous_theta <= 0.0) {
            expectSplitCostsMatchOracle(base1, a, cfg.tensor_parallel,
                                        cfg.data_parallel);
        }
    }
}

} // namespace
} // namespace focus
