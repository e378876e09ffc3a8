/**
 * @file
 * Tests for the cross-request prefix cache tier: the cache proper
 * (doorkeeper admission, LRU-within-a-byte-budget, stats), the
 * prefix-cached trace transform, Zipf-skewed prefix identities, and
 * the serving/cluster integration contracts — a zero budget (the
 * cache's only off switch) reproduces the no-cache replay bit for bit
 * at every thread count, hits reduce latency, hash-affinity routing
 * beats round-robin on hit rate, and a cluster of one replica with a
 * cache matches the single box with the same cache.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "runtime/thread_pool.h"
#include "serve/cluster.h"
#include "serve/prefix_cache.h"
#include "serve/serving_sim.h"
#include "sim/trace.h"
#include "workload/profiles.h"

namespace focus
{
namespace
{

/** A slab of rows x cols 16-bit values with a fixed seed. */
SlabSpec
slab(int64_t rows, int64_t cols)
{
    SlabSpec s;
    s.rows = rows;
    s.cols = cols;
    s.full_bytes = rows * cols * 64;
    s.seed = 7;
    return s;
}

PrefixCacheConfig
ampleConfig()
{
    PrefixCacheConfig cfg;
    cfg.budget_bytes = 1 << 20;
    return cfg;
}

QueueConfig
cachedOpenConfig(int requests, int cardinality = 4)
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
    focus_cls.prefix_cardinality = cardinality;
    focus_cls.prefix_zipf = 0.9;
    q.mix.push_back(focus_cls);

    RequestClass dense_cls;
    dense_cls.model = "Llava-Vid";
    dense_cls.dataset = "VideoMME";
    dense_cls.method = MethodConfig::dense();
    dense_cls.weight = 1.0;
    dense_cls.slo_latency_s = 480.0;
    dense_cls.prefix_cardinality = cardinality;
    dense_cls.prefix_zipf = 0.9;
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

SchedulerConfig
timeoutSched()
{
    SchedulerConfig sched;
    sched.policy = BatchPolicy::Timeout;
    sched.max_batch = 3;
    sched.timeout_s = 30.0;
    return sched;
}

/** Every numeric field of two reports must match bit for bit. */
void
expectReportsIdentical(const ServingReport &a, const ServingReport &b)
{
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (size_t i = 0; i < a.outcomes.size(); ++i) {
        EXPECT_EQ(a.outcomes[i].arrival_s, b.outcomes[i].arrival_s);
        EXPECT_EQ(a.outcomes[i].start_s, b.outcomes[i].start_s);
        EXPECT_EQ(a.outcomes[i].finish_s, b.outcomes[i].finish_s);
        EXPECT_EQ(a.outcomes[i].batch_id, b.outcomes[i].batch_id);
        EXPECT_EQ(a.outcomes[i].prefix_hit, b.outcomes[i].prefix_hit);
    }
    ASSERT_EQ(a.batches.size(), b.batches.size());
    for (size_t i = 0; i < a.batches.size(); ++i) {
        EXPECT_EQ(a.batches[i].metrics.cycles,
                  b.batches[i].metrics.cycles);
        EXPECT_EQ(a.batches[i].service_s, b.batches[i].service_s);
        EXPECT_EQ(a.batches[i].start_s, b.batches[i].start_s);
    }
    EXPECT_EQ(a.makespan_s, b.makespan_s);
    EXPECT_EQ(a.throughput_rps, b.throughput_rps);
    EXPECT_EQ(a.latency.mean, b.latency.mean);
    EXPECT_EQ(a.latency.p50, b.latency.p50);
    EXPECT_EQ(a.latency.p95, b.latency.p95);
    EXPECT_EQ(a.latency.p99, b.latency.p99);
    EXPECT_EQ(a.slo_attainment, b.slo_attainment);
    EXPECT_EQ(a.prefix_cache.lookups, b.prefix_cache.lookups);
    EXPECT_EQ(a.prefix_cache.hits, b.prefix_cache.hits);
    EXPECT_EQ(a.prefix_cache.misses, b.prefix_cache.misses);
    EXPECT_EQ(a.prefix_cache.admissions, b.prefix_cache.admissions);
    EXPECT_EQ(a.prefix_cache.evictions, b.prefix_cache.evictions);
    EXPECT_EQ(a.prefix_cache.bytes_resident,
              b.prefix_cache.bytes_resident);
    EXPECT_EQ(a.prefix_cache.err_sum, b.prefix_cache.err_sum);
    ASSERT_EQ(a.classes.size(), b.classes.size());
    for (size_t c = 0; c < a.classes.size(); ++c) {
        EXPECT_EQ(a.classes[c].mean_latency_s,
                  b.classes[c].mean_latency_s);
        EXPECT_EQ(a.classes[c].prefix_hits, b.classes[c].prefix_hits);
    }
}

// Death tests first (by convention): forking is cleanest before
// other tests have started pool threads.
TEST(PrefixCacheDeathTest, RejectsDegenerateInputs)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(
        {
            const ModelProfile mp = modelProfile("Llava-Vid");
            const DatasetProfile dp = datasetProfile("VideoMME");
            WorkloadTrace tr = buildDenseTrace(mp, dp);
            tr.batch_size = 2;
            applyPrefixCache(tr);
        },
        "single-query");
    EXPECT_DEATH(
        {
            PrefixCache c(ampleConfig());
            c.admit("k", slab(0, 8));
        },
        "empty slab");
}

// ---------------------------------------------------------------
// cache proper
// ---------------------------------------------------------------

TEST(PrefixCache, DoorkeeperAdmitsOnSecondMiss)
{
    PrefixCache c(ampleConfig());
    ASSERT_TRUE(c.enabled());

    EXPECT_FALSE(c.lookup("a"));
    c.admit("a", slab(64, 64)); // first miss: sketch only
    EXPECT_FALSE(c.lookup("a"));
    c.admit("a", slab(64, 64)); // second miss: stored
    EXPECT_TRUE(c.lookup("a"));

    const PrefixCacheStats s = c.stats();
    EXPECT_EQ(s.lookups, 3);
    EXPECT_EQ(s.hits, 1);
    EXPECT_EQ(s.misses, 2);
    EXPECT_EQ(s.admissions, 1);
    EXPECT_EQ(s.rejected, 1); // the doorkeeper absorption
    EXPECT_EQ(s.evictions, 0);
    EXPECT_EQ(s.bytes_resident, 64 * 64 * 2);
    EXPECT_EQ(s.full_bytes_resident, slab(64, 64).full_bytes);
    EXPECT_EQ(s.err_slabs, 1);
    // fp16 round-trip of gaussian values: small but nonzero error.
    EXPECT_GT(s.meanRoundTripError(), 0.0);
    EXPECT_LT(s.meanRoundTripError(), 1e-2);
}

TEST(PrefixCache, LruEvictionWithinByteBudget)
{
    // Budget fits exactly two 8 KiB slabs.
    PrefixCacheConfig cfg;
    cfg.budget_bytes = 2 * 64 * 64 * 2;
    PrefixCache c(cfg);

    const auto store = [&](const std::string &key) {
        EXPECT_FALSE(c.lookup(key));
        c.admit(key, slab(64, 64));
        EXPECT_FALSE(c.lookup(key));
        c.admit(key, slab(64, 64));
    };
    store("a");
    store("b");
    store("c"); // evicts "a" (least recently used)

    EXPECT_TRUE(c.lookup("b"));
    EXPECT_TRUE(c.lookup("c"));
    EXPECT_FALSE(c.lookup("a"));
    const PrefixCacheStats s = c.stats();
    EXPECT_EQ(s.evictions, 1);
    EXPECT_EQ(s.bytes_resident, cfg.budget_bytes);
    EXPECT_EQ(s.bytes_peak, cfg.budget_bytes);

    // "a" re-admits immediately (its sketch bits are still set) and
    // evicts the now-LRU "b" — the lookup above touched c after b.
    c.admit("a", slab(64, 64));
    EXPECT_TRUE(c.lookup("a"));
    EXPECT_TRUE(c.lookup("c"));
    EXPECT_FALSE(c.lookup("b"));
}

TEST(PrefixCache, OversizedSlabIsRejectedNotStored)
{
    PrefixCacheConfig cfg;
    cfg.budget_bytes = 1024;
    PrefixCache c(cfg);
    c.admit("big", slab(64, 64)); // sketch
    c.admit("big", slab(64, 64)); // 8 KiB > 1 KiB budget
    EXPECT_FALSE(c.lookup("big"));
    EXPECT_EQ(c.stats().admissions, 0);
    EXPECT_EQ(c.stats().rejected, 2);
    EXPECT_EQ(c.stats().bytes_resident, 0);
}

TEST(PrefixCache, DisabledCacheCountsNothing)
{
    // A zero budget (the default) disables the cache.
    PrefixCacheConfig zero;
    PrefixCache z(zero);
    EXPECT_FALSE(z.enabled());
    EXPECT_FALSE(z.lookup("a"));
    z.admit("a", slab(64, 64));
    EXPECT_EQ(z.stats().lookups, 0);
    EXPECT_EQ(z.stats().misses, 0);
    EXPECT_EQ(z.stats().admissions, 0);
    EXPECT_EQ(z.stats().rejected, 0);
}

TEST(PrefixCache, Bf16SlabsCarryLargerRoundTripError)
{
    PrefixCacheConfig f16 = ampleConfig();
    PrefixCacheConfig bf16 = ampleConfig();
    bf16.format = SlabFormat::Bf16;
    PrefixCache a(f16), b(bf16);
    a.admit("k", slab(64, 64));
    a.admit("k", slab(64, 64));
    b.admit("k", slab(64, 64));
    b.admit("k", slab(64, 64));
    // Same payload (same key seed); bf16 keeps 8 mantissa bits to
    // fp16's 11, so its round-trip error is strictly larger.
    EXPECT_GT(b.stats().meanRoundTripError(),
              a.stats().meanRoundTripError());
}

// ---------------------------------------------------------------
// trace transform
// ---------------------------------------------------------------

TEST(PrefixCachedTrace, MovesVisualRowsToCachedContext)
{
    const ModelProfile mp = modelProfile("Llava-Vid");
    const DatasetProfile dp = datasetProfile("VideoMME");
    const WorkloadTrace base = buildDenseTrace(mp, dp);
    const WorkloadTrace hit = applyPrefixCache(base);

    ASSERT_EQ(hit.layers.size(), base.layers.size());
    EXPECT_EQ(hit.visual0, 0);
    EXPECT_TRUE(hit.tile_fracs.empty());
    for (size_t l = 0; l < hit.layers.size(); ++l) {
        const LayerEvents &hl = hit.layers[l];
        const LayerEvents &bl = base.layers[l];
        EXPECT_EQ(hl.cached_visual, bl.visual_in);
        EXPECT_EQ(hl.visual_in, 0);
        EXPECT_EQ(hl.visual_out, 0);
        EXPECT_EQ(hl.sec_topk, 0);
        EXPECT_EQ(hl.text, bl.text);
        for (const GemmEvent &g : hl.gemms) {
            EXPECT_EQ(g.psi_in, 1.0);
            EXPECT_FALSE(g.gather_out);
            switch (g.site) {
              case GemmSite::Qk:
                // Every original key survives as attention context.
                EXPECT_EQ(g.m, bl.text);
                EXPECT_EQ(g.n, bl.text + bl.visual_in);
                break;
              case GemmSite::Pv:
                EXPECT_EQ(g.m, bl.text);
                EXPECT_EQ(g.k, bl.text + bl.visual_in);
                break;
              default:
                // Projections/FFN cover only the text rows.
                EXPECT_EQ(g.m, bl.text);
                break;
            }
        }
    }

    // A hit costs strictly less than recomputing the prefix…
    const AccelConfig accel = AccelConfig::focus();
    const RunMetrics mb = simulateAccelerator(accel, base);
    const RunMetrics mh = simulateAccelerator(accel, hit);
    EXPECT_LT(mh.seconds(), mb.seconds());
    // …but still pays the cached-KV attention streaming: more DRAM
    // traffic than a text-only request with no cached context.
    WorkloadTrace text_only = applyPrefixCache(base);
    for (LayerEvents &l : text_only.layers) {
        l.cached_visual = 0;
        for (GemmEvent &g : l.gemms) {
            if (g.site == GemmSite::Qk) {
                g.n = l.text;
            }
            if (g.site == GemmSite::Pv) {
                g.k = l.text;
            }
        }
    }
    const RunMetrics mt = simulateAccelerator(accel, text_only);
    EXPECT_GT(mh.dramTotalBytes(), mt.dramTotalBytes());
    EXPECT_GT(mh.sfu_ops, mt.sfu_ops);
}

// ---------------------------------------------------------------
// Zipf prefix identities
// ---------------------------------------------------------------

TEST(RequestQueue, ZipfSkewsPrefixPopularity)
{
    QueueConfig q = cachedOpenConfig(600, 16);
    q.mix[0].prefix_zipf = 1.2;
    q.mix[1].prefix_zipf = 1.2;
    const std::vector<ServeRequest> s = RequestQueue(q).generate();
    std::map<int64_t, int> freq;
    for (const ServeRequest &r : s) {
        ASSERT_GE(r.prefix_id, 0);
        ASSERT_LT(r.prefix_id, 16);
        freq[r.prefix_id] += 1;
    }
    // Rank 0 is the hottest identity by a wide margin.
    EXPECT_GT(freq[0], freq[8] * 2);
    EXPECT_GT(freq[0], freq[15]);

    // zipf = 0 keeps the historical uniform draw (and its exact RNG
    // consumption): same seed, same class sequence, ids in range.
    QueueConfig u = q;
    u.mix[0].prefix_zipf = 0.0;
    u.mix[1].prefix_zipf = 0.0;
    const std::vector<ServeRequest> us = RequestQueue(u).generate();
    for (size_t i = 0; i < us.size(); ++i) {
        EXPECT_EQ(us[i].class_id, s[i].class_id);
        EXPECT_EQ(us[i].arrival_s, s[i].arrival_s);
        EXPECT_LT(us[i].prefix_id, 16);
    }
}

TEST(RequestQueue, PrefixKeyJoinsClassLabelAndPrefixId)
{
    const QueueConfig q = cachedOpenConfig(8);
    const std::vector<ServeRequest> s = RequestQueue(q).generate();
    for (const ServeRequest &r : s) {
        const RequestClass &cls =
            q.mix[static_cast<size_t>(r.class_id)];
        const std::string key = prefixKey(r, cls);
        EXPECT_EQ(key, cls.label() + "#" +
                           std::to_string(r.prefix_id));
    }
}

// ---------------------------------------------------------------
// serving integration
// ---------------------------------------------------------------

TEST(ServingPrefixCache, ZeroBudgetIsBitIdentical)
{
    const QueueConfig q = cachedOpenConfig(12);
    const SchedulerConfig sched = timeoutSched();

    // Baseline: no cache configured at all (the pre-cache path).
    ServingSimulator base(q, AccelConfig::focus(), smallEval());
    const ServingReport r_base = base.run(sched);

    // Zero budget: cache object exists but stores nothing.
    ServingSimulator zero(q, AccelConfig::focus(), smallEval());
    zero.setPrefixCache(PrefixCacheConfig{});
    const ServingReport r_zero = zero.run(sched);
    expectReportsIdentical(r_base, r_zero);

    // And the baseline itself is thread-count invariant.
    ThreadPool p4(4);
    ServingSimulator base4(q, AccelConfig::focus(), smallEval());
    const ServingReport r4 = base4.run(sched, &p4);
    expectReportsIdentical(r_base, r4);
}

TEST(ServingPrefixCache, HitsReduceLatencyAndAreThreadInvariant)
{
    const QueueConfig q = cachedOpenConfig(16);
    const SchedulerConfig sched = timeoutSched();

    ServingSimulator plain(q, AccelConfig::focus(), smallEval());
    const ServingReport r_plain = plain.run(sched);

    ServingSimulator cached(q, AccelConfig::focus(), smallEval());
    cached.setPrefixCache(ampleConfig());
    const ServingReport r_cached = cached.run(sched);

    // Hot prefixes repeat within 16 Zipf(0.9) draws over 4 ids, so
    // the cache must convert some of them.
    EXPECT_GT(r_cached.prefix_cache.lookups, 0);
    EXPECT_GT(r_cached.prefix_cache.hits, 0);
    EXPECT_GT(r_cached.prefix_cache.admissions, 0);
    int hit_outcomes = 0;
    int class_hits = 0;
    for (const RequestOutcome &o : r_cached.outcomes) {
        hit_outcomes += o.prefix_hit ? 1 : 0;
    }
    for (const ClassOutcome &c : r_cached.classes) {
        class_hits += c.prefix_hits;
    }
    EXPECT_EQ(hit_outcomes,
              static_cast<int>(r_cached.prefix_cache.hits));
    EXPECT_EQ(class_hits, hit_outcomes);

    // Hits skip the prefix recomputation, so the replay gets faster:
    // batch membership is identical, every batch costs at most the
    // uncached fusion, and the hit batches cost strictly less.
    ASSERT_EQ(r_cached.batches.size(), r_plain.batches.size());
    EXPECT_LT(r_cached.latency.mean, r_plain.latency.mean);
    EXPECT_LE(r_cached.latency.p95, r_plain.latency.p95);
    EXPECT_LE(r_cached.makespan_s, r_plain.makespan_s);

    // The per-class hit-solo reference is cheaper than the solo.
    for (int cls = 0; cls < 2; ++cls) {
        EXPECT_LT(cached.classHitSolo(cls).seconds(),
                  cached.classSolo(cls).seconds());
    }

    // Same enabled cache, 4 threads: bit-identical (the cache
    // pre-pass is serial by construction).
    ThreadPool p4(4);
    ServingSimulator cached4(q, AccelConfig::focus(), smallEval());
    cached4.setPrefixCache(ampleConfig());
    const ServingReport r4 = cached4.run(sched, &p4);
    expectReportsIdentical(r_cached, r4);
}

TEST(ServingPrefixCache, HitRateGrowsWithBudget)
{
    const QueueConfig q = cachedOpenConfig(24, 8);
    const SchedulerConfig sched = timeoutSched();
    ServingSimulator sim(q, AccelConfig::focus(), smallEval());

    // One simulator sweeps budgets, sharing calibration and the
    // composition cache across runs.
    const int64_t slab_bytes =
        sim.comboSlabSpec(sim.classCombo(0), "probe").bytes();
    double prev_rate = -1.0;
    for (const int64_t budget :
         {slab_bytes, 4 * slab_bytes, 64 * slab_bytes}) {
        PrefixCacheConfig cfg;
        cfg.budget_bytes = budget;
        sim.setPrefixCache(cfg);
        const ServingReport rep = sim.run(sched);
        EXPECT_GE(rep.prefix_cache.hitRate(), prev_rate);
        EXPECT_LE(rep.prefix_cache.bytes_resident, budget);
        EXPECT_LE(rep.prefix_cache.bytes_peak, budget);
        prev_rate = rep.prefix_cache.hitRate();
    }
    EXPECT_GT(prev_rate, 0.0);
}

// ---------------------------------------------------------------
// cluster integration
// ---------------------------------------------------------------

TEST(ClusterPrefixCache, ClusterOfOneMatchesSingleBox)
{
    const QueueConfig q = cachedOpenConfig(12);
    const SchedulerConfig sched = timeoutSched();

    ServingSimulator sim(q, AccelConfig::focus(), smallEval());
    sim.setPrefixCache(ampleConfig());
    const ServingReport single = sim.run(sched);

    ClusterConfig cc;
    cc.replicas = 1;
    cc.prefix_cache = ampleConfig();
    ClusterSimulator cluster(sim, cc);
    const ClusterReport rep = cluster.run(sched);

    expectReportsIdentical(single, rep.merged);
    ASSERT_EQ(rep.replicas.size(), 1u);
    EXPECT_EQ(rep.replicas[0].prefix_hits, single.prefix_cache.hits);
    EXPECT_EQ(rep.replicas[0].prefix_misses,
              single.prefix_cache.misses);
}

TEST(ClusterPrefixCache, HashAffinityBeatsRoundRobinHitRate)
{
    // 4 replicas, enough requests that hot prefixes repeat per
    // replica under affinity routing.
    const QueueConfig q = cachedOpenConfig(48, 8);
    const SchedulerConfig sched = timeoutSched();
    ServingSimulator sim(q, AccelConfig::focus(), smallEval());

    ClusterConfig hashed;
    hashed.replicas = 4;
    hashed.routing = RoutingPolicy::HashRing;
    hashed.prefix_cache = ampleConfig();
    const ClusterReport r_hash = ClusterSimulator(sim, hashed).run(sched);

    ClusterConfig rr = hashed;
    rr.routing = RoutingPolicy::RoundRobin;
    const ClusterReport r_rr = ClusterSimulator(sim, rr).run(sched);

    // Affinity routing sends every repeat of a prefix to the replica
    // holding its slab; round-robin scatters repeats across all four
    // caches (each paying its own doorkeeper) and forfeits hits.
    EXPECT_GT(r_hash.prefix_cache.hits, 0);
    EXPECT_GT(r_hash.prefix_cache.hitRate(),
              r_rr.prefix_cache.hitRate());

    // A tensor-parallel split replays through the same open-loop
    // path: it resolves the cache identically (same hits as the
    // unsplit fleet) and stays deterministic across thread counts.
    ClusterConfig tp = hashed;
    tp.tensor_parallel = 2;
    const ClusterReport r_tp1 = ClusterSimulator(sim, tp).run(sched);
    ThreadPool p4(4);
    const ClusterReport r_tp4 =
        ClusterSimulator(sim, tp).run(sched, &p4);
    EXPECT_EQ(r_tp1.prefix_cache.hits, r_tp4.prefix_cache.hits);
    EXPECT_EQ(r_tp1.merged.makespan_s, r_tp4.merged.makespan_s);
    EXPECT_EQ(r_tp1.prefix_cache.hits, r_hash.prefix_cache.hits);
}

} // namespace
} // namespace focus
