/**
 * @file
 * Dual-backend equivalence harness for the cycle models: the `fast`
 * closed-form backend must reproduce the `walk` reference bit for bit
 * — cycles, stalls, op counters, DRAM bytes, tile lengths, sampler
 * state — over randomized and degenerate GEMM shapes, every
 * architecture, empty and non-empty psi distributions, and whole
 * traces (including fused batches and the memoization path), at 1 and
 * 4 threads.  The tile-length log is checked at several rooms (0, 1,
 * ending mid-window, past the draw count): both backends must stop at
 * exactly the same entry, and no room may change a scalar or the
 * sampler cursor.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "runtime/thread_pool.h"
#include "sim/accel_model.h"
#include "sim/systolic.h"
#include "sim/trace.h"

namespace focus
{
namespace
{

/** Restore the active sim backend when a test scope exits. */
class BackendGuard
{
  public:
    BackendGuard() : saved_(activeSimBackend()) {}
    ~BackendGuard() { setSimBackend(saved_); }

  private:
    SimBackend saved_;
};

void
expectTimingEq(const GemmTiming &w, const GemmTiming &f,
               const char *what)
{
    EXPECT_EQ(w.cycles, f.cycles) << what;
    EXPECT_EQ(w.stall_scatter, f.stall_scatter) << what;
    EXPECT_EQ(w.stall_matcher, f.stall_matcher) << what;
    // Op counters are integer-valued doubles; equality must be exact,
    // not approximate — that is the contract the closed forms claim.
    EXPECT_EQ(w.mac_ops, f.mac_ops) << what;
    EXPECT_EQ(w.scatter_ops, f.scatter_ops) << what;
    EXPECT_EQ(w.matcher_ops, f.matcher_ops) << what;
}

void
expectLogEq(const std::vector<int64_t> &w, const std::vector<int64_t> &f,
            const char *what)
{
    ASSERT_EQ(w.size(), f.size()) << what;
    for (size_t i = 0; i < w.size(); ++i) {
        ASSERT_EQ(w[i], f[i]) << what << " tile_lengths[" << i << "]";
    }
}

/**
 * Run one shape through both backends with independently-seeded
 * samplers over the same distribution and assert bit-identical
 * results plus identical final sampler cursors — once per tile-log
 * room: 0, 1, a room ending inside the second (m-tile, n-tile) draw
 * window, half the draws, and more than the draw count.  Both logs
 * must hold exactly min(room, draws) entries (none for dense input),
 * and every room must give the room-0 scalars and cursor.
 */
void
checkShape(const AccelConfig &cfg, int64_t m, int64_t k, int64_t n,
           const std::vector<double> *dist, double mean,
           bool sic_input, bool gather_out)
{
    char what[160];
    std::snprintf(what, sizeof(what),
                  "m=%lld k=%lld n=%lld sic=%d gather=%d dist=%zu",
                  static_cast<long long>(m), static_cast<long long>(k),
                  static_cast<long long>(n), sic_input ? 1 : 0,
                  gather_out ? 1 : 0, dist != nullptr ? dist->size() : 0);
    FracSampler psi_ref(dist, mean);
    const GemmTiming ref =
        timeGemmWalk(cfg, m, k, n, psi_ref, sic_input, gather_out);
    const uint64_t draws =
        sic_input ? timeGemmDraws(cfg, m, k, n) : 0;
    const uint64_t k_subs = k > 0
        ? static_cast<uint64_t>((k + cfg.array_rows - 1) /
                                cfg.array_rows)
        : 0;
    const uint64_t rooms[] = {0, 1, k_subs + (k_subs + 1) / 2,
                              draws / 2, draws + 5};
    for (const uint64_t room : rooms) {
        FracSampler psi_w(dist, mean);
        FracSampler psi_f(dist, mean);
        std::vector<int64_t> log_w, log_f;
        const GemmTiming w = timeGemmWalk(cfg, m, k, n, psi_w, sic_input,
                                          gather_out, &log_w, room);
        const GemmTiming f = timeGemmFast(cfg, m, k, n, psi_f, sic_input,
                                          gather_out, &log_f, room);
        char at[200];
        std::snprintf(at, sizeof(at), "%s room=%llu", what,
                      static_cast<unsigned long long>(room));
        expectTimingEq(w, f, at);
        expectTimingEq(ref, w, at);
        EXPECT_EQ(psi_w.cursor(), psi_f.cursor()) << at;
        EXPECT_EQ(psi_ref.cursor(), psi_w.cursor()) << at;
        EXPECT_EQ(log_w.size(), std::min(room, draws)) << at;
        expectLogEq(log_w, log_f, at);
    }
}

std::vector<AccelConfig>
allArchConfigs()
{
    return {AccelConfig::systolicArray(), AccelConfig::adaptiv(),
            AccelConfig::cmc(), AccelConfig::focus()};
}

TEST(SimEquiv, DegenerateAndEdgeShapes)
{
    // Degenerate dims, exact tile multiples, primes straddling the
    // array/tile sizes, and k spanning many sub-tiles.
    const int64_t dims[] = {0,  1,  7,   31,   32,   33,
                            64, 97, 255, 1024, 1025, 3584};
    const std::vector<double> fracs = {0.0,  0.25, 0.5, 0.75,
                                       1.25, -0.5, 1.0};
    for (const AccelConfig &cfg : allArchConfigs()) {
        for (int64_t m : dims) {
            for (int64_t k : {int64_t{0}, int64_t{1}, int64_t{33},
                              int64_t{3584}}) {
                for (int64_t n : {int64_t{0}, int64_t{32},
                                  int64_t{97}}) {
                    checkShape(cfg, m, k, n, nullptr, 1.0, false,
                               false);
                    checkShape(cfg, m, k, n, nullptr, 0.4, true,
                               false);
                    checkShape(cfg, m, k, n, &fracs, 1.0, true, true);
                }
            }
        }
    }
}

TEST(SimEquiv, RandomizedShapeSweep)
{
    std::mt19937 rng(20260807u);
    std::uniform_int_distribution<int64_t> dim(1, 4096);
    std::uniform_real_distribution<double> frac(-0.2, 1.4);
    std::uniform_int_distribution<int> dist_len(1, 96);
    std::uniform_int_distribution<int> coin(0, 1);
    const std::vector<AccelConfig> archs = allArchConfigs();
    for (int it = 0; it < 60; ++it) {
        const AccelConfig &cfg = archs[static_cast<size_t>(it) %
                                       archs.size()];
        std::vector<double> fracs(
            static_cast<size_t>(dist_len(rng)));
        for (double &v : fracs) {
            v = frac(rng);
        }
        const bool sic = coin(rng) == 1;
        const bool gather = coin(rng) == 1;
        const bool empirical = coin(rng) == 1;
        checkShape(cfg, dim(rng), dim(rng), dim(rng),
                   empirical ? &fracs : nullptr, frac(rng), sic,
                   gather);
    }
}

TEST(SimEquiv, SamplerCursorContinuesAcrossCalls)
{
    // A shared sampler must end up in the same state after a sequence
    // of mixed dense/SIC GEMMs on either backend (the sampler-order
    // invariant memoization relies on).
    const AccelConfig cfg = AccelConfig::focus();
    const std::vector<double> fracs = {0.1, 0.9, 0.4, 0.7, 0.2,
                                       0.6, 0.3};
    FracSampler psi_w(&fracs, 1.0);
    FracSampler psi_f(&fracs, 1.0);
    // One log shared across the sequence, capped mid-way through the
    // third GEMM's draws, as simulateAccelerator feeds it.
    constexpr size_t kCap = 200;
    std::vector<int64_t> log_w, log_f;
    const struct
    {
        int64_t m, k, n;
        bool sic;
    } seq[] = {{100, 64, 96, true},
               {50, 32, 32, false},
               {1025, 3584, 33, true},
               {7, 7, 7, true}};
    for (const auto &s : seq) {
        const GemmTiming w =
            timeGemmWalk(cfg, s.m, s.k, s.n, psi_w, s.sic, false,
                         &log_w, kCap - log_w.size());
        const GemmTiming f =
            timeGemmFast(cfg, s.m, s.k, s.n, psi_f, s.sic, false,
                         &log_f, kCap - log_f.size());
        expectTimingEq(w, f, "sequence step");
        expectLogEq(log_w, log_f, "sequence step");
        ASSERT_EQ(psi_w.cursor(), psi_f.cursor());
    }
    EXPECT_EQ(log_w.size(), kCap);
}

TEST(SimEquiv, DrawCountMatchesWalkConsumption)
{
    const AccelConfig cfg = AccelConfig::focus();
    const std::vector<double> fracs(13, 0.5);
    const int64_t shapes[][3] = {{1, 1, 1},      {1024, 3584, 3584},
                                 {1025, 33, 97}, {0, 64, 64},
                                 {64, 0, 64},    {31, 4096, 1}};
    for (const auto &s : shapes) {
        FracSampler psi(&fracs, 1.0);
        timeGemmWalk(cfg, s[0], s[1], s[2], psi, true, false);
        const uint64_t draws = timeGemmDraws(cfg, s[0], s[1], s[2]);
        EXPECT_EQ(psi.cursor(), draws % fracs.size())
            << s[0] << "x" << s[1] << "x" << s[2];
    }
}

// ---------------------------------------------------------------
// Whole-trace equivalence through simulateAccelerator
// ---------------------------------------------------------------

FunctionalAggregate
flatAggregate(int layers, double keep, double psi)
{
    FunctionalAggregate agg;
    agg.reduced_layers = layers;
    agg.keep_in.assign(static_cast<size_t>(layers), keep);
    agg.keep_out.assign(static_cast<size_t>(layers), keep);
    agg.psi_qkv.assign(static_cast<size_t>(layers), psi);
    agg.psi_oproj.assign(static_cast<size_t>(layers), psi);
    agg.psi_ffn.assign(static_cast<size_t>(layers), psi);
    agg.psi_down.assign(static_cast<size_t>(layers), psi);
    return agg;
}

/** Every metric but the tile-length log. */
void
expectRunScalarsEq(const RunMetrics &w, const RunMetrics &f)
{
    EXPECT_EQ(w.cycles, f.cycles);
    EXPECT_EQ(w.stall_scatter, f.stall_scatter);
    EXPECT_EQ(w.stall_matcher, f.stall_matcher);
    EXPECT_EQ(w.stall_sec, f.stall_sec);
    EXPECT_EQ(w.mac_ops, f.mac_ops);
    EXPECT_EQ(w.scatter_ops, f.scatter_ops);
    EXPECT_EQ(w.matcher_ops, f.matcher_ops);
    EXPECT_EQ(w.sec_ops, f.sec_ops);
    EXPECT_EQ(w.sfu_ops, f.sfu_ops);
    EXPECT_EQ(w.merge_ops, f.merge_ops);
    EXPECT_EQ(w.dram_act_read, f.dram_act_read);
    EXPECT_EQ(w.dram_act_write, f.dram_act_write);
    EXPECT_EQ(w.dram_weights, f.dram_weights);
    EXPECT_EQ(w.dram_maps, f.dram_maps);
    EXPECT_EQ(w.dram_codec_extra, f.dram_codec_extra);
    EXPECT_EQ(w.ib_bytes, f.ib_bytes);
    EXPECT_EQ(w.wb_bytes, f.wb_bytes);
    EXPECT_EQ(w.ob_bytes, f.ob_bytes);
    EXPECT_EQ(w.layer_cycles, f.layer_cycles);
    EXPECT_EQ(w.utilization, f.utilization);
    EXPECT_EQ(w.mean_input_frac, f.mean_input_frac);
    EXPECT_EQ(w.energy.total(), f.energy.total());
}

/** The Fig. 13 bench's sample size. */
constexpr size_t kFig13Cap = 200000;

/**
 * Walk == fast with the Fig. 13 log cap, log included; and the fast
 * run without a cap (the production default: no log, every SIC GEMM
 * eligible for the memo) gives the same scalars.
 */
void
checkTrace(const AccelConfig &cfg, const WorkloadTrace &trace)
{
    BackendGuard guard;
    setSimBackend(SimBackend::Walk);
    const RunMetrics w =
        simulateAccelerator(cfg, trace, EnergyParams{}, kFig13Cap);
    setSimBackend(SimBackend::Fast);
    const RunMetrics f =
        simulateAccelerator(cfg, trace, EnergyParams{}, kFig13Cap);
    expectRunScalarsEq(w, f);
    expectLogEq(w.tile_lengths, f.tile_lengths, "trace");
    const RunMetrics f0 = simulateAccelerator(cfg, trace);
    expectRunScalarsEq(f, f0);
    EXPECT_TRUE(f0.tile_lengths.empty());
}

class SimEquivThreads : public ::testing::TestWithParam<int>
{
  protected:
    void SetUp() override { ThreadPool::setGlobalThreads(GetParam()); }
    void TearDown() override { ThreadPool::setGlobalThreads(0); }
};

TEST_P(SimEquivThreads, TraceEquivalenceAllArchitectures)
{
    const ModelProfile mp = modelProfile("Llava-Vid");
    const DatasetProfile dp = datasetProfile("VideoMME");
    const WorkloadTrace dense = buildDenseTrace(mp, dp);
    WorkloadTrace fo = buildTrace(mp, dp, MethodConfig::focusFull(),
                                  flatAggregate(mp.layers, 1.0, 0.5));
    const WorkloadTrace cmc =
        buildTrace(mp, dp, MethodConfig::cmcBaseline(),
                   flatAggregate(mp.layers, 0.53, 1.0));

    checkTrace(AccelConfig::systolicArray(), dense);
    checkTrace(AccelConfig::adaptiv(), dense);
    checkTrace(AccelConfig::cmc(), cmc);

    // Empty tile_fracs: SIC GEMMs fall back to the mean-backed
    // sampler (closed-form fast path).
    fo.tile_fracs.clear();
    checkTrace(AccelConfig::focus(), fo);

    // Non-empty distributions, sized to leave the round-robin cursor
    // misaligned between repeats (7) and aligned often (64) — both
    // memoization-key regimes.
    fo.tile_fracs = {0.12, 0.93, 0.47, 0.71, 0.25, 0.66, 0.38};
    checkTrace(AccelConfig::focus(), fo);
    fo.tile_fracs.assign(64, 0.0);
    for (size_t i = 0; i < fo.tile_fracs.size(); ++i) {
        fo.tile_fracs[i] =
            0.05 + 0.9 * static_cast<double>(i) / 63.0;
    }
    checkTrace(AccelConfig::focus(), fo);
}

TEST_P(SimEquivThreads, FusedTraceEquivalence)
{
    const ModelProfile mp = modelProfile("Llava-Vid");
    const DatasetProfile dp = datasetProfile("VideoMME");
    WorkloadTrace a = buildTrace(mp, dp, MethodConfig::focusFull(),
                                 flatAggregate(mp.layers, 1.0, 0.5));
    WorkloadTrace b = buildTrace(mp, dp, MethodConfig::focusFull(),
                                 flatAggregate(mp.layers, 0.8, 0.6));
    a.tile_fracs = {0.2, 0.8, 0.5};
    b.tile_fracs = {0.4, 0.9};
    const WorkloadTrace fused = fuseTraces({&a, &b});
    checkTrace(AccelConfig::focus(), fused);
}

TEST(SimEquiv, TraceLogCapLeavesScalarsUnchanged)
{
    // A cap ending inside one GEMM's draws, and caps of 1 and past
    // the trace's draw count, on both backends: the log holds exactly
    // min(cap, draws) entries, each a prefix of the longest, and the
    // scalars match the uncapped run.
    const ModelProfile mp = modelProfile("Llava-Vid");
    const DatasetProfile dp = datasetProfile("VideoMME");
    WorkloadTrace fo = buildTrace(mp, dp, MethodConfig::focusFull(),
                                  flatAggregate(mp.layers, 0.3, 0.5));
    fo.tile_fracs = {0.12, 0.93, 0.47, 0.71, 0.25, 0.66, 0.38};
    // Three layers keep the full log small; the later two still
    // repeat the first's geometry, so the fast backend serves them
    // from its memo once a small cap is full.
    fo.layers.resize(3);
    uint64_t draws = 0;
    for (const LayerEvents &l : fo.layers) {
        for (const GemmEvent &g : l.gemms) {
            if (g.psi_in < 1.0) {
                draws += timeGemmDraws(AccelConfig::focus(), g.m, g.k,
                                       g.n);
            }
        }
    }
    ASSERT_GT(draws, 12345u);
    BackendGuard guard;
    for (const SimBackend backend :
         {SimBackend::Walk, SimBackend::Fast}) {
        setSimBackend(backend);
        const RunMetrics base =
            simulateAccelerator(AccelConfig::focus(), fo);
        const RunMetrics full = simulateAccelerator(
            AccelConfig::focus(), fo, EnergyParams{}, draws + 7);
        EXPECT_EQ(full.tile_lengths.size(), draws);
        expectRunScalarsEq(base, full);
        for (const size_t cap : {size_t{1}, size_t{12345}}) {
            const RunMetrics rm = simulateAccelerator(
                AccelConfig::focus(), fo, EnergyParams{}, cap);
            expectRunScalarsEq(base, rm);
            ASSERT_EQ(rm.tile_lengths.size(), cap);
            EXPECT_TRUE(std::equal(rm.tile_lengths.begin(),
                                   rm.tile_lengths.end(),
                                   full.tile_lengths.begin()))
                << simBackendName(backend) << " cap=" << cap;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Threads, SimEquivThreads,
                         ::testing::Values(1, 4));

} // namespace
} // namespace focus
