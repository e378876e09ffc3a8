/**
 * @file
 * FunctionalCache and batched-forward bit-identity tests.
 *
 * The contract is that the functional-evaluation reuse layer
 * (eval/func_cache.h) and the batched QA forward path
 * (VlmModel::forwardBatch) are pure performance features: every
 * printed double is bit-identical at every thread count and batch
 * split, and a cache hit returns exactly what a recomputation would.
 * These tests pin that contract with exact (EXPECT_EQ) floating-point
 * comparisons, and cover the cache bookkeeping itself — key collision
 * safety across seeds / sample counts / method parameterizations that
 * share a display name, and eviction of the oldest ready entry,
 * including after a failed computation.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "eval/evaluator.h"
#include "eval/func_cache.h"
#include "runtime/thread_pool.h"
#include "vlm/method.h"
#include "vlm/model.h"
#include "workload/video_gen.h"

namespace focus
{
namespace
{

EvalOptions
quick(int samples = 3)
{
    EvalOptions o;
    o.samples = samples;
    o.seed = 777;
    return o;
}

/**
 * Save/restore the process-wide cache capacity around a test,
 * clearing resident entries on both sides so tests neither see nor
 * leak each other's state.
 */
class CacheGuard
{
  public:
    CacheGuard() : capacity_(FunctionalCache::instance().capacity())
    {
        FunctionalCache::instance().clear();
    }
    ~CacheGuard()
    {
        FunctionalCache::instance().setCapacity(capacity_);
        FunctionalCache::instance().clear();
    }

    CacheGuard(const CacheGuard &) = delete;
    CacheGuard &operator=(const CacheGuard &) = delete;

  private:
    std::size_t capacity_;
};

void
expectVecEq(const std::vector<double> &a, const std::vector<double> &b,
            const char *what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i], b[i]) << what << "[" << i << "]";
    }
}

/** Exact equality on every MethodEval field (bit-identity contract). */
void
expectEvalBitEqual(const MethodEval &a, const MethodEval &b)
{
    EXPECT_EQ(a.method, b.method);
    EXPECT_EQ(a.accuracy, b.accuracy);
    EXPECT_EQ(a.sparsity, b.sparsity);
    EXPECT_EQ(a.agg.reduced_layers, b.agg.reduced_layers);
    EXPECT_EQ(a.agg.samples, b.agg.samples);
    EXPECT_EQ(a.agg.accuracy, b.agg.accuracy);
    EXPECT_EQ(a.agg.sparsity, b.agg.sparsity);
    expectVecEq(a.agg.keep_in, b.agg.keep_in, "keep_in");
    expectVecEq(a.agg.keep_out, b.agg.keep_out, "keep_out");
    expectVecEq(a.agg.psi_qkv, b.agg.psi_qkv, "psi_qkv");
    expectVecEq(a.agg.psi_oproj, b.agg.psi_oproj, "psi_oproj");
    expectVecEq(a.agg.psi_ffn, b.agg.psi_ffn, "psi_ffn");
    expectVecEq(a.agg.psi_down, b.agg.psi_down, "psi_down");
    expectVecEq(a.agg.tile_fracs, b.agg.tile_fracs, "tile_fracs");
}

/** Exact equality on every ForwardResult field. */
void
expectForwardBitEqual(const ForwardResult &a, const ForwardResult &b)
{
    EXPECT_EQ(a.correct, b.correct);
    EXPECT_EQ(a.predicted_color, b.predicted_color);
    EXPECT_EQ(a.ops, b.ops);
    EXPECT_EQ(a.dense_ops, b.dense_ops);
    EXPECT_EQ(a.visual_initial, b.visual_initial);
    EXPECT_EQ(a.visual_original, b.visual_original);
    ASSERT_EQ(a.layers.size(), b.layers.size());
    for (std::size_t l = 0; l < a.layers.size(); ++l) {
        const LayerRecord &la = a.layers[l];
        const LayerRecord &lb = b.layers[l];
        EXPECT_EQ(la.visual_in, lb.visual_in) << "layer " << l;
        EXPECT_EQ(la.visual_out, lb.visual_out) << "layer " << l;
        EXPECT_EQ(la.text, lb.text) << "layer " << l;
        EXPECT_EQ(la.psi_qkv, lb.psi_qkv) << "layer " << l;
        EXPECT_EQ(la.psi_oproj, lb.psi_oproj) << "layer " << l;
        EXPECT_EQ(la.psi_ffn, lb.psi_ffn) << "layer " << l;
        EXPECT_EQ(la.psi_down, lb.psi_down) << "layer " << l;
        expectVecEq(la.tile_fracs, lb.tile_fracs, "layer tile_fracs");
    }
    ASSERT_EQ(a.readout_attention.size(), b.readout_attention.size());
    for (std::size_t i = 0; i < a.readout_attention.size(); ++i) {
        EXPECT_EQ(a.readout_attention[i], b.readout_attention[i])
            << "readout_attention[" << i << "]";
    }
    ASSERT_EQ(a.active_original.size(), b.active_original.size());
    for (std::size_t i = 0; i < a.active_original.size(); ++i) {
        EXPECT_EQ(a.active_original[i], b.active_original[i])
            << "active_original[" << i << "]";
    }
}

// A recomputation after clear() is bit-identical at 1 and 4 threads
// (different chunkings of the batched miss path), for every method
// family, and the following call is a hit returning the same doubles.
TEST(FuncCache, RecomputeMatchesAcrossThreadsAndHit)
{
    CacheGuard guard;
    FunctionalCache &cache = FunctionalCache::instance();
    const Evaluator ev("Llava-Vid", "VideoMME", quick());
    const std::vector<MethodConfig> methods = {
        MethodConfig::dense(),
        MethodConfig::focusFull(),
        MethodConfig::cmcBaseline(),
        MethodConfig::frameFusionBaseline(),
    };
    ThreadPool pool1(1);
    ThreadPool pool4(4);
    for (const MethodConfig &m : methods) {
        cache.clear();
        const MethodEval serial = ev.runFunctional(m, &pool1);

        cache.clear();
        const MethodEval parallel = ev.runFunctional(m, &pool4);
        EXPECT_EQ(cache.stats().misses, 1u) << m.name();
        expectEvalBitEqual(serial, parallel);

        const FunctionalCache::Stats before = cache.stats();
        const MethodEval again = ev.runFunctional(m, &pool4);
        const FunctionalCache::Stats after = cache.stats();
        EXPECT_EQ(after.hits, before.hits + 1) << m.name();
        EXPECT_EQ(after.misses, before.misses);
        expectEvalBitEqual(parallel, again);
    }
}

// forwardBatch is split-invariant: every way of splitting a batch
// gives each sample exactly the result of its batch of one (which is
// forward()), for every method family a caller uses, on a video
// dataset and on an image dataset whose short samples pack several
// per chunk in runFunctional.
TEST(FuncCache, ForwardBatchSplitInvariant)
{
    CacheGuard guard;

    MethodConfig focus_q = MethodConfig::focusFull();
    focus_q.int8 = true;
    MethodConfig focus_topp = MethodConfig::focusFull();
    focus_topp.focus.sec.select = SecSelect::TopP;
    focus_topp.focus.sec.top_p = 0.92;
    const std::vector<MethodConfig> methods = {
        MethodConfig::dense(),
        MethodConfig::focusFull(),
        MethodConfig::focusSecOnly(),
        MethodConfig::focusSicOnly(),
        MethodConfig::focusTokenWise(),
        focus_q,
        focus_topp,
        MethodConfig::adaptivBaseline(),
        MethodConfig::cmcBaseline(),
        MethodConfig::frameFusionBaseline(),
    };
    // With three samples these put each sample at every position a
    // batch of up to three offers.
    const std::vector<std::vector<int>> splits = {{3}, {1, 2}, {2, 1}};

    for (const auto &[model, dataset] :
         {std::pair<const char *, const char *>{"MiniCPM", "MVBench"},
          std::pair<const char *, const char *>{"Qwen2.5-VL",
                                                "VQAv2"}}) {
        const Evaluator ev(model, dataset, quick());
        const VideoGenerator &gen = ev.generator();
        std::vector<VideoSample> samples;
        for (uint64_t i = 0; i < 3; ++i) {
            samples.push_back(gen.sample(i));
        }

        for (const MethodConfig &m : methods) {
            SCOPED_TRACE(std::string(model) + "/" + dataset + " " +
                         methodSignature(m));
            std::vector<ForwardResult> ref;
            for (const VideoSample &s : samples) {
                ref.push_back(ev.model().forward(s, m, gen.bank()));
            }

            for (const std::vector<int> &split : splits) {
                std::vector<ForwardResult> got;
                std::size_t off = 0;
                for (int chunk : split) {
                    std::vector<const VideoSample *> ptrs;
                    for (int i = 0; i < chunk; ++i) {
                        ptrs.push_back(&samples[off + i]);
                    }
                    std::vector<ForwardResult> part =
                        ev.model().forwardBatch(ptrs.data(), chunk, m,
                                                gen.bank());
                    ASSERT_EQ(part.size(),
                              static_cast<std::size_t>(chunk));
                    for (ForwardResult &r : part) {
                        got.push_back(std::move(r));
                    }
                    off += chunk;
                }
                ASSERT_EQ(got.size(), ref.size());
                for (std::size_t i = 0; i < ref.size(); ++i) {
                    expectForwardBitEqual(ref[i], got[i]);
                }
            }
        }
    }
}

// The key must separate everything the result depends on — model,
// dataset, seed, sample count, and the full method parameterization
// (two configs sharing a display name must still miss).
TEST(FuncCache, KeyDistinguishesFullParameterization)
{
    const EvalOptions base = quick();
    EvalOptions reseeded = quick();
    reseeded.seed = 778;
    const EvalOptions more_samples = quick(4);

    const MethodConfig f = MethodConfig::focusFull();
    const std::string key =
        functionalCacheKey("Llava-Vid", "VideoMME", base, f);

    EXPECT_NE(key,
              functionalCacheKey("Llava-OV", "VideoMME", base, f));
    EXPECT_NE(key, functionalCacheKey("Llava-Vid", "MLVU", base, f));
    EXPECT_NE(key,
              functionalCacheKey("Llava-Vid", "VideoMME", reseeded, f));
    EXPECT_NE(key, functionalCacheKey("Llava-Vid", "VideoMME",
                                      more_samples, f));

    // Same display name, different parameterization: the signature
    // (and hence the key) must differ even though name() collapses.
    MethodConfig tweaked = MethodConfig::focusFull();
    tweaked.focus.sic.m_tile += 1;
    EXPECT_EQ(f.name(), tweaked.name());
    EXPECT_NE(methodSignature(f), methodSignature(tweaked));
    EXPECT_NE(key, functionalCacheKey("Llava-Vid", "VideoMME", base,
                                      tweaked));
}

// Overflow evicts the oldest ready entry; a re-run of the evicted
// method misses but returns the identical result.
TEST(FuncCache, EvictsOldestReadyEntry)
{
    CacheGuard guard;
    FunctionalCache &cache = FunctionalCache::instance();
    cache.setCapacity(2);

    const EvalOptions opts = quick(2);
    const Evaluator ev("Llava-OV", "MLVU", opts);
    ThreadPool pool(2);

    const MethodConfig m1 = MethodConfig::dense();
    const MethodConfig m2 = MethodConfig::cmcBaseline();
    const MethodConfig m3 = MethodConfig::focusSecOnly();
    const std::string k1 =
        functionalCacheKey("Llava-OV", "MLVU", opts, m1);

    const MethodEval e1 = ev.runFunctional(m1, &pool);
    ev.runFunctional(m2, &pool);
    EXPECT_TRUE(cache.contains(k1));

    ev.runFunctional(m3, &pool); // overflows: oldest (m1) evicted
    FunctionalCache::Stats s = cache.stats();
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.entries, 2u);
    EXPECT_FALSE(cache.contains(k1));

    const MethodEval e1_again = ev.runFunctional(m1, &pool);
    expectEvalBitEqual(e1, e1_again);
    EXPECT_EQ(cache.stats().misses, s.misses + 1);
}

// A failed computation must leave no trace in the eviction order: a
// later successful insert of the same key is the newest entry, so the
// next overflow evicts the genuinely oldest one.
TEST(FuncCache, FailedComputeKeepsEvictionOrder)
{
    CacheGuard guard;
    FunctionalCache &cache = FunctionalCache::instance();
    cache.setCapacity(2);

    auto value = [] { return MethodEval{}; };
    EXPECT_THROW(cache.getOrCompute(
                     "A",
                     []() -> MethodEval {
                         throw std::runtime_error("compute failed");
                     }),
                 std::runtime_error);
    EXPECT_FALSE(cache.contains("A"));
    cache.getOrCompute("B", value);
    cache.getOrCompute("A", value);
    cache.getOrCompute("C", value); // overflows: oldest (B) evicted

    EXPECT_TRUE(cache.contains("A"));
    EXPECT_FALSE(cache.contains("B"));
    EXPECT_TRUE(cache.contains("C"));
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.stats().entries, 2u);
}

// The per-Evaluator dense-trace memo must be invisible: repeated
// traceSparsity calls and a fresh Evaluator agree exactly.
TEST(FuncCache, DenseTraceMemoStable)
{
    CacheGuard guard;
    const Evaluator ev("Llava-Vid", "VideoMME", quick(2));
    const MethodConfig m = MethodConfig::focusFull();
    const MethodEval e = ev.runFunctional(m);

    const double s1 = ev.traceSparsity(m, e);
    const double s2 = ev.traceSparsity(m, e);
    EXPECT_EQ(s1, s2);
    EXPECT_GT(s1, 0.0);

    const Evaluator fresh("Llava-Vid", "VideoMME", quick(2));
    EXPECT_EQ(s1, fresh.traceSparsity(m, e));
}

} // namespace
} // namespace focus
