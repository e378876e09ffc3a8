#include "eval/evaluator.h"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "common/logging.h"
#include "eval/func_cache.h"
#include "obs/trace_span.h"
#include "runtime/thread_pool.h"

namespace focus
{

/**
 * Lazily computed per-Evaluator state.  Heap-allocated behind a
 * shared_ptr so Evaluator stays copyable (copies share the memo) and
 * const member functions can fill it under the mutex.
 */
struct EvalMemos
{
    std::mutex mu;
    bool samples_ready = false;
    std::vector<VideoSample> samples;
    bool dense_ready = false;
    double dense_macs = 0.0;
};

Evaluator::Evaluator(const std::string &model_name,
                     const std::string &dataset_name,
                     const EvalOptions &opts)
    : model_name_(model_name),
      dataset_name_(dataset_name),
      mp_(::focus::modelProfile(model_name)),
      dp_(::focus::datasetProfile(dataset_name)),
      opts_(opts),
      gen_(dp_, mp_,
           opts.seed ^ mp_.seed_salt ^
               (std::hash<std::string>{}(dataset_name) * 0x9e37ull)),
      model_(mp_, (opts.seed ^ 0x1234567890abcdefull) + mp_.seed_salt),
      memos_(std::make_shared<EvalMemos>())
{
}

const std::vector<VideoSample> &
Evaluator::cachedSamples() const
{
    std::lock_guard<std::mutex> lock(memos_->mu);
    if (!memos_->samples_ready) {
        memos_->samples.reserve(static_cast<size_t>(opts_.samples));
        for (int s = 0; s < opts_.samples; ++s) {
            memos_->samples.push_back(
                gen_.sample(static_cast<uint64_t>(s)));
        }
        memos_->samples_ready = true;
    }
    return memos_->samples;
}

double
Evaluator::denseTraceMacs() const
{
    std::lock_guard<std::mutex> lock(memos_->mu);
    if (!memos_->dense_ready) {
        memos_->dense_macs = buildDenseTrace(mp_, dp_).totalMacs();
        memos_->dense_ready = true;
    }
    return memos_->dense_macs;
}

MethodEval
Evaluator::runFunctional(const MethodConfig &method,
                         ThreadPool *pool) const
{
    if (opts_.samples <= 0) {
        panic("Evaluator::runFunctional: EvalOptions::samples must be "
              "positive (got %d)", opts_.samples);
    }
    return FunctionalCache::instance().getOrCompute(
        functionalCacheKey(model_name_, dataset_name_, opts_, method),
        [&] { return runFunctionalBatched(method, pool); });
}

MethodEval
Evaluator::runFunctionalBatched(const MethodConfig &method,
                                ThreadPool *pool) const
{
    obs::TraceSpan span("eval.forward");
    // Contiguous chunks of samples packed through
    // VlmModel::forwardBatch.  Chunking only affects which GEMM a
    // sample's rows ride in — forwardBatch is bit-identical at every
    // batch split, and the aggregation below runs serially in sample
    // order, so neither the chunk count nor the thread count ever
    // changes a result.  The chunk size is
    // locality-aware: packed projection panels cost ~1 KiB per token
    // row across xp/qp/kp/vp, and each sample's per-head probability
    // matrices already claim most of L2, so batching pays off only
    // while the added panel rows stay under a small budget.  Video
    // samples (hundreds of rows) thus run near batch 1, while short
    // image samples pack several per GEMM.  At least one chunk per
    // pool thread keeps the fan-out saturated.
    const std::vector<VideoSample> &samples = cachedSamples();
    const int64_t n = static_cast<int64_t>(samples.size());
    ThreadPool &tp = pool ? *pool : ThreadPool::global();
    constexpr int64_t kPackedRowBudget = 512;
    const int64_t rows0 = std::max<int64_t>(
        1, samples.front().numVisual() + samples.front().numText());
    const int64_t per_batch =
        std::max<int64_t>(1, kPackedRowBudget / rows0);
    const int64_t chunks = std::min<int64_t>(
        n, std::max<int64_t>(tp.threads(),
                             (n + per_batch - 1) / per_batch));
    std::vector<ForwardResult> forwards(static_cast<size_t>(n));
    tp.parallelFor(chunks, [&](int64_t ci) {
        const int64_t lo = ci * n / chunks;
        const int64_t hi = (ci + 1) * n / chunks;
        if (lo >= hi) {
            return;
        }
        std::vector<const VideoSample *> ptrs(
            static_cast<size_t>(hi - lo));
        for (int64_t s = lo; s < hi; ++s) {
            ptrs[static_cast<size_t>(s - lo)] =
                &samples[static_cast<size_t>(s)];
        }
        std::vector<ForwardResult> part = model_.forwardBatch(
            ptrs.data(), hi - lo, method, gen_.bank());
        for (int64_t s = lo; s < hi; ++s) {
            forwards[static_cast<size_t>(s)] =
                std::move(part[static_cast<size_t>(s - lo)]);
        }
    });
    return aggregateForwards(method, forwards);
}

MethodEval
Evaluator::aggregateForwards(
    const MethodConfig &method,
    const std::vector<ForwardResult> &forwards) const
{
    MethodEval ev;
    ev.method = method.name();

    const int L = mp_.layers;
    FunctionalAggregate &agg = ev.agg;
    agg.reduced_layers = L;
    agg.keep_in.assign(static_cast<size_t>(L), 0.0);
    agg.keep_out.assign(static_cast<size_t>(L), 0.0);
    agg.psi_qkv.assign(static_cast<size_t>(L), 0.0);
    agg.psi_oproj.assign(static_cast<size_t>(L), 0.0);
    agg.psi_ffn.assign(static_cast<size_t>(L), 0.0);
    agg.psi_down.assign(static_cast<size_t>(L), 0.0);

    int correct = 0;
    double sparsity_sum = 0.0;
    for (int s = 0; s < opts_.samples; ++s) {
        const ForwardResult &fr = forwards[static_cast<size_t>(s)];
        correct += fr.correct ? 1 : 0;
        sparsity_sum += fr.sparsity();
        for (int l = 0; l < L; ++l) {
            const LayerRecord &rec =
                fr.layers[static_cast<size_t>(l)];
            const double m0 =
                static_cast<double>(fr.visual_original);
            agg.keep_in[static_cast<size_t>(l)] +=
                static_cast<double>(rec.visual_in) / m0;
            agg.keep_out[static_cast<size_t>(l)] +=
                static_cast<double>(rec.visual_out) / m0;
            agg.psi_qkv[static_cast<size_t>(l)] += rec.psi_qkv;
            agg.psi_oproj[static_cast<size_t>(l)] += rec.psi_oproj;
            agg.psi_ffn[static_cast<size_t>(l)] += rec.psi_ffn;
            agg.psi_down[static_cast<size_t>(l)] += rec.psi_down;
            agg.tile_fracs.insert(agg.tile_fracs.end(),
                                  rec.tile_fracs.begin(),
                                  rec.tile_fracs.end());
        }
        agg.samples += 1;
    }

    const double inv = 1.0 / static_cast<double>(opts_.samples);
    for (int l = 0; l < L; ++l) {
        agg.keep_in[static_cast<size_t>(l)] *= inv;
        agg.keep_out[static_cast<size_t>(l)] *= inv;
        agg.psi_qkv[static_cast<size_t>(l)] *= inv;
        agg.psi_oproj[static_cast<size_t>(l)] *= inv;
        agg.psi_ffn[static_cast<size_t>(l)] *= inv;
        agg.psi_down[static_cast<size_t>(l)] *= inv;
    }
    ev.accuracy = static_cast<double>(correct) /
        static_cast<double>(opts_.samples);
    ev.sparsity = sparsity_sum * inv;
    agg.accuracy = ev.accuracy;
    agg.sparsity = ev.sparsity;
    return ev;
}

WorkloadTrace
Evaluator::buildFullTrace(const MethodConfig &method,
                          const MethodEval &eval) const
{
    obs::TraceSpan span("eval.trace");
    return buildTrace(mp_, dp_, method, eval.agg);
}

WorkloadTrace
Evaluator::buildPrefixCachedTrace(const MethodConfig &method,
                                  const MethodEval &eval) const
{
    obs::TraceSpan span("eval.trace.prefix_cached");
    return applyPrefixCache(buildTrace(mp_, dp_, method, eval.agg));
}

RunMetrics
Evaluator::simulate(const MethodConfig &method, const AccelConfig &accel,
                    MethodEval *out_eval) const
{
    MethodEval ev = runFunctional(method);
    const WorkloadTrace tr = buildFullTrace(method, ev);
    if (out_eval) {
        *out_eval = ev;
    }
    obs::TraceSpan span("eval.simulate");
    return simulateAccelerator(accel, tr);
}

RunMetrics
Evaluator::simulateBatch(const std::vector<MethodConfig> &methods,
                         const AccelConfig &accel) const
{
    if (methods.empty()) {
        panic("Evaluator::simulateBatch: empty method batch");
    }
    std::vector<WorkloadTrace> traces;
    traces.reserve(methods.size());
    for (const MethodConfig &m : methods) {
        const MethodEval ev = runFunctional(m);
        traces.push_back(buildFullTrace(m, ev));
    }
    std::vector<const WorkloadTrace *> parts;
    parts.reserve(traces.size());
    for (const WorkloadTrace &t : traces) {
        parts.push_back(&t);
    }
    return simulateAccelerator(accel, fuseTraces(parts));
}

double
Evaluator::traceSparsity(const MethodConfig &method,
                         const MethodEval &eval) const
{
    const WorkloadTrace tr = buildFullTrace(method, eval);
    // buildDenseTrace is a pure function of (mp_, dp_): memoize its
    // MAC total instead of rebuilding the dense trace per call.
    const double dense_macs = denseTraceMacs();
    return dense_macs <= 0.0 ? 0.0 : 1.0 - tr.totalMacs() / dense_macs;
}

double
Evaluator::opsAtKeep(double keep) const
{
    // Per-layer GEMM MACs with a visual keep fraction applied at the
    // input, evaluated at *full* scale (the Tbl. II sparsity metric).
    const double m = keep * mp_.visual_token_scale *
        static_cast<double>(dp_.full_visual_tokens);
    const double t = static_cast<double>(dp_.full_text_tokens);
    const double rows = m + t;
    const double d = static_cast<double>(mp_.full_hidden);
    const double inner = static_cast<double>(mp_.full_ffn_inner);
    return 3.0 * rows * d * d + 2.0 * rows * rows * d + rows * d * d +
        2.0 * rows * d * inner + rows * inner * d;
}

double
Evaluator::frameFusionReductionFor(double target_sparsity) const
{
    const double dense = opsAtKeep(1.0);
    double lo = 0.0, hi = 1.0;
    for (int it = 0; it < 60; ++it) {
        const double mid = 0.5 * (lo + hi);
        const double sparsity = 1.0 - opsAtKeep(1.0 - mid) / dense;
        if (sparsity < target_sparsity) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    return 0.5 * (lo + hi);
}

std::vector<MethodConfig>
Evaluator::standardMethods() const
{
    std::vector<MethodConfig> methods;
    methods.push_back(MethodConfig::dense());
    MethodConfig ff = MethodConfig::frameFusionBaseline();
    ff.framefusion.reduction = frameFusionReductionFor(0.70);
    methods.push_back(ff);
    methods.push_back(MethodConfig::adaptivBaseline());
    methods.push_back(MethodConfig::cmcBaseline());
    methods.push_back(MethodConfig::focusFull());
    return methods;
}

} // namespace focus
