/**
 * @file
 * End-to-end experiment runner: functional evaluation at reduced
 * scale, aggregation, full-scale trace construction, and accelerator
 * simulation.
 */

#ifndef FOCUS_EVAL_EVALUATOR_H
#define FOCUS_EVAL_EVALUATOR_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/accel_model.h"
#include "sim/trace.h"
#include "vlm/method.h"
#include "vlm/model.h"
#include "workload/video_gen.h"

namespace focus
{
class ThreadPool;
struct EvalMemos;
}

namespace focus
{

/** Options shared by all experiments. */
struct EvalOptions
{
    int samples = 8;       ///< QA samples per (model, dataset, method)
    uint64_t seed = 42;
};

/** Functional evaluation outcome for one method. */
struct MethodEval
{
    std::string method;
    double accuracy = 0.0;  ///< fraction of correctly answered samples
    double sparsity = 0.0;  ///< mean computation sparsity
    FunctionalAggregate agg;
};

/**
 * Runs methods on a fixed (model, dataset) pair; all methods see the
 * same samples and the same model weights.
 */
class Evaluator
{
  public:
    Evaluator(const std::string &model_name,
              const std::string &dataset_name, const EvalOptions &opts);

    /**
     * Functional run: accuracy, sparsity, per-layer aggregates.
     * Samples fan out across @p pool (the global pool when null);
     * aggregates are bit-identical at every thread count.
     *
     * The result is memoized in the process-wide FunctionalCache
     * (eval/func_cache.h); a miss runs the samples through
     * VlmModel::forwardBatch in locality-sized chunks.  Call
     * FunctionalCache::instance().clear() to force a recomputation.
     */
    MethodEval runFunctional(const MethodConfig &method,
                             ThreadPool *pool = nullptr) const;

    /** Build the full-scale trace implied by a functional run. */
    WorkloadTrace buildFullTrace(const MethodConfig &method,
                                 const MethodEval &eval) const;

    /**
     * Build the prefix-cache-*hit* variant of the full-scale trace:
     * the retained visual rows are restored from the serving prefix
     * cache (serve/prefix_cache.h) instead of recomputed, so only the
     * text rows flow through the backbone while the cached rows serve
     * as attention context (sim/trace.h applyPrefixCache).  This is
     * the serve -> cache -> eval seam: the serving simulator costs a
     * hit with this trace and a miss with buildFullTrace's.
     */
    WorkloadTrace buildPrefixCachedTrace(const MethodConfig &method,
                                         const MethodEval &eval) const;

    /** Functional + trace + accelerator simulation in one step. */
    RunMetrics simulate(const MethodConfig &method,
                        const AccelConfig &accel,
                        MethodEval *out_eval = nullptr) const;

    /**
     * Batch-aware simulation: run the functional model per method,
     * fuse the per-method full-scale traces into one multi-query
     * batch trace (sim/trace.h fuseTraces) and cost it in a single
     * accelerator pass.  With one method this is bit-identical to
     * simulate().  The serving layer (src/serve/) builds on the same
     * seam for request streams across (model, dataset) pairs.
     */
    RunMetrics simulateBatch(const std::vector<MethodConfig> &methods,
                             const AccelConfig &accel) const;

    /**
     * Full-scale computation sparsity: 1 - trace MACs / dense trace
     * MACs.  This is the paper's Tbl. II metric (the reduced-scale
     * functional sparsity over-weights attention, which is a much
     * smaller share of compute at 7B dimensions).
     */
    double traceSparsity(const MethodConfig &method,
                         const MethodEval &eval) const;

    const ModelProfile &modelProfile() const { return mp_; }
    const DatasetProfile &datasetProfile() const { return dp_; }
    const VlmModel &model() const { return model_; }
    const VideoGenerator &generator() const { return gen_; }
    const EvalOptions &options() const { return opts_; }

    /**
     * FrameFusion reduction fraction that yields the target
     * computation sparsity on this (model, dataset) pair; solves the
     * analytic op-count equation by bisection.
     */
    double frameFusionReductionFor(double target_sparsity) const;

    /** Standard method roster used across experiments. */
    std::vector<MethodConfig> standardMethods() const;

  private:
    std::string model_name_;
    std::string dataset_name_;
    ModelProfile mp_;
    DatasetProfile dp_;
    EvalOptions opts_;
    VideoGenerator gen_;
    VlmModel model_;

    /**
     * Per-Evaluator memos (generated samples, dense-trace MACs),
     * shared across copies; defined in evaluator.cc.
     */
    std::shared_ptr<EvalMemos> memos_;

    /** Batched functional run (the cache-miss path). */
    MethodEval runFunctionalBatched(const MethodConfig &method,
                                    ThreadPool *pool) const;

    /** Serial sample-order aggregation of per-sample results. */
    MethodEval
    aggregateForwards(const MethodConfig &method,
                      const std::vector<ForwardResult> &forwards) const;

    /** All opts_.samples QA samples, generated once per Evaluator. */
    const std::vector<VideoSample> &cachedSamples() const;

    /** Dense-trace MACs, computed once per Evaluator. */
    double denseTraceMacs() const;

    double opsAtKeep(double keep) const;
};

} // namespace focus

#endif // FOCUS_EVAL_EVALUATOR_H
