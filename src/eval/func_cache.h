/**
 * @file
 * Process-wide functional-evaluation cache.
 *
 * Every bench, DSE sweep, and serving replay drives the same reduced
 * functional model through `Evaluator::runFunctional`, and methods
 * repeat across cells: the dense baseline anchors every comparison,
 * serving calibration re-evaluates each (model, dataset, method)
 * combo per replay, and DSE grids revisit the default configuration.
 * The FunctionalCache memoizes the full `MethodEval` (accuracy,
 * sparsity, `FunctionalAggregate`) keyed by everything the result
 * depends on — model, dataset, seed, sample count, the *complete*
 * method parameterization (`methodSignature`, not the display name,
 * which collapses distinct configurations), and the active GEMM/math
 * backends — so each distinct evaluation runs exactly once per
 * process and every later consumer gets the same doubles back.
 *
 * The cache is always on: a cached value is bit-identical to a fresh
 * computation, so there is nothing to switch off.  Callers that need a
 * fresh computation (tests, benchmarks timing the miss path) call
 * `clear()`.
 *
 * Concurrency: `getOrCompute` is compute-once-per-key.  The first
 * caller computes outside the cache lock; concurrent callers for the
 * same key block until the value is ready.  A blocked waiter is safe
 * under the fork-join pool: the computing thread participates in its
 * own nested `parallelFor`, so it always makes progress even when
 * every other worker is waiting on its key.
 */

#ifndef FOCUS_EVAL_FUNC_CACHE_H
#define FOCUS_EVAL_FUNC_CACHE_H

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "eval/evaluator.h"
#include "vlm/method.h"

namespace focus
{

/**
 * Full method parameterization as a string: every field of every
 * sub-config, doubles in hex-float so distinct values can never
 * collide.  Unlike `MethodConfig::name()` (a display label that maps
 * many configurations to "Focus"), equal signatures imply functionally
 * identical method behavior.
 */
std::string methodSignature(const MethodConfig &m);

/**
 * Cache key for one functional evaluation: model, dataset, seed,
 * sample count, method signature, plus the active GEMM and SFU math
 * backends (results are thread-count invariant but *not* backend
 * invariant, and tests flip backends mid-process).
 */
std::string functionalCacheKey(const std::string &model,
                               const std::string &dataset,
                               const EvalOptions &opts,
                               const MethodConfig &method);

/** Process-wide memo of MethodEval results (see file comment). */
class FunctionalCache
{
  public:
    static FunctionalCache &instance();

    /**
     * Return the cached MethodEval for @p key, computing it via
     * @p compute on first request.  Exactly one caller computes;
     * concurrent callers for the same key block until ready.  If the
     * computation throws, the entry is dropped (from the eviction
     * order too), the exception propagates to the computing caller,
     * and blocked waiters retry.
     */
    MethodEval getOrCompute(const std::string &key,
                            const std::function<MethodEval()> &compute);

    /** True when @p key holds a ready value. */
    bool contains(const std::string &key) const;

    /** Drop all entries and reset the hit/miss/eviction counters. */
    void clear();

    /**
     * Cap on resident entries (default 256); the oldest ready entry
     * is evicted on overflow.  Entries still being computed are never
     * evicted, so the cache can transiently exceed the cap.
     */
    void setCapacity(std::size_t entries);
    std::size_t capacity() const;

    struct Stats
    {
        std::uint64_t hits = 0;   ///< lookups served from the cache
        std::uint64_t misses = 0; ///< lookups that had to compute
        std::uint64_t evictions = 0;
        std::uint64_t latch_waits = 0; ///< hits that blocked on compute
        std::size_t entries = 0;  ///< currently resident
    };

    /**
     * Internal counters since the last clear().  The same counts
     * stream into the obs registry (`func_cache.*`, see
     * obs/metrics.h) when `FOCUS_OBS` enables it.
     */
    Stats stats() const;

  private:
    FunctionalCache() = default;

    struct Entry
    {
        bool ready = false;
        bool failed = false;
        MethodEval value;
    };

    void evictOverflowLocked();

    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::unordered_map<std::string, std::shared_ptr<Entry>> map_;
    std::deque<std::string> order_; ///< insertion order for eviction
    std::size_t capacity_ = 256;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t latch_waits_ = 0;
};

} // namespace focus

#endif // FOCUS_EVAL_FUNC_CACHE_H
