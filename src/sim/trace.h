/**
 * @file
 * Full-scale workload traces for the timing model.
 *
 * A trace describes, layer by layer at *paper scale* (3584 hidden, 28
 * layers, ~6.3k visual tokens), every GEMM the accelerator executes
 * together with the concentration state: active token rows, the
 * unique-vector fraction of the (gathered) input stream, and whether
 * the output passes through Similarity Gather.  Traces are built from
 * functional measurements at reduced scale (see eval/), with SEC
 * token counts reproduced exactly from the Tbl. I retention schedule.
 */

#ifndef FOCUS_SIM_TRACE_H
#define FOCUS_SIM_TRACE_H

#include <cstdint>
#include <string>
#include <vector>

#include "vlm/method.h"
#include "workload/profiles.h"

namespace focus
{

/** GEMM site within a transformer layer. */
enum class GemmSite
{
    Qkv,    ///< Q/K/V projections (count = 3)
    Qk,     ///< attention scores (per head)
    Pv,     ///< attention values (per head)
    OProj,  ///< output projection
    GateUp, ///< FFN gate and up (count = 2)
    Down,   ///< FFN down
};

const char *gemmSiteName(GemmSite s);

/** One GEMM execution (possibly replicated `count` times). */
struct GemmEvent
{
    GemmSite site = GemmSite::Qkv;
    int64_t m = 0;  ///< token rows
    int64_t k = 0;  ///< inner dim
    int64_t n = 0;  ///< output dim
    int count = 1;  ///< identical instances (heads, gate+up, ...)

    /** Unique-vector fraction of the input stream (1 = dense). */
    double psi_in = 1.0;
    /** Output passes through Similarity Gather. */
    bool gather_out = false;
    /** Unique fraction of the gathered output (write compression). */
    double psi_out = 1.0;

    double
    macs() const
    {
        return static_cast<double>(m) * k * n * count * psi_in;
    }
};

/**
 * Per-request row span of one layer inside a fused multi-query trace.
 * Attention, softmax and SEC are private to a request — a query never
 * attends across batch boundaries — so the cost models need the
 * per-request partition of the concatenated rows, not just the sums.
 */
struct QueryRows
{
    int64_t visual_in = 0;
    int64_t visual_out = 0;
    int64_t text = 0;
    /** Top-k size if SEC prunes this request at this layer, else 0. */
    int64_t sec_topk = 0;
    /**
     * Prefix-cached context rows: retained visual tokens restored
     * from the cross-request cache (serve/prefix_cache.h) instead of
     * recomputed.  They contribute attention keys/values (the Qk/Pv
     * events stream them, the softmax normalizes over them) but no
     * query rows — rowsIn/rowsOut stay the *computed* row counts.
     */
    int64_t cached_visual = 0;

    int64_t rowsIn() const { return visual_in + text; }
    int64_t rowsOut() const { return visual_out + text; }
};

/** One transformer layer's events. */
struct LayerEvents
{
    int64_t visual_in = 0;
    int64_t visual_out = 0;
    int64_t text = 0;
    /** Top-k size if SEC prunes at this layer, else 0. */
    int64_t sec_topk = 0;
    /** Prefix-cached context rows (see QueryRows::cached_visual). */
    int64_t cached_visual = 0;
    std::vector<GemmEvent> gemms;

    /**
     * Per-request spans when this layer belongs to a fused batch
     * trace (see fuseTraces); empty for single-query traces, where
     * the scalar fields above describe the one request.
     */
    std::vector<QueryRows> queries;

    int64_t rowsIn() const { return visual_in + text; }
    int64_t rowsOut() const { return visual_out + text; }
};

/** A complete accelerator workload. */
struct WorkloadTrace
{
    std::string model;
    std::string dataset;
    std::string method;

    int64_t visual0 = 0;  ///< visual tokens entering layer 0
    int64_t visual_original = 0; ///< before any input reduction
    int64_t text = 0;
    int64_t hidden = 0;
    int64_t heads = 0;
    int64_t head_dim = 0;
    int64_t ffn_inner = 0;

    std::vector<LayerEvents> layers;

    /**
     * Empirical unique-fraction distribution over (tile, slice)
     * pairs, pooled across layers; the timing model samples it
     * round-robin for per-tile variation (Fig. 13).
     *
     * Sampler-order invariant: within one simulateAccelerator call a
     * single round-robin cursor walks this vector, consuming exactly
     * one draw per (m-tile, n-tile, k-sub-tile) of every SIC-input
     * GEMM, in layer -> event -> m-tile -> n-tile -> k-sub-tile
     * order.  Both cycle-model backends (FOCUS_SIM_BACKEND=walk|fast)
     * and the fast backend's memoization preserve this order, which
     * is what makes their outputs bit-identical — see
     * docs/SIMULATOR.md and tests/test_sim_equiv.cc.
     */
    std::vector<double> tile_fracs;

    /** Functional computation sparsity (cross-check). */
    double functional_sparsity = 0.0;

    /** Requests fused into this trace (1 = single query). */
    int batch_size = 1;

    /**
     * Tensor-parallel group size this trace is a shard of (1 =
     * unsplit).  The accelerator model adds ring-collective
     * interconnect cost per layer only when tp_degree > 1, so an
     * unsplit trace's metrics are bit-identical to pre-split builds.
     */
    int tp_degree = 1;
    /** Shard index within the tensor-parallel group. */
    int tp_rank = 0;

    /** Total GEMM MACs of the trace. */
    double totalMacs() const;

    /**
     * Serving cost key: total active rows summed over layers
     * (rowsIn).  Proportional to the retained-token footprint, so the
     * concentration-aware scheduler can group requests whose SEC
     * schedules leave similar work behind.
     */
    int64_t retainedRows() const;
};

/**
 * Per-reduced-layer aggregates measured by the functional runs; the
 * bridge between the functional model and the full-scale trace.
 */
struct FunctionalAggregate
{
    int reduced_layers = 0;

    /** Mean active-visual fraction entering / leaving each layer. */
    std::vector<double> keep_in;
    std::vector<double> keep_out;

    /** Mean unique-vector fraction per gather site per layer. */
    std::vector<double> psi_qkv;
    std::vector<double> psi_oproj;
    std::vector<double> psi_ffn;
    std::vector<double> psi_down;

    /** Pooled per-(tile,slice) unique fractions. */
    std::vector<double> tile_fracs;

    double accuracy = 0.0;
    double sparsity = 0.0;
    int64_t samples = 0;
};

/**
 * Build a full-scale trace.
 *
 * For MethodKind::Focus the per-layer token counts follow the exact
 * Tbl. I retention schedule at full depth; psi values map from the
 * reduced functional layers.  For baselines the measured keep
 * fractions apply uniformly (input-side reduction).
 */
WorkloadTrace buildTrace(const ModelProfile &model,
                         const DatasetProfile &dataset,
                         const MethodConfig &method,
                         const FunctionalAggregate &agg);

/** Dense trace (no method, no functional data needed). */
WorkloadTrace buildDenseTrace(const ModelProfile &model,
                              const DatasetProfile &dataset);

/**
 * Fuse per-request traces into one multi-query batch trace.
 *
 * All parts must share the backbone geometry (hidden, heads,
 * head_dim, ffn_inner, layer count); token counts, methods and
 * datasets may differ.  Per layer:
 *
 *  - Shared-weight GEMMs (QKV, O-proj, FFN gate/up/down) merge into
 *    one event with the row counts concatenated (m = sum m_i), so
 *    the accelerator streams each weight panel once per fused m-tile
 *    sweep instead of once per request.  The unique-vector fractions
 *    are row-weighted so the fused MAC total equals the sum of the
 *    parts'.
 *  - Attention GEMMs (QK^T, PV) stay one event per request: a query
 *    only attends within its own token rows.
 *  - LayerEvents::queries records the per-request spans so the SFU
 *    softmax and SEC sorter models cost sum(r_i^2), not (sum r_i)^2.
 *
 * A single-part fusion returns the input verbatim, which makes the
 * batch-of-1 serving path bit-identical to the unbatched simulation.
 * Parts may themselves be fused traces: re-fusion flattens their
 * per-request spans and attention events, so incrementally grown
 * batches behave like one flat fusion.
 */
WorkloadTrace fuseTraces(const std::vector<const WorkloadTrace *> &parts);

/**
 * Derive the prefix-cache *hit* trace of a single-query trace: the
 * retained visual token set is restored from the cross-request cache
 * (serve/prefix_cache.h) instead of recomputed, so only the text
 * (question) rows flow through the backbone while the cached rows
 * serve as attention context.
 *
 * Per layer: the layer's original visual_in moves to cached_visual,
 * visual_in/visual_out drop to zero, and SEC is disabled (the
 * retained set was already concentrated when the slab was built).
 * The projection and FFN GEMMs shrink to the text rows; QK^T keeps
 * every original key (n = text + cached) and PV every original value
 * row (k = text + cached), which is exactly how the accelerator
 * model charges the cached-KV DRAM streaming — the attention events'
 * weight-stream term reads K/V per query m-tile.  SIC is off on the
 * hit path (psi = 1, no gathers, no tile_fracs draws): the text rows
 * are too few to amortize a concentration pass.
 *
 * A hit trace with zero cached rows would be a degenerate request;
 * the function requires an unfused (batch_size == 1), unsplit
 * (tp_degree == 1) input and panics otherwise — hits are decided per
 * request before fusion, and parallel splits happen downstream.
 */
WorkloadTrace applyPrefixCache(const WorkloadTrace &trace);

/**
 * Exact work accounting of a trace, on quantities that partition
 * *exactly* under the parallel splits below.  The psi-weighted MAC
 * total (GemmEvent::macs) is floating point and only approximately
 * distributive, so conservation tests assert on the integer fields
 * with equality and on weighted_macs with a relative tolerance.
 */
struct TraceWork
{
    /** Sum of m*k*n*count over all events (psi-free, exact). */
    int64_t dense_macs = 0;
    /** Sum of GemmEvent::macs() (psi-weighted, floating point). */
    double weighted_macs = 0.0;
    /** Sum of per-layer active rows (WorkloadTrace::retainedRows). */
    int64_t retained_rows = 0;
    /** Sum of k*n*2*count over all events (one weight-panel pass). */
    int64_t weight_bytes = 0;
};

TraceWork traceWork(const WorkloadTrace &trace);

/**
 * Megatron-style tensor-parallel split of @p trace into @p tp shards.
 *
 * Per layer: QKV and FFN gate/up are column-parallel (the output dim
 * n partitions), O-proj and FFN down are row-parallel (the inner dim
 * k partitions), and the per-head attention events (QK^T, PV)
 * partition by head count.  Every dimension is apportioned with an
 * exact integer split (shard i gets total/tp plus one of the
 * remainder), so dense MACs and weight bytes sum back to the unsplit
 * totals exactly; token rows replicate — every shard streams the full
 * activation set, which is what the post-layer all-reduce pays for.
 * Shards carry tp_degree/tp_rank so simulateAccelerator adds the
 * reduce-scatter + all-gather interconnect term after O-proj and
 * down; tp == 1 returns the input verbatim (taken by value, so a
 * caller that moves its trace in pays no copy on the unsplit path).
 *
 * Fatal when tp is non-positive or exceeds the head count (a shard
 * would own no attention head).
 */
std::vector<WorkloadTrace> splitTensorParallel(WorkloadTrace trace,
                                               int tp);

/**
 * Data-parallel split: partition the per-request @p parts round-robin
 * across @p dp engine groups and fuse each group (fuseTraces).  Rows
 * and MACs partition exactly; weights replicate per group (each
 * engine streams the full panel set).  No interconnect term —
 * inference data parallelism needs no gradient exchange.
 *
 * Fatal when dp is non-positive or exceeds the part count (a group
 * would be empty).
 */
std::vector<WorkloadTrace>
splitDataParallel(const std::vector<const WorkloadTrace *> &parts, int dp);

} // namespace focus

#endif // FOCUS_SIM_TRACE_H
