/**
 * @file
 * Functional VLM transformer with concentration hooks.
 *
 * The model is a pre-norm decoder stack (RMSNorm -> multi-head causal
 * attention -> RMSNorm -> SwiGLU FFN) over [visual tokens ; text
 * tokens], mirroring the Qwen2-style LLM backbone of the paper's
 * evaluated models at reduced width.  Weight matrices carry an
 * identity component in Q/K so cross-modal attention is semantically
 * informative (text queries attend to image regions containing the
 * queried content), which is the property SEC exploits.
 *
 * The forward pass measures, per layer, everything the cycle model
 * later needs: active token counts before/after semantic pruning and
 * the unique-vector fractions of every similarity-gather site.
 */

#ifndef FOCUS_VLM_MODEL_H
#define FOCUS_VLM_MODEL_H

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"
#include "vlm/method.h"
#include "workload/profiles.h"
#include "workload/scene.h"
#include "workload/video_gen.h"

namespace focus
{

/** Per-layer measurements from one forward pass. */
struct LayerRecord
{
    int64_t visual_in = 0;   ///< active visual tokens entering the layer
    int64_t visual_out = 0;  ///< after semantic pruning (== in if none)
    int64_t text = 0;        ///< text tokens (never pruned)

    /**
     * Mean unique-vector fraction of each similarity-gather site
     * (1.0 when SIC is off).  Sites follow the dataflow:
     * qkv_in   — the stream feeding the Q/K/V projections
     * oproj_in — PV output feeding the O projection
     * ffn_in   — attention-block output feeding gate/up
     * down_in  — FFN inner activations feeding the down projection
     */
    double psi_qkv = 1.0;
    double psi_oproj = 1.0;
    double psi_ffn = 1.0;
    double psi_down = 1.0;

    /** All per-(tile,slice) unique fractions observed this layer. */
    std::vector<double> tile_fracs;
};

/** Result of a forward pass. */
struct ForwardResult
{
    bool correct = false;
    int predicted_color = -1;

    double ops = 0.0;        ///< GEMM MACs required by the method
    double dense_ops = 0.0;  ///< GEMM MACs of the dense reference

    /** Computation sparsity per the paper: 1 - ops/dense_ops. */
    double
    sparsity() const
    {
        return dense_ops <= 0.0 ? 0.0 : 1.0 - ops / dense_ops;
    }

    int64_t visual_initial = 0;  ///< visual tokens after preprocessing
    int64_t visual_original = 0; ///< visual tokens before any reduction

    std::vector<LayerRecord> layers;

    /** Readout attention over active visual tokens (diagnostics). */
    std::vector<float> readout_attention;
    /** Original index of each active visual token at readout. */
    std::vector<int64_t> active_original;
};

/**
 * The functional model.  Weights are deterministic in the seed, so a
 * (model profile, seed) pair defines a reproducible "checkpoint".
 */
class VlmModel
{
  public:
    VlmModel(const ModelProfile &profile, uint64_t seed);

    /**
     * Run one sample under a method: forwardBatch() with a batch of
     * one.  @p bank is needed to classify the answer readout.
     */
    ForwardResult forward(const VideoSample &sample,
                          const MethodConfig &method,
                          const PrototypeBank &bank) const;

    /**
     * Run a batch of samples under one method; this is the one
     * forward-pass implementation.  The samples' rows are packed
     * through the projection / FFN / readout GEMMs of the kernel tier
     * (tensor/kernels.h) so per-sample small GEMMs become a few large
     * ones, with the attention interiors on the query-row-tiled
     * causal kernels.  Results are bit-identical at every batch split
     * (a sample's result does not depend on which other samples share
     * its batch): GEMM output rows are independent (per-element
     * ascending-k accumulation), the causal QK^T/PV kernels compute
     * each element in a fixed order, and everything per-sample
     * (softmax, SEC, SIC, readout) runs on per-sample buffers.
     * Evaluator::runFunctional computes its cache misses here.
     */
    std::vector<ForwardResult>
    forwardBatch(const VideoSample *const *samples, int64_t count,
                 const MethodConfig &method,
                 const PrototypeBank &bank) const;

    const ModelProfile &profile() const { return prof_; }

    /**
     * Compute the cross-modal attention heatmap of the *first* layer
     * for a sample: returns per-visual-token max attention received
     * from any text token, any head (the Fig. 2(a) visualization).
     */
    std::vector<float> attentionHeatmap(const VideoSample &sample) const;

  private:
    struct LayerWeights
    {
        Tensor wq, wk, wv, wo;  ///< (D x D)
        Tensor wg, wu;          ///< (D x I)
        Tensor wd;              ///< (I x D)
        Tensor n1, n2;          ///< RMSNorm gains (D)
    };

    ModelProfile prof_;
    std::vector<LayerWeights> layers_;

    /** Weights round-tripped through int8 (for MethodConfig::int8). */
    std::vector<LayerWeights> layers_int8_;

    /**
     * Multi-head causal attention over one unpacked sample; fills
     * per-head probabilities (used by attentionHeatmap).
     */
    void attention(const Tensor &xn, const LayerWeights &w,
                   std::vector<Tensor> &head_probs, Tensor &q,
                   Tensor &k, Tensor &v) const;
};

} // namespace focus

#endif // FOCUS_VLM_MODEL_H
