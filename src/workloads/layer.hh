/**
 * @file
 * Workload representation: a DNN is a sequence of layer descriptors
 * (Conv / GEMM / auxiliary). Shapes are per input sample; the
 * performance model scales by batch size at evaluation time. Aux
 * layers carry an element count and a kind, which maps to a per-
 * element SFU cost (accurate vs fast approximations, Section III-B).
 */

#ifndef RAPID_WORKLOADS_LAYER_HH
#define RAPID_WORKLOADS_LAYER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.hh"

namespace rapid {

/** Broad class of a layer for mapping purposes. */
enum class LayerType
{
    Conv, ///< 2-D convolution (runs on the MPE array)
    Gemm, ///< matrix multiply (runs on the MPE array)
    Aux,  ///< auxiliary elementwise/reduction op (runs on the SFU)
};

/** Auxiliary operation kinds with distinct SFU cost profiles. */
enum class AuxKind
{
    ReLU,
    Sigmoid,   ///< approximated ("fast version") on the SFU
    Tanh,
    Gelu,
    BatchNorm, ///< inference-form scale+shift
    LayerNorm,
    Softmax,
    MaxPool,
    AvgPool,
    Eltwise,   ///< residual adds, gate products
    Embedding, ///< table lookup + copy
    Upsample,
    DataMove,  ///< shuffle / permute / transpose / concat
};

/** One layer of a network. */
struct Layer
{
    std::string name;
    LayerType type = LayerType::Aux;

    // --- Conv fields (valid when type == Conv) ---
    int64_t ci = 0, co = 0;  ///< input / output channels
    int64_t h = 0, w = 0;    ///< input spatial size
    int64_t kh = 1, kw = 1;  ///< kernel size
    int64_t stride = 1;
    int64_t pad_h = 0, pad_w = 0; ///< per-dimension padding
    int64_t groups = 1;      ///< groups == ci for depthwise convs

    // --- GEMM fields (valid when type == Gemm) ---
    int64_t gm = 0; ///< rows per sample (seq length, or 1)
    int64_t gk = 0;
    int64_t gn = 0;

    // --- Aux fields (valid when type == Aux) ---
    AuxKind aux_kind = AuxKind::ReLU;
    int64_t aux_elems = 0; ///< output elements per sample

    /// Identical consecutive instances (e.g. LSTM timesteps).
    int64_t repeat = 1;

    /// Weight sparsity of a pruned model variant (Section V-D).
    double weight_sparsity = 0.0;

    /// Layers the paper keeps at high precision beyond the first/last
    /// rule: short-cut projection paths and final output heads
    /// (Section I: "selected ones such as first and last layers,
    /// short-cut paths etc. require high precision").
    bool accuracy_sensitive = false;

    int64_t outH() const;
    int64_t outW() const;

    /** Multiply-accumulate count per input sample (Conv/Gemm only). */
    int64_t macsPerSample() const;

    /** Weight (parameter) element count, zero for Aux layers. */
    int64_t weightElems() const;

    /** Input activation elements per sample. */
    int64_t inputElemsPerSample() const;

    /** Output activation elements per sample. */
    int64_t outputElemsPerSample() const;

    bool isCompute() const { return type != LayerType::Aux; }
};

/** A whole benchmark network. */
struct Network
{
    std::string name;
    std::string domain; ///< "image", "detection", "nlp", "speech"
    std::vector<Layer> layers;

    int64_t macsPerSample() const;
    int64_t weightElems() const;
    int64_t numComputeLayers() const;
};

/** SFU operations per element for an auxiliary kind. */
double auxOpsPerElement(AuxKind kind);

} // namespace rapid

#endif // RAPID_WORKLOADS_LAYER_HH
