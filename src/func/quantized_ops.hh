/**
 * @file
 * Functional executors that run tensor operations through the emulated
 * RaPiD datapaths:
 *
 *   - INT4/INT2 conv & GEMM: PACT-quantized activations and
 *     SaWB-quantized weights multiplied on the FXU pipeline, chunked
 *     integer partial sums emitted as saturating INT16 and reduced on
 *     the SFU (Section III-A.3).
 *   - HFP8 conv & GEMM: operands quantized to the FP8 flavour the pass
 *     requires, converted to FP9, multiplied, and chunk-accumulated in
 *     DLFloat16 (Section III-A.2).
 *   - FP16 conv & GEMM: the baseline DLFloat16 path.
 *
 * All executors produce FP16-representable outputs like the hardware's
 * south datapath, and are validated against the FP32 golden operators.
 */

#ifndef RAPID_FUNC_QUANTIZED_OPS_HH
#define RAPID_FUNC_QUANTIZED_OPS_HH

#include "precision/chunk_accumulator.hh"
#include "precision/mpe_datapath.hh"
#include "precision/quantize.hh"
#include "tensor/ops.hh"
#include "tensor/tensor.hh"

namespace rapid {

/** Execution knobs shared by the reduced-precision executors. */
struct ExecConfig
{
    size_t chunk_size = 64;  ///< LRF-resident reduction length
    bool fp32_outer = true;  ///< SFU inter-chunk reduction precision
    int fwd_bias = 4;        ///< programmable FP8 (1,4,3) exponent bias
    Rounding rounding = Rounding::NearestEven;
};

/**
 * The lane half-width W, in floats, of the calling thread's FP16 and
 * HFP8 GEMM kernel: 16 on a CPU with AVX-512 F/DQ/BW/VL, 8 with AVX2,
 * else 4. Picked once per process; every width gives the same bits.
 */
int64_t chunkedGemmLaneWidth();

/** FP16 (DLFloat16) GEMM: (M,K) x (K,N), FP16-rounded accumulation. */
Tensor fp16Matmul(const Tensor &a, const Tensor &b,
                  const ExecConfig &cfg = {});

/** FP16 convolution with chunked DLFloat16 accumulation. */
Tensor fp16Conv2d(const Tensor &input, const Tensor &weight,
                  const ConvParams &params = {},
                  const ExecConfig &cfg = {});

/**
 * HFP8 GEMM. @p a_kind / @p b_kind select the FP8 flavour of each
 * operand tensor: (Forward, Forward) for inference/forward pass,
 * mixed for backward and gradient GEMMs (Figure 3).
 */
Tensor hfp8Matmul(const Tensor &a, Fp8Kind a_kind, const Tensor &b,
                  Fp8Kind b_kind, const ExecConfig &cfg = {});

/**
 * INT4/INT2 GEMM through the FXU pipeline: (M,K) x (K,N). Activations
 * in @p a are quantized by @p act_q (PACT levels, so @p a should be
 * post-ReLU); weights in @p b by @p wt_q. Integer chunk sums saturate
 * to INT16, then dequantized partial results reduce on the SFU and are
 * emitted as DLFloat16. Operands that are not rank-2 or whose inner
 * dimensions differ, and quantizers of another width, are rejected by
 * assertion.
 */
Tensor intMatmul(const Tensor &a, const PactQuantizer &act_q,
                 const Tensor &b, const SawbQuantizer &wt_q,
                 unsigned width, const ExecConfig &cfg = {});

/**
 * INT4/INT2 convolution (same quantization scheme as intMatmul). The
 * input's channels must be the weight's Ci/groups times the groups.
 */
Tensor intConv2d(const Tensor &input, const PactQuantizer &act_q,
                 const Tensor &weight, const SawbQuantizer &wt_q,
                 unsigned width, const ConvParams &params = {},
                 const ExecConfig &cfg = {});

/** Validated shape of a grouped 2-D convolution. */
struct ConvShape
{
    int64_t n, ci, h, w;     ///< input (N, Ci, H, W)
    int64_t co, cig, kh, kw; ///< weight (Co, Ci/groups, Kh, Kw)
    int64_t ho, wo;          ///< output spatial dims
    int64_t groups, stride, pad;

    int64_t coPerGroup() const { return co / groups; }
    /** Rows of one group's im2col matrix: the reduction length. */
    int64_t reduction() const { return cig * kh * kw; }
    int64_t pixels() const { return ho * wo; }
};

/** The shape of convolving @p input with a (Co, Ci/groups, Kh, Kw)
 *  @p kernel; malformed geometry is rejected by assertion. */
ConvShape convShape(const Tensor &input, const std::vector<int64_t> &kernel,
                    const ConvParams &params);

/**
 * The im2col patches of an ungrouped convolution as rows: row
 * (n, oy, ox) of the (N*Ho*Wo, Ci*Kh*Kw) result is the receptive field
 * of that output in (ci, ky, kx) order, zero in the padding.
 */
Tensor im2colRows(const Tensor &input, const ConvShape &shape);

/**
 * The adjoint of im2colRows(): each entry of @p rows is added into the
 * input element it was gathered from, per image in (ci, ky, kx, oy,
 * ox) order, in FP32. Returns (N, Ci, H, W).
 */
Tensor col2imRows(const Tensor &rows, const ConvShape &shape);

/** Quantize every element of @p t to the given FP8 flavour. */
Tensor quantizeTensorFp8(const Tensor &t, Fp8Kind kind,
                         const ExecConfig &cfg = {});

/** Quantize every element of @p t to DLFloat16. */
Tensor quantizeTensorFp16(const Tensor &t,
                          Rounding rounding = Rounding::NearestEven);

} // namespace rapid

#endif // RAPID_FUNC_QUANTIZED_OPS_HH
