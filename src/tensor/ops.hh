/**
 * @file
 * FP32 tensor operators: the FP32 GEMM (the training GEMM's baseline
 * precision), the elementwise, pooling and bias steps around the
 * trained layers, and the softmax cross-entropy loss.
 */

#ifndef RAPID_TENSOR_OPS_HH
#define RAPID_TENSOR_OPS_HH

#include "tensor/tensor.hh"

namespace rapid {

/** Geometry of a 2-D convolution. */
struct ConvParams
{
    int64_t stride = 1;
    int64_t pad = 0;
    int64_t groups = 1; ///< groups == Ci for depthwise convolutions
};

/** Output spatial size of a convolution dimension. */
int64_t convOutDim(int64_t in, int64_t kernel, int64_t stride,
                   int64_t pad);

/**
 * Matrix product: (M, K) x (K, N) -> (M, N), with the bits of the
 * i-j-k triple loop: each output has its own double accumulator,
 * starts at +0.0, adds double(a) * double(b) in ascending k, skipping
 * no zero (0 * Inf is NaN), and is rounded to float once. The product
 * is exact in double, so an FMA contraction changes nothing. Only
 * the sign and payload of a NaN output are left open.
 *
 * The kernel (tensor/lane_matmul.hh) holds a block of 4 output rows by
 * W output columns in double vector registers across the whole k loop,
 * at the widest lane width W (4, 8 or 16 floats: SSE2, AVX2, AVX-512)
 * this CPU executes, picked once per process. An output narrower than
 * W and taller than it is wide (the N=2 logit GEMMs) runs as
 * C^T = B^T A^T, so that M fills the lanes; each output keeps the same
 * products in the same order.
 */
Tensor matmul(const Tensor &a, const Tensor &b);

/** Transpose of a rank-2 tensor. */
Tensor transpose(const Tensor &a);

/** The (@p cols, @p rows) transpose of the row-major @p src (row
 *  stride @p lds) into @p dst (row stride @p ldd), 4x4 tiles at a time
 *  through registers; every bit pattern is copied as is. */
void transposeInto(const float *src, int64_t rows, int64_t cols,
                   int64_t lds, float *dst, int64_t ldd);

/** Whether none of the @p n floats at @p v is a NaN or an infinity:
 *  one lane scan of the exponent bits. */
bool allFinite(const float *v, int64_t n);

/** What one scan of a float array finds. */
struct FiniteScan
{
    bool finite = true;    ///< no value is a NaN or an infinity
    float max_abs = 0.0f;  ///< the largest finite magnitude (+0 if none)
};

/** The FiniteScan of the @p n floats at @p v: one lane scan of the
 *  bits. A maximum does not depend on the order it is taken in. */
FiniteScan scanFinite(const float *v, int64_t n);

/** Add a per-channel bias (rank-1, length Co) to an NCHW tensor, or a
 * per-column bias to a rank-2 tensor. */
Tensor biasAdd(const Tensor &x, const Tensor &bias);

/** Elementwise ReLU. */
Tensor relu(const Tensor &x);

/** Max pooling with square window @p k and stride @p s over NCHW. */
Tensor maxPool2d(const Tensor &x, int64_t k, int64_t s);

/** Global average pooling: (N, C, H, W) -> (N, C). */
Tensor globalAvgPool(const Tensor &x);

/** Row-wise softmax of a rank-2 tensor. */
Tensor softmax(const Tensor &x);

/** Mean softmax cross-entropy of logits (N, C) against labels. */
float softmaxCrossEntropy(const Tensor &logits,
                          const std::vector<int> &labels);

/** Gradient of softmaxCrossEntropy w.r.t. the logits. */
Tensor softmaxCrossEntropyGrad(const Tensor &logits,
                               const std::vector<int> &labels);

} // namespace rapid

#endif // RAPID_TENSOR_OPS_HH
