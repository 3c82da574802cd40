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

/** Matrix product: (M, K) x (K, N) -> (M, N). */
Tensor matmul(const Tensor &a, const Tensor &b);

/** Transpose of a rank-2 tensor. */
Tensor transpose(const Tensor &a);

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
