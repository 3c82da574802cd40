/**
 * @file
 * A small convolutional network trainer with pluggable precision,
 * extending the HFP8-parity demonstration (Section II-B) from MLPs to
 * the convolution workloads RaPiD actually targets. As in the MLP,
 * every trained layer is a DenseLayer run by a TrainGemm: each
 * convolution is lowered through im2col, so its forward, data- and
 * weight-gradient GEMMs take Figure 3's FP8 operand formats and
 * chunk-based DLFloat16 accumulation.
 */

#ifndef RAPID_FUNC_CNN_HH
#define RAPID_FUNC_CNN_HH

#include <vector>

#include "func/trainer.hh"

namespace rapid {

/** A labelled image dataset: (N, C, H, W) plus integer labels. */
struct ImageDataset
{
    Tensor images{std::vector<int64_t>{1, 1, 1, 1}};
    std::vector<int> labels;

    int64_t size() const { return images.dim(0); }

    /** Slice samples [begin, begin+count). */
    ImageDataset slice(int64_t begin, int64_t count) const;
};

/**
 * Synthetic 1x8x8 orientation task: class 0 = horizontal stripes,
 * class 1 = vertical stripes, with random phase/amplitude and noise.
 */
ImageDataset makeStripes(Rng &rng, int64_t samples_per_class,
                         double noise = 0.25);

/** CNN hyper-parameters. */
struct CnnConfig
{
    int64_t classes = 2;
    int64_t conv1_channels = 8;
    int64_t conv2_channels = 16;
    TrainPrecision precision = TrainPrecision::FP32;
    int fwd_bias = 4; ///< programmable FP8 (1,4,3) exponent bias
    float learning_rate = 0.05f;
    float momentum = 0.9f;
    uint64_t seed = 4321;
};

/**
 * A convolution lowered onto a DenseLayer: the input's im2col rows
 * (N*Ho*Wo, Ci*Kh*Kw) go through the dense layer, whose (Co, Ci*Kh*Kw)
 * weights are the (Co, Ci, Kh, Kw) kernel, and its output rows become
 * NCHW. So the weight gradient comes out in kernel layout, the bias
 * gradient is the dense layer's column sum, and the data gradient is
 * col2im of dY x W. Ungrouped convolutions only.
 */
class ConvLayer
{
  public:
    /** A @p k x @p k kernel from @p ci to @p co channels, initialised
     *  from @p rng as DenseLayer does. */
    ConvLayer(int64_t ci, int64_t co, int64_t k, const ConvParams &params,
              Rng &rng);

    /** (N, Ci, H, W) -> (N, Co, Ho, Wo); caches for backward(). */
    Tensor forward(TrainGemm &gemm, const Tensor &x);

    /** From the output error (N, Co, Ho, Wo), set the dense layer's
     *  gradients and return the input error (N, Ci, H, W). */
    Tensor backward(TrainGemm &gemm, const Tensor &dy);

    DenseLayer dense;

  private:
    std::vector<int64_t> kernel_; ///< (Co, Ci, Kh, Kw)
    ConvParams params_;
    ConvShape shape_{}; ///< of the last forward()
};

/**
 * conv(3x3) -> ReLU -> maxpool(2) -> conv(3x3) -> ReLU -> global
 * average pool -> fc, trained with momentum SGD. Malformed
 * configurations throw InvalidArgument.
 */
class SmallCnn
{
  public:
    explicit SmallCnn(const CnnConfig &cfg);

    /** Forward at the configured precision; returns logits (N, C). */
    Tensor forward(const Tensor &images);

    /** One SGD step; returns the batch loss. */
    float trainStep(const Tensor &images,
                    const std::vector<int> &labels);

    /** Run @p epochs of minibatch SGD over @p train; a non-positive
     *  @p batch_size throws InvalidArgument. */
    void train(const ImageDataset &train, int epochs,
               int64_t batch_size);

    double evaluate(const ImageDataset &test);

  private:
    CnnConfig cfg_;
    Rng rng_;
    TrainGemm gemm_;
    ConvLayer conv1_, conv2_;
    DenseLayer fc_;

    // Forward caches for backprop.
    Tensor a1_, p1_, a2_;
};

} // namespace rapid

#endif // RAPID_FUNC_CNN_HH
