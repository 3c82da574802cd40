#include "func/cnn.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hh"
#include "tensor/ops.hh"

namespace rapid {

ImageDataset
ImageDataset::slice(int64_t begin, int64_t count) const
{
    rapid_assert(begin >= 0 && begin + count <= size(),
                 "image dataset slice out of range");
    const int64_t c = images.dim(1), h = images.dim(2),
                  w = images.dim(3);
    ImageDataset out;
    out.images = Tensor({count, c, h, w});
    out.labels.resize(size_t(count));
    const int64_t per = c * h * w;
    for (int64_t i = 0; i < count; ++i) {
        for (int64_t j = 0; j < per; ++j)
            out.images[i * per + j] = images[(begin + i) * per + j];
        out.labels[size_t(i)] = labels[size_t(begin + i)];
    }
    return out;
}

ImageDataset
makeStripes(Rng &rng, int64_t samples_per_class, double noise)
{
    const int64_t n = 2 * samples_per_class, hw = 8;
    ImageDataset ds;
    ds.images = Tensor({n, 1, hw, hw});
    ds.labels.resize(size_t(n));
    std::vector<int64_t> order(static_cast<size_t>(n), 0);
    std::iota(order.begin(), order.end(), 0);
    std::shuffle(order.begin(), order.end(), rng.engine());
    for (int64_t s = 0; s < n; ++s) {
        const int64_t slot = order[size_t(s)];
        const int cls = s < samples_per_class ? 0 : 1;
        const int phase = int(rng.uniformInt(0, 1));
        const float amp = float(rng.uniform(0.7, 1.3));
        for (int64_t y = 0; y < hw; ++y) {
            for (int64_t x = 0; x < hw; ++x) {
                const int64_t k = (cls == 0 ? y : x) + phase;
                float v = (k % 2 == 0 ? amp : -amp);
                v += float(rng.gaussian(0.0, noise));
                ds.images.at(slot, 0, y, x) = v;
            }
        }
        ds.labels[size_t(slot)] = cls;
    }
    return ds;
}

namespace {

/** (N*Ho*Wo, Co) rows to (N, Co, Ho, Wo), or back if @p to_rows. */
Tensor
permuteRows(const Tensor &t, const ConvShape &s, bool to_rows)
{
    const int64_t pixels = s.pixels();
    Tensor out(to_rows ? std::vector<int64_t>{s.n * pixels, s.co}
                       : std::vector<int64_t>{s.n, s.co, s.ho, s.wo});
    for (int64_t row = 0; row < out.numel(); ++row) {
        const int64_t n = row / (pixels * s.co), c = row % s.co;
        const int64_t nchw = (n * s.co + c) * pixels + row / s.co % pixels;
        (to_rows ? out[row] : out[nchw]) = to_rows ? t[nchw] : t[row];
    }
    return out;
}

/** @p cfg, after throwing InvalidArgument if it is malformed. */
const CnnConfig &
validCnnConfig(const CnnConfig &cfg)
{
    RAPID_CHECK_ARG(cfg.classes > 0 && cfg.conv1_channels > 0 &&
                        cfg.conv2_channels > 0,
                    "CnnConfig class and channel counts must be positive, "
                    "got ", cfg.classes, ", ", cfg.conv1_channels, ", ",
                    cfg.conv2_channels);
    RAPID_CHECK_ARG(std::isfinite(cfg.learning_rate) &&
                        cfg.learning_rate > 0.0f,
                    "CnnConfig.learning_rate must be finite and "
                    "positive, got ", cfg.learning_rate);
    RAPID_CHECK_ARG(std::isfinite(cfg.momentum) && cfg.momentum >= 0.0f &&
                        cfg.momentum < 1.0f,
                    "CnnConfig.momentum must be in [0, 1), got ",
                    cfg.momentum);
    return cfg;
}

} // namespace

ConvLayer::ConvLayer(int64_t ci, int64_t co, int64_t k,
                     const ConvParams &params, Rng &rng)
    : dense(ci * k * k, co, rng), kernel_{co, ci, k, k}, params_(params)
{
}

Tensor
ConvLayer::forward(TrainGemm &gemm, const Tensor &x)
{
    shape_ = convShape(x, kernel_, params_);
    return permuteRows(dense.forward(gemm, im2colRows(x, shape_)), shape_,
                       false);
}

Tensor
ConvLayer::backward(TrainGemm &gemm, const Tensor &dy)
{
    return col2imRows(dense.backward(gemm, permuteRows(dy, shape_, true)),
                      shape_);
}

SmallCnn::SmallCnn(const CnnConfig &cfg)
    : cfg_(validCnnConfig(cfg)), rng_(cfg.seed),
      gemm_{cfg.precision, ExecConfig{.fwd_bias = cfg.fwd_bias}},
      conv1_(1, cfg.conv1_channels, 3, ConvParams{.pad = 1}, rng_),
      conv2_(cfg.conv1_channels, cfg.conv2_channels, 3,
             ConvParams{.pad = 1}, rng_),
      fc_(cfg.conv2_channels, cfg.classes, rng_)
{
}

Tensor
SmallCnn::forward(const Tensor &images)
{
    a1_ = relu(conv1_.forward(gemm_, images));
    p1_ = maxPool2d(a1_, 2, 2);
    a2_ = relu(conv2_.forward(gemm_, p1_));
    return fc_.forward(gemm_, globalAvgPool(a2_));
}

float
SmallCnn::trainStep(const Tensor &images, const std::vector<int> &labels)
{
    Tensor logits = forward(images);
    const float loss = softmaxCrossEntropy(logits, labels);
    const Tensor dg2 =
        fc_.backward(gemm_, softmaxCrossEntropyGrad(logits, labels));

    // GAP backward: spread evenly over the window; ReLU masks.
    Tensor da2(a2_.shape());
    const int64_t hw = a2_.dim(2) * a2_.dim(3);
    const float inv_hw = 1.0f / float(hw);
    for (int64_t i = 0; i < da2.numel(); ++i)
        if (a2_[i] > 0)
            da2[i] = dg2[i / hw] * inv_hw;
    const Tensor dp1 = conv2_.backward(gemm_, da2);

    // Max-pool backward: route to the window's first maximum (a1 <= p1
    // there, so >= finds it); ReLU masks.
    Tensor da1(a1_.shape());
    const int64_t h = a1_.dim(2), w = a1_.dim(3), ho = h / 2, wo = w / 2;
    for (int64_t i = 0; i < dp1.numel(); ++i) {
        const int64_t corner =
            (i / (ho * wo) * h + i / wo % ho * 2) * w + i % wo * 2;
        for (int64_t d = 0; d < 4; ++d) {
            const int64_t src = corner + d / 2 * w + d % 2;
            if (a1_[src] >= p1_[i]) {
                if (a1_[src] > 0)
                    da1[src] += dp1[i];
                break;
            }
        }
    }
    conv1_.backward(gemm_, da1);

    for (DenseLayer *d : {&conv1_.dense, &conv2_.dense, &fc_})
        d->sgdStep(cfg_.learning_rate, cfg_.momentum, 1.0f);
    return loss;
}

void
SmallCnn::train(const ImageDataset &train, int epochs,
                int64_t batch_size)
{
    RAPID_CHECK_ARG(batch_size > 0, "batch_size must be positive, got ",
                    batch_size);
    for (int e = 0; e < epochs; ++e) {
        for (int64_t b = 0; b + batch_size <= train.size();
             b += batch_size) {
            ImageDataset mb = train.slice(b, batch_size);
            trainStep(mb.images, mb.labels);
        }
    }
}

double
SmallCnn::evaluate(const ImageDataset &test)
{
    Tensor logits = forward(test.images);
    return accuracy(logits, test.labels);
}

} // namespace rapid
