/**
 * @file
 * Tests for the convolution gradients (validated against finite
 * differences) and the CNN training framework's precision parity.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "conv_reference.hh"
#include "func/cnn.hh"

namespace rapid {
namespace {

/** Scalar loss: sum of conv output elements (gradient of ones). */
double
convSum(const Tensor &x, const Tensor &w, const ConvParams &p)
{
    Tensor y = conv2d(x, w, p);
    double s = 0;
    for (int64_t i = 0; i < y.numel(); ++i)
        s += y[i];
    return s;
}

TEST(ConvGrad, WeightGradientMatchesFiniteDifference)
{
    Rng rng(41);
    Tensor x({2, 3, 6, 6}), w({4, 3, 3, 3});
    x.fillGaussian(rng, 0.0, 0.5);
    w.fillGaussian(rng, 0.0, 0.5);
    ConvParams p;
    p.pad = 1;

    Tensor y = conv2d(x, w, p);
    Tensor ones(y.shape());
    std::ranges::fill(ones.storage(), 1.0f);
    Tensor dw = conv2dGradWeight(ones, x, p, 3, 3);

    const double eps = 1e-3;
    for (int64_t idx : {0L, 17L, 53L, dw.numel() - 1}) {
        Tensor wp = w, wm = w;
        wp[idx] += float(eps);
        wm[idx] -= float(eps);
        double numeric =
            (convSum(x, wp, p) - convSum(x, wm, p)) / (2 * eps);
        EXPECT_NEAR(dw[idx], numeric, 2e-2) << "idx=" << idx;
    }
}

TEST(ConvGrad, InputGradientMatchesFiniteDifference)
{
    Rng rng(42);
    Tensor x({1, 2, 5, 5}), w({3, 2, 3, 3});
    x.fillGaussian(rng, 0.0, 0.5);
    w.fillGaussian(rng, 0.0, 0.5);
    ConvParams p;
    p.pad = 1;
    p.stride = 2;

    Tensor y = conv2d(x, w, p);
    Tensor ones(y.shape());
    std::ranges::fill(ones.storage(), 1.0f);
    Tensor dx = conv2dGradInput(ones, w, p, 5, 5);
    ASSERT_EQ(dx.shape(), x.shape());

    const double eps = 1e-3;
    for (int64_t idx : {0L, 11L, 24L, dx.numel() - 1}) {
        Tensor xp = x, xm = x;
        xp[idx] += float(eps);
        xm[idx] -= float(eps);
        double numeric =
            (convSum(xp, w, p) - convSum(xm, w, p)) / (2 * eps);
        EXPECT_NEAR(dx[idx], numeric, 2e-2) << "idx=" << idx;
    }
}

TEST(ConvGrad, StridedShapesConsistent)
{
    // Gradient shapes must mirror the forward shapes for strides.
    Tensor x({1, 4, 8, 8}), w({6, 4, 3, 3});
    ConvParams p;
    p.pad = 1;
    p.stride = 2;
    Tensor y = conv2d(x, w, p);
    Tensor g(y.shape());
    std::ranges::fill(g.storage(), 1.0f);
    EXPECT_EQ(conv2dGradInput(g, w, p, 8, 8).shape(), x.shape());
    EXPECT_EQ(conv2dGradWeight(g, x, p, 3, 3).shape(), w.shape());
}

TEST(Stripes, DatasetIsBalancedAndOriented)
{
    Rng rng(43);
    ImageDataset ds = makeStripes(rng, 64, 0.1);
    EXPECT_EQ(ds.size(), 128);
    int ones = 0;
    for (int l : ds.labels)
        ones += l;
    EXPECT_EQ(ones, 64);
    // Horizontal samples vary along rows, not columns.
    for (int64_t s = 0; s < ds.size(); ++s) {
        if (ds.labels[size_t(s)] != 0)
            continue;
        double row_var = 0, col_var = 0;
        for (int64_t y = 0; y + 1 < 8; ++y)
            for (int64_t x = 0; x < 8; ++x)
                row_var += std::abs(ds.images.at(s, 0, y + 1, x) -
                                    ds.images.at(s, 0, y, x));
        for (int64_t y = 0; y < 8; ++y)
            for (int64_t x = 0; x + 1 < 8; ++x)
                col_var += std::abs(ds.images.at(s, 0, y, x + 1) -
                                    ds.images.at(s, 0, y, x));
        EXPECT_GT(row_var, col_var);
        break; // one sample suffices
    }
}

/**
 * Train identical CNNs at FP32 and @p precision on the stripes task
 * and compare test accuracies (CNN counterpart of runTrainingParity()).
 */
ParityResult
runCnnTrainingParity(TrainPrecision precision, const ImageDataset &train,
                     const ImageDataset &test, int epochs = 12,
                     int64_t batch = 16)
{
    CnnConfig base;
    base.precision = TrainPrecision::FP32;
    CnnConfig reduced = base;
    reduced.precision = precision;

    SmallCnn fp32(base);
    fp32.train(train, epochs, batch);
    SmallCnn red(reduced);
    red.train(train, epochs, batch);
    return {fp32.evaluate(test), red.evaluate(test)};
}

TEST(SmallCnn, Fp32LearnsStripes)
{
    Rng rng(44);
    ImageDataset all = makeStripes(rng, 160);
    ImageDataset train = all.slice(0, 256);
    ImageDataset test = all.slice(256, 64);
    CnnConfig cfg;
    SmallCnn cnn(cfg);
    cnn.train(train, 12, 16);
    EXPECT_GT(cnn.evaluate(test), 0.95);
}

TEST(SmallCnn, Hfp8TrainingParityOnConvNet)
{
    // The Section II-B claim on a convolutional model: HFP8 training
    // matches FP32 training.
    Rng rng(45);
    ImageDataset all = makeStripes(rng, 160);
    ImageDataset train = all.slice(0, 256);
    ImageDataset test = all.slice(256, 64);
    ParityResult r =
        runCnnTrainingParity(TrainPrecision::HFP8, train, test);
    EXPECT_GT(r.baseline_accuracy, 0.95);
    EXPECT_GT(r.reduced_accuracy, 0.95);
    EXPECT_LT(std::abs(r.gap()), 0.05);
}

TEST(SmallCnn, Fp16TrainingParityOnConvNet)
{
    Rng rng(46);
    ImageDataset all = makeStripes(rng, 160);
    ImageDataset train = all.slice(0, 256);
    ImageDataset test = all.slice(256, 64);
    ParityResult r =
        runCnnTrainingParity(TrainPrecision::FP16, train, test);
    EXPECT_LT(std::abs(r.gap()), 0.05);
}

TEST(SmallCnn, SurvivesNoisyTask)
{
    // Heavier noise: training still beats chance comfortably at HFP8.
    Rng rng(47);
    ImageDataset all = makeStripes(rng, 160, /*noise=*/0.8);
    ImageDataset train = all.slice(0, 256);
    ImageDataset test = all.slice(256, 64);
    CnnConfig cfg;
    cfg.precision = TrainPrecision::HFP8;
    SmallCnn cnn(cfg);
    cnn.train(train, 12, 16);
    EXPECT_GT(cnn.evaluate(test), 0.8);
}

} // namespace
} // namespace rapid
