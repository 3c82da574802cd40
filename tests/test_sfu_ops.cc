/**
 * @file
 * Accuracy tests for the SFU function library: the fast hardware
 * approximations must track the accurate versions within bounds that
 * keep them usable for DNN auxiliary ops, and must satisfy the
 * functions' structural identities.
 */

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "func/sfu_ops.hh"
#include "precision/float_format.hh"
#include "tensor/ops.hh"

namespace rapid {
namespace {

/** Max error of @p fast_fn against @p ref_fn over @p samples:
 *  relative where the value is large, absolute near zero. */
double
sfuMaxError(float (*fast_fn)(float), double (*ref_fn)(double),
            const std::vector<float> &samples)
{
    double max_err = 0.0;
    for (float s : samples) {
        double ref = ref_fn(double(s));
        double err = std::abs(double(fast_fn(s)) - ref);
        max_err = std::max(max_err,
                           err / std::max(1.0, std::abs(ref)));
    }
    return max_err;
}

std::vector<float>
uniformSamples(double lo, double hi, int n)
{
    std::vector<float> out;
    for (int i = 0; i < n; ++i)
        out.push_back(float(lo + (hi - lo) * i / (n - 1)));
    return out;
}

TEST(SfuFast, ExpErrorBounded)
{
    auto samples = uniformSamples(-20.0, 20.0, 4001);
    double err = sfuMaxError(sfu::fastExp,
                             [](double v) { return std::exp(v); },
                             samples);
    EXPECT_LT(err, 1e-3);
}

TEST(SfuFast, ExpExactAtPowersOfTwoBoundaries)
{
    // The range reduction makes integer powers exact-ish.
    for (int i = -10; i <= 10; ++i) {
        float x = float(i) * 0.69314718f; // i * ln2 -> e^x = 2^i
        EXPECT_NEAR(sfu::fastExp(x) / std::ldexp(1.0f, i), 1.0f,
                    2e-3f);
    }
}

TEST(SfuFast, ExpSaturatesGracefully)
{
    EXPECT_EQ(sfu::fastExp(-200.0f), 0.0f);
    EXPECT_TRUE(std::isinf(sfu::fastExp(200.0f)));
}

TEST(SfuFast, LogErrorBoundedAndInvertsExp)
{
    auto samples = uniformSamples(1e-3, 1e3, 4001);
    double err = sfuMaxError(sfu::fastLog,
                             [](double v) { return std::log(v); },
                             samples);
    EXPECT_LT(err, 2e-3);
    for (float x : {-4.0f, -1.0f, 0.0f, 1.0f, 4.0f})
        EXPECT_NEAR(sfu::fastLog(sfu::fastExp(x)), x, 5e-3f);
}

TEST(SfuFast, ReciprocalConvergesToFullPrecision)
{
    Rng rng(3);
    for (int i = 0; i < 2000; ++i) {
        float x = float(rng.uniform(1e-3, 1e3)) *
                  (rng.uniform() < 0.5 ? -1.0f : 1.0f);
        EXPECT_NEAR(sfu::fastReciprocal(x) * x, 1.0f, 1e-5f);
    }
}

TEST(SfuFast, SigmoidPropertiesAndError)
{
    auto samples = uniformSamples(-15.0, 15.0, 4001);
    double err = sfuMaxError(
        sfu::fastSigmoid,
        [](double v) { return 1.0 / (1.0 + std::exp(-v)); },
        samples);
    EXPECT_LT(err, 1e-3);
    // Symmetry and range invariants.
    for (float x : samples) {
        float s = sfu::fastSigmoid(x);
        EXPECT_GE(s, 0.0f);
        EXPECT_LE(s, 1.0f);
        EXPECT_NEAR(s + sfu::fastSigmoid(-x), 1.0f, 2e-3f);
    }
    EXPECT_NEAR(sfu::fastSigmoid(0.0f), 0.5f, 1e-3f);
}

TEST(SfuTensor, FastVsAccurateWithinDlFloatResolution)
{
    Rng rng(5);
    Tensor x({64});
    x.fillGaussian(rng, 0.0, 2.0);
    Tensor fast = sfuSigmoid(x, SfuMode::Fast);
    Tensor acc = sfuSigmoid(x, SfuMode::Accurate);
    // After DLFloat16 rounding the two tiers rarely differ by more
    // than one ulp.
    for (int64_t i = 0; i < x.numel(); ++i)
        EXPECT_NEAR(fast[i], acc[i], 3e-3f);
}

TEST(SfuTensor, SoftmaxRowsSumToOne)
{
    Rng rng(6);
    Tensor x({8, 32});
    x.fillGaussian(rng, 0.0, 4.0);
    for (auto mode : {SfuMode::Fast, SfuMode::Accurate}) {
        Tensor p = sfuSoftmax(x, mode);
        for (int64_t i = 0; i < 8; ++i) {
            double sum = 0;
            for (int64_t j = 0; j < 32; ++j)
                sum += p.at(i, j);
            EXPECT_NEAR(sum, 1.0, 5e-3) << int(mode);
        }
    }
}

TEST(SfuTensor, SoftmaxFastTracksAccurate)
{
    Rng rng(7);
    Tensor x({4, 64});
    x.fillGaussian(rng, 0.0, 3.0);
    Tensor fast = sfuSoftmax(x, SfuMode::Fast);
    Tensor acc = sfuSoftmax(x, SfuMode::Accurate);
    EXPECT_LT(relativeL2(fast, acc), 5e-3);
}

TEST(SfuTensor, OutputsAreDlFloatRepresentable)
{
    Rng rng(8);
    Tensor x({256});
    x.fillGaussian(rng, 0.0, 2.0);
    for (SfuMode mode : {SfuMode::Fast, SfuMode::Accurate}) {
        Tensor y = sfuSigmoid(x, mode);
        for (int64_t i = 0; i < y.numel(); ++i)
            EXPECT_EQ(dlfloat16().quantize(y[i]), y[i]);
    }
}

} // namespace
} // namespace rapid
