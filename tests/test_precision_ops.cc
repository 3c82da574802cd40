/**
 * @file
 * Tests for the MPE datapath emulation, chunk-based accumulation, and
 * the PACT / SaWB quantizers.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.hh"
#include "common/random.hh"
#include "format_limits.hh"
#include "fp16_fma.hh"
#include "precision/chunk_accumulator.hh"
#include "precision/int_format.hh"
#include "precision/mpe_datapath.hh"
#include "precision/quantize.hh"
#include "quantizer_levels.hh"

namespace rapid {
namespace {

TEST(MpeDatapath, Fp16FmaExactWhenRepresentable)
{
    EXPECT_FLOAT_EQ(fp16Fma(2.0f, 3.0f, 4.0f), 10.0f);
    EXPECT_FLOAT_EQ(fp16Fma(-1.5f, 2.0f, 0.0f), -3.0f);
}

TEST(MpeDatapath, Fp16FmaRoundsOnce)
{
    // 1024 + 1 is a tie at the 10-bit significand: RNE keeps 1024.
    EXPECT_FLOAT_EQ(fp16Fma(1.0f, 1.0f, 1024.0f), 1024.0f);
    // 1026 + 1 ties toward 1028 under RNE.
    EXPECT_FLOAT_EQ(fp16Fma(1.0f, 1.0f, 1026.0f), 1028.0f);
}

TEST(MpeDatapath, ZeroGatingBypassesAndCounts)
{
    MpeDatapath dp;
    const Fp8Kind f = Fp8Kind::Forward;
    EXPECT_FLOAT_EQ(dp.hfp8Fma(0.0f, f, 5.0f, f, 7.25f), 7.25f);
    EXPECT_FLOAT_EQ(dp.hfp8Fma(5.0f, f, 0.0f, f, -2.5f), -2.5f);
    EXPECT_FLOAT_EQ(dp.hfp8Fma(2.0f, f, 2.0f, f, 1.0f), 5.0f);
    EXPECT_EQ(dp.fmaCount(), 3u);
    EXPECT_EQ(dp.zeroGatedCount(), 2u);
}

TEST(MpeDatapath, Hfp8ZeroGatingTriggersOnUnderflowedOperands)
{
    MpeDatapath dp(/*fwd_bias=*/4);
    // A value far below the FP8 subnormal range quantizes to zero, so
    // the pipeline gates even though the original float was non-zero.
    float tiny = 1e-9f;
    EXPECT_FLOAT_EQ(
        dp.hfp8Fma(tiny, Fp8Kind::Forward, 1.0f, Fp8Kind::Forward, 3.0f),
        3.0f);
    EXPECT_EQ(dp.zeroGatedCount(), 1u);
}

TEST(MpeDatapath, Hfp8FmaQuantizesOperands)
{
    MpeDatapath dp(4);
    // 1.1 is not representable in fp8(1,4,3); 1.0 and 1.125 are its
    // neighbours. The FMA must use the quantized operand.
    float q = fp8e4m3(4).quantize(1.1f);
    EXPECT_FLOAT_EQ(dp.hfp8Fma(1.1f, Fp8Kind::Forward, 2.0f,
                               Fp8Kind::Forward, 0.0f),
                    q * 2.0f);
}

TEST(MpeDatapath, Hfp8MixedFormatsUsedInBackwardPass)
{
    MpeDatapath dp(4);
    // 20000 saturates the forward format (max 1920 at bias 4) but is
    // representable in the (1,5,2) backward format (max 57344).
    float fwd_sat = maxFinite(fp8e4m3(4));
    EXPECT_FLOAT_EQ(dp.hfp8Fma(20000.0f, Fp8Kind::Forward, 1.0f,
                               Fp8Kind::Forward, 0.0f),
                    fwd_sat);
    float bwd = dp.hfp8Fma(20000.0f, Fp8Kind::Backward, 1.0f,
                           Fp8Kind::Forward, 0.0f);
    EXPECT_FLOAT_EQ(bwd, fp8e5m2().quantize(20000.0f));
    EXPECT_GT(bwd, fwd_sat);
}

TEST(MpeDatapath, ProgrammableBiasChangesForwardRange)
{
    MpeDatapath dp(4);
    float v = 3000.0f; // above max finite (1920) at bias 4
    EXPECT_FLOAT_EQ(dp.toFp9(v, Fp8Kind::Forward), maxFinite(fp8e4m3(4)));
    // Bias 1 extends the range to 2^13 * 1.875 = 15360, so 3000
    // quantizes normally instead of saturating.
    const MpeDatapath wide(1);
    EXPECT_FLOAT_EQ(wide.toFp9(v, Fp8Kind::Forward),
                    fp8e4m3(1).quantize(3000.0f));
    EXPECT_LT(wide.toFp9(v, Fp8Kind::Forward) - 3000.0f, 3000.0f * 0.07f);
}

TEST(IntFormat, SymmetricRanges)
{
    EXPECT_EQ(int4().maxLevel(), 7);
    EXPECT_EQ(int4().minLevel(), -7);
    EXPECT_EQ(int2().maxLevel(), 1);
    EXPECT_EQ(int2().minLevel(), -1);
}

TEST(IntFormat, QuantizeLevelRoundsAndClamps)
{
    const IntFormat &f = int4();
    EXPECT_EQ(f.quantizeLevel(0.49f, 1.0f), 0);
    EXPECT_EQ(f.quantizeLevel(0.51f, 1.0f), 1);
    EXPECT_EQ(f.quantizeLevel(-3.6f, 1.0f), -4);
    EXPECT_EQ(f.quantizeLevel(100.0f, 1.0f), 7);
    EXPECT_EQ(f.quantizeLevel(-100.0f, 1.0f), -7);
}

TEST(IntFormat, SaturateToInt16)
{
    EXPECT_EQ(saturateToInt16(40000), INT16_MAX);
    EXPECT_EQ(saturateToInt16(-40000), INT16_MIN);
    EXPECT_EQ(saturateToInt16(1234), 1234);
}

TEST(ChunkAccumulator, ExactForShortSums)
{
    ChunkAccumulator acc(64, true);
    for (int i = 0; i < 32; ++i)
        acc.add(1.0);
    EXPECT_FLOAT_EQ(acc.total(), 32.0f);
}

TEST(ChunkAccumulator, NaiveFp16SumStagnates)
{
    // Adding 1.0 to a DLFloat16 accumulator stops making progress at
    // 1024 (the tie rounds back down): the classic swamping failure
    // that chunk-based accumulation [51] exists to fix.
    std::vector<double> ones(4096, 1.0);
    float naive = ChunkAccumulator::naiveFp16Sum(ones.data(), ones.size());
    EXPECT_EQ(naive, 1024.0f);

    ChunkAccumulator chunked(64, true);
    for (double v : ones)
        chunked.add(v);
    EXPECT_FLOAT_EQ(chunked.total(), 4096.0f);
}

TEST(ChunkAccumulator, Fp16OuterStillBeatsNaive)
{
    std::vector<double> ones(4096, 1.0);
    ChunkAccumulator chunked(64, /*fp32_outer=*/false);
    for (double v : ones)
        chunked.add(v);
    // 64 chunks of 64: outer sum counts 64 * 64 with values of
    // magnitude 64, which FP16 handles exactly.
    EXPECT_FLOAT_EQ(chunked.total(), 4096.0f);
}

class ChunkSizeTest : public ::testing::TestWithParam<size_t>
{
};

TEST_P(ChunkSizeTest, ChunkedErrorNoWorseThanNaive)
{
    Rng rng(7 + GetParam());
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<double> terms(2048);
        double exact = 0.0;
        for (auto &t : terms) {
            t = std::abs(rng.gaussian(0.5, 0.3));
            exact += t;
        }
        float naive =
            ChunkAccumulator::naiveFp16Sum(terms.data(), terms.size());
        ChunkAccumulator chunked(GetParam(), true);
        for (double t : terms)
            chunked.add(t);
        double naive_err = std::abs(naive - exact);
        double chunk_err = std::abs(chunked.total() - exact);
        EXPECT_LE(chunk_err, naive_err + 1e-6)
            << "chunk=" << GetParam() << " trial=" << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ChunkSizeTest,
                         ::testing::Values(8, 16, 64, 256));

TEST(Pact, ClipsAndQuantizes)
{
    PactQuantizer q(/*alpha=*/6.0f, /*bits=*/4);
    EXPECT_EQ(q.numLevels(), 15u);
    EXPECT_FLOAT_EQ(quantizedOf(q, -1.0f), 0.0f);
    EXPECT_FLOAT_EQ(quantizedOf(q, 100.0f), 6.0f);
    EXPECT_FLOAT_EQ(quantizedOf(q, 6.0f), 6.0f);
    // Mid-range values land on the uniform grid.
    float s = q.scale();
    for (int level = 0; level <= 15; ++level)
        EXPECT_FLOAT_EQ(quantizedOf(q, level * s), level * s);
}

/** Straight-through-estimator gradient of the PACT activation at clip
 *  @p alpha w.r.t. its input: 1 inside (0, alpha), 0 outside. */
float
pactGradInput(float alpha, float x)
{
    return (x > 0.0f && x < alpha) ? 1.0f : 0.0f;
}

/** Gradient of the PACT activation w.r.t. @p alpha: 1 if x >= alpha. */
float
pactGradAlpha(float alpha, float x)
{
    return x >= alpha ? 1.0f : 0.0f;
}

/** pactBackprop() written out one element at a time: the scalar form
 *  its lanes must reproduce. */
float
pactBackpropOracle(const float *pre, float *dy, int64_t n, float alpha)
{
    float alpha_grad = 0.0f;
    for (int64_t i = 0; i < n; ++i) {
        alpha_grad += dy[i] * pactGradAlpha(alpha, pre[i]);
        dy[i] = dy[i] * pactGradInput(alpha, pre[i]);
    }
    return alpha_grad;
}

TEST(Pact, StraightThroughGradients)
{
    EXPECT_FLOAT_EQ(pactGradInput(4.0f, 2.0f), 1.0f);
    EXPECT_FLOAT_EQ(pactGradInput(4.0f, -0.5f), 0.0f);
    EXPECT_FLOAT_EQ(pactGradInput(4.0f, 5.0f), 0.0f);
    EXPECT_FLOAT_EQ(pactGradAlpha(4.0f, 5.0f), 1.0f);
    EXPECT_FLOAT_EQ(pactGradAlpha(4.0f, 2.0f), 0.0f);
    // The library's backprop over the same pre-activations.
    const float pre[] = {2.0f, -0.5f, 5.0f};
    float dy[] = {0.5f, 0.25f, 2.0f};
    EXPECT_FLOAT_EQ(pactBackprop(pre, dy, 3, 4.0f), 2.0f);
    EXPECT_FLOAT_EQ(dy[0], 0.5f);
    EXPECT_FLOAT_EQ(dy[1], 0.0f);
    EXPECT_FLOAT_EQ(dy[2], 0.0f);
}

/**
 * pactBackprop()'s gated errors and alpha gradient match the scalar
 * form bit for bit: NaN, +-Inf and +-0 errors, pre-activations at
 * exactly 0 and alpha and on either side of them, at every length from
 * 0 to 41 (so every tail of a lane block), over seeded draws. The NaNs
 * are quiet, as every error is the result of arithmetic. One thing is
 * not pinned: which NaN a sum of two NaNs returns. C++ leaves it open
 * (x86 returns its first operand's, and a compiler orders a
 * commutative add either way), so there a NaN must give a NaN.
 */
TEST(Pact, BackpropMatchesScalarFormBitForBit)
{
    constexpr float kInf = std::numeric_limits<float>::infinity();
    constexpr float kDenorm = std::numeric_limits<float>::denorm_min();
    const float nans[] = {std::bit_cast<float>(0x7fc00000u),
                          std::bit_cast<float>(0xffc00000u),
                          std::bit_cast<float>(0x7fc12345u),
                          std::bit_cast<float>(0xffc12345u)};
    Rng rng(35);
    for (const float alpha : {0.1f, 1.0f, 6.0f}) {
        const std::vector<float> pres = {
            0.0f, -0.0f, alpha, -alpha, std::nextafter(alpha, kInf),
            std::nextafter(alpha, -kInf), kDenorm, -kDenorm, kInf, -kInf,
            nans[0], nans[3], 0.5f * alpha, 2.0f * alpha};
        const std::vector<float> finite_errors = {
            0.0f, -0.0f, kDenorm, -kDenorm, 1.0f, -0.75f, 3e38f, -3e38f};
        std::vector<float> errors = {kInf, -kInf, nans[0], nans[1],
                                     nans[2], nans[3]};
        errors.insert(errors.end(), finite_errors.begin(),
                      finite_errors.end());
        auto pick = [&rng](const std::vector<float> &from) {
            return from[size_t(rng.uniformInt(0, int64_t(from.size()) - 1))];
        };
        for (int trial = 0; trial < 300; ++trial) {
            const int64_t n = trial % 42;
            // Most draws are ordinary values, so a block often has no
            // live alpha term; edge values land anywhere, and every
            // other trial keeps its errors finite, so that its alpha
            // gradient is a number.
            std::vector<float> pre, dy;
            for (int64_t i = 0; i < n; ++i) {
                pre.push_back(rng.uniform() < 0.3
                                  ? pick(pres)
                                  : float(rng.uniform(-0.5, 0.9) *
                                          double(alpha)));
                dy.push_back(rng.uniform() < 0.2
                                 ? pick(trial % 2 ? errors : finite_errors)
                                 : float(rng.gaussian(0.0, 1.0)));
            }
            std::vector<float> want = dy;
            const float want_alpha =
                pactBackpropOracle(pre.data(), want.data(), n, alpha);
            const float got_alpha =
                pactBackprop(pre.data(), dy.data(), n, alpha);
            if (std::isnan(want_alpha))
                EXPECT_TRUE(std::isnan(got_alpha))
                    << "alpha=" << alpha << " n=" << n << " trial=" << trial;
            else
                EXPECT_EQ(std::bit_cast<uint32_t>(got_alpha),
                          std::bit_cast<uint32_t>(want_alpha))
                    << "alpha=" << alpha << " n=" << n << " trial=" << trial;
            for (int64_t i = 0; i < n; ++i)
                EXPECT_EQ(std::bit_cast<uint32_t>(dy[size_t(i)]),
                          std::bit_cast<uint32_t>(want[size_t(i)]))
                    << "alpha=" << alpha << " n=" << n << " i=" << i;
        }
    }
}

/** pactClip() matches std::clamp(x, 0, alpha) bit for bit on the
 *  edges of both compares and on a seeded sweep, NaN payloads and
 *  signed zeros included, at every offset into its lane blocks. */
TEST(Pact, ClipMatchesStdClampBitForBit)
{
    constexpr float kInf = std::numeric_limits<float>::infinity();
    constexpr float kMin = std::numeric_limits<float>::min();
    constexpr float kDenorm = std::numeric_limits<float>::denorm_min();
    Rng rng(12);
    for (const float alpha : {0.1f, 1.0f, 2.5f, 6.0f}) {
        std::vector<float> in = {
            0.0f, -0.0f, kInf, -kInf, alpha, -alpha,
            std::nextafter(alpha, kInf), std::nextafter(alpha, -kInf),
            kDenorm, -kDenorm, kMin, -kMin, 0.5f * kMin, -0.5f * kMin,
            -1.0f, -1e30f, 1e30f,
            std::bit_cast<float>(0x7fc00000u), // quiet NaN
            std::bit_cast<float>(0xffc00000u), // negative quiet NaN
            std::bit_cast<float>(0x7fc12345u), // quiet NaN, payload
            std::bit_cast<float>(0xff812345u), // NaN, payload, sign
            std::bit_cast<float>(0x7f800001u), // signalling NaN
        };
        const size_t edges = in.size();
        for (int i = 0; i < 1000; ++i)
            in.push_back(float(rng.uniform(-2.0 * double(alpha),
                                           2.0 * double(alpha))));
        std::vector<float> got = in;
        pactClip(got.data(), int64_t(got.size()), alpha);
        for (size_t i = 0; i < in.size(); ++i)
            EXPECT_EQ(std::bit_cast<uint32_t>(got[i]),
                      std::bit_cast<uint32_t>(std::clamp(in[i], 0.0f, alpha)))
                << "alpha=" << alpha << " x bits=0x" << std::hex
                << std::bit_cast<uint32_t>(in[i]);
        // Each edge value again at every offset of an 8-lane block.
        for (size_t off = 0; off < 8; ++off) {
            std::vector<float> shifted(off, 1.0f);
            shifted.insert(shifted.end(), in.begin(),
                           in.begin() + int64_t(edges));
            pactClip(shifted.data(), int64_t(shifted.size()), alpha);
            for (size_t i = 0; i < edges; ++i)
                EXPECT_EQ(std::bit_cast<uint32_t>(shifted[off + i]),
                          std::bit_cast<uint32_t>(
                              std::clamp(in[i], 0.0f, alpha)))
                    << "alpha=" << alpha << " offset=" << off;
        }
    }
}

TEST(Pact, QuantizationErrorBounded)
{
    PactQuantizer q(2.0f, 4);
    Rng rng(11);
    for (int i = 0; i < 2000; ++i) {
        float x = float(rng.uniform(0.0, 2.0));
        EXPECT_LE(std::abs(quantizedOf(q, x) - x), q.scale() / 2 + 1e-6f);
    }
}

/** Mean squared error of quantizing @p weights to @p bits at clip
 *  @p alpha, in double throughout. */
double
quantizationMse(const std::vector<float> &weights, unsigned bits,
                double alpha)
{
    int max_level = (1 << (bits - 1)) - 1;
    double scale = alpha / max_level;
    double err = 0.0;
    for (float w : weights) {
        double x = std::clamp(double(w), -alpha, alpha) / scale;
        double level = std::round(x);
        double q = std::clamp(level, double(-max_level),
                              double(max_level)) * scale;
        err += (q - double(w)) * (q - double(w));
    }
    return err / double(weights.size());
}

/** The clip minimizing quantizationMse(): a coarse grid scan, then
 *  golden-section refinement. */
double
optimalAlpha(const std::vector<float> &weights, unsigned bits)
{
    double max_abs = 0.0;
    for (float w : weights)
        max_abs = std::max(max_abs, std::abs(double(w)));

    const int grid = 96;
    double best_alpha = max_abs;
    double best_mse = quantizationMse(weights, bits, max_abs);
    for (int i = 1; i < grid; ++i) {
        double a = max_abs * double(i) / grid;
        double mse = quantizationMse(weights, bits, a);
        if (mse < best_mse) {
            best_mse = mse;
            best_alpha = a;
        }
    }

    double lo = std::max(best_alpha - max_abs / grid, max_abs * 1e-3);
    double hi = std::min(best_alpha + max_abs / grid, max_abs);
    const double phi = 0.5 * (std::sqrt(5.0) - 1.0);
    for (int iter = 0; iter < 40; ++iter) {
        double m1 = hi - phi * (hi - lo);
        double m2 = lo + phi * (hi - lo);
        if (quantizationMse(weights, bits, m1) <
            quantizationMse(weights, bits, m2)) {
            hi = m2;
        } else {
            lo = m1;
        }
    }
    return 0.5 * (lo + hi);
}

/** The offline SaWB fit the stock coefficients froze: for each sample
 *  set, the MSE-optimal clip; then the least-squares (c1, c2) with
 *  c1 * rms - c2 * mean_abs predicting those optima. */
SawbQuantizer::Coefficients
fitCoefficients(const std::vector<std::vector<float>> &sample_sets,
                unsigned bits)
{
    double sxx = 0, sxy = 0, syy = 0, sxz = 0, syz = 0;
    for (const auto &samples : sample_sets) {
        TensorMoments m = computeMoments(samples);
        double x = m.rms;
        double y = -m.mean_abs;
        double z = optimalAlpha(samples, bits);
        sxx += x * x;
        sxy += x * y;
        syy += y * y;
        sxz += x * z;
        syz += y * z;
    }
    double det = sxx * syy - sxy * sxy;
    double c1 = (sxz * syy - syz * sxy) / det;
    double c2 = (sxx * syz - sxy * sxz) / det;
    return {c1, c2};
}

TEST(Sawb, AlphaNearMseOptimal)
{
    Rng rng(13);
    for (unsigned bits : {2u, 4u}) {
        auto weights = rng.gaussianVector(20000, 0.0, 0.7);
        SawbQuantizer q(weights, bits);
        double opt_alpha = optimalAlpha(weights, bits);
        double opt_mse =
            quantizationMse(weights, bits, opt_alpha);
        double got_mse =
            quantizationMse(weights, bits, q.alpha());
        EXPECT_LE(got_mse, opt_mse * 1.10)
            << "bits=" << bits << " alpha=" << q.alpha()
            << " opt=" << opt_alpha;
    }
}

TEST(Sawb, WorksOnLaplacianWeights)
{
    Rng rng(17);
    std::vector<float> weights(20000);
    for (auto &w : weights)
        w = float(rng.laplace(0.4));
    SawbQuantizer q(weights, 4);
    double opt_alpha = optimalAlpha(weights, 4);
    double opt_mse = quantizationMse(weights, 4, opt_alpha);
    double got_mse = quantizationMse(weights, 4, q.alpha());
    EXPECT_LE(got_mse, opt_mse * 1.15);
}

TEST(Sawb, QuantizationIsSymmetric)
{
    Rng rng(19);
    auto weights = rng.gaussianVector(5000, 0.0, 1.0);
    SawbQuantizer q(weights, 4);
    for (int i = 0; i < 500; ++i) {
        float w = weights[i];
        EXPECT_FLOAT_EQ(quantizedOf(q, -w), -quantizedOf(q, w));
    }
}

/** Inputs on every rounding class of a quantizer with step @p step and
 *  clip @p alpha: signed zeros, NaN, infinities, each half step and its
 *  float neighbours, the clip and past it, and Gaussian draws. */
std::vector<float>
levelEdgeInputs(float step, float alpha, uint64_t seed)
{
    std::vector<float> v = {0.0f, -0.0f, 1e-45f, -1e-45f,
                            std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            alpha, -alpha, 2 * alpha, -2 * alpha};
    for (int k = -20; k <= 20; ++k) {
        const float half = (float(k) + 0.5f) * step;
        v.push_back(half);
        v.push_back(std::nextafter(half, 1e30f));
        v.push_back(std::nextafter(half, -1e30f));
    }
    Rng rng(seed);
    for (int i = 0; i < 1000; ++i)
        v.push_back(float(rng.gaussian(0.0, double(alpha))));
    return v;
}

TEST(QuantizerLevels, BatchAndScalarMatchTheOriginalRounding)
{
    for (unsigned bits : {2u, 4u}) {
        const PactQuantizer pact(2.5f, bits);
        const SawbQuantizer sawb(Rng(40).gaussianVector(512, 0.0, 0.4),
                                 bits);
        for (int which = 0; which < 2; ++which) {
            const std::vector<float> in =
                which == 0 ? levelEdgeInputs(pact.scale(), pact.alpha(), 41)
                           : levelEdgeInputs(sawb.scale(), sawb.alpha(), 42);
            // Odd length: the batch call's block loop and its tail.
            std::vector<int16_t> batch(in.size());
            if (which == 0)
                pact.quantizeLevels(in.data(), int64_t(in.size()),
                                    batch.data());
            else
                sawb.quantizeLevels(in.data(), int64_t(in.size()),
                                    batch.data());
            for (size_t i = 0; i < in.size(); ++i) {
                const int want = which == 0 ? referenceLevel(pact, in[i])
                                            : referenceLevel(sawb, in[i]);
                // One value per call: the block loop's tail alone.
                const int scalar = which == 0 ? levelOf(pact, in[i])
                                              : levelOf(sawb, in[i]);
                EXPECT_EQ(scalar, want) << "bits=" << bits << " which="
                                        << which << " x=" << in[i];
                EXPECT_EQ(batch[i], want) << "bits=" << bits << " which="
                                          << which << " x=" << in[i];
            }
        }
    }
}

TEST(Sawb, StockCoefficientsPositiveAndStable)
{
    for (unsigned bits : {2u, 3u, 4u}) {
        auto c = SawbQuantizer::stockCoefficients(bits);
        auto c2 = SawbQuantizer::stockCoefficients(bits);
        EXPECT_GT(c.c1, 0.0) << "bits=" << bits;
        EXPECT_GT(c.c2, 0.0) << "bits=" << bits;
        EXPECT_EQ(c.c1, c2.c1);
        EXPECT_EQ(c.c2, c2.c2);
    }
}

/** The frozen stock constants are exactly what fitCoefficients yields
 *  on the documented sample sets, so the fit and the literals cannot
 *  drift apart. */
TEST(Sawb, StockCoefficientsMatchRefit)
{
    for (unsigned bits : {2u, 3u, 4u}) {
        Rng rng(0xC0EFF5 + bits);
        const size_t n = 20000;
        std::vector<std::vector<float>> sets;
        sets.push_back(rng.gaussianVector(n, 0.0, 1.0));
        std::vector<float> lap(n), uni(n), mix(n);
        for (size_t i = 0; i < n; ++i) {
            lap[i] = float(rng.laplace(1.0));
            uni[i] = float(rng.uniform(-1.0, 1.0));
            mix[i] = float(rng.uniform() < 0.8 ? rng.gaussian(0.0, 0.5)
                                               : rng.gaussian(0.0, 2.0));
        }
        sets.push_back(std::move(lap));
        sets.push_back(std::move(uni));
        sets.push_back(std::move(mix));
        const auto fit = fitCoefficients(sets, bits);
        const auto stock = SawbQuantizer::stockCoefficients(bits);
        EXPECT_EQ(fit.c1, stock.c1) << "bits=" << bits;
        EXPECT_EQ(fit.c2, stock.c2) << "bits=" << bits;
    }
}

/** The stock constants may first be read from concurrent pool tasks
 *  (TSan checks this in CI); every task sees the same constants. */
TEST(Sawb, StockCoefficientsFirstUseFromPoolTasks)
{
    ThreadPool pool(4);
    std::vector<SawbQuantizer::Coefficients> got(8);
    pool.parallelFor(got.size(), [&](size_t i) {
        got[i] = SawbQuantizer::stockCoefficients(i % 2 ? 4 : 2);
    });
    for (size_t i = 0; i < got.size(); ++i) {
        const auto want = SawbQuantizer::stockCoefficients(i % 2 ? 4 : 2);
        EXPECT_EQ(got[i].c1, want.c1) << "task " << i;
        EXPECT_EQ(got[i].c2, want.c2) << "task " << i;
    }
}

TEST(Sawb, MoreBitsMeansLessError)
{
    Rng rng(23);
    auto weights = rng.gaussianVector(10000, 0.0, 1.0);
    SawbQuantizer q2(weights, 2);
    SawbQuantizer q4(weights, 4);
    double mse2 = quantizationMse(weights, 2, q2.alpha());
    double mse4 = quantizationMse(weights, 4, q4.alpha());
    EXPECT_LT(mse4, mse2 / 4);
}

TEST(Moments, MatchClosedForms)
{
    Rng rng(29);
    auto values = rng.gaussianVector(200000, 0.0, 2.0);
    TensorMoments m = computeMoments(values);
    // E[|x|] = sigma * sqrt(2/pi), rms = sigma.
    EXPECT_NEAR(m.rms, 2.0, 0.05);
    EXPECT_NEAR(m.mean_abs, 2.0 * std::sqrt(2.0 / M_PI), 0.05);
}

} // namespace
} // namespace rapid
