/**
 * @file
 * Tests for the dense tensor container and the FP32 golden operators.
 */

// The FP32 GEMM's kernel runs here at every width (lane_widths.hh).
#pragma GCC diagnostic ignored "-Wpsabi"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "conv_reference.hh"
#include "lane_widths.hh"
#include "tensor/lane_matmul.hh"
#include "tensor/ops.hh"
#include "tensor/tensor.hh"

namespace rapid {
namespace {

/** Calls of the FP32 GEMM entries below, so a test can see that
 *  matmul() ran on the width it was given. */
int64_t lane_matmul_runs = 0;

// The FP32 GEMM's kernel at every width, compiled here under the same
// targets as the library's entries.

RAPID_TARGET_AVX512 void
laneMatmul16(const float *a, const float *b, int64_t m, int64_t k, int64_t n,
             float *out)
{
    ++lane_matmul_runs;
    matmulLanes<16>(a, b, m, k, n, out);
}

RAPID_TARGET_AVX2 void
laneMatmul8(const float *a, const float *b, int64_t m, int64_t k, int64_t n,
            float *out)
{
    ++lane_matmul_runs;
    matmulLanes<8>(a, b, m, k, n, out);
}

void
laneMatmul4(const float *a, const float *b, int64_t m, int64_t k, int64_t n,
            float *out)
{
    ++lane_matmul_runs;
    matmulLanes<4>(a, b, m, k, n, out);
}

/** Every lane width's FP32 GEMM. */
const LaneMatmul kLaneMatmuls[] = {
    {16, &laneMatmul16}, {8, &laneMatmul8}, {4, &laneMatmul4}};

TEST(Tensor, ShapeAndAccess)
{
    Tensor t({2, 3});
    EXPECT_EQ(t.numel(), 6);
    t.at(1, 2) = 5.0f;
    EXPECT_FLOAT_EQ(t[5], 5.0f);
    Tensor u({1, 2, 2, 2});
    u.at(0, 1, 1, 1) = 3.0f;
    EXPECT_FLOAT_EQ(u[7], 3.0f);
}

TEST(Ops, MatmulSmallKnown)
{
    Tensor a({2, 2});
    a.at(0, 0) = 1; a.at(0, 1) = 2;
    a.at(1, 0) = 3; a.at(1, 1) = 4;
    Tensor b({2, 2});
    b.at(0, 0) = 5; b.at(0, 1) = 6;
    b.at(1, 0) = 7; b.at(1, 1) = 8;
    Tensor c = matmul(a, b);
    EXPECT_FLOAT_EQ(c.at(0, 0), 19);
    EXPECT_FLOAT_EQ(c.at(0, 1), 22);
    EXPECT_FLOAT_EQ(c.at(1, 0), 43);
    EXPECT_FLOAT_EQ(c.at(1, 1), 50);
}

TEST(Ops, TransposeRoundTrip)
{
    Rng rng(3);
    Tensor a({3, 5});
    a.fillGaussian(rng);
    Tensor att = transpose(transpose(a));
    EXPECT_LT(relativeL2(att, a), 1e-7);
}

TEST(Ops, ConvIdentityKernel)
{
    // A 1x1 kernel with weight 1 reproduces the input channel.
    Tensor x({1, 1, 4, 4});
    for (int64_t i = 0; i < 16; ++i)
        x[i] = float(i);
    Tensor w({1, 1, 1, 1});
    w[0] = 1.0f;
    Tensor y = conv2d(x, w);
    EXPECT_LT(relativeL2(y, x), 1e-7);
}

TEST(Ops, ConvOutputDims)
{
    EXPECT_EQ(convOutDim(224, 7, 2, 3), 112);
    EXPECT_EQ(convOutDim(56, 3, 1, 1), 56);
    EXPECT_EQ(convOutDim(28, 1, 1, 0), 28);
}

TEST(Ops, ConvMatchesManualSum)
{
    // 2x2 input, 2x2 kernel, no padding: single output element.
    Tensor x({1, 1, 2, 2});
    x[0] = 1; x[1] = 2; x[2] = 3; x[3] = 4;
    Tensor w({1, 1, 2, 2});
    w[0] = 10; w[1] = 20; w[2] = 30; w[3] = 40;
    Tensor y = conv2d(x, w);
    EXPECT_EQ(y.numel(), 1);
    EXPECT_FLOAT_EQ(y[0], 1 * 10 + 2 * 20 + 3 * 30 + 4 * 40);
}

TEST(Ops, ConvPaddingZeroes)
{
    Tensor x({1, 1, 1, 1});
    x[0] = 2.0f;
    Tensor w({1, 1, 3, 3});
    std::ranges::fill(w.storage(), 1.0f);
    ConvParams p;
    p.pad = 1;
    Tensor y = conv2d(x, w, p);
    // Only the center tap sees the input.
    EXPECT_EQ(y.numel(), 1);
    EXPECT_FLOAT_EQ(y[0], 2.0f);
}

TEST(Ops, DepthwiseConvViaGroups)
{
    // groups == channels: each output channel sees only its input.
    Tensor x({1, 2, 2, 2});
    std::ranges::fill(x.storage(), 1.0f);
    x.at(0, 1, 0, 0) = 5.0f;
    Tensor w({2, 1, 1, 1});
    w[0] = 2.0f;
    w[1] = 3.0f;
    ConvParams p;
    p.groups = 2;
    Tensor y = conv2d(x, w, p);
    EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 2.0f);
    EXPECT_FLOAT_EQ(y.at(0, 1, 0, 0), 15.0f);
}

TEST(Ops, StridedConvGeometry)
{
    Tensor x({1, 3, 8, 8});
    Rng rng(5);
    x.fillGaussian(rng);
    Tensor w({4, 3, 3, 3});
    w.fillGaussian(rng);
    ConvParams p;
    p.stride = 2;
    p.pad = 1;
    Tensor y = conv2d(x, w, p);
    EXPECT_EQ(y.dim(2), 4);
    EXPECT_EQ(y.dim(3), 4);
}

TEST(Ops, ReluAndBias)
{
    Tensor x({1, 3});
    x[0] = -1.0f; x[1] = 0.5f; x[2] = 2.0f;
    Tensor b({3});
    b[0] = 1.0f; b[1] = -1.0f; b[2] = 0.0f;
    Tensor y = relu(biasAdd(x, b));
    EXPECT_FLOAT_EQ(y[0], 0.0f);
    EXPECT_FLOAT_EQ(y[1], 0.0f);
    EXPECT_FLOAT_EQ(y[2], 2.0f);
}

TEST(Ops, MaxPool)
{
    Tensor x({1, 1, 2, 2});
    x[0] = 1; x[1] = 2; x[2] = 3; x[3] = 4;
    Tensor mx = maxPool2d(x, 2, 2);
    EXPECT_FLOAT_EQ(mx[0], 4.0f);
}

TEST(Ops, GlobalAvgPool)
{
    Tensor x({2, 3, 4, 4});
    std::ranges::fill(x.storage(), 2.0f);
    Tensor y = globalAvgPool(x);
    EXPECT_EQ(y.dim(0), 2);
    EXPECT_EQ(y.dim(1), 3);
    for (int64_t i = 0; i < y.numel(); ++i)
        EXPECT_FLOAT_EQ(y[i], 2.0f);
}

TEST(Ops, SoftmaxRowsSumToOne)
{
    Rng rng(7);
    Tensor x({4, 10});
    x.fillGaussian(rng, 0.0, 3.0);
    Tensor p = softmax(x);
    for (int64_t i = 0; i < 4; ++i) {
        double sum = 0.0;
        for (int64_t j = 0; j < 10; ++j) {
            sum += p.at(i, j);
            EXPECT_GE(p.at(i, j), 0.0f);
        }
        EXPECT_NEAR(sum, 1.0, 1e-5);
    }
}

TEST(Ops, SoftmaxShiftInvariant)
{
    Tensor x({1, 3});
    x[0] = 1000.0f; x[1] = 1001.0f; x[2] = 999.0f;
    Tensor p = softmax(x); // must not overflow
    EXPECT_GT(p[1], p[0]);
    EXPECT_GT(p[0], p[2]);
}

TEST(Ops, CrossEntropyGradientNumerical)
{
    Rng rng(9);
    Tensor logits({3, 4});
    logits.fillGaussian(rng);
    std::vector<int> labels = {1, 3, 0};
    Tensor grad = softmaxCrossEntropyGrad(logits, labels);
    // Finite-difference check on a few coordinates.
    const double eps = 1e-3;
    for (int64_t idx : {0L, 5L, 11L}) {
        Tensor lp = logits, lm = logits;
        lp[idx] += float(eps);
        lm[idx] -= float(eps);
        double numeric = (softmaxCrossEntropy(lp, labels) -
                          softmaxCrossEntropy(lm, labels)) / (2 * eps);
        EXPECT_NEAR(grad[idx], numeric, 1e-3) << "idx=" << idx;
    }
}

TEST(Ops, CrossEntropyOfPerfectPrediction)
{
    Tensor logits({1, 2});
    logits.at(0, 0) = 100.0f;
    logits.at(0, 1) = -100.0f;
    EXPECT_NEAR(softmaxCrossEntropy(logits, {0}), 0.0f, 1e-5);
}

// ---------------------------------------------------------------------
// Differential oracles: the accessor-based loops the row-pointer
// kernels replaced. Results must agree bit for bit: signed zeros,
// subnormals, infinities and the last mantissa bit all count. NaNs
// compare as a class. IEEE 754 leaves the sign and payload of a NaN
// computed from NaN operands open, and x86 returns the first source
// operand's NaN, an order the register allocator picks for
// `acc += a * b` in either loop.
// ---------------------------------------------------------------------

/** The i-j-k triple loop: one double accumulator per output. */
Tensor
referenceMatmul(const Tensor &a, const Tensor &b)
{
    const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    Tensor out({m, n});
    for (int64_t i = 0; i < m; ++i) {
        for (int64_t j = 0; j < n; ++j) {
            double acc = 0.0;
            for (int64_t kk = 0; kk < k; ++kk)
                acc += double(a.at(i, kk)) * double(b.at(kk, j));
            out.at(i, j) = float(acc);
        }
    }
    return out;
}

Tensor
referenceTranspose(const Tensor &a)
{
    Tensor out({a.dim(1), a.dim(0)});
    for (int64_t i = 0; i < a.dim(0); ++i)
        for (int64_t j = 0; j < a.dim(1); ++j)
            out.at(j, i) = a.at(i, j);
    return out;
}

Tensor
referenceBiasAdd(const Tensor &x, const Tensor &bias)
{
    Tensor out = x;
    if (x.rank() == 4) {
        for (int64_t n = 0; n < x.dim(0); ++n)
            for (int64_t c = 0; c < x.dim(1); ++c)
                for (int64_t h = 0; h < x.dim(2); ++h)
                    for (int64_t w = 0; w < x.dim(3); ++w)
                        out.at(n, c, h, w) += bias[c];
        return out;
    }
    for (int64_t i = 0; i < x.dim(0); ++i)
        for (int64_t j = 0; j < x.dim(1); ++j)
            out.at(i, j) += bias[j];
    return out;
}

Tensor
referenceSoftmax(const Tensor &x)
{
    Tensor out = x;
    for (int64_t i = 0; i < x.dim(0); ++i) {
        float mx = -std::numeric_limits<float>::infinity();
        for (int64_t j = 0; j < x.dim(1); ++j)
            mx = std::max(mx, x.at(i, j));
        double sum = 0.0;
        for (int64_t j = 0; j < x.dim(1); ++j)
            sum += std::exp(double(x.at(i, j)) - double(mx));
        for (int64_t j = 0; j < x.dim(1); ++j)
            out.at(i, j) =
                float(std::exp(double(x.at(i, j)) - double(mx)) / sum);
    }
    return out;
}

Tensor
referenceCrossEntropyGrad(const Tensor &logits,
                          const std::vector<int> &labels)
{
    Tensor grad = referenceSoftmax(logits);
    const float inv_n = 1.0f / float(logits.dim(0));
    for (int64_t i = 0; i < logits.dim(0); ++i) {
        grad.at(i, labels[size_t(i)]) -= 1.0f;
        for (int64_t j = 0; j < logits.dim(1); ++j)
            grad.at(i, j) *= inv_n;
    }
    return grad;
}

/** binary32 patterns, with every NaN mapped to the default quiet NaN. */
std::vector<uint32_t>
bitsOf(const Tensor &t)
{
    std::vector<uint32_t> bits(size_t(t.numel()));
    std::memcpy(bits.data(), t.data(), bits.size() * sizeof(uint32_t));
    for (uint32_t &b : bits)
        if ((b & 0x7fffffffu) > 0x7f800000u)
            b = 0x7fc00000u;
    return bits;
}

/** Shape and bit-pattern identity, reporting the first mismatch. */
void
expectSameBits(const Tensor &got, const Tensor &want, const char *what)
{
    ASSERT_EQ(got.shape(), want.shape()) << what;
    const std::vector<uint32_t> g = bitsOf(got), w = bitsOf(want);
    for (size_t i = 0; i < g.size(); ++i)
        ASSERT_EQ(g[i], w[i]) << what << ": element " << i << " got "
                              << got[int64_t(i)] << " want "
                              << want[int64_t(i)];
}

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNan = std::numeric_limits<float>::quiet_NaN();

/** Every binary32 class a MAC can meet: signed zeros, subnormals,
 *  the extremes, infinities and NaN. */
const float kSpecials[] = {0.0f,     -0.0f,    FLT_TRUE_MIN, -FLT_TRUE_MIN,
                           1e-40f,   -3e-39f,  FLT_MIN,      -FLT_MIN,
                           FLT_MAX,  -FLT_MAX, kInf,         -kInf,
                           kNan,     1.0f,     -1.0f};

/** Operand fills for the oracle checks. */
enum class Fill
{
    Gaussian,  ///< ordinary training-like values
    Specials,  ///< Gaussian with ~1 in 8 elements a special value
    Cancel,    ///< mixed-magnitude rows whose large terms cancel
    Zeros,     ///< mostly signed zeros, some Inf (0 * Inf is NaN)
};

Tensor
filled(std::vector<int64_t> shape, Fill fill, uint64_t seed)
{
    Tensor t(std::move(shape));
    Rng rng(seed);
    t.fillGaussian(rng);
    for (int64_t i = 0; i < t.numel(); ++i) {
        const int64_t pick = rng.uniformInt(0, 63);
        switch (fill) {
          case Fill::Gaussian:
            break;
          case Fill::Specials:
            if (pick < 8)
                t[i] = kSpecials[size_t(pick + i) % std::size(kSpecials)];
            break;
          case Fill::Cancel:
            // +/-2^60 and +/-2^30 terms next to unit ones: the double
            // running sum loses the small terms until the big ones
            // cancel, so summation order shows in the result.
            if (pick < 16)
                t[i] = (pick % 2 ? -1.0f : 1.0f)
                       * (pick < 8 ? 0x1p60f : 0x1p30f);
            else if (pick < 20)
                t[i] *= 1e-30f;
            break;
          case Fill::Zeros:
            t[i] = pick < 4 ? (pick % 2 ? kInf : -kInf)
                            : (pick % 2 ? 0.0f : -0.0f);
            break;
        }
    }
    return t;
}

constexpr Fill kFills[] = {Fill::Gaussian, Fill::Specials, Fill::Cancel,
                           Fill::Zeros};

TEST(OpsOracle, MatmulBitIdenticalToTripleLoop)
{
    struct Shape
    {
        int64_t m, k, n;
    };
    // Degenerate, single-column, odd n with k > 64, and the MLP layers
    // (batch 32, widths 2/32/160) in forward and gradient orientation,
    // the logit and input edges included. Then every tail of the
    // kernel: m = 5 and 33 leave one row past whole 4-row blocks, and
    // n = 1, 2, 3, 9 and 17 are below one vector or between one and two
    // at some width, run as they are (m < n) or swapped (m > n).
    std::vector<Shape> shapes = {
        {1, 1, 1},    {1, 97, 1},    {7, 130, 9},   {32, 2, 32},
        {32, 32, 32}, {32, 160, 160}, {160, 32, 160}, {32, 160, 2},
        {160, 32, 2}, {2, 32, 160},  {32, 2, 160}};
    for (int64_t m : {5, 33})
        for (int64_t n : {1, 2, 3, 9, 17})
            shapes.push_back({m, 37, n});
    struct Case
    {
        Tensor a, b, want;
        std::string what;
    };
    std::vector<Case> cases;
    uint64_t seed = 1;
    for (const Shape &s : shapes) {
        for (Fill fa : kFills) {
            for (Fill fb : kFills) {
                Tensor a = filled({s.m, s.k}, fa, seed++);
                Tensor b = filled({s.k, s.n}, fb, seed++);
                Tensor want = referenceMatmul(a, b);
                cases.push_back(
                    {std::move(a), std::move(b), std::move(want),
                     std::to_string(s.m) + "x" + std::to_string(s.k) + "x" +
                         std::to_string(s.n) + " fills " +
                         std::to_string(int(fa)) + "," +
                         std::to_string(int(fb))});
            }
        }
    }
    RAPID_AT_EVERY_LANE_WIDTH(kLaneMatmuls, [&] {
        for (const Case &c : cases) {
            SCOPED_TRACE(c.what);
            expectSameBits(matmul(c.a, c.b), c.want, "matmul");
        }
    });
}

TEST(OpsOracle, MatmulSpecialProducts)
{
    RAPID_AT_EVERY_LANE_WIDTH(kLaneMatmuls, [] {
        // One MAC per special pair: the sign of zero sums, 0 * Inf =
        // NaN, FLT_MAX^2 overflowing the float result but not the
        // double sum.
        const int64_t n = int64_t(std::size(kSpecials));
        Tensor a({n, 1}), b({1, n});
        for (int64_t i = 0; i < n; ++i) {
            a[i] = kSpecials[i];
            b[i] = kSpecials[i];
        }
        expectSameBits(matmul(a, b), referenceMatmul(a, b), "outer product");
        Tensor row({1, 2}), col({2, 1});
        row[0] = FLT_MAX;
        row[1] = -FLT_MAX;
        col[0] = FLT_MAX;
        col[1] = FLT_MAX;
        const Tensor c = matmul(row, col);
        expectSameBits(c, referenceMatmul(row, col), "cancelling overflow");
        EXPECT_EQ(c[0], 0.0f);
    });
}

TEST(OpsOracle, MatmulRunsOnTheScopedWidth)
{
    RAPID_AT_EVERY_LANE_WIDTH(kLaneMatmuls, [] {
        const int64_t before = lane_matmul_runs;
        const Tensor a({3, 5}), b({5, 7});
        matmul(a, b);
        EXPECT_EQ(lane_matmul_runs, before + 1);
    });
}

TEST(OpsOracle, AllFiniteFindsEachNonFiniteInEveryLane)
{
    // 41 elements: five 8-lane blocks and a one-element tail, all
    // finite, subnormals and -0 included.
    const float finite[] = {0.0f,    -0.0f,   FLT_TRUE_MIN, -FLT_TRUE_MIN,
                            1e-40f,  -3e-39f, FLT_MIN,      -FLT_MIN,
                            FLT_MAX, -FLT_MAX, 1.0f,        -1.5f};
    std::vector<float> v(41);
    for (size_t i = 0; i < v.size(); ++i)
        v[i] = finite[i % std::size(finite)];
    const int64_t n = int64_t(v.size());
    EXPECT_TRUE(allFinite(v.data(), n));
    EXPECT_TRUE(allFinite(v.data(), 0));
    const float bad[] = {kNan, -kNan, kInf, -kInf,
                         std::numeric_limits<float>::signaling_NaN()};
    for (int64_t pos = 0; pos < n; ++pos) {
        for (float x : bad) {
            std::vector<float> w = v;
            w[size_t(pos)] = x;
            EXPECT_FALSE(allFinite(w.data(), n)) << "at " << pos << ": " << x;
            EXPECT_TRUE(allFinite(w.data(), pos)) << "before " << pos;
        }
    }
}

/** scanFinite() against the scalar scan it replaces (isfinite and
 *  std::max of std::abs, element by element) at every length up to 41
 *  and with every non-finite value at every position. */
TEST(OpsOracle, ScanFiniteMatchesScalarScan)
{
    const float values[] = {0.0f,    -0.0f,    FLT_TRUE_MIN, -FLT_TRUE_MIN,
                            1e-40f,  -3e-39f,  FLT_MIN,      -FLT_MIN,
                            FLT_MAX, -FLT_MAX, 1.0f,         -1.5f,
                            kNan,    -kNan,    kInf,         -kInf};
    auto scalarScan = [](const std::vector<float> &v, size_t n) {
        FiniteScan want;
        for (size_t i = 0; i < n; ++i) {
            if (!std::isfinite(v[i]))
                want.finite = false;
            else
                want.max_abs = std::max(want.max_abs, std::abs(v[i]));
        }
        return want;
    };
    Rng rng(37);
    for (int trial = 0; trial < 400; ++trial) {
        std::vector<float> v(42);
        for (float &x : v)
            x = rng.uniform() < 0.5
                    ? values[size_t(rng.uniformInt(0, 11))]
                    : float(rng.gaussian(0.0, 10.0));
        // Half the trials hold one non-finite value somewhere.
        if (trial % 2)
            v[size_t(rng.uniformInt(0, 41))] =
                values[size_t(rng.uniformInt(12, 15))];
        const size_t n = size_t(trial) % v.size();
        const FiniteScan want = scalarScan(v, n);
        const FiniteScan got = scanFinite(v.data(), int64_t(n));
        EXPECT_EQ(got.finite, want.finite) << "trial " << trial;
        EXPECT_EQ(std::bit_cast<uint32_t>(got.max_abs),
                  std::bit_cast<uint32_t>(want.max_abs))
            << "trial " << trial;
    }
}

TEST(OpsOracle, TransposeBiasAddSoftmaxBitIdentical)
{
    uint64_t seed = 100;
    for (const auto &shape : std::vector<std::vector<int64_t>>{
             {1, 1}, {1, 9}, {7, 130}, {32, 160}, {160, 2}, {17, 33},
             {1, 37}, {37, 1}}) {
        for (Fill f : kFills) {
            const Tensor x = filled(shape, f, seed++);
            const Tensor bias = filled({shape[1]}, f, seed++);
            expectSameBits(transpose(x), referenceTranspose(x), "transpose");
            expectSameBits(biasAdd(x, bias), referenceBiasAdd(x, bias),
                           "biasAdd");
            expectSameBits(softmax(x), referenceSoftmax(x), "softmax");
            std::vector<int> labels(size_t(shape[0]), 0);
            for (size_t i = 0; i < labels.size(); ++i)
                labels[i] = int((i * 7) % size_t(shape[1]));
            expectSameBits(softmaxCrossEntropyGrad(x, labels),
                           referenceCrossEntropyGrad(x, labels),
                           "softmaxCrossEntropyGrad");
        }
    }
    for (Fill f : kFills) {
        const Tensor x = filled({2, 3, 5, 7}, f, seed++);
        const Tensor bias = filled({3}, f, seed++);
        expectSameBits(biasAdd(x, bias), referenceBiasAdd(x, bias),
                       "biasAdd NCHW");
    }
}

TEST(OpsOracleDeathTest, ShapeMismatchesStillPanic)
{
    const Tensor a({2, 3}), b({4, 2}), v({3}), nchw({1, 2, 2, 2});
    EXPECT_DEATH(matmul(a, b), "inner-dimension mismatch");
    EXPECT_DEATH(matmul(a, v), "matmul expects rank-2");
    EXPECT_DEATH(transpose(v), "transpose expects rank-2");
    EXPECT_DEATH(biasAdd(b, v), "bias/column mismatch");
    EXPECT_DEATH(biasAdd(nchw, v), "bias/channel mismatch");
    EXPECT_DEATH(biasAdd(a, a), "bias must be rank-1");
    EXPECT_DEATH(softmax(v), "softmax expects rank-2");
    EXPECT_DEATH(softmaxCrossEntropyGrad(a, {0}), "label count mismatch");
    EXPECT_DEATH(softmaxCrossEntropyGrad(a, {0, 3}), "label out of range");
}

} // namespace
} // namespace rapid
