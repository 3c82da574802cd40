/**
 * @file
 * Tests for the functional simulator: reduced-precision executors
 * against the FP32 golden operators, and the precision-parity
 * experiments that reproduce the paper's algorithmic claims
 * (Sections II-B and II-C).
 */

// The chunked and INT GEMMs' lane kernels run here at every width
// (lane_widths.hh).
#pragma GCC diagnostic ignored "-Wpsabi"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hh"
#include "common/parallel.hh"
#include "conv_reference.hh"
#include "format_limits.hh"
#include "func/cnn.hh"
#include "func/datasets.hh"
#include "func/lane_gemm.hh"
#include "func/quantized_ops.hh"
#include "func/trainer.hh"
#include "lane_widths.hh"
#include "quantizer_levels.hh"
#include "rounding_classes.hh"

namespace rapid {
namespace {

// The chunked GEMM's lane kernel at every width, compiled here under
// the same targets as the library's entries.

RAPID_TARGET_AVX512 void
laneGemm16(const float *qa, const float *qb, int64_t m, int64_t k, int64_t n,
           int64_t ldb, const ExecConfig &cfg, float *out)
{
    chunkedGemmLanes<16>(qa, qb, m, k, n, ldb, cfg, out);
}

RAPID_TARGET_AVX2 void
laneGemm8(const float *qa, const float *qb, int64_t m, int64_t k, int64_t n,
          int64_t ldb, const ExecConfig &cfg, float *out)
{
    chunkedGemmLanes<8>(qa, qb, m, k, n, ldb, cfg, out);
}

void
laneGemm4(const float *qa, const float *qb, int64_t m, int64_t k, int64_t n,
          int64_t ldb, const ExecConfig &cfg, float *out)
{
    chunkedGemmLanes<4>(qa, qb, m, k, n, ldb, cfg, out);
}

RAPID_TARGET_AVX512 bool
laneRound16(float *v, int64_t n, const Fp8RoundBits *fp8, Rounding rounding)
{
    return roundOperandLanes<16>(v, n, fp8, rounding);
}

RAPID_TARGET_AVX2 bool
laneRound8(float *v, int64_t n, const Fp8RoundBits *fp8, Rounding rounding)
{
    return roundOperandLanes<8>(v, n, fp8, rounding);
}

bool
laneRound4(float *v, int64_t n, const Fp8RoundBits *fp8, Rounding rounding)
{
    return roundOperandLanes<4>(v, n, fp8, rounding);
}

/** Every lane width's chunked GEMM and operand rounding. */
const LaneGemm kLaneGemms[] = {{16, &laneGemm16, &laneRound16},
                               {8, &laneGemm8, &laneRound8},
                               {4, &laneGemm4, &laneRound4}};

// The INT GEMM's lane kernel at every width, likewise.

RAPID_TARGET_AVX512 void
laneIntGemm16(const int16_t *qa, const int16_t *qb, int64_t m, int64_t k,
              int64_t n, int64_t ldb, bool int16_lanes, float scale,
              const ExecConfig &cfg, float *out)
{
    intGemmLanes<16>(qa, qb, m, k, n, ldb, int16_lanes, scale, cfg, out);
}

RAPID_TARGET_AVX2 void
laneIntGemm8(const int16_t *qa, const int16_t *qb, int64_t m, int64_t k,
             int64_t n, int64_t ldb, bool int16_lanes, float scale,
             const ExecConfig &cfg, float *out)
{
    intGemmLanes<8>(qa, qb, m, k, n, ldb, int16_lanes, scale, cfg, out);
}

void
laneIntGemm4(const int16_t *qa, const int16_t *qb, int64_t m, int64_t k,
             int64_t n, int64_t ldb, bool int16_lanes, float scale,
             const ExecConfig &cfg, float *out)
{
    intGemmLanes<4>(qa, qb, m, k, n, ldb, int16_lanes, scale, cfg, out);
}

/** Every lane width's INT GEMM. */
const LaneIntGemm kLaneIntGemms[] = {
    {16, &laneIntGemm16}, {8, &laneIntGemm8}, {4, &laneIntGemm4}};

Tensor
randomTensor(Rng &rng, std::vector<int64_t> shape, double stddev = 0.5)
{
    Tensor t(std::move(shape));
    t.fillGaussian(rng, 0.0, stddev);
    return t;
}

TEST(Fp16Exec, MatmulCloseToGolden)
{
    Rng rng(1);
    Tensor a = randomTensor(rng, {8, 32});
    Tensor b = randomTensor(rng, {32, 8});
    Tensor ref = matmul(a, b);
    Tensor got = fp16Matmul(a, b);
    // DLFloat16 has a 10-bit significand: per-GEMM relative error stays
    // in the low 1e-3 range for K=32 reductions.
    EXPECT_LT(relativeL2(got, ref), 5e-3);
}

TEST(Fp16Exec, ConvCloseToGolden)
{
    Rng rng(2);
    Tensor x = randomTensor(rng, {1, 4, 6, 6});
    Tensor w = randomTensor(rng, {5, 4, 3, 3});
    ConvParams p;
    p.pad = 1;
    Tensor ref = conv2d(x, w, p);
    Tensor got = fp16Conv2d(x, w, p);
    EXPECT_LT(relativeL2(got, ref), 5e-3);
}

TEST(Hfp8Exec, MatmulErrorMatchesFormatResolution)
{
    Rng rng(3);
    Tensor a = randomTensor(rng, {8, 64});
    Tensor b = randomTensor(rng, {64, 8});
    Tensor ref = matmul(a, b);
    Tensor got = hfp8Matmul(a, Fp8Kind::Forward, b, Fp8Kind::Forward);
    double err = relativeL2(got, ref);
    // 3-bit mantissas: expect a few percent, far better than garbage.
    EXPECT_LT(err, 0.08);
    EXPECT_GT(err, 1e-5); // and it must actually be quantized
}

TEST(Hfp8Exec, BackwardFormatHandlesWiderRange)
{
    Rng rng(4);
    // Gradient-like tensors with large dynamic range.
    Tensor g({4, 32});
    for (int64_t i = 0; i < g.numel(); ++i)
        g[i] = float(rng.gaussian() * std::pow(10.0, rng.uniform(-1, 4)));
    Tensor w = randomTensor(rng, {32, 4});
    Tensor ref = matmul(g, w);
    Tensor fwd_fmt = hfp8Matmul(g, Fp8Kind::Forward, w,
                                Fp8Kind::Forward);
    Tensor bwd_fmt = hfp8Matmul(g, Fp8Kind::Backward, w,
                                Fp8Kind::Forward);
    // Values up to ~1e4 saturate the forward format (max 1920 at
    // bias 4); the (1,5,2) error format must track the reference
    // better than forcing gradients through the forward format.
    EXPECT_LT(relativeL2(bwd_fmt, ref), relativeL2(fwd_fmt, ref));
}

TEST(Hfp8Exec, MatmulEquivalentToDatapathFma)
{
    // Cross-check the tensor executor against the scalar datapath on a
    // single dot product with chunk size 1 ... K.
    Rng rng(5);
    Tensor a = randomTensor(rng, {1, 16});
    Tensor b = randomTensor(rng, {16, 1});
    ExecConfig cfg;
    cfg.chunk_size = 1024; // single chunk: pure FP16 accumulation
    Tensor got = hfp8Matmul(a, Fp8Kind::Forward, b, Fp8Kind::Forward,
                            cfg);
    MpeDatapath dp(cfg.fwd_bias);
    float acc = 0.0f;
    for (int64_t k = 0; k < 16; ++k)
        acc = dp.hfp8Fma(a[k], Fp8Kind::Forward, b[k], Fp8Kind::Forward,
                         acc);
    EXPECT_FLOAT_EQ(got[0], acc);
}

/**
 * The oracle for the chunked GEMM kernel: the per-output loop
 * hfp8Matmul/fp16Matmul ran before it, a ChunkAccumulator fed binary64
 * products in ascending k, copied verbatim.
 */
float
referenceChunkedDot(const float *a, const float *b, int64_t n,
                    const ExecConfig &cfg)
{
    ChunkAccumulator acc(cfg.chunk_size, cfg.fp32_outer, cfg.rounding);
    for (int64_t i = 0; i < n; ++i) {
        if (a[i] == 0.0f || b[i] == 0.0f)
            continue; // zero-gated FMA passes the accumulator through
        const double term = double(a[i]) * double(b[i]);
        RAPID_CHECK_NUMERIC(std::isfinite(term),
                            "non-finite product at element ", i,
                            " of a ", n, "-element chunked dot: a "
                            "poisoned operand reached the training "
                            "accumulation");
        acc.add(term);
    }
    RAPID_CHECK_NUMERIC(std::isfinite(acc.total()),
                        "non-finite chunked dot product over ", n,
                        " elements: a poisoned operand reached the "
                        "training accumulation");
    return dlfloat16().quantize(acc.total(), cfg.rounding);
}

/** referenceChunkedDot() of every row of the quantized @p qa and
 *  column of the quantized @p qb. */
Tensor
referenceChunkedMatmul(const Tensor &qa, const Tensor &qb,
                       const ExecConfig &cfg)
{
    Tensor qbt = transpose(qb);
    const int64_t m = qa.dim(0), k = qa.dim(1), n = qbt.dim(0);
    Tensor out({m, n});
    for (int64_t i = 0; i < m; ++i)
        for (int64_t j = 0; j < n; ++j)
            out.at(i, j) = referenceChunkedDot(qa.data() + i * k,
                                               qbt.data() + j * k, k, cfg);
    return out;
}

/** One GEMM executor run both ways: the library and the oracle. */
struct GemmRun
{
    Tensor got;
    Tensor want;
};

/** The format of @p kind at @p cfg's forward bias. */
FloatFormat
fp8Format(Fp8Kind kind, const ExecConfig &cfg)
{
    return kind == Fp8Kind::Forward ? fp8e4m3(cfg.fwd_bias) : fp8e5m2();
}

/** @p t quantized one element at a time by the scalar
 *  FloatFormat::quantize(): the oracle's operands, independent of the
 *  library's lane rounding. */
Tensor
quantizeEach(const Tensor &t, const FloatFormat &fmt, Rounding rounding)
{
    Tensor out = t;
    for (int64_t i = 0; i < out.numel(); ++i)
        out[i] = fmt.quantize(out[i], rounding);
    return out;
}

GemmRun
runHfp8(const Tensor &a, Fp8Kind a_kind, const Tensor &b, Fp8Kind b_kind,
        const ExecConfig &cfg)
{
    return {hfp8Matmul(a, a_kind, b, b_kind, cfg),
            referenceChunkedMatmul(
                quantizeEach(a, fp8Format(a_kind, cfg), cfg.rounding),
                quantizeEach(b, fp8Format(b_kind, cfg), cfg.rounding),
                cfg)};
}

GemmRun
runFp16(const Tensor &a, const Tensor &b, const ExecConfig &cfg)
{
    return {fp16Matmul(a, b, cfg),
            referenceChunkedMatmul(
                quantizeEach(a, dlfloat16(), cfg.rounding),
                quantizeEach(b, dlfloat16(), cfg.rounding), cfg)};
}

/** Outputs whose binary32 patterns differ; any two NaNs match. */
int64_t
bitMismatches(const Tensor &got, const Tensor &want)
{
    EXPECT_EQ(got.shape(), want.shape());
    int64_t bad = 0;
    for (int64_t i = 0; i < got.numel(); ++i) {
        if (std::isnan(got[i]) && std::isnan(want[i]))
            continue;
        bad += std::bit_cast<uint32_t>(got[i]) !=
               std::bit_cast<uint32_t>(want[i]);
    }
    return bad;
}

/** Operand value classes the oracle tests sweep. */
enum class Fill
{
    Gaussian,   ///< plain N(0, 0.5)
    Zeros,      ///< ±0 sprinkled, a zero A row and a zero B column
    Subnormal,  ///< FP8 subnormal bands and the DLFloat16 flush band
    Saturating, ///< positive products whose sums pass DLFloat16 max
    Cancelling, ///< ±pairs that cancel, over a large swamping term
    Ties,       ///< exact values whose sums tie at binary32 bit 14
};

void
fillOperand(Tensor &t, Fill fill, Rng &rng, bool is_a)
{
    const int64_t rows = t.dim(0), cols = t.dim(1);
    // Tie-prone exact values: products 2^-10 and 2^-9 are half an
    // ulp of a DLFloat16 accumulator in [1, 2) and [2, 4).
    static constexpr float kTieValues[] = {1.0f,    1.125f,  1.5f,
                                           0.5f,    0x1p-5f, 0x1p-4f,
                                           0x3p-6f, 0x1.008p0f};
    for (int64_t r = 0; r < rows; ++r) {
        for (int64_t c = 0; c < cols; ++c) {
            float &v = t.at(r, c);
            const float sign = rng.uniform() < 0.5 ? -1.0f : 1.0f;
            switch (fill) {
              case Fill::Gaussian:
                v = float(rng.gaussian(0.0, 0.5));
                break;
              case Fill::Zeros:
                v = rng.uniform() < 0.3 ? sign * 0.0f
                                        : float(rng.gaussian(0.0, 0.5));
                break;
              case Fill::Subnormal: {
                // FP8 (1,4,3) bias 4 subnormals lie below 2^-3, FP8
                // (1,5,2) ones below 2^-14; DLFloat16 flushes below
                // 2^-31.
                static constexpr double kScales[] = {0x1p-4, 0x1p-15,
                                                     0x1p-31, 1.0};
                v = float(rng.gaussian() *
                          kScales[rng.uniformInt(0, 3)]);
                break;
              }
              case Fill::Saturating:
                v = float(std::abs(rng.gaussian(3e4, 1e4)));
                break;
              case Fill::Cancelling: {
                // Along k, A holds +x, -x pairs at (2t-1, 2t) against
                // equal B values, so each pair's terms cancel. A large
                // term at k = 0 swamps them, and the last k cancels it.
                const int64_t kk = is_a ? c : r;
                const int64_t kn = is_a ? cols : rows;
                if (kk == 0 || (kk == kn - 1 && kn > 2))
                    v = is_a && kk > 0 ? -256.0f : 256.0f;
                else if (kk % 2 == 1)
                    v = kTieValues[(r + c) % 8];
                else
                    v = is_a ? -t.at(r, c - 1) : t.at(r - 1, c);
                break;
              }
              case Fill::Ties:
                v = sign * kTieValues[rng.uniformInt(0, 7)];
                break;
            }
        }
    }
    if (fill == Fill::Zeros) {
        // A whole zero row of A (every lane gated at once) and a zero
        // column of B (one lane gated for the whole reduction).
        if (is_a && rows > 1)
            for (int64_t c = 0; c < cols; ++c)
                t.at(1, c) = -0.0f;
        if (!is_a && cols > 1)
            for (int64_t r = 0; r < rows; ++r)
                t.at(r, cols / 2) = 0.0f;
    }
}

constexpr int64_t kOracleN[] = {1, 7, 8, 9, 33, 160};
constexpr int64_t kOracleK[] = {1, 63, 64, 65, 160, 200};
constexpr size_t kOracleChunks[] = {1, 3, 64, size_t(1) << 20};
constexpr Rounding kOracleModes[] = {
    Rounding::NearestEven, Rounding::NearestUp, Rounding::Truncate};

/** What a sweep saw, so a test can prove its fill reached the case it
 *  is named for. */
struct OracleSweep
{
    int64_t mismatches = 0;
    int64_t mode_differences = 0; ///< FP16 NearestEven vs NearestUp
    int64_t saturated = 0;        ///< outputs at ±DLFloat16 max
};

/** Every shape x chunk size x rounding mode x outer precision for one
 *  operand fill, HFP8 (each pair in @p kinds) and FP16, against the
 *  oracle. */
OracleSweep
sweepOracle(Fill fill,
            std::initializer_list<std::pair<Fp8Kind, Fp8Kind>> kinds)
{
    OracleSweep s;
    Rng rng(1000 + uint64_t(fill));
    const float max16 = maxFinite(dlfloat16());
    for (int64_t n : kOracleN) {
        for (int64_t k : kOracleK) {
            const int64_t m = 2;
            Tensor a({m, k}), b({k, n});
            fillOperand(a, fill, rng, true);
            fillOperand(b, fill, rng, false);
            for (size_t chunk : kOracleChunks) {
                for (bool fp32_outer : {true, false}) {
                    std::vector<Tensor> by_mode;
                    for (Rounding mode : kOracleModes) {
                        ExecConfig cfg;
                        cfg.chunk_size = chunk;
                        cfg.fp32_outer = fp32_outer;
                        cfg.rounding = mode;
                        std::vector<GemmRun> runs;
                        for (auto [ka, kb] : kinds)
                            runs.push_back(runHfp8(a, ka, b, kb, cfg));
                        runs.push_back(runFp16(a, b, cfg));
                        for (const GemmRun &r : runs) {
                            const int64_t bad =
                                bitMismatches(r.got, r.want);
                            EXPECT_EQ(bad, 0)
                                << "m=" << m << " k=" << k << " n=" << n
                                << " chunk=" << chunk << " fp32_outer="
                                << fp32_outer << " mode=" << int(mode);
                            s.mismatches += bad;
                            for (int64_t i = 0; i < r.got.numel(); ++i)
                                s.saturated +=
                                    std::abs(r.got[i]) == max16;
                        }
                        by_mode.push_back(runs.back().got);
                    }
                    for (int64_t i = 0; i < by_mode[0].numel(); ++i)
                        s.mode_differences +=
                            std::bit_cast<uint32_t>(by_mode[0][i]) !=
                            std::bit_cast<uint32_t>(by_mode[1][i]);
                }
            }
        }
    }
    return s;
}

constexpr std::pair<Fp8Kind, Fp8Kind> kFwdFwd{Fp8Kind::Forward,
                                              Fp8Kind::Forward};
constexpr std::pair<Fp8Kind, Fp8Kind> kBwdFwd{Fp8Kind::Backward,
                                              Fp8Kind::Forward};
constexpr std::pair<Fp8Kind, Fp8Kind> kBwdBwd{Fp8Kind::Backward,
                                              Fp8Kind::Backward};

TEST(ChunkedGemmOracle, LaneScopeSetsTheLibrarysWidth)
{
    for (const LaneGemm &gemm : kLaneGemms) {
        const LaneScope<LaneGemm> scope(gemm);
        EXPECT_EQ(chunkedGemmLaneWidth(), gemm.width);
    }
}

TEST(ChunkedGemmOracle, GaussianBitIdentical)
{
    RAPID_AT_EVERY_LANE_WIDTH(kLaneGemms, [] {
        EXPECT_EQ(sweepOracle(Fill::Gaussian, {kFwdFwd, kBwdFwd}).mismatches,
                  0);
    });
}

TEST(ChunkedGemmOracle, SignedZerosAndGatedLanesBitIdentical)
{
    RAPID_AT_EVERY_LANE_WIDTH(kLaneGemms, [] {
        EXPECT_EQ(sweepOracle(Fill::Zeros, {kFwdFwd, kBwdFwd}).mismatches, 0);
    });
}

TEST(ChunkedGemmOracle, Fp8SubnormalsBitIdentical)
{
    RAPID_AT_EVERY_LANE_WIDTH(kLaneGemms, [] {
        EXPECT_EQ(sweepOracle(Fill::Subnormal, {kFwdFwd, kBwdBwd}).mismatches,
                  0);
    });
}

TEST(ChunkedGemmOracle, SaturatingSumsBitIdentical)
{
    RAPID_AT_EVERY_LANE_WIDTH(kLaneGemms, [] {
        const OracleSweep s = sweepOracle(Fill::Saturating, {kBwdBwd});
        EXPECT_EQ(s.mismatches, 0);
        EXPECT_GT(s.saturated, 0) << "no sum reached DLFloat16 max";
    });
}

TEST(ChunkedGemmOracle, CancellingRowsBitIdentical)
{
    RAPID_AT_EVERY_LANE_WIDTH(kLaneGemms, [] {
        EXPECT_EQ(sweepOracle(Fill::Cancelling, {kFwdFwd}).mismatches, 0);
    });
}

TEST(ChunkedGemmOracle, TiesAtBit14BitIdentical)
{
    RAPID_AT_EVERY_LANE_WIDTH(kLaneGemms, [] {
        const OracleSweep s = sweepOracle(Fill::Ties, {kFwdFwd});
        EXPECT_EQ(s.mismatches, 0);
        // The two nearest modes differ only at ties, so this proves the
        // fill reached them.
        EXPECT_GT(s.mode_differences, 0) << "no accumulate tied";
    });
}

/** The NumericFault message() of @p fn, or "" if it does not throw. */
template <typename Fn>
std::string
numericFault(Fn &&fn)
{
    try {
        fn();
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::NumericFault);
        return e.message();
    }
    return "";
}

/**
 * Lanes of one block whose chunks fold at different k: column c of B
 * is zero with probability (c mod 32) / 64, so the gated-in counts of
 * the lanes of every block drift apart along k. Widths n straddle the
 * block of every lane width (8, 16, 32 columns). Every shape x chunk x
 * mode x outer precision, HFP8 and FP16, against the oracle.
 */
TEST(ChunkedGemmOracle, DivergentLaneCountsBitIdentical)
{
    RAPID_AT_EVERY_LANE_WIDTH(kLaneGemms, [] {
        Rng rng(79);
        for (int64_t n : {1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 160}) {
            for (int64_t k : {63, 64, 65, 160, 200}) {
                Tensor b = randomTensor(rng, {k, n});
                std::vector<int64_t> live(size_t(n), 0);
                for (int64_t r = 0; r < k; ++r) {
                    for (int64_t c = 0; c < n; ++c) {
                        if (rng.uniform() < double(c % 32) / 64.0)
                            b.at(r, c) = 0.0f;
                        live[size_t(c)] += b.at(r, c) != 0.0f;
                    }
                }
                // The ramp must split the first block's lanes, or every
                // lane would fold at the same k.
                const auto first = live.begin() + std::min<int64_t>(n, 8);
                if (n > 1) {
                    EXPECT_NE(*std::min_element(live.begin(), first),
                              *std::max_element(live.begin(), first));
                }
                for (int64_t m : {1, 3, 5}) {
                    const Tensor a = randomTensor(rng, {m, k});
                    for (size_t chunk : {size_t(1), size_t(3), size_t(64)}) {
                        for (bool fp32_outer : {true, false}) {
                            for (Rounding mode : kOracleModes) {
                                ExecConfig cfg;
                                cfg.chunk_size = chunk;
                                cfg.fp32_outer = fp32_outer;
                                cfg.rounding = mode;
                                for (const GemmRun &r :
                                     {runHfp8(a, Fp8Kind::Forward, b,
                                              Fp8Kind::Forward, cfg),
                                      runFp16(a, b, cfg)})
                                    EXPECT_EQ(bitMismatches(r.got, r.want),
                                              0)
                                        << "m=" << m << " k=" << k
                                        << " n=" << n << " chunk=" << chunk
                                        << " fp32_outer=" << fp32_outer
                                        << " mode=" << int(mode);
                            }
                        }
                    }
                }
            }
        }
    });
}

/**
 * Outputs narrower than a lane vector and taller than wide, which run
 * as C^T = B^T A^T: the training MLP's N = 2 shapes among others, with
 * signed zeros in both operands, every chunk size, outer precision and
 * mode, HFP8 and FP16, against the oracle. A poisoned operand still
 * names the element of the unswapped orientation.
 */
TEST(ChunkedGemmOracle, NarrowOutputsSwapOperandRolesBitIdentical)
{
    RAPID_AT_EVERY_LANE_WIDTH(kLaneGemms, [] {
        Rng rng(80);
        for (auto [m, k, n] : {std::tuple<int64_t, int64_t, int64_t>{32, 160, 2},
                               {160, 32, 2},
                               {9, 65, 1},
                               {17, 64, 3},
                               {33, 1, 7},
                               {40, 200, 15}}) {
            Tensor a({m, k}), b({k, n});
            fillOperand(a, Fill::Zeros, rng, true);
            fillOperand(b, Fill::Zeros, rng, false);
            for (size_t chunk : kOracleChunks) {
                for (bool fp32_outer : {true, false}) {
                    for (Rounding mode : kOracleModes) {
                        ExecConfig cfg;
                        cfg.chunk_size = chunk;
                        cfg.fp32_outer = fp32_outer;
                        cfg.rounding = mode;
                        for (const GemmRun &r :
                             {runHfp8(a, Fp8Kind::Backward, b,
                                      Fp8Kind::Forward, cfg),
                              runFp16(a, b, cfg)})
                            EXPECT_EQ(bitMismatches(r.got, r.want), 0)
                                << "m=" << m << " k=" << k << " n=" << n
                                << " chunk=" << chunk
                                << " fp32_outer=" << fp32_outer
                                << " mode=" << int(mode);
                    }
                }
            }
        }
        // Row-major, output (0, 1) faults first, at k = 30; column-major
        // it would be output (5, 0), at k = 70.
        Tensor a = randomTensor(rng, {32, 160});
        Tensor b = randomTensor(rng, {160, 2});
        a.at(5, 70) = std::numeric_limits<float>::quiet_NaN();
        b.at(30, 1) = std::numeric_limits<float>::infinity();
        const std::string fault =
            numericFault([&] { fp16Matmul(a, b, ExecConfig{}); });
        EXPECT_NE(fault.find("element 30 of a 160-element"),
                  std::string::npos)
            << fault;
    });
}

/** A poisoned operand whose every product is zero-gated: no throw, and
 *  the scalar path's bits. */
TEST(ChunkedGemmOracle, GatedPoisonPassesThrough)
{
    RAPID_AT_EVERY_LANE_WIDTH(kLaneGemms, [] {
        Rng rng(77);
        for (float poison : {std::numeric_limits<float>::quiet_NaN(),
                             std::numeric_limits<float>::infinity()}) {
            Tensor a = randomTensor(rng, {3, 65});
            Tensor b = randomTensor(rng, {65, 9});
            a.at(1, 10) = poison; // B row 10 is all zero
            for (int64_t j = 0; j < 9; ++j)
                b.at(10, j) = 0.0f;
            b.at(20, 4) = -poison; // A column 20 is all zero
            for (int64_t i = 0; i < 3; ++i)
                a.at(i, 20) = -0.0f;
            ExecConfig cfg;
            GemmRun h = runHfp8(a, Fp8Kind::Forward, b, Fp8Kind::Backward,
                                cfg);
            EXPECT_EQ(bitMismatches(h.got, h.want), 0);
            GemmRun f = runFp16(a, b, cfg);
            EXPECT_EQ(bitMismatches(f.got, f.want), 0);
        }
    });
}

/** A poisoned operand that meets a nonzero one throws the oracle's
 *  NumericFault, naming the same element. */
TEST(ChunkedGemmOracle, LivePoisonThrowsOracleFault)
{
    RAPID_AT_EVERY_LANE_WIDTH(kLaneGemms, [] {
        Rng rng(78);
        for (float poison : {std::numeric_limits<float>::quiet_NaN(),
                             -std::numeric_limits<float>::infinity()}) {
            Tensor a = randomTensor(rng, {3, 65});
            Tensor b = randomTensor(rng, {65, 9});
            a.at(2, 33) = poison;
            ExecConfig cfg;
            const std::string want = numericFault([&] {
                const FloatFormat fp8 = fp8Format(Fp8Kind::Forward, cfg);
                referenceChunkedMatmul(quantizeEach(a, fp8, cfg.rounding),
                                       quantizeEach(b, fp8, cfg.rounding), cfg);
            });
            EXPECT_NE(want.find("element 33 of a 65-element"),
                      std::string::npos)
                << want;
            EXPECT_EQ(numericFault([&] {
                          hfp8Matmul(a, Fp8Kind::Forward, b,
                                     Fp8Kind::Forward, cfg);
                      }),
                      want);
            const std::string want16 = numericFault([&] {
                referenceChunkedMatmul(quantizeEach(a, dlfloat16(), cfg.rounding),
                                       quantizeEach(b, dlfloat16(), cfg.rounding),
                                       cfg);
            });
            EXPECT_EQ(want16, want);
            EXPECT_EQ(numericFault([&] { fp16Matmul(a, b, cfg); }), want16);
        }
    });
}

/** One FP8 tensor-quantize case: a kind and its forward bias. */
struct Fp8Case
{
    Fp8Kind kind;
    int fwd_bias;
};

/** Both FP8 kinds: (1,4,3) at every bias, and (1,5,2). */
std::vector<Fp8Case>
allFp8Cases()
{
    std::vector<Fp8Case> out;
    for (int bias = 1; bias <= 15; ++bias)
        out.push_back({Fp8Kind::Forward, bias});
    out.push_back({Fp8Kind::Backward, 4});
    return out;
}

/** Inputs among the binary32 patterns @p in where the lane round
 *  (quantizeTensorFp8() of @p kind, or quantizeTensorFp16() when it
 *  is null) and FloatFormat::quantize() differ as bit patterns (so a
 *  NaN cannot hide behind NaN != NaN); the first lands in @p first. */
size_t
laneRoundMismatches(const std::vector<uint32_t> &in, const Fp8Kind *kind,
                    const ExecConfig &cfg, uint32_t &first)
{
    Tensor t({int64_t(in.size())});
    for (size_t i = 0; i < in.size(); ++i)
        t[int64_t(i)] = std::bit_cast<float>(in[i]);
    const Tensor got = kind ? quantizeTensorFp8(t, *kind, cfg)
                            : quantizeTensorFp16(t, cfg.rounding);
    const FloatFormat fmt = kind ? fp8Format(*kind, cfg) : dlfloat16();
    size_t bad = 0;
    for (size_t i = 0; i < in.size(); ++i) {
        const float v = std::bit_cast<float>(in[i]);
        if (std::bit_cast<uint32_t>(got[int64_t(i)]) !=
                std::bit_cast<uint32_t>(fmt.quantize(v, cfg.rounding)) &&
            bad++ == 0)
            first = in[i];
    }
    return bad;
}

/** The lane path against the scalar quantize over every rounding
 *  class, for every FP8 kind and forward bias and for DLFloat16, in
 *  every mode, at every lane width. The inputs are not a whole number
 *  of lane blocks, so the scalar tail runs too. */
TEST(Fp8TensorQuantize, MatchesFormatQuantizeOverRoundingClasses)
{
    std::vector<uint32_t> inputs = roundingClassInputs();
    if (inputs.size() % 32 == 0)
        inputs.push_back(0x3f800001u);
    RAPID_AT_EVERY_LANE_WIDTH(kLaneGemms, [&] {
        for (Rounding mode : kOracleModes) {
            for (const Fp8Case &c : allFp8Cases()) {
                ExecConfig cfg;
                cfg.fwd_bias = c.fwd_bias;
                cfg.rounding = mode;
                uint32_t first = 0;
                EXPECT_EQ(laneRoundMismatches(inputs, &c.kind, cfg, first),
                          0u)
                    << fp8Format(c.kind, cfg).name() << " mode " << int(mode)
                    << ", first input 0x" << std::hex << first;
            }
            ExecConfig cfg;
            cfg.rounding = mode;
            uint32_t first = 0;
            EXPECT_EQ(laneRoundMismatches(inputs, nullptr, cfg, first), 0u)
                << "DLFloat16 mode " << int(mode) << ", first input 0x"
                << std::hex << first;
        }
    });
}

/**
 * The lane path against the scalar quantize over every binary32 input
 * at a prime stride, for both datapath FP8 formats and DLFloat16, at
 * every lane width; set RAPID_FULL_QUANTIZE_SWEEP=1 to sweep all 2^32
 * inputs.
 */
TEST(Fp8TensorQuantize, MatchesFormatQuantizeOnStridedBinary32Sweep)
{
    const uint64_t stride =
        std::getenv("RAPID_FULL_QUANTIZE_SWEEP") ? 1 : 4099;
    constexpr size_t kSlices = 256;
    constexpr uint64_t kSpan = (uint64_t(1) << 32) / kSlices;
    constexpr size_t kBatch = size_t(1) << 16;
    const Fp8Kind kinds[] = {Fp8Kind::Forward, Fp8Kind::Backward};
    // Both FP8 kinds, then DLFloat16 (no kind).
    const Fp8Kind *const rounds[] = {&kinds[0], &kinds[1], nullptr};
    // The mismatches of one slice of the sweep, on one lane width.
    auto sliceMismatches = [&](const LaneGemm &lanes, const Fp8Kind *kind,
                               const ExecConfig &cfg, size_t s) {
        const LaneScope<LaneGemm> scope(lanes); // a pool thread's too
        size_t n = 0;
        uint32_t first = 0;
        std::vector<uint32_t> batch;
        batch.reserve(kBatch);
        // Each slice starts on the global stride grid.
        uint64_t in = (s * kSpan + stride - 1) / stride * stride;
        for (; in < (s + 1) * kSpan; in += stride) {
            batch.push_back(uint32_t(in));
            if (batch.size() == kBatch) {
                n += laneRoundMismatches(batch, kind, cfg, first);
                batch.clear();
            }
        }
        if (!batch.empty())
            n += laneRoundMismatches(batch, kind, cfg, first);
        return n;
    };
    RAPID_AT_EVERY_LANE_WIDTH(kLaneGemms, [&] {
        const LaneGemm &lanes = LaneScope<LaneGemm>::activeOr(kLaneGemms[0]);
        for (const Fp8Kind *kind : rounds) {
            for (Rounding mode : kOracleModes) {
                ExecConfig cfg;
                cfg.rounding = mode;
                const std::vector<size_t> bad =
                    parallelMap(kSlices, [&](size_t s) {
                        return sliceMismatches(lanes, kind, cfg, s);
                    });
                size_t total = 0;
                for (size_t n : bad)
                    total += n;
                EXPECT_EQ(total, 0u)
                    << (kind ? fp8Format(*kind, cfg) : dlfloat16()).name()
                    << " mode " << int(mode);
            }
        }
    });
}

TEST(IntExec, MatmulCloseToGoldenOnClippedData)
{
    Rng rng(6);
    // PACT regime: non-negative activations within the clip range.
    Tensor a({8, 64});
    for (int64_t i = 0; i < a.numel(); ++i)
        a[i] = float(std::abs(rng.gaussian(0.0, 1.2)));
    Tensor b = randomTensor(rng, {64, 8}, 0.4);
    PactQuantizer act_q(4.0f, 4);
    SawbQuantizer wt_q(b.storage(), 4);
    Tensor ref = matmul(a, b);
    Tensor got = intMatmul(a, act_q, b, wt_q, 4);
    // 4-bit operands on both sides: low-tens-of-percent element error
    // that partially cancels over the K=64 reduction.
    EXPECT_LT(relativeL2(got, ref), 0.25);
}

TEST(IntExec, Int2CoarserThanInt4)
{
    Rng rng(7);
    Tensor a({8, 64});
    for (int64_t i = 0; i < a.numel(); ++i)
        a[i] = float(std::abs(rng.gaussian(0.0, 1.0)));
    Tensor b = randomTensor(rng, {64, 8}, 0.4);
    Tensor ref = matmul(a, b);
    PactQuantizer a4(3.0f, 4), a2(3.0f, 2);
    SawbQuantizer w4(b.storage(), 4), w2(b.storage(), 2);
    double err4 = relativeL2(intMatmul(a, a4, b, w4, 4), ref);
    double err2 = relativeL2(intMatmul(a, a2, b, w2, 2), ref);
    EXPECT_LT(err4, err2);
}

TEST(IntExec, ConvMatchesMatmulForOneByOneKernel)
{
    Rng rng(8);
    // A 1x1 convolution is a GEMM over channels; both executors must
    // produce identical quantized results.
    const int64_t ci = 16, co = 6, hw = 3;
    Tensor x({1, ci, hw, hw});
    for (int64_t i = 0; i < x.numel(); ++i)
        x[i] = float(std::abs(rng.gaussian(0.0, 1.0)));
    Tensor w = randomTensor(rng, {co, ci, 1, 1}, 0.4);
    PactQuantizer act_q(3.0f, 4);
    SawbQuantizer wt_q(w.storage(), 4);
    Tensor conv_out = intConv2d(x, act_q, w, wt_q, 4);

    // Build the equivalent GEMM: (H*W, Ci) x (Ci, Co).
    Tensor a({hw * hw, ci});
    for (int64_t c = 0; c < ci; ++c)
        for (int64_t p = 0; p < hw * hw; ++p)
            a.at(p, c) = x[c * hw * hw + p];
    Tensor b({ci, co});
    for (int64_t c = 0; c < ci; ++c)
        for (int64_t o = 0; o < co; ++o)
            b.at(c, o) = w[o * ci + c];
    Tensor gemm_out = intMatmul(a, act_q, b, wt_q, 4);

    for (int64_t o = 0; o < co; ++o)
        for (int64_t p = 0; p < hw * hw; ++p)
            EXPECT_FLOAT_EQ(conv_out[o * hw * hw + p], gemm_out.at(p, o))
                << "o=" << o << " p=" << p;
}

TEST(IntExec, ChunkSaturationEngages)
{
    // Max-level operands accumulated far past INT16: the saturating
    // chunk boundary must cap the result.
    const int64_t k = 4096;
    Tensor a({1, k}), b({k, 1});
    std::ranges::fill(a.storage(), 100.0f); // clips to PACT alpha
    std::ranges::fill(b.storage(), 100.0f); // clips to SaWB alpha
    PactQuantizer act_q(1.0f, 4);
    std::vector<float> wts(size_t(k), 1.0f);
    wts[0] = -1.0f; // avoid degenerate all-equal tensor
    SawbQuantizer wt_q(wts, 4);
    ExecConfig cfg;
    cfg.chunk_size = k; // one giant chunk -> saturates at INT16_MAX
    Tensor y = intMatmul(a, act_q, b, wt_q, 4, cfg);
    float expect = dlfloat16().quantize(float(INT16_MAX) * act_q.scale() *
                                        wt_q.scale());
    EXPECT_FLOAT_EQ(y[0], expect);
}

/**
 * The oracle for the integer GEMM kernel: the per-output loop
 * intMatmul and intConv2d ran before it, copied verbatim. int64 chunk
 * sums over ascending index chunks, each saturated to INT16, and a
 * binary64 outer sum.
 */
float
referenceIntChunkedDot(const int *a_levels, const int *b_levels, int64_t n,
                       float scale, const ExecConfig &cfg)
{
    double outer = 0.0;
    int64_t chunk_acc = 0;
    size_t in_chunk = 0;
    for (int64_t i = 0; i < n; ++i) {
        chunk_acc += int64_t(a_levels[i]) * int64_t(b_levels[i]);
        if (++in_chunk == cfg.chunk_size) {
            outer += double(saturateToInt16(chunk_acc));
            chunk_acc = 0;
            in_chunk = 0;
        }
    }
    if (in_chunk)
        outer += double(saturateToInt16(chunk_acc));
    return dlfloat16().quantize(float(outer * double(scale)),
                                cfg.rounding);
}

template <typename Q>
std::vector<int>
referenceLevels(const Tensor &t, const Q &q)
{
    std::vector<int> out(size_t(t.numel()));
    for (int64_t i = 0; i < t.numel(); ++i)
        out[size_t(i)] = referenceLevel(q, t[i]);
    return out;
}

/** referenceIntChunkedDot() of every row of @p a and column of @p b. */
Tensor
referenceIntMatmul(const Tensor &a, const PactQuantizer &act_q,
                   const Tensor &b, const SawbQuantizer &wt_q,
                   const ExecConfig &cfg)
{
    const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    std::vector<int> qa = referenceLevels(a, act_q);
    std::vector<int> qb = referenceLevels(transpose(b), wt_q);
    const float scale = act_q.scale() * wt_q.scale();
    Tensor out({m, n});
    for (int64_t i = 0; i < m; ++i)
        for (int64_t j = 0; j < n; ++j)
            out.at(i, j) = referenceIntChunkedDot(qa.data() + i * k,
                                                  qb.data() + j * k, k,
                                                  scale, cfg);
    return out;
}

/**
 * The receptive field of output (in_n, oc, oy, ox) as the per-output
 * patch loops gathered it: @p act_at(c, y, x) and @p wt_at(icg, ky, kx)
 * in (icg, ky, kx) order, zero activations in the padding.
 */
template <typename T, typename ActAt, typename WtAt>
void
referencePatch(const Tensor &input, const Tensor &weight, int64_t oc,
               int64_t oy, int64_t ox, const ConvParams &p, ActAt act_at,
               WtAt wt_at, std::vector<T> &act, std::vector<T> &wt)
{
    const int64_t h = input.dim(2), w = input.dim(3);
    const int64_t cig = weight.dim(1);
    const int64_t kh = weight.dim(2), kw = weight.dim(3);
    const int64_t g = oc / (weight.dim(0) / p.groups);
    act.clear();
    wt.clear();
    for (int64_t icg = 0; icg < cig; ++icg) {
        const int64_t ic = g * cig + icg;
        for (int64_t ky = 0; ky < kh; ++ky) {
            const int64_t iy = oy * p.stride + ky - p.pad;
            for (int64_t kx = 0; kx < kw; ++kx) {
                const int64_t ix = ox * p.stride + kx - p.pad;
                const bool inside = iy >= 0 && iy < h && ix >= 0 && ix < w;
                act.push_back(inside ? act_at(ic, iy, ix) : T(0));
                wt.push_back(wt_at(icg, ky, kx));
            }
        }
    }
}

/** The per-output loop over every conv output, @p dot(act, wt, n) of
 *  each receptive field. */
template <typename T, typename ActAt, typename WtAt, typename Dot>
Tensor
referenceConv(const Tensor &input, const Tensor &weight,
              const ConvParams &p, ActAt act_at, WtAt wt_at, Dot dot)
{
    const int64_t n = input.dim(0), co = weight.dim(0);
    const int64_t ho = convOutDim(input.dim(2), weight.dim(2), p.stride,
                                  p.pad);
    const int64_t wo = convOutDim(input.dim(3), weight.dim(3), p.stride,
                                  p.pad);
    Tensor out({n, co, ho, wo});
    std::vector<T> act, wt;
    for (int64_t in_n = 0; in_n < n; ++in_n)
        for (int64_t oc = 0; oc < co; ++oc)
            for (int64_t oy = 0; oy < ho; ++oy)
                for (int64_t ox = 0; ox < wo; ++ox) {
                    referencePatch<T>(
                        input, weight, oc, oy, ox, p,
                        [&](int64_t c, int64_t y, int64_t x) {
                            return act_at(in_n, c, y, x);
                        },
                        [&](int64_t icg, int64_t ky, int64_t kx) {
                            return wt_at(oc, icg, ky, kx);
                        },
                        act, wt);
                    out.at(in_n, oc, oy, ox) =
                        dot(act.data(), wt.data(), int64_t(act.size()));
                }
    return out;
}

/** fp16Conv2d's old per-output loop: referenceChunkedDot() of each
 *  quantized receptive field. */
Tensor
referenceFp16Conv2d(const Tensor &input, const Tensor &weight,
                    const ConvParams &p, const ExecConfig &cfg)
{
    const Tensor qi = quantizeTensorFp16(input, cfg.rounding);
    const Tensor qw = quantizeTensorFp16(weight, cfg.rounding);
    return referenceConv<float>(
        qi, qw, p,
        [&](int64_t n, int64_t c, int64_t y, int64_t x) {
            return qi.at(n, c, y, x);
        },
        [&](int64_t o, int64_t c, int64_t y, int64_t x) {
            return qw.at(o, c, y, x);
        },
        [&](const float *a, const float *b, int64_t n) {
            return referenceChunkedDot(a, b, n, cfg);
        });
}

/** intConv2d's old per-output loop: referenceIntChunkedDot() of each
 *  receptive field's levels. */
Tensor
referenceIntConv2d(const Tensor &input, const PactQuantizer &act_q,
                   const Tensor &weight, const SawbQuantizer &wt_q,
                   const ConvParams &p, const ExecConfig &cfg)
{
    const std::vector<int> qi = referenceLevels(input, act_q);
    const std::vector<int> qw = referenceLevels(weight, wt_q);
    const int64_t ci = input.dim(1), h = input.dim(2), w = input.dim(3);
    const int64_t cig = weight.dim(1), kh = weight.dim(2),
                  kw = weight.dim(3);
    const float scale = act_q.scale() * wt_q.scale();
    return referenceConv<int>(
        input, weight, p,
        [&](int64_t n, int64_t c, int64_t y, int64_t x) {
            return qi[size_t(((n * ci + c) * h + y) * w + x)];
        },
        [&](int64_t o, int64_t c, int64_t y, int64_t x) {
            return qw[size_t(((o * cig + c) * kh + y) * kw + x)];
        },
        [&](const int *a, const int *b, int64_t n) {
            return referenceIntChunkedDot(a, b, n, scale, cfg);
        });
}

/** INT operand fills the integer oracle tests sweep. */
enum class IntFill
{
    Dense,  ///< activations spread over every PACT level
    Sparse, ///< half the activations zero (skipped k)
    Zeros,  ///< every activation zero
};

/** Post-ReLU activations for a PACT clip of @p alpha. */
void
fillActivations(Tensor &t, IntFill fill, Rng &rng, float alpha)
{
    for (int64_t i = 0; i < t.numel(); ++i) {
        const float v = float(rng.uniform(0.0, 1.1 * double(alpha)));
        switch (fill) {
          case IntFill::Dense:
            t[i] = v;
            break;
          case IntFill::Sparse:
            t[i] = rng.uniform() < 0.5 ? 0.0f : v;
            break;
          case IntFill::Zeros:
            t[i] = 0.0f;
            break;
        }
    }
}

// n around every lane block width (8, 16 and 32 columns); m = 7 is one
// row block of 4 and a ragged block of 3.
constexpr int64_t kIntOracleN[] = {1, 7, 15, 16, 17, 31, 32, 33, 64, 65, 160};
constexpr int64_t kIntOracleK[] = {1, 63, 64, 65, 160, 200};
constexpr int64_t kIntOracleM[] = {3, 7};
constexpr unsigned kIntWidths[] = {2, 4};

/** Chunk sizes the integer oracles sweep for a reduction of @p k. */
std::vector<size_t>
intOracleChunks(int64_t k)
{
    return {1, 7, 64, size_t(k), size_t(k) + 1, 4096};
}

TEST(IntGemmOracle, BitIdenticalOverShapesChunksWidthsAndModes)
{
    Rng rng(2000);
    int64_t outputs = 0;
    std::string skipped;
    for (IntFill fill : {IntFill::Dense, IntFill::Sparse, IntFill::Zeros}) {
        for (int64_t m : kIntOracleM) {
            for (int64_t n : kIntOracleN) {
                for (int64_t k : kIntOracleK) {
                    Tensor a({m, k});
                    fillActivations(a, fill, rng, 2.0f);
                    Tensor b = randomTensor(rng, {k, n}, 0.4);
                    for (unsigned width : kIntWidths) {
                        const PactQuantizer act_q(2.0f, width);
                        const SawbQuantizer wt_q(b.storage(), width);
                        for (size_t chunk : intOracleChunks(k)) {
                            for (Rounding mode : kOracleModes) {
                                ExecConfig cfg;
                                cfg.chunk_size = chunk;
                                cfg.rounding = mode;
                                // One oracle run, checked at every width.
                                const Tensor want = referenceIntMatmul(
                                    a, act_q, b, wt_q, cfg);
                                skipped = atEveryLaneWidth(kLaneIntGemms, [&] {
                                    const Tensor got = intMatmul(
                                        a, act_q, b, wt_q, width, cfg);
                                    EXPECT_EQ(bitMismatches(got, want), 0)
                                        << "fill=" << int(fill)
                                        << " m=" << m << " k=" << k
                                        << " n=" << n << " width=" << width
                                        << " chunk=" << chunk
                                        << " mode=" << int(mode);
                                    outputs += got.numel();
                                });
                            }
                        }
                    }
                }
            }
        }
    }
    EXPECT_GT(outputs, 0);
    if (!skipped.empty())
        GTEST_SKIP() << skipped;
}

/** A spy INT GEMM entry: records the B row stride of every GEMM that
 *  reaches it and runs the GEMM on @p inner. */
struct IntGemmSpy
{
    static inline const LaneIntGemm *inner = nullptr;
    static inline std::vector<int64_t> ldbs;

    static void
    run(const int16_t *qa, const int16_t *qb, int64_t m, int64_t k,
        int64_t n, int64_t ldb, bool int16_lanes, float scale,
        const ExecConfig &cfg, float *out)
    {
        ldbs.push_back(ldb);
        inner->run(qa, qb, m, k, n, ldb, int16_lanes, scale, cfg, out);
    }
};

TEST(IntGemmOracle, LaneScopeReachesIntMatmulAndIntConv)
{
    Rng rng(2004);
    Tensor a({5, 40});
    fillActivations(a, IntFill::Dense, rng, 2.0f);
    const Tensor b = randomTensor(rng, {40, 9}, 0.4);
    Tensor x({2, 4, 5, 5});
    fillActivations(x, IntFill::Dense, rng, 2.0f);
    const Tensor w = randomTensor(rng, {6, 2, 3, 3}, 0.4);
    const PactQuantizer act_q(2.0f, 4);
    const SawbQuantizer b_q(b.storage(), 4), w_q(w.storage(), 4);
    const ConvParams p{1, 1, 2}; // 2 images x 2 groups: 4 GEMMs
    const Tensor mm = intMatmul(a, act_q, b, b_q, 4);
    const Tensor conv = intConv2d(x, act_q, w, w_q, 4, p);
    for (const LaneIntGemm &gemm : kLaneIntGemms) {
        if (!cpuRunsLanes(int(gemm.width)))
            continue;
        IntGemmSpy::inner = &gemm;
        IntGemmSpy::ldbs.clear();
        const LaneIntGemm spy{gemm.width, &IntGemmSpy::run};
        const LaneScope<LaneIntGemm> scope(spy);
        EXPECT_EQ(bitMismatches(intMatmul(a, act_q, b, b_q, 4), mm), 0);
        EXPECT_EQ(bitMismatches(intConv2d(x, act_q, w, w_q, 4, p), conv), 0);
        // Each call padded B's rows to whole blocks of this width.
        ASSERT_EQ(IntGemmSpy::ldbs.size(), 5u) << "width " << gemm.width;
        for (int64_t ldb : IntGemmSpy::ldbs)
            EXPECT_EQ(ldb % gemm.block(), 0) << "width " << gemm.width;
    }
}

/**
 * Operands whose INT4 levels are exactly the given ones: PACT with
 * alpha 15 has step 1, so an integer activation is its own level, and
 * a weight is its level times the step of a SaWB quantizer fitted to a
 * fixed draw.
 */
struct ExactInt4
{
    PactQuantizer act_q{15.0f, 4};
    SawbQuantizer wt_q{Rng(2001).gaussianVector(256, 0.0, 0.4), 4};
    Tensor a, b;

    ExactInt4(const std::vector<int> &a_levels,
              const std::vector<std::vector<int>> &b_columns)
        : a({1, int64_t(a_levels.size())}),
          b({int64_t(a_levels.size()), int64_t(b_columns.size())})
    {
        for (size_t kk = 0; kk < a_levels.size(); ++kk) {
            a[int64_t(kk)] = float(a_levels[kk]);
            EXPECT_EQ(referenceLevel(act_q, a[int64_t(kk)]), a_levels[kk]);
            for (size_t j = 0; j < b_columns.size(); ++j) {
                float &v = b.at(int64_t(kk), int64_t(j));
                v = float(b_columns[j][kk]) * wt_q.scale();
                EXPECT_EQ(referenceLevel(wt_q, v), b_columns[j][kk]);
            }
        }
    }

    /** The library's outputs, checked bit for bit against the oracle
     *  at @p chunk. */
    Tensor
    run(size_t chunk) const
    {
        ExecConfig cfg;
        cfg.chunk_size = chunk;
        const Tensor got = intMatmul(a, act_q, b, wt_q, 4, cfg);
        EXPECT_EQ(bitMismatches(got, referenceIntMatmul(a, act_q, b, wt_q,
                                                         cfg)),
                  0)
            << "chunk=" << chunk;
        return got;
    }

    /** The output a saturated outer sum of @p level_sum gives. */
    float
    expect(int64_t level_sum) const
    {
        return dlfloat16().quantize(
            float(double(level_sum) *
                  double(act_q.scale() * wt_q.scale())));
    }
};

/** (a, b) INT4 level pairs, a in [0, 15] and b in [-7, 7], whose
 *  products sum to @p target. */
std::vector<std::pair<int, int>>
termsSummingTo(int64_t target)
{
    std::vector<std::pair<int, int>> terms;
    const int sign = target < 0 ? -1 : 1;
    int64_t r = std::abs(target);
    while (r >= 7) {
        const int a = int(std::min<int64_t>(15, r / 7));
        terms.emplace_back(a, 7 * sign);
        r -= 7 * a;
    }
    if (r > 0)
        terms.emplace_back(int(r), sign);
    return terms;
}

/** Chunk sums at and just past both INT16 limits saturate exactly as
 *  the oracle does, in one chunk and in two. */
TEST(IntGemmOracle, ChunkSumsAtInt16Limits)
{
    RAPID_AT_EVERY_LANE_WIDTH(kLaneIntGemms, [] {
        for (int64_t target : {32767, -32767, 32768, -32768, -32769, 40000}) {
            const auto terms = termsSummingTo(target);
            std::vector<int> a_levels, b_levels;
            for (int rep = 0; rep < 2; ++rep) // the same chunk twice
                for (auto [a, b] : terms) {
                    a_levels.push_back(a);
                    b_levels.push_back(b);
                }
            // Lane 1 mirrors lane 0; lane 2 stays zero.
            std::vector<int> negated = b_levels;
            for (int &v : negated)
                v = -v;
            const ExactInt4 ops(a_levels,
                                {b_levels, negated,
                                 std::vector<int>(b_levels.size(), 0)});
            const int64_t clamped = std::clamp<int64_t>(target, INT16_MIN,
                                                        INT16_MAX);
            const int64_t clamped_neg = std::clamp<int64_t>(-target,
                                                            INT16_MIN,
                                                            INT16_MAX);
            // One chunk per copy of the terms: each saturates.
            const Tensor two = ops.run(terms.size());
            EXPECT_EQ(two[0], ops.expect(2 * clamped)) << target;
            EXPECT_EQ(two[1], ops.expect(2 * clamped_neg)) << target;
            EXPECT_EQ(two[2], 0.0f);
            // One chunk over both copies.
            const int64_t both = std::clamp<int64_t>(2 * target, INT16_MIN,
                                                     INT16_MAX);
            for (size_t chunk : {a_levels.size(), a_levels.size() + 1,
                                 size_t(4096), size_t(1) << 20})
                EXPECT_EQ(ops.run(chunk)[0], ops.expect(both))
                    << target << " chunk=" << chunk;
        }
    });
}

/**
 * Both sides of the int16/int32 lane switch: a chunk of 4681 terms of
 * 7 x 1 has a bound of exactly 32767 (int16 lanes, summing to INT16_MAX
 * without wrapping), and 4096 terms of 8 x 1 a bound of 32768 (int32
 * lanes; the sum saturates).
 */
TEST(IntGemmOracle, Int16LaneBoundEdges)
{
    RAPID_AT_EVERY_LANE_WIDTH(kLaneIntGemms, [] {
        struct Edge
        {
            int64_t k;
            int a;
            int64_t sum; ///< the one chunk's sum, before saturation
        };
        for (const Edge &e : {Edge{4681, 7, 32767}, Edge{4096, 8, 32768}}) {
            const ExactInt4 ops(std::vector<int>(size_t(e.k), e.a),
                                {std::vector<int>(size_t(e.k), 1),
                                 std::vector<int>(size_t(e.k), -1)});
            for (size_t chunk : {size_t(e.k), size_t(e.k) + 1, size_t(1) << 20}) {
                const Tensor got = ops.run(chunk);
                EXPECT_EQ(got[0], ops.expect(std::min<int64_t>(e.sum,
                                                               INT16_MAX)))
                    << "k=" << e.k;
                EXPECT_EQ(got[1], ops.expect(-e.sum)) << "k=" << e.k;
            }
            // Shorter chunks: the bound shrinks with the chunk.
            for (size_t chunk : {size_t(1), size_t(7), size_t(64),
                                 size_t(4095)})
                ops.run(chunk);
        }
    });
}

/** Convolution shapes the lowering oracles sweep. */
struct ConvCase
{
    int64_t n, ci, h, w, co, kh, kw;
    ConvParams p;
};

const ConvCase kConvCases[] = {
    {2, 4, 6, 6, 5, 3, 3, {1, 1, 1}},   // padded
    {1, 6, 7, 5, 4, 3, 3, {2, 1, 2}},   // strided, grouped, non-square
    {1, 4, 5, 5, 4, 3, 3, {1, 2, 4}},   // depthwise, wide padding
    {1, 3, 9, 9, 8, 5, 5, {2, 0, 1}},   // strided, unpadded
    {2, 8, 4, 4, 17, 1, 1, {1, 0, 1}},  // 1x1, odd Co
    {1, 16, 6, 6, 20, 3, 3, {1, 1, 1}}, // K = 144 spans chunks
};

TEST(ConvLoweringOracle, Fp16BitIdentical)
{
    Rng rng(2002);
    for (const ConvCase &c : kConvCases) {
        Tensor x = randomTensor(rng, {c.n, c.ci, c.h, c.w});
        for (int64_t i = 0; i < x.numel(); i += 3)
            x[i] = 0.0f; // zero-gated terms
        const Tensor w = randomTensor(
            rng, {c.co, c.ci / c.p.groups, c.kh, c.kw});
        const int64_t k = (c.ci / c.p.groups) * c.kh * c.kw;
        for (size_t chunk : intOracleChunks(k)) {
            for (bool fp32_outer : {true, false}) {
                for (Rounding mode : kOracleModes) {
                    ExecConfig cfg;
                    cfg.chunk_size = chunk;
                    cfg.fp32_outer = fp32_outer;
                    cfg.rounding = mode;
                    EXPECT_EQ(bitMismatches(
                                  fp16Conv2d(x, w, c.p, cfg),
                                  referenceFp16Conv2d(x, w, c.p, cfg)),
                              0)
                        << "ci=" << c.ci << " co=" << c.co
                        << " groups=" << c.p.groups << " chunk=" << chunk
                        << " fp32_outer=" << fp32_outer
                        << " mode=" << int(mode);
                }
            }
        }
    }
}

TEST(ConvLoweringOracle, IntBitIdentical)
{
    Rng rng(2003);
    std::string skipped;
    for (const ConvCase &c : kConvCases) {
        for (IntFill fill : {IntFill::Dense, IntFill::Sparse}) {
            Tensor x({c.n, c.ci, c.h, c.w});
            fillActivations(x, fill, rng, 3.0f);
            const Tensor w = randomTensor(
                rng, {c.co, c.ci / c.p.groups, c.kh, c.kw}, 0.4);
            const int64_t k = (c.ci / c.p.groups) * c.kh * c.kw;
            for (unsigned width : kIntWidths) {
                const PactQuantizer act_q(3.0f, width);
                const SawbQuantizer wt_q(w.storage(), width);
                for (size_t chunk : intOracleChunks(k)) {
                    for (Rounding mode : kOracleModes) {
                        ExecConfig cfg;
                        cfg.chunk_size = chunk;
                        cfg.rounding = mode;
                        const Tensor want =
                            referenceIntConv2d(x, act_q, w, wt_q, c.p, cfg);
                        skipped = atEveryLaneWidth(kLaneIntGemms, [&] {
                            EXPECT_EQ(bitMismatches(intConv2d(x, act_q, w,
                                                              wt_q, width,
                                                              c.p, cfg),
                                                    want),
                                      0)
                                << "ci=" << c.ci << " co=" << c.co
                                << " groups=" << c.p.groups
                                << " width=" << width << " chunk=" << chunk
                                << " mode=" << int(mode);
                        });
                    }
                }
            }
        }
    }
    if (!skipped.empty())
        GTEST_SKIP() << skipped;
}

/** Geometry of one lowered training convolution (3x3 kernel). */
struct TrainConvCase
{
    int64_t n, ci, h, w, co;
    ConvParams p;
};

/** A training precision's operand rounding and reduction, computed
 *  independently of the library. */
struct TrainConvOracle
{
    TrainPrecision precision;
    ExecConfig cfg;

    Tensor
    operand(const Tensor &t, Fp8Kind kind) const
    {
        switch (precision) {
          case TrainPrecision::FP16:
            return quantizeEach(t, dlfloat16(), cfg.rounding);
          case TrainPrecision::HFP8:
            return quantizeEach(t, fp8Format(kind, cfg), cfg.rounding);
          case TrainPrecision::FP32:
            break;
        }
        return t;
    }

    /** Chunked DLFloat16 for FP16/HFP8; FP32 sums exact products in
     *  binary64 from +0.0 and rounds once, as matmul does. */
    float
    dot(const std::vector<float> &a, const std::vector<float> &b) const
    {
        if (precision != TrainPrecision::FP32)
            return referenceChunkedDot(a.data(), b.data(),
                                       int64_t(a.size()), cfg);
        double acc = 0.0;
        for (size_t i = 0; i < a.size(); ++i)
            acc += double(a[i]) * double(b[i]);
        return float(acc);
    }
};

/** A lowered convolution's forward output and its three gradients. */
struct TrainConvRun
{
    Tensor y, dx, dw, db;
};

/**
 * Per-output reference of ConvLayer: every output gathers its terms in
 * the lowering's k order, r = (ci, ky, kx) for the forward and
 * data-gradient patches and (n, oy, ox) for the weight gradient. The
 * data gradient sums its (co-reduced) patch entries in FP32 in
 * (ky, kx, oy, ox) order, as col2im adds them.
 */
TrainConvRun
referenceTrainConv(const Tensor &x, const Tensor &w, const Tensor &b,
                   const Tensor &dy, const ConvParams &p,
                   const TrainConvOracle &o)
{
    const Tensor qx = o.operand(x, Fp8Kind::Forward);
    const Tensor qw = o.operand(w, Fp8Kind::Forward);
    const Tensor qdy = o.operand(dy, Fp8Kind::Backward);
    const int64_t n = x.dim(0), ci = x.dim(1), h = x.dim(2), wd = x.dim(3);
    const int64_t co = dy.dim(1), ho = dy.dim(2), wo = dy.dim(3);
    const int64_t k = ci * 9;
    // The quantized input patch entry r of output (oy, ox): zero in the
    // padding.
    auto tap = [&](int64_t in_n, int64_t r, int64_t oy, int64_t ox) {
        const int64_t iy = oy * p.stride + r / 3 % 3 - p.pad;
        const int64_t ix = ox * p.stride + r % 3 - p.pad;
        const bool inside = iy >= 0 && iy < h && ix >= 0 && ix < wd;
        return inside ? qx.at(in_n, r / 9, iy, ix) : 0.0f;
    };
    TrainConvRun want{Tensor({n, co, ho, wo}), Tensor(x.shape()),
                      Tensor({co, k}), Tensor({co})};
    std::vector<float> a, bv;
    for (int64_t in_n = 0; in_n < n; ++in_n)
        for (int64_t c = 0; c < co; ++c)
            for (int64_t oy = 0; oy < ho; ++oy)
                for (int64_t ox = 0; ox < wo; ++ox) {
                    a.clear();
                    bv.clear();
                    for (int64_t r = 0; r < k; ++r) {
                        a.push_back(tap(in_n, r, oy, ox));
                        bv.push_back(qw.at(c, r));
                    }
                    want.y.at(in_n, c, oy, ox) = o.dot(a, bv) + b[c];
                }
    for (int64_t c = 0; c < co; ++c) {
        double bias = 0.0;
        for (int64_t in_n = 0; in_n < n; ++in_n)
            for (int64_t oy = 0; oy < ho; ++oy)
                for (int64_t ox = 0; ox < wo; ++ox)
                    bias += double(dy.at(in_n, c, oy, ox));
        want.db[c] = float(bias);
        for (int64_t r = 0; r < k; ++r) {
            a.clear();
            bv.clear();
            for (int64_t in_n = 0; in_n < n; ++in_n)
                for (int64_t oy = 0; oy < ho; ++oy)
                    for (int64_t ox = 0; ox < wo; ++ox) {
                        a.push_back(qdy.at(in_n, c, oy, ox));
                        bv.push_back(tap(in_n, r, oy, ox));
                    }
            want.dw.at(c, r) = o.dot(a, bv);
        }
    }
    // Patch entry r of output (oy, ox)'s data gradient: dY row x W
    // column, reduced over co.
    auto dcol = [&](int64_t in_n, int64_t oy, int64_t ox, int64_t r) {
        a.clear();
        bv.clear();
        for (int64_t c = 0; c < co; ++c) {
            a.push_back(qdy.at(in_n, c, oy, ox));
            bv.push_back(qw.at(c, r));
        }
        return o.dot(a, bv);
    };
    for (int64_t in_n = 0; in_n < n; ++in_n)
        for (int64_t ic = 0; ic < ci; ++ic)
            for (int64_t iy = 0; iy < h; ++iy)
                for (int64_t ix = 0; ix < wd; ++ix) {
                    float acc = 0.0f;
                    for (int64_t ky = 0; ky < 3; ++ky)
                        for (int64_t kx = 0; kx < 3; ++kx)
                            for (int64_t oy = 0; oy < ho; ++oy)
                                for (int64_t ox = 0; ox < wo; ++ox)
                                    if (oy * p.stride + ky - p.pad == iy &&
                                        ox * p.stride + kx - p.pad == ix)
                                        acc += dcol(in_n, oy, ox,
                                                    (ic * 3 + ky) * 3 + kx);
                    want.dx.at(in_n, ic, iy, ix) = acc;
                }
    return want;
}

/** ConvLayer's forward and backward with weights @p w and bias @p b. */
TrainConvRun
runTrainConv(const Tensor &x, const Tensor &w, const Tensor &b,
             const Tensor &dy, const ConvParams &p, const TrainConvOracle &o)
{
    Rng rng(1);
    ConvLayer layer(x.dim(1), w.dim(0), 3, p, rng);
    layer.dense.w = w;
    layer.dense.b = b;
    TrainGemm gemm{o.precision, o.cfg};
    TrainConvRun got;
    got.y = layer.forward(gemm, x);
    got.dx = layer.backward(gemm, dy);
    got.dw = layer.dense.w_grad;
    got.db = layer.dense.b_grad;
    return got;
}

/** Each element of @p t (any rank) drawn as fillOperand() draws @p fill:
 *  Gaussian, Zeros or Subnormal. */
void
fillFlat(Tensor &t, Fill fill, Rng &rng)
{
    static constexpr double kScales[] = {0x1p-4, 0x1p-15, 0x1p-31, 1.0};
    for (int64_t i = 0; i < t.numel(); ++i) {
        const double g = rng.gaussian(0.0, 0.5);
        switch (fill) {
          case Fill::Zeros:
            t[i] = rng.uniform() < 0.3
                       ? (rng.uniform() < 0.5 ? -0.0f : 0.0f)
                       : float(g);
            break;
          case Fill::Subnormal:
            t[i] = float(g * kScales[rng.uniformInt(0, 3)]);
            break;
          default:
            t[i] = float(g);
            break;
        }
    }
}

/** Stride {1, 2} x pad {0, 1}, and a reduction that spans chunks. */
const TrainConvCase kTrainConvCases[] = {
    {2, 3, 7, 6, 5, {1, 0, 1}},
    {2, 3, 7, 6, 5, {1, 1, 1}},
    {2, 3, 7, 6, 5, {2, 0, 1}},
    {2, 3, 7, 6, 5, {2, 1, 1}},
    {1, 9, 5, 5, 9, {1, 1, 1}}, // K = 81
};

TEST(TrainConvOracle, BitIdenticalOverStridesPadsChunksModesAndFills)
{
    RAPID_AT_EVERY_LANE_WIDTH(kLaneGemms, [] {
        Rng rng(3000);
        int64_t runs = 0;
        for (const TrainConvCase &c : kTrainConvCases) {
            const int64_t ho = convOutDim(c.h, 3, c.p.stride, c.p.pad);
            const int64_t wo = convOutDim(c.w, 3, c.p.stride, c.p.pad);
            for (Fill fill : {Fill::Gaussian, Fill::Zeros, Fill::Subnormal}) {
                Tensor x({c.n, c.ci, c.h, c.w}), w({c.co, c.ci * 9}),
                    b({c.co}), dy({c.n, c.co, ho, wo});
                for (Tensor *t : {&x, &w, &b, &dy})
                    fillFlat(*t, fill, rng);
                std::vector<TrainConvOracle> oracles{
                    {TrainPrecision::FP32, ExecConfig{}}};
                for (TrainPrecision prec :
                     {TrainPrecision::FP16, TrainPrecision::HFP8})
                    for (size_t chunk : kOracleChunks)
                        for (bool fp32_outer : {true, false})
                            for (Rounding mode : kOracleModes) {
                                ExecConfig cfg;
                                cfg.chunk_size = chunk;
                                cfg.fp32_outer = fp32_outer;
                                cfg.rounding = mode;
                                oracles.push_back({prec, cfg});
                            }
                for (const TrainConvOracle &o : oracles) {
                    const TrainConvRun got = runTrainConv(x, w, b, dy, c.p, o);
                    const TrainConvRun want =
                        referenceTrainConv(x, w, b, dy, c.p, o);
                    const auto at = [&] {
                        return ::testing::Message()
                               << "stride=" << c.p.stride << " pad=" << c.p.pad
                               << " ci=" << c.ci << " fill=" << int(fill)
                               << " precision=" << trainPrecisionName(o.precision)
                               << " chunk=" << o.cfg.chunk_size
                               << " fp32_outer=" << o.cfg.fp32_outer
                               << " mode=" << int(o.cfg.rounding);
                    };
                    EXPECT_EQ(bitMismatches(got.y, want.y), 0) << at();
                    EXPECT_EQ(bitMismatches(got.dx, want.dx), 0) << at();
                    EXPECT_EQ(bitMismatches(got.dw, want.dw), 0) << at();
                    EXPECT_EQ(bitMismatches(got.db, want.db), 0) << at();
                    ++runs;
                }
            }
        }
        EXPECT_EQ(runs, 5 * 3 * (1 + 2 * 4 * 2 * 3));
    });
}

/** A NaN or Inf operand that meets a nonzero one raises NumericFault in
 *  the lowered forward and backward, as in the reference. */
TEST(TrainConvOracle, LivePoisonThrowsNumericFault)
{
    RAPID_AT_EVERY_LANE_WIDTH(kLaneGemms, [] {
        Rng rng(3001);
        const TrainConvCase &c = kTrainConvCases[1];
        Tensor x({c.n, c.ci, c.h, c.w}), w({c.co, c.ci * 9}), b({c.co}),
            dy({c.n, c.co, c.h, c.w});
        for (Tensor *t : {&x, &w, &dy})
            fillFlat(*t, Fill::Gaussian, rng);
        for (TrainPrecision prec : {TrainPrecision::FP16, TrainPrecision::HFP8}) {
            for (float poison : {std::numeric_limits<float>::quiet_NaN(),
                                 -std::numeric_limits<float>::infinity()}) {
                const TrainConvOracle o{prec, ExecConfig{}};
                Tensor bad_x = x, bad_dy = dy;
                bad_x.at(1, 2, 3, 4) = poison;
                bad_dy.at(0, 3, 2, 5) = poison;
                for (const auto &[px, pdy] : {std::pair{&bad_x, &dy},
                                              std::pair{&x, &bad_dy}}) {
                    EXPECT_NE(numericFault([&] {
                                  runTrainConv(*px, w, b, *pdy, c.p, o);
                              }),
                              "")
                        << trainPrecisionName(prec);
                    EXPECT_NE(numericFault([&] {
                                  referenceTrainConv(*px, w, b, *pdy, c.p, o);
                              }),
                              "")
                        << trainPrecisionName(prec);
                }
            }
        }
    });
}

/** Malformed INT shapes stop at an assertion instead of reading past
 *  an operand. */
TEST(IntExecDeathTest, MatmulRejectsMalformedShapes)
{
    const PactQuantizer act_q(1.0f, 4);
    const SawbQuantizer wt_q({-1.0f, 0.5f, 1.0f}, 4);
    Tensor a({2, 64}), b({32, 2});
    EXPECT_DEATH(intMatmul(a, act_q, b, wt_q, 4), "inner-dimension");
    Tensor v({64});
    EXPECT_DEATH(intMatmul(v, act_q, b, wt_q, 4), "rank-2");
}

TEST(IntExecDeathTest, ConvRejectsMalformedShapes)
{
    const PactQuantizer act_q(1.0f, 4);
    const SawbQuantizer wt_q({-1.0f, 0.5f, 1.0f}, 4);
    Tensor x({1, 2, 4, 4}), w({4, 5, 1, 1});
    EXPECT_DEATH(intConv2d(x, act_q, w, wt_q, 4), "weight Ci/groups");
    EXPECT_DEATH(fp16Conv2d(x, w), "weight Ci/groups");
    Tensor w2({4, 2, 1, 1});
    const PactQuantizer act2(1.0f, 2);
    EXPECT_DEATH(intConv2d(x, act2, w2, wt_q, 4),
                 "quantizer width mismatch");
    ConvParams p;
    p.groups = 3; // Co 4 does not split into 3 groups
    Tensor x6({1, 6, 4, 4});
    EXPECT_DEATH(intConv2d(x6, act_q, w2, wt_q, 4, p), "groups");
}

/**
 * Train two identically seeded MLPs, one at FP32 and one at
 * @p precision, and compare test accuracy (the Section II-B claim).
 */
ParityResult
runTrainingParity(TrainPrecision precision, const Dataset &train,
                  const Dataset &test, int epochs = 30, int64_t batch = 32)
{
    MlpConfig base;
    base.dims = {train.featureDim(), 48, 48,
                 1 + *std::max_element(train.labels.begin(),
                                       train.labels.end())};
    base.precision = TrainPrecision::FP32;
    base.seed = 99;

    MlpConfig reduced = base;
    reduced.precision = precision;

    Mlp fp32_model(base);
    fp32_model.train(train, epochs, batch);
    Mlp reduced_model(reduced);
    reduced_model.train(train, epochs, batch);

    return {fp32_model.evaluate(test), reduced_model.evaluate(test)};
}

TEST(Datasets, SpiralsShapeAndLabels)
{
    Rng rng(10);
    Dataset ds = makeSpirals(rng, 100);
    EXPECT_EQ(ds.size(), 200);
    EXPECT_EQ(ds.featureDim(), 2);
    int count1 = 0;
    for (int l : ds.labels) {
        EXPECT_TRUE(l == 0 || l == 1);
        count1 += l;
    }
    EXPECT_EQ(count1, 100);
}

TEST(Datasets, BlobsAreLearnableByCentroid)
{
    Rng rng(11);
    Dataset ds = makeBlobs(rng, 4, 8, 50);
    EXPECT_EQ(ds.size(), 200);
    EXPECT_EQ(ds.featureDim(), 8);
}

TEST(Trainer, Fp32LearnsSpirals)
{
    Rng rng(12);
    Dataset train = makeSpirals(rng, 256);
    Dataset test = makeSpirals(rng, 128);
    MlpConfig cfg;
    cfg.dims = {2, 48, 48, 2};
    cfg.seed = 7;
    Mlp model(cfg);
    model.train(train, 60, 32);
    EXPECT_GT(model.evaluate(test), 0.9);
}

TEST(Trainer, Hfp8TrainingParity)
{
    // The Section II-B claim at laptop scale: HFP8 training reaches
    // accuracy equivalent to FP32 training.
    Rng rng(13);
    Dataset train = makeSpirals(rng, 256);
    Dataset test = makeSpirals(rng, 128);
    ParityResult r = runTrainingParity(TrainPrecision::HFP8, train, test,
                                       60, 32);
    EXPECT_GT(r.baseline_accuracy, 0.9);
    EXPECT_GT(r.reduced_accuracy, 0.9);
    EXPECT_LT(r.gap(), 0.05);
}

TEST(Trainer, Fp16TrainingParity)
{
    Rng rng(14);
    Dataset train = makeSpirals(rng, 256);
    Dataset test = makeSpirals(rng, 128);
    ParityResult r = runTrainingParity(TrainPrecision::FP16, train, test,
                                       60, 32);
    EXPECT_LT(r.gap(), 0.03);
}

TEST(Trainer, Int4InferenceParity)
{
    // The Section II-C claim: PACT + SaWB INT4 inference matches FP32
    // with negligible accuracy loss.
    Rng rng(15);
    Dataset train = makeSpirals(rng, 256);
    Dataset test = makeSpirals(rng, 128);
    ParityResult r = runInferenceParity(4, train, test, 60, 32);
    EXPECT_GT(r.baseline_accuracy, 0.9);
    // The paper reports "negligible" INT4 loss on large redundant
    // models; a 48-unit toy MLP is more sensitive, so allow a few
    // points of headroom.
    EXPECT_LT(r.gap(), 0.07);
}

TEST(Trainer, Int2InferenceDegradesGracefully)
{
    // INT2 carries ~2% loss in the paper on large redundant models; a
    // toy MLP is far more quantization-sensitive, so we use the easier
    // blobs task and only assert INT2 stays usable.
    Rng rng(16);
    Dataset all = makeBlobs(rng, 4, 8, 192);
    Dataset train = all.slice(0, 512);
    Dataset test = all.slice(512, 256);
    ParityResult r = runInferenceParity(2, train, test, 40, 32);
    EXPECT_GT(r.baseline_accuracy, 0.9);
    EXPECT_GT(r.reduced_accuracy, 0.75);
}

/** DenseLayer::sgdStep() against its scalar form, bit for bit: every
 *  layer shape up to 9 x 5 (so every tail of a lane block), with
 *  subnormal, zero and large velocities and gradients, at a unit and a
 *  loss-scaled step. */
TEST(Trainer, SgdStepMatchesScalarFormBitForBit)
{
    const float edges[] = {0.0f, -0.0f, 1e-40f, -3e-39f, 1e-38f, 3e30f,
                           -2.5f};
    Rng rng(36);
    auto draw = [&] {
        return rng.uniform() < 0.3 ? edges[size_t(rng.uniformInt(0, 6))]
                                   : float(rng.gaussian(0.0, 0.1));
    };
    auto scalarStep = [](std::vector<float> &w, std::vector<float> &vel,
                         const Tensor &grad, float lr, float mom,
                         float inv_scale) {
        for (size_t i = 0; i < w.size(); ++i) {
            vel[i] = mom * vel[i] - lr * (grad[int64_t(i)] * inv_scale);
            w[i] += vel[i];
        }
    };
    for (int64_t in = 1; in <= 9; ++in) {
        for (int64_t out = 1; out <= 5; ++out) {
            for (float inv_scale : {1.0f, 1.0f / 1024.0f}) {
                DenseLayer d(in, out, rng);
                d.w_grad = Tensor({out, in});
                d.b_grad = Tensor({out});
                for (Tensor *t : {&d.w_vel, &d.b_vel, &d.w_grad, &d.b_grad})
                    for (int64_t i = 0; i < t->numel(); ++i)
                        (*t)[i] = draw();
                std::vector<float> w = d.w.storage(), wv = d.w_vel.storage();
                std::vector<float> b = d.b.storage(), bv = d.b_vel.storage();
                scalarStep(w, wv, d.w_grad, 0.1f, 0.9f, inv_scale);
                scalarStep(b, bv, d.b_grad, 0.1f, 0.9f, inv_scale);
                d.sgdStep(0.1f, 0.9f, inv_scale);
                for (auto [got, want] :
                     {std::pair{&d.w, &w}, std::pair{&d.w_vel, &wv},
                      std::pair{&d.b, &b}, std::pair{&d.b_vel, &bv}})
                    EXPECT_EQ(std::memcmp(got->data(), want->data(),
                                          want->size() * sizeof(float)),
                              0)
                        << in << " x " << out << ", inv_scale "
                        << inv_scale;
            }
        }
    }
}

TEST(Trainer, PactAlphaIsLearned)
{
    Rng rng(17);
    Dataset train = makeSpirals(rng, 128);
    MlpConfig cfg;
    cfg.dims = {2, 32, 32, 2};
    cfg.pact_alpha_init = 1.0f;
    Mlp model(cfg);
    model.train(train, 30, 32);
    // The learned clip should move off its init for at least one layer.
    bool moved = false;
    for (size_t i = 0; i + 1 < model.numLayers(); ++i)
        if (std::abs(model.pactAlpha(i) - cfg.pact_alpha_init) > 1e-3f)
            moved = true;
    EXPECT_TRUE(moved);
}

} // namespace
} // namespace rapid
