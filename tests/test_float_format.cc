/**
 * @file
 * Unit and property tests for the reduced-precision float codecs.
 * The 8/9-bit formats are small enough to test exhaustively, which is
 * how we prove the on-the-fly FP8 -> FP9 conversion of the MPE input
 * stage is exact (Section III-A.2).
 */

// The lane rounder runs here at every width (common/lanes.hh).
#pragma GCC diagnostic ignored "-Wpsabi"

#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.hh"
#include "common/random.hh"
#include "precision/float_format.hh"
#include "format_limits.hh"
#include "rounding_classes.hh"

namespace rapid {
namespace {

TEST(DlFloat16, BasicConstants)
{
    const FloatFormat &f = dlfloat16();
    EXPECT_EQ(f.storageBits(), 16u);
    EXPECT_EQ(f.expBits(), 6u);
    EXPECT_EQ(f.manBits(), 9u);
    EXPECT_EQ(f.bias(), 31);
    // Max finite: 2^(62-31) * (2 - 2^-9)
    EXPECT_FLOAT_EQ(maxFinite(f), std::ldexp(2.0f - std::ldexp(1.0f, -9),
                                              31));
    EXPECT_FALSE(f.hasSubnormals());
}

TEST(DlFloat16, ExactSmallIntegers)
{
    const FloatFormat &f = dlfloat16();
    // 10-bit significand: integers up to 1024 are exact.
    for (int i = -1024; i <= 1024; ++i)
        EXPECT_EQ(f.quantize(float(i)), float(i)) << "i=" << i;
}

TEST(DlFloat16, RoundToNearestEvenTies)
{
    const FloatFormat &f = dlfloat16();
    // 1025 is halfway between 1024 and 1026; RNE picks the even 1024.
    EXPECT_EQ(f.quantize(1025.0f, Rounding::NearestEven), 1024.0f);
    // 1027 is halfway between 1026 and 1028; RNE picks 1028.
    EXPECT_EQ(f.quantize(1027.0f, Rounding::NearestEven), 1028.0f);
    // NearestUp ties away from zero.
    EXPECT_EQ(f.quantize(1025.0f, Rounding::NearestUp), 1026.0f);
    EXPECT_EQ(f.quantize(-1025.0f, Rounding::NearestUp), -1026.0f);
    // Truncation drops toward zero.
    EXPECT_EQ(f.quantize(1025.9f, Rounding::Truncate), 1024.0f);
}

TEST(DlFloat16, SaturatesOnOverflow)
{
    const FloatFormat &f = dlfloat16();
    EXPECT_EQ(f.quantize(1e30f), maxFinite(f));
    EXPECT_EQ(f.quantize(-1e30f), -maxFinite(f));
}

TEST(DlFloat16, FlushesToZeroBelowMinNormal)
{
    const FloatFormat &f = dlfloat16();
    EXPECT_EQ(f.quantize(minNormal(f)), minNormal(f));
    EXPECT_EQ(f.quantize(minNormal(f) * 0.25f), 0.0f);
    // The zero-encoding collision: 2^-31 itself is not representable.
    EXPECT_EQ(f.quantize(std::ldexp(1.0f, -31)), 0.0f);
}

TEST(DlFloat16, NanHandling)
{
    const FloatFormat &f = dlfloat16();
    uint32_t nan_bits = f.encode(std::nanf(""));
    EXPECT_TRUE(isSpecial(f, nan_bits));
    EXPECT_TRUE(std::isnan(f.decode(nan_bits)));
    // Infinity maps to the merged NaN/Inf symbol.
    uint32_t inf_bits = f.encode(std::numeric_limits<float>::infinity());
    EXPECT_TRUE(isSpecial(f, inf_bits));
}

TEST(DlFloat16, SignedZeroPreserved)
{
    const FloatFormat &f = dlfloat16();
    EXPECT_EQ(f.encode(0.0f), 0u);
    EXPECT_EQ(f.encode(-0.0f), 0x8000u);
    EXPECT_TRUE(std::signbit(f.decode(0x8000u)));
}

/** IEEE-754 binary16, the reference the datapath formats are compared
 *  with. */
const FloatFormat &
ieeeHalf()
{
    static const FloatFormat fmt(5, 10, 15, /*subnormals=*/true,
                                 /*inf_nan=*/true, /*saturating=*/false);
    return fmt;
}

TEST(IeeeHalf, MatchesKnownEncodings)
{
    const FloatFormat &f = ieeeHalf();
    EXPECT_EQ(f.encode(1.0f), 0x3c00u);
    EXPECT_EQ(f.encode(2.0f), 0x4000u);
    EXPECT_EQ(f.encode(-1.5f), 0xbe00u);
    EXPECT_EQ(f.encode(65504.0f), 0x7bffu);
    // Smallest subnormal: 2^-24.
    EXPECT_EQ(f.encode(std::ldexp(1.0f, -24)), 0x0001u);
    EXPECT_FLOAT_EQ(f.decode(0x0001u), std::ldexp(1.0f, -24));
}

/** Exhaustive round-trip: decode(p) must re-encode to p. */
void
checkRoundTripExhaustive(const FloatFormat &f)
{
    for (uint32_t p = 0; p < f.numEncodings(); ++p) {
        float v = f.decode(p);
        if (isSpecial(f, p)) {
            EXPECT_TRUE(std::isnan(v));
            continue;
        }
        uint32_t back = f.encode(v);
        if (v == 0.0f) {
            // Zero-reading patterns canonicalize to the zero encoding.
            EXPECT_EQ(back & ~(1u << (f.storageBits() - 1)), 0u)
                << f.name() << " p=" << p;
            continue;
        }
        EXPECT_EQ(back, p) << f.name() << " p=" << p << " v=" << v;
    }
}

/** Exhaustive monotonicity of positive decodes (format is ordered). */
void
checkMonotonic(const FloatFormat &f)
{
    float prev = 0.0f;
    uint32_t max_exp_pattern =
        f.numEncodings() / 2 - 1; // positive patterns end here
    for (uint32_t p = 1; p <= max_exp_pattern; ++p) {
        if (isSpecial(f, p))
            continue;
        float v = f.decode(p);
        EXPECT_GE(v, prev) << f.name() << " p=" << p;
        prev = v;
    }
}

/**
 * Signed total order, exhaustively: rank every pattern by its
 * sign-magnitude key (negative patterns descend as the magnitude
 * field grows) and require decoded values to follow float ordering —
 * strictly so between canonical patterns, since distinct canonical
 * encodings must name distinct values.
 */
void
checkSignedTotalOrder(const FloatFormat &f)
{
    const uint32_t sign_bit = 1u << (f.storageBits() - 1);
    const uint32_t mag_mask = sign_bit - 1;
    std::vector<uint32_t> order;
    order.reserve(f.numEncodings());
    // Negative patterns, largest magnitude first, then positives.
    for (uint32_t m = mag_mask + 1; m-- > 0;)
        order.push_back(sign_bit | m);
    for (uint32_t m = 0; m <= mag_mask; ++m)
        order.push_back(m);

    bool have_prev = false;
    float prev = 0.0f;
    bool prev_canonical = false;
    for (uint32_t p : order) {
        if (isSpecial(f, p))
            continue;
        float v = f.decode(p);
        bool canonical = f.encode(v) == p;
        if (have_prev) {
            EXPECT_GE(v, prev) << f.name() << " p=" << p;
            // Two canonical non-zero neighbours are strictly ordered
            // (only +0/-0 decode to the same float).
            if (canonical && prev_canonical
                && !(v == 0.0f && prev == 0.0f)) {
                EXPECT_GT(v, prev) << f.name() << " p=" << p;
            }
        }
        have_prev = true;
        prev = v;
        prev_canonical = canonical;
    }
}

/**
 * NaN/Inf region, exhaustively: with merged-NaN semantics every
 * all-ones-exponent pattern reads back as NaN and re-encodes to the
 * canonical symbol; every other pattern reads back finite. Without
 * special encodings no pattern may ever decode to NaN or Inf.
 */
void
checkNanRegionExhaustive(const FloatFormat &f)
{
    const uint32_t sign_bit = 1u << (f.storageBits() - 1);
    for (uint32_t p = 0; p < f.numEncodings(); ++p) {
        float v = f.decode(p);
        if (isSpecial(f, p)) {
            EXPECT_TRUE(std::isnan(v)) << f.name() << " p=" << p;
            // Any mantissa in the region canonicalizes on re-encode.
            EXPECT_EQ(f.encode(v) & ~sign_bit, f.nanBits())
                << f.name() << " p=" << p;
        } else {
            EXPECT_TRUE(std::isfinite(v)) << f.name() << " p=" << p;
        }
    }
    if (f.hasInfNan()) {
        const float inf = std::numeric_limits<float>::infinity();
        EXPECT_EQ(f.encode(inf), f.nanBits());
        EXPECT_EQ(f.encode(-inf), sign_bit | f.nanBits());
        EXPECT_TRUE(isSpecial(f, f.encode(std::nanf(""))));
    } else {
        // Saturating format: Inf clamps to the largest finite value.
        const float inf = std::numeric_limits<float>::infinity();
        EXPECT_EQ(f.decode(f.encode(inf)), maxFinite(f));
        EXPECT_EQ(f.decode(f.encode(-inf)), -maxFinite(f));
    }
}

/**
 * Idempotence, exhaustively and for every rounding mode: a value the
 * format can represent is a fixed point of quantize() no matter how
 * ties would round.
 */
void
checkIdempotentExhaustive(const FloatFormat &f)
{
    for (uint32_t p = 0; p < f.numEncodings(); ++p) {
        if (isSpecial(f, p))
            continue;
        float v = f.decode(p);
        for (Rounding mode : {Rounding::NearestEven, Rounding::NearestUp,
                              Rounding::Truncate}) {
            EXPECT_EQ(f.quantize(v, mode), v)
                << f.name() << " p=" << p << " mode=" << int(mode);
        }
    }
}

class SmallFormatTest : public ::testing::TestWithParam<FloatFormat>
{
};

TEST_P(SmallFormatTest, RoundTripExhaustive)
{
    checkRoundTripExhaustive(GetParam());
}

TEST_P(SmallFormatTest, MonotonicDecode)
{
    checkMonotonic(GetParam());
}

TEST_P(SmallFormatTest, SignedTotalOrderExhaustive)
{
    checkSignedTotalOrder(GetParam());
}

TEST_P(SmallFormatTest, NanRegionExhaustive)
{
    checkNanRegionExhaustive(GetParam());
}

TEST_P(SmallFormatTest, QuantizeIdempotentExhaustive)
{
    checkIdempotentExhaustive(GetParam());
}

TEST_P(SmallFormatTest, QuantizeIsIdempotent)
{
    const FloatFormat &f = GetParam();
    Rng rng(42);
    for (int i = 0; i < 2000; ++i) {
        float x = float(rng.gaussian(0.0, 2.0));
        float q = f.quantize(x);
        EXPECT_EQ(f.quantize(q), q) << f.name() << " x=" << x;
    }
}

TEST_P(SmallFormatTest, RelativeErrorBounded)
{
    const FloatFormat &f = GetParam();
    Rng rng(43);
    // For values in the normal range, relative error <= 2^-(man+1).
    double bound = std::ldexp(1.0, -int(f.manBits()) - 1) * 1.0000001;
    const double lo = std::log(double(minNormal(f)));
    const double hi = std::log(double(maxFinite(f)) / 2);
    for (int i = 0; i < 5000; ++i) {
        double mag = std::exp(rng.uniform(lo, hi));
        float x = float(rng.uniform() < 0.5 ? -mag : mag);
        float q = f.quantize(x);
        EXPECT_LE(std::abs(double(q) - x), bound * std::abs(x) * (1 + 1e-6))
            << f.name() << " x=" << x << " q=" << q;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Formats, SmallFormatTest,
    ::testing::Values(fp8e4m3(4), fp8e4m3(1), fp8e4m3(7), fp8e4m3(15),
                      fp8e5m2(), fp9(), dlfloat16(), ieeeHalf()),
    [](const ::testing::TestParamInfo<FloatFormat> &param_info) {
        std::string n = param_info.param.name();
        for (auto &c : n)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

/**
 * The key datapath property: every FP8 value (both flavours, every
 * legal programmable bias) converts to FP9 (1,5,3) exactly.
 */
TEST(Fp9Conversion, ExactForAllFp8Forward)
{
    for (int bias = 1; bias <= 15; ++bias) {
        FloatFormat f8 = fp8e4m3(bias);
        for (uint32_t p = 0; p < f8.numEncodings(); ++p) {
            if (isSpecial(f8, p))
                continue;
            float v = f8.decode(p);
            EXPECT_EQ(fp9().quantize(v), v)
                << "bias=" << bias << " p=" << p << " v=" << v;
        }
    }
}

TEST(Fp9Conversion, ExactForAllFp8Backward)
{
    const FloatFormat &f8 = fp8e5m2();
    for (uint32_t p = 0; p < f8.numEncodings(); ++p) {
        if (isSpecial(f8, p))
            continue;
        float v = f8.decode(p);
        EXPECT_EQ(fp9().quantize(v), v) << "p=" << p << " v=" << v;
    }
}

/** Programmable bias shifts the representable range as intended. */
TEST(Fp8Forward, ProgrammableBiasShiftsRange)
{
    FloatFormat lo_bias = fp8e4m3(1);
    FloatFormat hi_bias = fp8e4m3(11);
    // Raising the bias by 10 scales the whole range down by 2^10.
    EXPECT_FLOAT_EQ(maxFinite(hi_bias),
                    maxFinite(lo_bias) / std::ldexp(1.0f, 10));
    EXPECT_FLOAT_EQ(minPositive(hi_bias),
                    minPositive(lo_bias) / std::ldexp(1.0f, 10));
}

TEST(Fp8Forward, SubnormalsRepresented)
{
    FloatFormat f8 = fp8e4m3(4);
    // Min subnormal = 2^(1-4) * 2^-3 = 2^-6.
    EXPECT_FLOAT_EQ(minPositive(f8), std::ldexp(1.0f, -6));
    EXPECT_EQ(f8.quantize(std::ldexp(1.0f, -6)), std::ldexp(1.0f, -6));
    // Half of it rounds to it or to zero, never elsewhere.
    float half = std::ldexp(1.0f, -7);
    float q = f8.quantize(half);
    EXPECT_TRUE(q == 0.0f || q == minPositive(f8));
}

TEST(Fp8Backward, WiderDynamicRangeThanForward)
{
    // The (1,5,2) gradient format trades mantissa for range.
    EXPECT_GT(maxFinite(fp8e5m2()), maxFinite(fp8e4m3(4)));
    EXPECT_LT(minPositive(fp8e5m2()), minPositive(fp8e4m3(4)));
}


/**
 * The MPE output-path property: every FP8 and FP9 value is exactly
 * representable in DLFloat16, so results and partial sums never lose
 * information crossing to the 16-bit south bus.
 */
TEST(CrossFormat, DlFloat16RepresentsAllFp8AndFp9)
{
    for (const FloatFormat &f8 :
         {fp8e4m3(1), fp8e4m3(4), fp8e4m3(15), fp8e5m2(), fp9()}) {
        for (uint32_t p = 0; p < f8.numEncodings(); ++p) {
            if (isSpecial(f8, p))
                continue;
            float v = f8.decode(p);
            EXPECT_EQ(dlfloat16().quantize(v), v)
                << f8.name() << " p=" << p;
        }
    }
}

/** Rounding-mode contracts hold for every format. */
TEST(CrossFormat, RoundingModeContracts)
{
    Rng rng(101);
    for (const FloatFormat &fmt :
         {fp8e4m3(4), fp8e5m2(), dlfloat16()}) {
        for (int i = 0; i < 3000; ++i) {
            float x = float(rng.gaussian(0.0, 1.5));
            float trunc = fmt.quantize(x, Rounding::Truncate);
            float rne = fmt.quantize(x, Rounding::NearestEven);
            float rnu = fmt.quantize(x, Rounding::NearestUp);
            // Truncation never increases magnitude.
            EXPECT_LE(std::abs(trunc), std::abs(x) + 1e-12)
                << fmt.name();
            // Nearest modes are at least as close as truncation.
            EXPECT_LE(std::abs(rne - x), std::abs(trunc - x) + 1e-12)
                << fmt.name();
            // The two nearest modes only ever differ at exact ties.
            if (rne != rnu) {
                EXPECT_FLOAT_EQ(std::abs(rne - x), std::abs(rnu - x))
                    << fmt.name() << " x=" << x;
            }
        }
    }
}

constexpr Rounding kModes[] = {Rounding::NearestEven, Rounding::NearestUp,
                               Rounding::Truncate};

/** Every format the datapath uses: each programmable forward bias,
 *  the backward and FP9 formats, DLFloat16 and binary16. */
std::vector<FloatFormat>
datapathFormats()
{
    std::vector<FloatFormat> fmts;
    for (int bias = 1; bias <= 15; ++bias)
        fmts.push_back(fp8e4m3(bias));
    for (const FloatFormat &f : {fp8e5m2(), fp9(), dlfloat16(), ieeeHalf()})
        fmts.push_back(f);
    return fmts;
}

/** Formats at the edges of the bit-direct domain (first list) and just
 *  outside it, which quantize() serves through the codec (second). */
std::vector<FloatFormat>
edgeFormats()
{
    return {
        // Flag variants of the datapath formats.
        FloatFormat(6, 9, 31, false, false, true),
        FloatFormat(5, 10, 15, true, false, false),
        FloatFormat(4, 3, 4, false, true, false),
        // One and 22 mantissa bits: round positions 22 and 1.
        FloatFormat(3, 1, 3, true, true, true),
        FloatFormat(5, 22, 15, true, true, true),
        // Smallest quantum exactly 2^-126; largest value just under
        // 2^128.
        FloatFormat(7, 2, 125, true, true, true),
        FloatFormat(7, 9, -1, false, true, true),
    };
}

std::vector<FloatFormat>
codecPathFormats()
{
    return {
        FloatFormat(7, 2, 126, true, true, true),  // quantum 2^-127
        FloatFormat(7, 9, -2, false, true, true),  // max past 2^128
        FloatFormat(5, 0, 15, true, true, true),   // no mantissa bits
        FloatFormat(5, 23, 15, true, true, true),  // binary32 mantissa
    };
}

TEST(BitDirectQuantize, DomainCoversDatapathFormats)
{
    for (const FloatFormat &f : datapathFormats())
        EXPECT_TRUE(f.bitDirect()) << f.name();
    for (const FloatFormat &f : edgeFormats())
        EXPECT_TRUE(f.bitDirect()) << f.name();
    for (const FloatFormat &f : codecPathFormats())
        EXPECT_FALSE(f.bitDirect()) << f.name();
}

/** dlfloat16RoundBits() at a runtime rounding mode. */
uint32_t
dlfloat16RoundBitsAt(Rounding mode, uint32_t in)
{
    switch (mode) {
      case Rounding::NearestUp:
        return dlfloat16RoundBits<Rounding::NearestUp>(in);
      case Rounding::Truncate:
        return dlfloat16RoundBits<Rounding::Truncate>(in);
      case Rounding::NearestEven:
        break;
    }
    return dlfloat16RoundBits<Rounding::NearestEven>(in);
}

/** Whether @p got(in) and the codec's quantize of @p in differ as bit
 *  patterns (so a NaN cannot hide behind NaN != NaN). */
template <typename Got>
bool
differsFromCodec(const FloatFormat &f, Rounding mode, uint32_t in,
                 Got got)
{
    return got(in) != std::bit_cast<uint32_t>(
                          f.quantizeViaCodec(std::bit_cast<float>(in),
                                             mode));
}

/** quantize() of @p f as a bits-to-bits function. */
auto
quantizeBits(const FloatFormat &f, Rounding mode)
{
    return [&f, mode](uint32_t in) {
        return std::bit_cast<uint32_t>(
            f.quantize(std::bit_cast<float>(in), mode));
    };
}

/** Number of @p inputs where @p got and the codec disagree; the first
 *  one lands in @p first. */
template <typename Got>
size_t
codecMismatches(const FloatFormat &f, Rounding mode,
                const std::vector<uint32_t> &inputs, uint32_t &first,
                Got got)
{
    size_t bad = 0;
    for (uint32_t in : inputs) {
        if (differsFromCodec(f, mode, in, got)) {
            if (bad++ == 0)
                first = in;
        }
    }
    return bad;
}

/** The scalar codec is the oracle: bit-identity over every rounding
 *  class, every rounding mode, and every format above, and for the
 *  branch-free DLFloat16 helper. */
TEST(BitDirectQuantize, MatchesCodecOverRoundingClasses)
{
    const std::vector<uint32_t> inputs = roundingClassInputs();
    std::vector<FloatFormat> fmts = datapathFormats();
    for (const std::vector<FloatFormat> &more :
         {edgeFormats(), codecPathFormats()})
        fmts.insert(fmts.end(), more.begin(), more.end());
    for (const FloatFormat &f : fmts) {
        for (Rounding mode : kModes) {
            uint32_t first = 0;
            EXPECT_EQ(codecMismatches(f, mode, inputs, first,
                                      quantizeBits(f, mode)),
                      0u)
                << f.name() << " mode " << int(mode)
                << ", first input 0x" << std::hex << first;
        }
    }
    for (Rounding mode : kModes) {
        uint32_t first = 0;
        EXPECT_EQ(codecMismatches(dlfloat16(), mode, inputs, first,
                                  [mode](uint32_t in) {
                                      return dlfloat16RoundBitsAt(mode,
                                                                  in);
                                  }),
                  0u)
            << "dlfloat16RoundBits mode " << int(mode)
            << ", first input 0x" << std::hex << first;
    }
}

/** Inputs on a 1-in-@p stride grid over all of binary32 where @p got
 *  and the codec of @p f disagree, counted on the pool. */
template <typename Got>
size_t
stridedMismatches(const FloatFormat &f, Rounding mode, uint64_t stride,
                  Got got)
{
    constexpr size_t kSlices = 256;
    constexpr uint64_t kSpan = (uint64_t(1) << 32) / kSlices;
    const std::vector<size_t> bad = parallelMap(kSlices, [&](size_t s) {
        size_t n = 0;
        // Each slice starts on the global stride grid.
        uint64_t in = (s * kSpan + stride - 1) / stride * stride;
        for (; in < (s + 1) * kSpan; in += stride)
            n += differsFromCodec(f, mode, uint32_t(in), got);
        return n;
    });
    size_t total = 0;
    for (size_t n : bad)
        total += n;
    return total;
}

/**
 * The four datapath formats, and the branch-free DLFloat16 helper,
 * over every binary32 input at a prime stride; set
 * RAPID_FULL_QUANTIZE_SWEEP=1 to sweep all 2^32 inputs (several
 * minutes on a few cores).
 */
TEST(BitDirectQuantize, MatchesCodecOnStridedBinary32Sweep)
{
    const uint64_t stride =
        std::getenv("RAPID_FULL_QUANTIZE_SWEEP") ? 1 : 4099;
    for (const FloatFormat &f : {dlfloat16(), fp8e4m3(4), fp8e5m2(), fp9()}) {
        for (Rounding mode : kModes)
            EXPECT_EQ(stridedMismatches(f, mode, stride,
                                        quantizeBits(f, mode)),
                      0u)
                << f.name() << " mode " << int(mode);
    }
    for (Rounding mode : kModes)
        EXPECT_EQ(stridedMismatches(dlfloat16(), mode, stride,
                                    [mode](uint32_t in) {
                                        return dlfloat16RoundBitsAt(mode,
                                                                    in);
                                    }),
                  0u)
            << "dlfloat16RoundBits mode " << int(mode);
}

/** dlfloat16RoundLanes<Mode, NonFinite>() at a runtime rounding mode
 *  of the @p n patterns at @p in (a multiple of @p W), W at a time. */
template <int W, bool NonFinite>
[[gnu::always_inline]] inline void
roundLanesOf(Rounding mode, const uint32_t *in, uint32_t *out, size_t n)
{
    for (size_t i = 0; i < n; i += W) {
        BitLanes<W> v;
        std::memcpy(&v, in + i, sizeof(v));
        switch (mode) {
          case Rounding::NearestUp:
            v = dlfloat16RoundLanes<Rounding::NearestUp, NonFinite>(v);
            break;
          case Rounding::Truncate:
            v = dlfloat16RoundLanes<Rounding::Truncate, NonFinite>(v);
            break;
          case Rounding::NearestEven:
            v = dlfloat16RoundLanes<Rounding::NearestEven, NonFinite>(v);
            break;
        }
        std::memcpy(out + i, &v, sizeof(v));
    }
}

RAPID_TARGET_AVX512 void
roundLanes16(bool non_finite, Rounding mode, const uint32_t *in,
             uint32_t *out, size_t n)
{
    if (non_finite)
        roundLanesOf<16, true>(mode, in, out, n);
    else
        roundLanesOf<16, false>(mode, in, out, n);
}

RAPID_TARGET_AVX2 void
roundLanes8(bool non_finite, Rounding mode, const uint32_t *in,
            uint32_t *out, size_t n)
{
    if (non_finite)
        roundLanesOf<8, true>(mode, in, out, n);
    else
        roundLanesOf<8, false>(mode, in, out, n);
}

void
roundLanes4(bool non_finite, Rounding mode, const uint32_t *in,
            uint32_t *out, size_t n)
{
    if (non_finite)
        roundLanesOf<4, true>(mode, in, out, n);
    else
        roundLanesOf<4, false>(mode, in, out, n);
}

/** The lane rounder at one width, compiled for that width's target. */
struct LaneRounder
{
    int width;
    void (*round)(bool non_finite, Rounding mode, const uint32_t *in,
                  uint32_t *out, size_t n);
};

/** The lane rounder gives the scalar rounder's bits in every lane at
 *  every lane width the CPU executes: for every input when it takes
 *  non-finite lanes, for every finite input when it does not. */
TEST(BitDirectQuantize, LaneRounderMatchesScalarRounder)
{
    std::vector<uint32_t> inputs = roundingClassInputs();
    for (uint64_t in = 0; in < (uint64_t(1) << 32); in += 4099)
        inputs.push_back(uint32_t(in));
    inputs.resize((inputs.size() + 15) / 16 * 16, 0x3f800000u);
    std::vector<uint32_t> got(inputs.size());
    std::string missing;
    for (const LaneRounder &r : {LaneRounder{16, &roundLanes16},
                                 LaneRounder{8, &roundLanes8},
                                 LaneRounder{4, &roundLanes4}}) {
        if (!cpuRunsLanes(r.width)) {
            missing += " " + std::to_string(r.width);
            continue;
        }
        for (Rounding mode : kModes) {
            for (bool non_finite : {true, false}) {
                r.round(non_finite, mode, inputs.data(), got.data(),
                        inputs.size());
                size_t bad = 0;
                for (size_t i = 0; i < inputs.size(); ++i)
                    if (non_finite ||
                        (inputs[i] & 0x7fffffffu) < 0x7f800000u)
                        bad += got[i] != dlfloat16RoundBitsAt(mode, inputs[i]);
                EXPECT_EQ(bad, 0u)
                    << "lane width " << r.width << ", mode " << int(mode)
                    << ", non-finite lanes " << non_finite;
            }
        }
    }
    if (!missing.empty())
        GTEST_SKIP() << "lane width(s)" << missing
                     << " not executable on this CPU";
}

} // namespace
} // namespace rapid
