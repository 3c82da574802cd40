/**
 * @file
 * Bit-accurate software emulation of the reduced-precision floating
 * point formats implemented by the RaPiD datapath:
 *
 *   - DLFloat16 (1,6,9): IBM's 16-bit training format. No subnormals,
 *     a single merged NaN/Infinity symbol, round-to-nearest-up in
 *     hardware (round-to-nearest-even also supported here).
 *   - FP8 (1,4,3) with *programmable exponent bias*: HFP8 forward
 *     format for weights/activations.
 *   - FP8 (1,5,2): HFP8 backward format for error gradients.
 *   - FP9 (1,5,3): the internal custom format both FP8 flavours are
 *     converted to on-the-fly at the FPU input [50]. Both conversions
 *     are exact (a property the test suite proves exhaustively).
 *
 * Encodings are produced by integer manipulation of the IEEE-754
 * single-precision bit pattern, so results match a hardware RTL
 * implementation bit-for-bit given the same rounding mode.
 *
 * quantize() -- the emulation hot path -- never materializes the
 * narrow encoding: it rounds the binary32 pattern in place at the
 * format's mantissa width, so a carry out of the mantissa bumps the
 * exponent exactly as renormalization does. decode(encode()) stays
 * as quantizeViaCodec(), the differential oracle that
 * tests/test_float_format.cc pins quantize() to over every rounding
 * class.
 */

#ifndef RAPID_PRECISION_FLOAT_FORMAT_HH
#define RAPID_PRECISION_FLOAT_FORMAT_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>

#include "common/lanes.hh"

namespace rapid {

/** Rounding mode applied when narrowing to a reduced format. */
enum class Rounding
{
    NearestEven, ///< IEEE-754 default; ties to even mantissa.
    NearestUp,   ///< Ties away from zero; used by the DLFloat FPU.
    Truncate,    ///< Round toward zero.
};

/**
 * A runtime-parameterized minifloat format description plus
 * encode/decode routines. Total width = 1 + expBits + manBits.
 */
class FloatFormat
{
  public:
    /**
     * @param exp_bits Exponent field width (2..8).
     * @param man_bits Mantissa (fraction) field width (0..23).
     * @param bias Exponent bias (RaPiD's FP8 (1,4,3) bias is
     *             software-programmable; pass the layer's bias here).
     * @param has_subnormals Whether gradual underflow is encoded; when
     *             false, values below the minimum normal flush to zero.
     * @param has_inf_nan Whether the all-ones exponent is reserved for
     *             a merged NaN/Inf symbol (DLFloat semantics).
     * @param saturating Whether overflow clamps to the largest finite
     *             magnitude (RaPiD datapath behaviour) instead of Inf.
     */
    FloatFormat(unsigned exp_bits, unsigned man_bits, int bias,
                bool has_subnormals, bool has_inf_nan, bool saturating);

    unsigned expBits() const { return expBits_; }
    unsigned manBits() const { return manBits_; }
    int bias() const { return bias_; }
    bool hasSubnormals() const { return hasSubnormals_; }
    bool hasInfNan() const { return hasInfNan_; }
    bool saturating() const { return saturating_; }

    /** Total storage width in bits, including the sign. */
    unsigned storageBits() const { return 1 + expBits_ + manBits_; }

    /** Number of distinct encodings (2^storageBits). */
    uint32_t numEncodings() const { return 1u << storageBits(); }

    /** The format's NaN encoding; only valid if hasInfNan(). */
    uint32_t nanBits() const;

    /**
     * Encode an IEEE-754 single into this format's bit pattern
     * (right-aligned in the returned word).
     */
    uint32_t encode(float value, Rounding mode = Rounding::NearestEven)
        const;

    /** Decode a bit pattern of this format back to single precision. */
    float decode(uint32_t pattern) const;

    /**
     * The value the datapath actually sees: bit-identical to
     * quantizeViaCodec(), computed on the binary32 bits directly.
     * Formats whose values are not all binary32 normals, or that keep
     * 0 or 23 mantissa bits, take the codec path.
     */
    float quantize(float value, Rounding mode = Rounding::NearestEven)
        const;

    /** encode() then decode(): the reference quantize() is tested
     *  against. */
    float
    quantizeViaCodec(float value,
                     Rounding mode = Rounding::NearestEven) const
    {
        return decode(encode(value, mode));
    }

    /** Whether quantize() rounds on the bits (false: codec path). */
    bool bitDirect() const { return bitDirect_; }

    /** Human-readable description, e.g. "fp8(1,4,3,bias=4)". */
    std::string name() const;

  private:
    /** (x >> shift) rounded per @p mode on the dropped bits;
     *  1 <= shift <= 24 and x < 2^31. */
    static uint32_t
    roundShift(uint32_t x, unsigned shift, Rounding mode)
    {
        const uint32_t half = 1u << (shift - 1);
        switch (mode) {
          case Rounding::Truncate:
            break;
          case Rounding::NearestUp:
            x += half;
            break;
          case Rounding::NearestEven:
            x += half - 1 + ((x >> shift) & 1u);
            break;
        }
        return x >> shift;
    }

    unsigned expBits_;
    unsigned manBits_;
    int bias_;
    bool hasSubnormals_;
    bool hasInfNan_;
    bool saturating_;
    bool bitDirect_;
};

inline float
FloatFormat::quantize(float value, Rounding mode) const
{
    if (!bitDirect_)
        return quantizeViaCodec(value, mode);
    const uint32_t in = std::bit_cast<uint32_t>(value);
    const uint32_t sign = in & 0x80000000u;
    const uint32_t mag = in & 0x7fffffffu;
    const unsigned drop = 23 - manBits_;
    // binary32 exponent fields of the format's lowest normal binade
    // and of its largest finite value (bitDirect_ keeps both in
    // [1, 254]).
    const uint32_t floor_exp =
        uint32_t(127 + (hasSubnormals_ ? 1 : 0) - bias_);
    const uint32_t ceil_exp = uint32_t(
        127 + int((1u << expBits_) - (hasInfNan_ ? 2u : 1u)) - bias_);
    const uint32_t max_finite =
        (ceil_exp << 23) | (0x007fffffu >> drop << drop);

    if (mag >= 0x7f800000u) { // Inf or NaN
        if (hasInfNan_)
            return std::numeric_limits<float>::quiet_NaN();
        return std::bit_cast<float>(sign | max_finite);
    }
    if (mag < floor_exp << 23) {
        // Below the normal range. binary32 subnormals flush like the
        // codec's; without gradual underflow everything here does.
        if (!hasSubnormals_ || mag < 0x00800000u)
            return std::bit_cast<float>(sign);
        // Gradual underflow: round the significand to the fixed
        // subnormal quantum 2^(emin - bias - man), a binary32 normal.
        const unsigned shift = drop + unsigned(floor_exp - (mag >> 23));
        if (shift > 24) // under half a quantum in every mode
            return std::bit_cast<float>(sign);
        const uint32_t steps =
            roundShift((mag & 0x007fffffu) | 0x00800000u, shift, mode);
        const float quantum =
            std::bit_cast<float>((floor_exp - manBits_) << 23);
        return std::bit_cast<float>(
            sign | std::bit_cast<uint32_t>(float(steps) * quantum));
    }
    // Normal range: a carry out of the mantissa lands in the exponent.
    const uint32_t r = roundShift(mag, drop, mode) << drop;
    if (r > max_finite) {
        if (saturating_ || !hasInfNan_)
            return std::bit_cast<float>(sign | max_finite);
        return std::numeric_limits<float>::quiet_NaN();
    }
    // Without subnormals the all-zero pattern owns 2^-bias, so that
    // value reads as zero.
    if (!hasSubnormals_ && r == floor_exp << 23)
        return std::bit_cast<float>(sign);
    return std::bit_cast<float>(sign | r);
}

/** DLFloat16 (1,6,9), bias 31, no subnormals, merged NaN/Inf. */
const FloatFormat &dlfloat16();

/**
 * dlfloat16().quantize(x, Mode) on the binary32 pattern of x, with the
 * format's constants folded and every rule taken by select instead of
 * a branch, so lane loops over it vectorise. Bit-identical to the
 * codec for every input (tests/test_float_format.cc).
 */
template <Rounding Mode>
inline uint32_t
dlfloat16RoundBits(uint32_t in)
{
    // 9 of 23 mantissa bits kept. binary32 exponent field 96 is 2^-31,
    // the pattern DLFloat16 spends on zero; 158 is its top binade.
    constexpr unsigned kDrop = 14;
    constexpr int32_t kZeroAlias = 96 << 23;
    constexpr int32_t kMaxFinite = (158 << 23) | 0x007fc000;
    constexpr int32_t kInf = 0x7f800000;
    const uint32_t sign = in & 0x80000000u;
    const uint32_t mag = in & 0x7fffffffu;
    uint32_t x = mag;
    if constexpr (Mode == Rounding::NearestUp)
        x += 1u << (kDrop - 1);
    else if constexpr (Mode == Rounding::NearestEven)
        x += (1u << (kDrop - 1)) - 1 + ((x >> kDrop) & 1u);
    // Finite inputs round to at most kInf, so r is exact; a NaN input
    // may wrap here, but the last select replaces it.
    const int32_t r = int32_t(x >> kDrop << kDrop);
    const int32_t sat = r > kMaxFinite ? kMaxFinite : r;
    // Everything that rounds to 2^-31 or below (binary32 subnormals
    // included) flushes to a signed zero.
    const uint32_t val = sat > kZeroAlias ? sign | uint32_t(sat) : sign;
    return int32_t(mag) >= kInf ? 0x7fc00000u : val;
}

/**
 * dlfloat16RoundBits<Mode>() of a lane vector of binary32 patterns (any
 * width, common/lanes.hh). With @p NonFinite false the caller promises
 * finite inputs, so the NaN select is dropped (an Inf lane saturates
 * instead), and the round sum stays below 2^31.
 */
template <Rounding Mode, bool NonFinite = false, typename Bits>
[[gnu::always_inline]] inline Bits
dlfloat16RoundLanes(const Bits &in)
{
    constexpr int32_t kZeroAlias = 96 << 23;
    constexpr int32_t kMaxFinite = (158 << 23) | 0x007fc000;
    const Bits sign = in & 0x80000000u;
    const Bits mag = in & 0x7fffffffu;
    Bits x = mag;
    if constexpr (Mode == Rounding::NearestUp)
        x += 1u << 13;
    else if constexpr (Mode == Rounding::NearestEven)
        x += (1u << 13) - 1 + ((x >> 14) & 1u);
    const Bits r = x & ~0x3fffu;
    using Mask = decltype(x > r); // signed lanes of the same width
    const Mask signed_r = lanesAs<Mask>(r);
    const Bits sat = selectLanes(signed_r > kMaxFinite,
                                 Bits{} + uint32_t(kMaxFinite), r);
    // Everything that rounds to 2^-31 or below flushes to a signed
    // zero.
    const Bits val =
        sign | (sat & lanesAs<Bits>(lanesAs<Mask>(sat) > kZeroAlias));
    if constexpr (NonFinite)
        return selectLanes(mag >= 0x7f800000u, Bits{} + 0x7fc00000u, val);
    else
        return val;
}

/**
 * FloatFormat::quantize() on binary32 patterns for a bit-direct format
 * with gradual underflow, a merged NaN and saturation, such as both
 * FP8 kinds at every bias. Every rule is a select instead of a branch,
 * so lane loops over round() vectorise. Bit-identical to quantize()
 * for every input (Fp8TensorQuantize in tests/test_func.cc).
 *
 * Rounding at the format's mantissa width would need a per-input shift
 * in the subnormal range (a fixed quantum), and lane loops have no
 * per-lane shift, so every binade runs in binary32 arithmetic instead:
 * the magnitude over its quantum (2^-manBits of the input's binade,
 * or of the least normal binade below it; an exact power-of-two
 * scale, to below 2^(manBits + 1)) splits into an integer part and an
 * exact fraction,
 * the mode picks the carry, and the integer times the quantum is the
 * result. Inf and NaN lanes run as a finite value and are replaced at
 * the end, so every float-to-int conversion stays in range.
 *
 * Copy the rounder into the loop that runs it (capture by value):
 * through a reference, the compiler must assume a store to the output
 * may change its constants, and the loop does not vectorise.
 */
class Fp8RoundBits
{
  public:
    /** @p fmt must be bit-direct, with subnormals, a merged NaN and
     *  saturation; others are rejected by assertion. */
    explicit Fp8RoundBits(const FloatFormat &fmt);

    template <Rounding Mode>
    uint32_t round(uint32_t in) const;

  private:
    int32_t manBits_;      ///< the format's mantissa bits
    int32_t minNormalExp_; ///< binary32 exponent field of its least normal
    int32_t maxFinite_;    ///< binary32 pattern of its largest value
};

template <Rounding Mode>
inline uint32_t
Fp8RoundBits::round(uint32_t in) const
{
    const uint32_t sign = in & 0x80000000u;
    const uint32_t mag = in & 0x7fffffffu;
    // Inf and NaN lanes run as the largest binary32 value; the mask at
    // the end replaces them.
    const int32_t finite = std::min(int32_t(mag), 0x7f7fffff);
    // The quantum's binary32 exponent field: the input's binade, or
    // the subnormal binade below the least normal.
    const int32_t quantum_exp =
        std::max(finite >> 23, minNormalExp_) - manBits_;
    const float quantum = std::bit_cast<float>(quantum_exp << 23);
    const float inv_quantum =
        std::bit_cast<float>((254 - quantum_exp) << 23);
    // Power-of-two scales: exact, and below 2^(manBits + 1).
    const float steps = std::bit_cast<float>(finite) * inv_quantum;
    int32_t whole;
    if constexpr (Mode == Rounding::NearestEven) {
        // Adding 2^23 rounds steps to an integer, ties to even, and
        // subtracting it again is exact.
        whole = int32_t((steps + 0x1p23f) - 0x1p23f);
    } else {
        whole = int32_t(steps);
        if constexpr (Mode == Rounding::NearestUp)
            whole += int32_t(steps - float(whole) >= 0.5f);
    }
    // A carry to 2^(manBits + 1) steps lands in the next binade.
    const int32_t r = std::bit_cast<int32_t>(float(whole) * quantum);
    const uint32_t val = sign | uint32_t(std::min(r, maxFinite_));
    // All ones for Inf and NaN, by arithmetic rather than a select, so
    // the compiler has no branch to sink the float work into.
    const uint32_t special = uint32_t(int32_t(mag + 0x00800000u) >> 31);
    return (val & ~special) | (0x7fc00000u & special);
}

/** HFP8 forward format FP8 (1,4,3) with the given exponent bias. */
FloatFormat fp8e4m3(int bias = 4);

/** HFP8 backward format FP8 (1,5,2), bias 15. */
const FloatFormat &fp8e5m2();

/** Internal FPU operand format FP9 (1,5,3), bias 15. */
const FloatFormat &fp9();

} // namespace rapid

#endif // RAPID_PRECISION_FLOAT_FORMAT_HH
