#include "precision/float_format.hh"

#include <bit>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/bitfield.hh"
#include "common/logging.hh"

namespace rapid {

namespace {

/** Exponent field value reserved for NaN/Inf, or one past the max. */
unsigned
specialExpField(const FloatFormat &fmt)
{
    return (1u << fmt.expBits()) - 1;
}

/** Largest exponent field encoding a finite value. */
unsigned
maxNormalExpField(const FloatFormat &fmt)
{
    unsigned all_ones = (1u << fmt.expBits()) - 1;
    return fmt.hasInfNan() ? all_ones - 1 : all_ones;
}

/** Smallest exponent field used by normal numbers. */
unsigned
minNormalExpField(const FloatFormat &fmt)
{
    // Subnormal-capable formats reserve field 0 for gradual underflow.
    // DLFloat-style formats use field 0 for normals (except the
    // all-zero pattern, which reads as zero).
    return fmt.hasSubnormals() ? 1 : 0;
}

} // namespace

FloatFormat::FloatFormat(unsigned exp_bits, unsigned man_bits, int bias,
                         bool has_subnormals, bool has_inf_nan,
                         bool saturating)
    : expBits_(exp_bits), manBits_(man_bits), bias_(bias),
      hasSubnormals_(has_subnormals), hasInfNan_(has_inf_nan),
      saturating_(saturating), bitDirect_(false)
{
    rapid_assert(exp_bits >= 2 && exp_bits <= 8,
                 "unsupported exponent width ", exp_bits);
    rapid_assert(man_bits <= 23, "unsupported mantissa width ", man_bits);
    // quantize() rounds on the binary32 bits when every value of the
    // format is a binary32 normal or zero (binary32 exponent fields of
    // the smallest quantum and of the largest value within [1, 254])
    // and the round position lies inside the binary32 mantissa.
    const int floor_exp = 127 + int(minNormalExpField(*this)) - bias;
    const int lowest_exp =
        has_subnormals ? floor_exp - int(man_bits) : floor_exp;
    const int ceil_exp = 127 + int(maxNormalExpField(*this)) - bias;
    bitDirect_ = man_bits >= 1 && man_bits <= 22 && lowest_exp >= 1
                 && ceil_exp <= 254;
}

uint32_t
FloatFormat::nanBits() const
{
    rapid_assert(hasInfNan_, "format ", name(), " has no NaN encoding");
    // Merged NaN/Inf symbol: all-ones exponent, all-ones mantissa.
    return (specialExpField(*this) << manBits_) | mask<uint32_t>(manBits_);
}

uint32_t
FloatFormat::encode(float value, Rounding mode) const
{
    const uint32_t in = std::bit_cast<uint32_t>(value);
    const uint32_t sign = in >> 31;
    const int in_exp = int(bits(in, 23, 8));
    const uint32_t in_man = bits(in, 0, 23);
    const uint32_t sign_shifted = sign << (storageBits() - 1);

    // NaN / Inf inputs.
    if (in_exp == 0xff) {
        if (hasInfNan_)
            return sign_shifted | nanBits();
        // No special encodings: saturate Inf, map NaN to max finite.
        return sign_shifted | (maxNormalExpField(*this) << manBits_)
               | mask<uint32_t>(manBits_);
    }

    // Zero and single-precision subnormal inputs (both encode with a
    // zero exponent field). Subnormals are far below every format's
    // underflow threshold (2^-126 vs >= 2^-40).
    if (in_exp == 0)
        return sign_shifted;

    // Normalized input: 24-bit significand with the implicit bit set.
    uint64_t sig = (uint64_t(1) << 23) | in_man;
    int exp = in_exp - 127;

    int t = exp + bias_; // tentative exponent field
    int drop = 23 - int(manBits_);
    const int emin = int(minNormalExpField(*this));

    if (t < emin) {
        // Underflow region: shift further right. For subnormal-capable
        // formats this produces the gradual-underflow encoding; for
        // flush-to-zero formats the result is only kept if rounding
        // brings it back up to the minimum normal.
        drop += emin - t;
        t = emin;
    }

    uint64_t rounded;
    if (drop <= 0) {
        rounded = sig << -drop;
    } else if (drop > 60) {
        rounded = 0;
    } else {
        const uint64_t rem = sig & mask<uint64_t>(unsigned(drop));
        const uint64_t half = uint64_t(1) << (drop - 1);
        rounded = sig >> drop;
        switch (mode) {
          case Rounding::Truncate:
            break;
          case Rounding::NearestUp:
            if (rem >= half)
                ++rounded;
            break;
          case Rounding::NearestEven:
            if (rem > half || (rem == half && (rounded & 1)))
                ++rounded;
            break;
        }
    }

    // Renormalize if rounding carried out of the significand.
    const uint64_t implicit = uint64_t(1) << manBits_;
    if (rounded >= 2 * implicit) {
        rounded >>= 1;
        ++t;
    }

    if (rounded == 0)
        return sign_shifted;

    if (rounded < implicit) {
        // Result is below the normal range.
        if (hasSubnormals_)
            return sign_shifted | uint32_t(rounded); // e field = 0
        return sign_shifted; // flush to zero
    }

    uint32_t man_field = uint32_t(rounded - implicit);

    if (!hasSubnormals_ && t == 0 && man_field == 0) {
        // DLFloat quirk: the encoding (e=0, m=0) reads as zero, so the
        // value 2^-bias itself is not representable and flushes.
        return sign_shifted;
    }

    if (t > int(maxNormalExpField(*this))) {
        if (saturating_ || !hasInfNan_) {
            return sign_shifted | (maxNormalExpField(*this) << manBits_)
                   | mask<uint32_t>(manBits_);
        }
        return sign_shifted | nanBits();
    }

    return sign_shifted | (uint32_t(t) << manBits_) | man_field;
}

float
FloatFormat::decode(uint32_t pattern) const
{
    rapid_assert((pattern >> storageBits()) == 0,
                 "pattern wider than ", name());
    const uint32_t sign = pattern >> (storageBits() - 1);
    const unsigned e = bits(pattern, manBits_, expBits_);
    const uint32_t man = bits(pattern, 0u, manBits_);
    const double s = sign ? -1.0 : 1.0;

    if (hasInfNan_ && e == specialExpField(*this))
        return std::numeric_limits<float>::quiet_NaN();

    if (e == 0) {
        if (hasSubnormals_) {
            double frac = std::ldexp(double(man), -int(manBits_));
            return float(s * std::ldexp(frac, 1 - bias_));
        }
        if (man == 0)
            return float(s * 0.0);
        // DLFloat-style: exponent field 0 is a normal exponent.
        double frac = 1.0 + std::ldexp(double(man), -int(manBits_));
        return float(s * std::ldexp(frac, -bias_));
    }

    double frac = 1.0 + std::ldexp(double(man), -int(manBits_));
    return float(s * std::ldexp(frac, int(e) - bias_));
}

std::string
FloatFormat::name() const
{
    std::ostringstream oss;
    oss << "fp" << storageBits() << "(1," << expBits_ << "," << manBits_
        << ",bias=" << bias_ << ")";
    return oss.str();
}

const FloatFormat &
dlfloat16()
{
    static const FloatFormat fmt(6, 9, 31, /*subnormals=*/false,
                                 /*inf_nan=*/true, /*saturating=*/true);
    return fmt;
}

Fp8RoundBits::Fp8RoundBits(const FloatFormat &fmt)
{
    rapid_assert(fmt.bitDirect() && fmt.hasSubnormals() &&
                     fmt.hasInfNan() && fmt.saturating(),
                 fmt.name(), " has no branch-free FP8 round");
    // bitDirect() puts the binary32 exponent fields of the subnormal
    // quantum and of the top binade in [1, 254].
    const int floor_exp = 128 - fmt.bias();
    const int ceil_exp =
        127 + int((1u << fmt.expBits()) - 2) - fmt.bias();
    const unsigned drop = 23 - fmt.manBits();
    manBits_ = int32_t(fmt.manBits());
    minNormalExp_ = floor_exp;
    maxFinite_ = int32_t((unsigned(ceil_exp) << 23) |
                         (0x007fffffu >> drop << drop));
    rapid_assert(floor_exp - manBits_ >= 2, fmt.name(),
                 " has a quantum below 2^-125, where binary32 "
                 "subnormals reach half of it");
}

FloatFormat
fp8e4m3(int bias)
{
    rapid_assert(bias >= 1 && bias <= 15,
                 "fp8(1,4,3) exponent bias ", bias,
                 " outside the exactly-convertible range [1,15]");
    return FloatFormat(4, 3, bias, /*subnormals=*/true,
                       /*inf_nan=*/true, /*saturating=*/true);
}

const FloatFormat &
fp8e5m2()
{
    static const FloatFormat fmt(5, 2, 15, /*subnormals=*/true,
                                 /*inf_nan=*/true, /*saturating=*/true);
    return fmt;
}

const FloatFormat &
fp9()
{
    static const FloatFormat fmt(5, 3, 15, /*subnormals=*/true,
                                 /*inf_nan=*/true, /*saturating=*/true);
    return fmt;
}

} // namespace rapid
