#include "precision/mpe_datapath.hh"

#include <cmath>

namespace rapid {

namespace {

/** Exact-zero test without a floating-point comparison (see lint). */
bool
isZero(float v)
{
    return std::fpclassify(v) == FP_ZERO;
}

} // namespace

MpeDatapath::MpeDatapath(int fwd_bias, Rounding rounding)
    : fwdFormat_(fp8e4m3(fwd_bias)), rounding_(rounding)
{
}

float
MpeDatapath::roundFp16(float value) const
{
    return dlfloat16().quantize(value, rounding_);
}

float
MpeDatapath::toFp9(float value, Fp8Kind kind) const
{
    const FloatFormat &fp8 =
        (kind == Fp8Kind::Forward) ? fwdFormat_ : fp8e5m2();
    float as_fp8 = fp8.quantize(value, rounding_);
    // On-the-fly conversion to the internal (1,5,3) operand format.
    // Exact for every FP8 encoding with bias in [1,15] (tested
    // exhaustively), so this second step never changes the value.
    return fp9().quantize(as_fp8, rounding_);
}

float
MpeDatapath::hfp8Fma(float a, Fp8Kind a_kind, float b, Fp8Kind b_kind,
                     float acc)
{
    ++fmaCount_;
    float a9 = toFp9(a, a_kind);
    float b9 = toFp9(b, b_kind);
    if (isZero(a9) || isZero(b9)) {
        ++zeroGatedCount_;
        return acc;
    }
    // FP9 significands are 4 bits; the 8-bit product significand is
    // exact in double. The HFP8 path merges with the FP16 path at the
    // adder, so the result is rounded to DLFloat16.
    double product = double(a9) * double(b9);
    return roundFp16(float(product + double(acc)));
}

} // namespace rapid
