/**
 * @file
 * The MPE's FP16 FMA written out on its own: the scalar oracle of the
 * systolic array's FP16 lanes and of the FP16 adder stage hfp8Fma()
 * ends in.
 */

#ifndef RAPID_TESTS_FP16_FMA_HH
#define RAPID_TESTS_FP16_FMA_HH

#include <cmath>

#include "precision/float_format.hh"

namespace rapid {

/**
 * round_fp16(a * b + acc) for DLFloat16-representable @p a, @p b and
 * @p acc: the product's 20-bit significand and the sum are exact in
 * double, so one rounding models the fused output. A zero multiplicand
 * passes @p acc through (zero-gating).
 */
inline float
fp16Fma(float a, float b, float acc)
{
    if (std::fpclassify(a) == FP_ZERO || std::fpclassify(b) == FP_ZERO)
        return acc;
    return dlfloat16().quantize(float(double(a) * double(b) + double(acc)));
}

} // namespace rapid

#endif // RAPID_TESTS_FP16_FMA_HH
