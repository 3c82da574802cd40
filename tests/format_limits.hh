/**
 * @file
 * A FloatFormat's limits read off its codes: every encoding decoded,
 * an independent check of the codec the library computes them from.
 * Formats up to 16 bits wide only.
 */

#ifndef RAPID_TESTS_FORMAT_LIMITS_HH
#define RAPID_TESTS_FORMAT_LIMITS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "precision/float_format.hh"

namespace rapid {

/** True if @p pattern is @p f's merged NaN/Inf symbol. */
inline bool
isSpecial(const FloatFormat &f, uint32_t pattern)
{
    return !std::isfinite(f.decode(pattern));
}

/** Largest finite magnitude any encoding of @p f decodes to. */
inline float
maxFinite(const FloatFormat &f)
{
    float most = 0.0f;
    for (uint32_t p = 0; p < f.numEncodings(); ++p)
        if (!isSpecial(f, p))
            most = std::max(most, std::abs(f.decode(p)));
    return most;
}

/** Smallest positive magnitude of @p f; with @p normal_only, of the
 *  encodings whose exponent field is not zero when @p f has
 *  subnormals. */
inline float
minPositive(const FloatFormat &f, bool normal_only = false)
{
    float least = std::numeric_limits<float>::infinity();
    for (uint32_t p = 0; p < f.numEncodings(); ++p) {
        const float v = f.decode(p);
        const bool subnormal = f.hasSubnormals() &&
                               ((p >> f.manBits()) &
                                ((1u << f.expBits()) - 1)) == 0;
        if (v > 0.0f && !isSpecial(f, p) && !(normal_only && subnormal))
            least = std::min(least, v);
    }
    return least;
}

/** Smallest positive normal magnitude of @p f. */
inline float
minNormal(const FloatFormat &f)
{
    return minPositive(f, true);
}

} // namespace rapid

#endif // RAPID_TESTS_FORMAT_LIMITS_HH
