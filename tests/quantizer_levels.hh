/**
 * @file
 * One value through the quantizers' batch level call, and the level
 * rounding each quantizer was first written with: the oracle for the
 * library's select form and block loop.
 */

#ifndef RAPID_TESTS_QUANTIZER_LEVELS_HH
#define RAPID_TESTS_QUANTIZER_LEVELS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "precision/quantize.hh"

namespace rapid {

/** The library's level of @p x: quantizeLevels() on one element. */
template <typename Q>
int
levelOf(const Q &q, float x)
{
    int16_t out = 0;
    q.quantizeLevels(&x, 1, &out);
    return out;
}

/** The library's reconstruction of @p x: levelOf() times the step. */
template <typename Q>
float
quantizedOf(const Q &q, float x)
{
    return float(levelOf(q, x)) * q.scale();
}

/** The PACT level as it was first written, branch and all. */
inline int
referenceLevel(const PactQuantizer &q, float x)
{
    if (!(x > 0.0f))
        return 0;
    float clipped = std::min(x, q.alpha());
    return int(clipped / q.scale() + 0.5f);
}

/** The SaWB level as it was first written. */
inline int
referenceLevel(const SawbQuantizer &q, float w)
{
    if (std::isnan(w))
        return 0;
    int max_level = (1 << (q.bits() - 1)) - 1;
    float x = std::clamp(w, -q.alpha(), q.alpha()) / q.scale();
    int level = int(x >= 0 ? x + 0.5f : x - 0.5f);
    return std::clamp(level, -max_level, max_level);
}

} // namespace rapid

#endif // RAPID_TESTS_QUANTIZER_LEVELS_HH
