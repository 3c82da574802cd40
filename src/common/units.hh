/**
 * @file
 * Unit helpers and named constants used throughout the performance and
 * power models. All rates are kept in base SI units internally (ops/s,
 * bytes/s, watts, joules) and converted for display only.
 */

#ifndef RAPID_COMMON_UNITS_HH
#define RAPID_COMMON_UNITS_HH

#include <cstdint>

namespace rapid {

constexpr double kGiga = 1e9;

/** Convert a frequency in GHz to Hz. */
constexpr double
ghz(double f)
{
    return f * kGiga;
}

} // namespace rapid

#endif // RAPID_COMMON_UNITS_HH
