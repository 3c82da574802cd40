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
constexpr double kTera = 1e12;

/** Convert a frequency in GHz to Hz. */
constexpr double
ghz(double f)
{
    return f * kGiga;
}

/** Convert bytes/s to GB/s for display. */
constexpr double
toGBps(double bytes_per_s)
{
    return bytes_per_s / kGiga;
}

/** Convert ops/s to TOPS for display. */
constexpr double
toTops(double ops_per_s)
{
    return ops_per_s / kTera;
}

/** Picojoules to joules. */
constexpr double
picojoules(double pj)
{
    return pj * 1e-12;
}

} // namespace rapid

#endif // RAPID_COMMON_UNITS_HH
