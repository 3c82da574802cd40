/**
 * @file
 * A loop shape GCC 12 vectorises at -O2. Its default (very cheap) cost
 * model only takes loops whose trip count is a compile-time multiple of
 * the vector width, so a loop over a runtime length runs as whole
 * fixed-size blocks and then a scalar tail.
 */

#ifndef RAPID_COMMON_LANES_HH
#define RAPID_COMMON_LANES_HH

#include <cstdint>

namespace rapid {

/** @p fn(i) for every i in [0, @p n), in ascending order: whole blocks
 *  of @p Block first, then the tail. */
template <int64_t Block = 8, typename Fn>
inline void
forEachBlocked(int64_t n, Fn &&fn)
{
    int64_t i = 0;
    for (; i + Block <= n; i += Block)
        for (int64_t l = 0; l < Block; ++l)
            fn(i + l);
    for (; i < n; ++i)
        fn(i);
}

} // namespace rapid

#endif // RAPID_COMMON_LANES_HH
