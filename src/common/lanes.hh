/**
 * @file
 * A loop shape GCC 12 vectorises at -O2. Its default (very cheap) cost
 * model only takes loops whose trip count is a compile-time multiple of
 * the vector width, so a loop over a runtime length runs as whole
 * fixed-size blocks and then a scalar tail.
 *
 * And the lane vectors that register kernels hold their state in
 * across a reduction, where no loop shape vectorises by itself.
 */

#ifndef RAPID_COMMON_LANES_HH
#define RAPID_COMMON_LANES_HH

#include <bit>
#include <cstdint>
#include <cstring>

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

/** Output columns a lane kernel carries in registers: two halves of
 *  kHalf lanes. */
constexpr int64_t kLanes = 8;
constexpr int64_t kHalf = 4;

// Lane vectors of 16 bytes: one SSE2 register each on x86-64. (Wider
// GCC vector types without AVX lower to scalar code.)
using FloatLanes = float __attribute__((vector_size(16)));
using BitLanes = uint32_t __attribute__((vector_size(16)));
using MaskLanes = int32_t __attribute__((vector_size(16)));

/** @p yes in the lanes where @p mask is all ones, else @p no. */
inline BitLanes
selectLanes(MaskLanes mask, BitLanes yes, BitLanes no)
{
    const BitLanes m = std::bit_cast<BitLanes>(mask);
    return (yes & m) | (no & ~m);
}

/** The four floats at @p p, which need no alignment. */
inline FloatLanes
loadLanes(const float *p)
{
    FloatLanes v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

} // namespace rapid

#endif // RAPID_COMMON_LANES_HH
