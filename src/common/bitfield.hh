/**
 * @file
 * Bit-manipulation helpers used by the precision-emulation layer.
 */

#ifndef RAPID_COMMON_BITFIELD_HH
#define RAPID_COMMON_BITFIELD_HH

#include <cstdint>
#include <type_traits>

namespace rapid {

/** Extract bits [first, first+count) of @p value. */
template <typename T>
constexpr T
bits(T value, unsigned first, unsigned count)
{
    static_assert(std::is_unsigned_v<T>);
    if (count >= sizeof(T) * 8)
        return value >> first;
    return (value >> first) & ((T(1) << count) - 1);
}

/** A mask with bits [0, count) set. */
template <typename T = uint64_t>
constexpr T
mask(unsigned count)
{
    static_assert(std::is_unsigned_v<T>);
    if (count >= sizeof(T) * 8)
        return ~T(0);
    return (T(1) << count) - 1;
}

/** Insert @p field into bits [first, first+count) of @p value. */
template <typename T>
constexpr T
insertBits(T value, unsigned first, unsigned count, T field)
{
    const T m = mask<T>(count);
    return (value & ~(m << first)) | ((field & m) << first);
}

/** Ceiling division for non-negative integers. */
template <typename T>
constexpr T
divCeil(T num, T den)
{
    return (num + den - 1) / den;
}

} // namespace rapid

#endif // RAPID_COMMON_BITFIELD_HH
