/**
 * @file
 * The binary32 rounding-class grid the quantize oracle tests share.
 */

#ifndef RAPID_TESTS_ROUNDING_CLASSES_HH
#define RAPID_TESTS_ROUNDING_CLASSES_HH

#include <cstdint>
#include <vector>

namespace rapid {

/**
 * binary32 inputs covering every rounding class at every round
 * position: each sign and exponent field (zero/subnormal and Inf/NaN
 * included) x each cut between kept and dropped mantissa bits x kept
 * LSB {0,1} x bits above it {clear, set} (set carries rounding into the
 * exponent) x round bit {0,1} x sticky bits {none, lowest, all}.
 */
inline std::vector<uint32_t>
roundingClassInputs()
{
    std::vector<uint32_t> out;
    for (uint32_t sign = 0; sign < 2; ++sign) {
        for (uint32_t exp = 0; exp < 256; ++exp) {
            for (unsigned cut = 1; cut <= 23; ++cut) {
                const uint32_t round = 1u << (cut - 1);
                const uint32_t lsb = (1u << cut) & 0x7fffffu;
                const uint32_t above = 0x7fffffu & ~((2u << cut) - 1);
                for (uint32_t upper : {0u, lsb, above, lsb | above})
                    for (uint32_t rb : {0u, round})
                        for (uint32_t sticky : {0u, (round - 1) & 1u,
                                                round - 1})
                            out.push_back(sign << 31 | exp << 23 | upper
                                          | rb | sticky);
            }
        }
    }
    return out;
}

} // namespace rapid

#endif // RAPID_TESTS_ROUNDING_CLASSES_HH
