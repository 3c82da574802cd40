/**
 * @file
 * A loop that runs a test body once at each lane width this CPU
 * executes, with the library's kernels of one type on that width. The
 * including test compiles its own entry per width, under the same
 * targets as the library's, so no test-only entry is exported from the
 * library.
 *
 * A file that includes this must switch -Wpsabi off before its first
 * include (common/lanes.hh says why).
 */

#ifndef RAPID_TESTS_LANE_WIDTHS_HH
#define RAPID_TESTS_LANE_WIDTHS_HH

#include <string>

#include <gtest/gtest.h>

#include "common/lanes.hh"

namespace rapid {
namespace {

/**
 * @p body() once for each kernel of @p kernels (one per lane width)
 * that this CPU executes, with the calling thread's kernels of that
 * type on it. Returns "" when every width ran, else a message naming
 * the widths that did not, for GTEST_SKIP.
 */
template <typename Kernel, size_t N, typename Body>
std::string
atEveryLaneWidth(const Kernel (&kernels)[N], Body &&body)
{
    std::string missing;
    for (const Kernel &kernel : kernels) {
        if (!cpuRunsLanes(int(kernel.width))) {
            missing += " " + std::to_string(kernel.width);
            continue;
        }
        SCOPED_TRACE(::testing::Message() << "lane width " << kernel.width);
        const LaneScope<Kernel> scope(kernel);
        body();
    }
    return missing.empty() ? ""
                           : "lane width(s)" + missing +
                                 " not executable on this CPU";
}

/** atEveryLaneWidth() of the kernel table and the statements that
 *  follow, as one test body; skips the test, naming them, if a width
 *  could not run. */
#define RAPID_AT_EVERY_LANE_WIDTH(...)                                      \
    do {                                                                    \
        const std::string lanes_skipped_ = atEveryLaneWidth(__VA_ARGS__);   \
        if (!lanes_skipped_.empty())                                        \
            GTEST_SKIP() << lanes_skipped_;                                 \
    } while (0)

} // namespace
} // namespace rapid

#endif // RAPID_TESTS_LANE_WIDTHS_HH
