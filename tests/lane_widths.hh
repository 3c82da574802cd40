/**
 * @file
 * The chunked GEMM's lane kernel at every width, compiled in the
 * including test's translation unit under the same targets as the
 * library's entries, and a loop that runs a test body once at each
 * width this CPU executes with the library's GEMMs on it.
 *
 * A file that includes this must switch -Wpsabi off before its first
 * include (common/lanes.hh says why).
 */

#ifndef RAPID_TESTS_LANE_WIDTHS_HH
#define RAPID_TESTS_LANE_WIDTHS_HH

#include <string>

#include <gtest/gtest.h>

#include "common/lanes.hh"
#include "func/lane_gemm.hh"

namespace rapid {
namespace {

RAPID_TARGET_AVX512 void
laneGemm16(const float *qa, const float *qb, int64_t m, int64_t k, int64_t n,
           int64_t ldb, const ExecConfig &cfg, float *out)
{
    chunkedGemmLanes<16>(qa, qb, m, k, n, ldb, cfg, out);
}

RAPID_TARGET_AVX2 void
laneGemm8(const float *qa, const float *qb, int64_t m, int64_t k, int64_t n,
          int64_t ldb, const ExecConfig &cfg, float *out)
{
    chunkedGemmLanes<8>(qa, qb, m, k, n, ldb, cfg, out);
}

void
laneGemm4(const float *qa, const float *qb, int64_t m, int64_t k, int64_t n,
          int64_t ldb, const ExecConfig &cfg, float *out)
{
    chunkedGemmLanes<4>(qa, qb, m, k, n, ldb, cfg, out);
}

/** Every lane width's GEMM. */
const LaneGemm kLaneGemms[] = {
    {16, &laneGemm16}, {8, &laneGemm8}, {4, &laneGemm4}};

/**
 * @p body() once at each lane width in @p widths that this CPU
 * executes, with the calling thread's chunked GEMMs on that width.
 * Returns "" when every width ran, else a message naming the widths
 * that did not, for GTEST_SKIP.
 */
template <typename Body>
std::string
atEveryLaneWidth(Body &&body)
{
    std::string missing;
    for (const LaneGemm &gemm : kLaneGemms) {
        if (!cpuRunsLanes(int(gemm.half))) {
            missing += " " + std::to_string(gemm.half);
            continue;
        }
        SCOPED_TRACE(::testing::Message() << "lane width " << gemm.half);
        const LaneGemmScope scope(gemm);
        EXPECT_EQ(chunkedGemmLaneWidth(), gemm.half);
        body();
    }
    return missing.empty() ? ""
                           : "lane width(s)" + missing +
                                 " not executable on this CPU";
}

/** atEveryLaneWidth() of the statements that follow, as one test
 *  body; skips the test, naming them, if a width could not run. */
#define RAPID_AT_EVERY_LANE_WIDTH(...)                                      \
    do {                                                                    \
        const std::string lanes_skipped_ = atEveryLaneWidth(__VA_ARGS__);   \
        if (!lanes_skipped_.empty())                                        \
            GTEST_SKIP() << lanes_skipped_;                                 \
    } while (0)

} // namespace
} // namespace rapid

#endif // RAPID_TESTS_LANE_WIDTHS_HH
