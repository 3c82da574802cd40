/**
 * @file
 * Tests for the static-analysis/hardening layer: death tests for the
 * rapid_assert family, the RAPID_BOUNDS_CHECK tensor access guards,
 * and regression tests for the undefined-behaviour fixes the
 * sanitizer work exposed in the quantizer rounding paths.
 *
 * This binary is compiled with RAPID_BOUNDS_CHECK=1 and without
 * NDEBUG (see tests/CMakeLists.txt). The Tensor accessors are inline,
 * and it builds its own copy of tensor.cc, so the bounds-checked
 * access paths are active no matter how the rest of the tree was
 * configured.
 */

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "precision/int_format.hh"
#include "precision/quantize.hh"
#include "quantizer_levels.hh"
#include "tensor/tensor.hh"

namespace rapid {
namespace {

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

// ---------------------------------------------------------------------
// rapid_assert / rapid_dassert / rapid_panic / rapid_fatal
// ---------------------------------------------------------------------

TEST(AssertDeathTest, RapidAssertPanicsWithMessage)
{
    EXPECT_DEATH(rapid_assert(1 + 1 == 3, "math broke"),
                 "assertion failed.*1 \\+ 1 == 3.*math broke");
}

TEST(AssertDeathTest, RapidAssertPassesSilently)
{
    rapid_assert(2 + 2 == 4, "never printed");
}

TEST(AssertDeathTest, RapidDassertActiveWithoutNdebug)
{
    // This translation unit is built without NDEBUG, so the debug
    // assert must be live and behave exactly like rapid_assert.
    EXPECT_DEATH(rapid_dassert(false, "debug invariant"),
                 "assertion failed.*debug invariant");
}

TEST(AssertDeathTest, RapidPanicAborts)
{
    EXPECT_DEATH(rapid_panic("invariant ", 42, " violated"),
                 "panic: invariant 42 violated");
}

TEST(AssertDeathTest, RapidFatalExitsWithCodeOne)
{
    EXPECT_EXIT(rapid_fatal("bad config"),
                ::testing::ExitedWithCode(1), "fatal: bad config");
}

// ---------------------------------------------------------------------
// RAPID_BOUNDS_CHECK tensor access
// ---------------------------------------------------------------------

TEST(BoundsCheckDeathTest, Rank2ColumnOverrunCaught)
{
    Tensor t({2, 3});
    EXPECT_DEATH(t.at(0, 3), "out of shape \\(2,3\\)");
}

TEST(BoundsCheckDeathTest, Rank2NegativeRowCaught)
{
    Tensor t({2, 3});
    EXPECT_DEATH(t.at(-1, 0), "out of shape");
}

TEST(BoundsCheckDeathTest, Rank4ChannelOverrunCaught)
{
    Tensor t({1, 2, 4, 4});
    // The flat offset of (0,2,0,0) is still inside the buffer, so only
    // the per-dimension check can catch it.
    EXPECT_DEATH(t.at(0, 2, 0, 0), "out of shape \\(1,2,4,4\\)");
}

TEST(BoundsCheckDeathTest, FlatIndexOverrunCaught)
{
    Tensor t({4});
    EXPECT_DEATH(t[4], "flat index 4 out of 4");
}

TEST(BoundsCheckTest, InRangeAccessStillWorks)
{
    Tensor t({2, 3});
    t.at(1, 2) = 7.0f;
    EXPECT_EQ(t.at(1, 2), 7.0f);
    Tensor u({1, 2, 3, 4});
    u.at(0, 1, 2, 3) = 9.0f;
    EXPECT_EQ(u.at(0, 1, 2, 3), 9.0f);
}

// ---------------------------------------------------------------------
// Regression tests: float-to-int cast UB in the quantizer paths.
// Before the fixes these invoked undefined behaviour (caught by
// UBSan's float-cast-overflow check); now they saturate or map NaN to
// the zero level.
// ---------------------------------------------------------------------

TEST(QuantizerUbRegression, IntFormatSaturatesHugeRatios)
{
    // |value/scale| overflows int range; must clamp, not wrap.
    EXPECT_EQ(int4().quantizeLevel(1e30f, 1e-6f), int4().maxLevel());
    EXPECT_EQ(int4().quantizeLevel(-1e30f, 1e-6f), int4().minLevel());
    EXPECT_EQ(int2().quantizeLevel(kInf, 1.0f), int2().maxLevel());
    EXPECT_EQ(int2().quantizeLevel(-kInf, 1.0f), int2().minLevel());
}

TEST(QuantizerUbRegression, IntFormatMapsNanToZeroLevel)
{
    EXPECT_EQ(int4().quantizeLevel(kNan, 1.0f), 0);
}

TEST(QuantizerUbRegression, IntFormatNearestRoundingUnchanged)
{
    EXPECT_EQ(int4().quantizeLevel(2.4f, 1.0f), 2);
    EXPECT_EQ(int4().quantizeLevel(2.5f, 1.0f), 3);
    EXPECT_EQ(int4().quantizeLevel(-2.5f, 1.0f), -3);
    EXPECT_EQ(int4().quantizeLevel(7.49f, 1.0f), 7);
    EXPECT_EQ(int4().quantizeLevel(100.0f, 1.0f), 7);
}

TEST(QuantizerUbRegression, PactHandlesNanAndNegatives)
{
    PactQuantizer q(1.0f, 4);
    EXPECT_EQ(levelOf(q, kNan), 0);
    EXPECT_EQ(levelOf(q, -3.0f), 0);
    EXPECT_EQ(levelOf(q, kInf), int((1u << 4) - 1));
    EXPECT_EQ(quantizedOf(q, kNan), 0.0f);
}

TEST(QuantizerUbRegression, SawbHandlesNan)
{
    SawbQuantizer q({-1.0f, -0.5f, 0.5f, 1.0f}, 4);
    EXPECT_EQ(levelOf(q, kNan), 0);
    EXPECT_EQ(quantizedOf(q, kNan), 0.0f);
    // Saturation at the clip value still reaches the extreme levels.
    EXPECT_EQ(levelOf(q, 1e30f), 7);
    EXPECT_EQ(levelOf(q, -1e30f), -7);
}

} // namespace
} // namespace rapid
