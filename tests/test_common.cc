/**
 * @file
 * Tests for the common utilities: bit manipulation, deterministic
 * RNG, summary statistics, and table formatting.
 */

#include <gtest/gtest.h>

#include "common/bitfield.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/units.hh"

namespace rapid {
namespace {

TEST(Bitfield, BitsAndMask)
{
    EXPECT_EQ(bits(0xABCDu, 4, 8), 0xBCu);
    EXPECT_EQ(bits(0xFFu, 0, 8), 0xFFu);
    EXPECT_EQ(mask<uint32_t>(4), 0xFu);
    EXPECT_EQ(mask<uint32_t>(32), 0xFFFFFFFFu);
    EXPECT_EQ(mask<uint64_t>(64), ~uint64_t(0));
}

TEST(Bitfield, InsertBits)
{
    uint64_t w = 0;
    w = insertBits<uint64_t>(w, 4, 8, 0xAB);
    EXPECT_EQ(w, 0xAB0u);
    w = insertBits<uint64_t>(w, 4, 8, 0xCD); // overwrite
    EXPECT_EQ(w, 0xCD0u);
}

TEST(Bitfield, DivCeilAndRoundUp)
{
    EXPECT_EQ(divCeil<int64_t>(10, 3), 4);
    EXPECT_EQ(divCeil<int64_t>(9, 3), 3);
    // Rounding up to a multiple of 8.
    EXPECT_EQ(divCeil<int64_t>(10, 8) * 8, 16);
    EXPECT_EQ(divCeil<int64_t>(16, 8) * 8, 16);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.gaussian(), b.gaussian());
}

TEST(Rng, UniformInRange)
{
    Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        double u = rng.uniform(-2.0, 3.0);
        EXPECT_GE(u, -2.0);
        EXPECT_LT(u, 3.0);
        int64_t k = rng.uniformInt(1, 6);
        EXPECT_GE(k, 1);
        EXPECT_LE(k, 6);
    }
}

TEST(Rng, LaplaceIsSymmetricHeavyTailed)
{
    Rng rng(2);
    double sum = 0;
    int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += rng.laplace(1.0);
    EXPECT_NEAR(sum / n, 0.0, 0.05);
}

TEST(SummaryStat, BasicAggregates)
{
    SummaryStat s;
    for (double v : {2.0, 8.0, 4.0})
        s.add(v);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 8.0);
    EXPECT_NEAR(s.mean(), 14.0 / 3, 1e-12);
}

TEST(Table, AlignsColumnsAndCounts)
{
    Table t({"a", "long-header"});
    t.addRow({"xxxxxx", "1"});
    t.addRow({"y", "2"});
    std::string out = t.str();
    // Header, rule, two rows.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
    // Every row is padded to equal width.
    size_t first_nl = out.find('\n');
    EXPECT_NE(out.find("long-header"), std::string::npos);
    EXPECT_LT(out.find("a"), first_nl);
}

TEST(Table, FormatHelper)
{
    EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
    EXPECT_EQ(Table::fmt(2.0, 0), "2");
}

TEST(Table, MismatchedRowIsFatal)
{
    Table t({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "row width");
}

TEST(Units, Conversions)
{
    EXPECT_DOUBLE_EQ(ghz(1.5), 1.5e9);
}

} // namespace
} // namespace rapid
