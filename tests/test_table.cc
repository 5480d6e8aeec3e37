/**
 * @file
 * Unit tests for the ASCII table renderer.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "util/table.hh"

using namespace xbsp;

namespace
{

Table
sample()
{
    Table t("Sample", {"name", "value", "pct"});
    t.startRow();
    t.addCell("alpha");
    t.addNumber(1.23456, 2);
    t.addPercent(0.125, 1);
    t.startRow();
    t.addCell("beta");
    t.addInteger(-42);
    t.addPercent(1.0, 0);
    return t;
}

} // namespace

TEST(Table, CellsFormatting)
{
    Table t = sample();
    EXPECT_EQ(t.rowCount(), 2u);
    EXPECT_EQ(t.columnCount(), 3u);
    EXPECT_EQ(t.cell(0, 0), "alpha");
    EXPECT_EQ(t.cell(0, 1), "1.23");
    EXPECT_EQ(t.cell(0, 2), "12.5%");
    EXPECT_EQ(t.cell(1, 1), "-42");
    EXPECT_EQ(t.cell(1, 2), "100%");
}

TEST(Table, PrintAligned)
{
    std::ostringstream os;
    sample().print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("== Sample =="), std::string::npos);
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    // Header separator line of dashes exists.
    EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, OverflowPanics)
{
    Table t("X", {"only"});
    t.startRow();
    t.addCell("one");
    EXPECT_DEATH(t.addCell("two"), "overflow");
}

TEST(Table, CellWithoutRowPanics)
{
    Table t("X", {"only"});
    EXPECT_DEATH(t.addCell("oops"), "without startRow");
}

TEST(Table, OutOfRangePanics)
{
    Table t = sample();
    EXPECT_DEATH((void)t.cell(5, 0), "out of range");
}

TEST(Table, NoColumnsFatal)
{
    EXPECT_DEATH(Table("bad", {}), "no columns");
}
