/**
 * @file
 * Tests for the configuration store and the table renderer.
 */

#include <gtest/gtest.h>

#include "common/config.hh"
#include "common/table.hh"

namespace carf
{

TEST(Config, SetAndGetString)
{
    Config c;
    EXPECT_FALSE(c.has("k"));
    c.set("k", "v");
    EXPECT_TRUE(c.has("k"));
    EXPECT_EQ(c.getString("k"), "v");
    EXPECT_EQ(c.getString("missing", "def"), "def");
}

TEST(Config, TypedSettersAndGetters)
{
    Config c;
    c.setU64("u", 1234567890123ull);
    c.setDouble("d", 2.5);
    c.setBool("b", true);
    EXPECT_EQ(c.getU64("u", 0), 1234567890123ull);
    EXPECT_DOUBLE_EQ(c.getDouble("d", 0.0), 2.5);
    EXPECT_TRUE(c.getBool("b", false));
}

TEST(Config, DefaultsWhenAbsent)
{
    Config c;
    EXPECT_EQ(c.getU64("missing", 7), 7u);
    EXPECT_EQ(c.getI64("missing", -7), -7);
    EXPECT_DOUBLE_EQ(c.getDouble("missing", 1.5), 1.5);
    EXPECT_FALSE(c.getBool("missing", false));
}

TEST(Config, HexAndNegativeParsing)
{
    Config c;
    c.set("hex", "0x40");
    c.set("neg", "-12");
    EXPECT_EQ(c.getU64("hex", 0), 64u);
    EXPECT_EQ(c.getI64("neg", 0), -12);
}

TEST(Config, BoolSpellings)
{
    Config c;
    for (const char *s : {"true", "1", "yes", "on"}) {
        c.set("b", s);
        EXPECT_TRUE(c.getBool("b", false)) << s;
    }
    for (const char *s : {"false", "0", "no", "off"}) {
        c.set("b", s);
        EXPECT_FALSE(c.getBool("b", true)) << s;
    }
}

TEST(Config, ParseTokenRejectsMalformed)
{
    Config c;
    EXPECT_TRUE(c.parseToken("a=b"));
    EXPECT_FALSE(c.parseToken("nokey"));
    EXPECT_FALSE(c.parseToken("=value"));
    EXPECT_TRUE(c.parseToken("empty="));
    EXPECT_EQ(c.getString("empty", "x"), "");
}

TEST(Config, DumpListsKeysSorted)
{
    Config c;
    c.set("b", "2");
    c.set("a", "1");
    EXPECT_EQ(c.dump(), "a=1\nb=2\n");
}

TEST(ConfigDeathTest, BadIntegerIsFatal)
{
    Config c;
    c.set("n", "abc");
    EXPECT_DEATH((void)c.getU64("n", 0), "not an unsigned integer");
    // strtoull would wrap a sign and saturate on overflow.
    for (const char *bad : {"-1", "-0x10", "18446744073709551616"}) {
        c.set("n", bad);
        EXPECT_DEATH((void)c.getU64("n", 0), "not an unsigned integer")
            << bad;
    }
    c.set("n", "9223372036854775808");
    EXPECT_DEATH((void)c.getI64("n", 0), "not an integer");
}

TEST(Table, FormatHelpers)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::pct(0.4567), "45.7%");
    EXPECT_EQ(Table::pct(0.5, 0), "50%");
    EXPECT_EQ(Table::intNum(-12), "-12");
}

TEST(Table, RenderAlignsColumns)
{
    Table t("demo");
    t.setColumns({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"longer", "22"});
    std::string out = t.render();
    EXPECT_NE(out.find("demo"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    // Header and both rows plus separator.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 5);
}

TEST(Table, CsvOutput)
{
    Table t;
    t.setColumns({"x", "y"});
    t.addRow({"1", "2"});
    EXPECT_EQ(t.renderCsv(), "x,y\n1,2\n");
}

TEST(Table, CellAccess)
{
    Table t;
    t.setColumns({"a"});
    t.addRow({"v"});
    EXPECT_EQ(t.rowCount(), 1u);
    EXPECT_EQ(t.columnCount(), 1u);
    EXPECT_EQ(t.cell(0, 0), "v");
}

TEST(TableDeathTest, RowArityMismatchPanics)
{
    Table t("t");
    t.setColumns({"a", "b"});
    EXPECT_DEATH(t.addRow({"only one"}), "row with 1 cells");
}

} // namespace carf
