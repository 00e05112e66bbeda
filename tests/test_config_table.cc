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
    c.set("u", "1234567890123");
    c.set("d", "2.5");
    c.set("b", "true");
    EXPECT_EQ(c.getU64("u", 0), 1234567890123ull);
    EXPECT_DOUBLE_EQ(c.getDouble("d", 0.0), 2.5);
    EXPECT_TRUE(c.getBool("b", false));
}

TEST(Config, DefaultsWhenAbsent)
{
    Config c;
    EXPECT_EQ(c.getU64("missing", 7), 7u);
    EXPECT_EQ(c.getList("missing", "a,,b"),
              (std::vector<std::string>{"a", "b"}));
    EXPECT_DOUBLE_EQ(c.getDouble("missing", 1.5), 1.5);
    EXPECT_FALSE(c.getBool("missing", false));
}

TEST(Config, HexAndNegativeParsing)
{
    Config c;
    c.set("hex", "0x40");
    c.set("neg", "-12");
    EXPECT_EQ(c.getU64("hex", 0), 64u);
    EXPECT_EQ(c.getDouble("neg", 0), -12.0);
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
    // 32-bit fields: 2^32 would otherwise wrap to 0 when narrowed.
    c.set("n", "4294967295");
    EXPECT_EQ(c.getU32("n", 0), 4294967295u);
    c.set("n", "4294967296");
    EXPECT_DEATH((void)c.getU32("n", 0), "fits in 32 bits");
}

TEST(Config, RecordsReadKeys)
{
    Config c;
    c.set("a", "1");
    c.set("b", "x");
    (void)c.getU64("a", 0);
    (void)c.has("b");
    (void)c.getString("absent");
    EXPECT_EQ(c.readKeys(), (std::set<std::string>{"a", "absent", "b"}));
    c.rejectUnreadKeys("prog"); // every set key was read
}

TEST(ConfigDeathTest, UnreadKeysAreFatal)
{
    Config c;
    c.set("insts", "100");
    c.set("jbos", "4");
    c.set("dplusnn", "9");
    (void)c.getU64("insts", 0);
    (void)c.getBool("csv", false);
    EXPECT_DEATH(c.rejectUnreadKeys("prog"),
                 "prog: unknown keys 'dplusnn', 'jbos' \\(keys read: "
                 "csv, insts\\)");
    // A key first read after the check would have escaped it.
    Config late;
    late.rejectUnreadKeys("prog");
    EXPECT_DEATH((void)late.getU64("insts", 0),
                 "read after the unread-key check");
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
