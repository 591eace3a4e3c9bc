#include "data/schema_text.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>

#include "data/census.h"

namespace ldp::data {
namespace {

TEST(ParseSchemaTextTest, ParsesBothColumnKinds) {
  auto schema = ParseSchemaText(
      "numeric age 16 95\n"
      "categorical gender 2\n");
  ASSERT_TRUE(schema.ok());
  ASSERT_EQ(schema.value().num_columns(), 2u);
  EXPECT_EQ(schema.value().column(0).name, "age");
  EXPECT_EQ(schema.value().column(0).type, ColumnType::kNumeric);
  EXPECT_DOUBLE_EQ(schema.value().column(0).lo, 16.0);
  EXPECT_DOUBLE_EQ(schema.value().column(0).hi, 95.0);
  EXPECT_EQ(schema.value().column(1).type, ColumnType::kCategorical);
  EXPECT_EQ(schema.value().column(1).domain_size, 2u);
}

TEST(ParseSchemaTextTest, SkipsBlankLinesAndComments) {
  auto schema = ParseSchemaText(
      "# a comment\n"
      "\n"
      "numeric x -1 1\n"
      "   \n"
      "# another\n"
      "categorical c 3\n");
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema.value().num_columns(), 2u);
}

TEST(ParseSchemaTextTest, RejectsMalformedLines) {
  EXPECT_FALSE(ParseSchemaText("numeric x\n").ok());         // missing bounds
  EXPECT_FALSE(ParseSchemaText("numeric x 0\n").ok());       // missing hi
  EXPECT_FALSE(ParseSchemaText("numeric x a b\n").ok());     // bad numbers
  EXPECT_FALSE(ParseSchemaText("categorical c\n").ok());     // missing domain
  EXPECT_FALSE(ParseSchemaText("categorical c -3\n").ok());  // negative
  EXPECT_FALSE(ParseSchemaText("categorical c x\n").ok());   // non-integer
  EXPECT_FALSE(ParseSchemaText("widget w 1 2\n").ok());      // unknown kind
  EXPECT_FALSE(ParseSchemaText("numeric x 0 1 extra\n").ok());
}

TEST(ParseSchemaTextTest, ErrorsNameTheLine) {
  auto result = ParseSchemaText("numeric x 0 1\nwidget w 1\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 2"), std::string::npos);
}

TEST(ParseSchemaTextTest, ValidatesThroughSchemaCreate) {
  // Structural validation (duplicate names, bad bounds) still applies.
  EXPECT_FALSE(ParseSchemaText("numeric x 0 1\nnumeric x 0 1\n").ok());
  EXPECT_FALSE(ParseSchemaText("numeric x 1 0\n").ok());
  EXPECT_FALSE(ParseSchemaText("categorical c 1\n").ok());
}

TEST(SchemaTextRoundTripTest, CensusSchemasRoundTrip) {
  auto census = MakeBrazilCensus(1, 1);
  ASSERT_TRUE(census.ok());
  const Schema& original = census.value().schema();
  auto parsed = ParseSchemaText(FormatSchemaText(original));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().Equals(original));
}

TEST(SchemaFileTest, WriteAndReadBack) {
  // Unique per process and test: ctest -j runs cases concurrently.
  const std::string path = ::testing::TempDir() + "/ldp_schema_test_" +
                           std::to_string(::getpid()) + "_" +
                           ::testing::UnitTest::GetInstance()
                               ->current_test_info()
                               ->name() +
                           ".schema";
  auto census = MakeMexicoCensus(1, 1);
  ASSERT_TRUE(census.ok());
  ASSERT_TRUE(WriteSchemaFile(census.value().schema(), path).ok());
  auto loaded = ReadSchemaFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.value().Equals(census.value().schema()));
  std::remove(path.c_str());
}

TEST(SchemaFileTest, MissingFileFails) {
  EXPECT_FALSE(ReadSchemaFile("/nonexistent_dir_xyz/file.schema").ok());
}

}  // namespace
}  // namespace ldp::data
