// util/json_reader tests: value grammar, document-order object members,
// escape handling, duplicate-key rejection, and byte-offset error reporting.

#include "util/json_reader.h"

#include <string>

#include <gtest/gtest.h>

namespace vastats {
namespace {

TEST(JsonReaderTest, ParsesScalars) {
  const auto null_value = ParseJson("null");
  ASSERT_TRUE(null_value.ok());
  EXPECT_TRUE(null_value->is_null());

  const auto true_value = ParseJson("true");
  ASSERT_TRUE(true_value.ok());
  ASSERT_TRUE(true_value->is_bool());
  EXPECT_TRUE(true_value->bool_value);

  const auto false_value = ParseJson("  false  ");
  ASSERT_TRUE(false_value.ok());
  ASSERT_TRUE(false_value->is_bool());
  EXPECT_FALSE(false_value->bool_value);

  const auto number = ParseJson("-12.5e2");
  ASSERT_TRUE(number.ok());
  ASSERT_TRUE(number->is_number());
  EXPECT_DOUBLE_EQ(number->number_value, -1250.0);

  const auto string = ParseJson("\"micro_pipeline\"");
  ASSERT_TRUE(string.ok());
  ASSERT_TRUE(string->is_string());
  EXPECT_EQ(string->string_value, "micro_pipeline");
}

TEST(JsonReaderTest, ParsesNestedStructuresInDocumentOrder) {
  const auto doc = ParseJson(
      "{\"schema_version\":1,\"phases\":{\"sampling\":0.25,\"kde\":0.5},"
      "\"modes\":[\"serial\",\"pool\"],\"flags\":[true,null]}");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_TRUE(doc->is_object());
  ASSERT_EQ(doc->members.size(), 4u);
  // Members keep document order, so a walk over them is deterministic.
  EXPECT_EQ(doc->members[0].first, "schema_version");
  EXPECT_EQ(doc->members[1].first, "phases");
  EXPECT_EQ(doc->members[2].first, "modes");
  EXPECT_EQ(doc->members[3].first, "flags");

  const JsonValue* phases = doc->FindObject("phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_NE(phases->FindNumber("kde"), nullptr);
  EXPECT_DOUBLE_EQ(phases->FindNumber("kde")->number_value, 0.5);
  const JsonValue* modes = doc->FindArray("modes");
  ASSERT_NE(modes, nullptr);
  ASSERT_EQ(modes->items.size(), 2u);
  EXPECT_EQ(modes->items[1].string_value, "pool");
  const JsonValue* flags = doc->FindArray("flags");
  ASSERT_NE(flags, nullptr);
  EXPECT_TRUE(flags->items[0].is_bool());
  EXPECT_TRUE(flags->items[1].is_null());
}

TEST(JsonReaderTest, FindFiltersByKind) {
  const auto doc = ParseJson("{\"name\":\"kde\",\"count\":3}");
  ASSERT_TRUE(doc.ok());
  EXPECT_NE(doc->Find("name"), nullptr);
  EXPECT_EQ(doc->Find("missing"), nullptr);
  EXPECT_NE(doc->FindString("name"), nullptr);
  EXPECT_EQ(doc->FindNumber("name"), nullptr);  // kind mismatch
  EXPECT_NE(doc->FindNumber("count"), nullptr);
  EXPECT_EQ(doc->FindArray("count"), nullptr);
  // Find on a non-object is a quiet nullptr, not an error.
  const auto number = ParseJson("7");
  ASSERT_TRUE(number.ok());
  EXPECT_EQ(number->Find("anything"), nullptr);
}

TEST(JsonReaderTest, DecodesEscapes) {
  const auto doc = ParseJson(R"("tab\there \"quoted\" \\ slash\/ \u0041")");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->string_value, "tab\there \"quoted\" \\ slash/ A");
  // Multi-byte \u escapes come out as UTF-8.
  const auto unicode = ParseJson(R"("\u00e9\u20ac")");
  ASSERT_TRUE(unicode.ok());
  EXPECT_EQ(unicode->string_value, "\xc3\xa9\xe2\x82\xac");
}

TEST(JsonReaderTest, RejectsDuplicateKeys) {
  const auto doc = ParseJson("{\"seconds\":1,\"seconds\":2}");
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(doc.status().message().find("seconds"), std::string::npos);
}

TEST(JsonReaderTest, RejectsTrailingGarbageWithOffset) {
  const auto doc = ParseJson("{} extra");
  ASSERT_FALSE(doc.ok());
  // The error points at the first trailing byte.
  EXPECT_NE(doc.status().message().find("byte 3"), std::string::npos);
}

TEST(JsonReaderTest, RejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "{\"a\" 1}", "tru", "0x10", "+1",
        "\"unterminated", "\"bad escape \\q\"", "[1 2]", "{1: 2}"}) {
    const auto doc = ParseJson(bad);
    EXPECT_FALSE(doc.ok()) << "accepted malformed input: " << bad;
  }
}

TEST(JsonReaderTest, ParsesDeeplyNestedArrays) {
  std::string text;
  constexpr int kDepth = 40;
  for (int i = 0; i < kDepth; ++i) text += '[';
  text += '7';
  for (int i = 0; i < kDepth; ++i) text += ']';
  const auto doc = ParseJson(text);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* value = &*doc;
  for (int i = 0; i < kDepth; ++i) {
    ASSERT_TRUE(value->is_array());
    ASSERT_EQ(value->items.size(), 1u);
    value = &value->items[0];
  }
  EXPECT_DOUBLE_EQ(value->number_value, 7.0);
}

}  // namespace
}  // namespace vastats
