#include "sql/lexer.h"

#include <gtest/gtest.h>

namespace skinner {
namespace {

std::vector<Token> MustLex(const std::string& sql) {
  auto r = Lex(sql);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.MoveValue();
}

TEST(LexerTest, IdentifiersAndKeywords) {
  auto toks = MustLex("SELECT foo FROM Bar_9");
  ASSERT_EQ(toks.size(), 5u);  // + end
  EXPECT_TRUE(toks[0].Is("select"));
  EXPECT_TRUE(toks[0].Is("SELECT"));
  EXPECT_EQ(toks[1].text, "foo");
  EXPECT_TRUE(toks[2].Is("from"));
  EXPECT_EQ(toks[3].text, "Bar_9");
  EXPECT_EQ(toks[4].type, TokenType::kEnd);
}

TEST(LexerTest, RejectsOutOfRangeIntegerLiterals) {
  auto max = MustLex("9223372036854775807");
  EXPECT_EQ(max[0].int_val, INT64_MAX);

  auto over = Lex("SELECT 9223372036854775808");
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kParseError);
  EXPECT_FALSE(Lex("99999999999999999999999").ok());
}

TEST(LexerTest, IntegerAndDoubleLiterals) {
  auto toks = MustLex("1 42 3.14 .5 1e3 2.5E-2");
  EXPECT_EQ(toks[0].type, TokenType::kInt);
  EXPECT_EQ(toks[0].int_val, 1);
  EXPECT_EQ(toks[1].int_val, 42);
  EXPECT_EQ(toks[2].type, TokenType::kDouble);
  EXPECT_DOUBLE_EQ(toks[2].double_val, 3.14);
  EXPECT_DOUBLE_EQ(toks[3].double_val, 0.5);
  EXPECT_DOUBLE_EQ(toks[4].double_val, 1000.0);
  EXPECT_DOUBLE_EQ(toks[5].double_val, 0.025);
}

TEST(LexerTest, StringLiteralsWithEscapes) {
  auto toks = MustLex("'hello' 'it''s'");
  EXPECT_EQ(toks[0].type, TokenType::kString);
  EXPECT_EQ(toks[0].text, "hello");
  EXPECT_EQ(toks[1].text, "it's");
}

TEST(LexerTest, UnterminatedStringIsError) {
  EXPECT_FALSE(Lex("'oops").ok());
}

TEST(LexerTest, Symbols) {
  auto toks = MustLex("<= >= <> != < > = ( ) , . + - * / % ;");
  const char* expect[] = {"<=", ">=", "<>", "!=", "<", ">", "=", "(", ")",
                          ",", ".", "+", "-", "*", "/", "%", ";"};
  for (size_t i = 0; i < 17; ++i) {
    EXPECT_EQ(toks[i].type, TokenType::kSymbol);
    EXPECT_EQ(toks[i].text, expect[i]);
  }
}

TEST(LexerTest, CommentsSkipped) {
  auto toks = MustLex("SELECT -- this is a comment\n 1");
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_TRUE(toks[0].Is("select"));
  EXPECT_EQ(toks[1].int_val, 1);
}

TEST(LexerTest, UnexpectedCharacterIsError) {
  EXPECT_FALSE(Lex("SELECT #").ok());
  EXPECT_FALSE(Lex("@x").ok());
}

TEST(LexerTest, PositionsRecorded) {
  auto toks = MustLex("ab cd");
  EXPECT_EQ(toks[0].pos, 0u);
  EXPECT_EQ(toks[1].pos, 3u);
}

TEST(LexerTest, EmptyInput) {
  auto toks = MustLex("   \n\t ");
  ASSERT_EQ(toks.size(), 1u);
  EXPECT_EQ(toks[0].type, TokenType::kEnd);
}

}  // namespace
}  // namespace skinner
