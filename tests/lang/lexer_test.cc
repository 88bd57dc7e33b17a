#include "lang/lexer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

namespace hermes::lang {
namespace {

std::vector<Token> MustLex(const std::string& text) {
  Lexer lexer(text);
  Result<std::vector<Token>> tokens = lexer.Tokenize();
  EXPECT_TRUE(tokens.ok()) << tokens.status();
  return tokens.ok() ? *tokens : std::vector<Token>{};
}

TEST(LexerTest, EmptyInputYieldsEnd) {
  std::vector<Token> t = MustLex("");
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0].kind, TokenKind::kEnd);
}

TEST(LexerTest, LowercaseIdentifierIsConstantSymbol) {
  std::vector<Token> t = MustLex("rupert");
  EXPECT_EQ(t[0].kind, TokenKind::kIdent);
  EXPECT_EQ(t[0].text, "rupert");
}

TEST(LexerTest, UppercaseAndUnderscoreAreVariables) {
  EXPECT_EQ(MustLex("From")[0].kind, TokenKind::kVariable);
  EXPECT_EQ(MustLex("_x")[0].kind, TokenKind::kVariable);
  EXPECT_EQ(MustLex("$ans")[0].kind, TokenKind::kVariable);
}

TEST(LexerTest, DollarBIsItsOwnToken) {
  EXPECT_EQ(MustLex("$b")[0].kind, TokenKind::kDollarB);
}

TEST(LexerTest, VariableAttributePathIsLexedIntoTheToken) {
  std::vector<Token> t = MustLex("$ans.1.name");
  ASSERT_EQ(t[0].kind, TokenKind::kVariable);
  EXPECT_EQ(t[0].text, "$ans");
  EXPECT_EQ(t[0].path, (std::vector<std::string>{"1", "name"}));
}

TEST(LexerTest, ClauseTerminatorDotIsSeparateFromPath) {
  // "q(B,C)." — the final dot must be a kDot token, not a path step.
  std::vector<Token> t = MustLex("q(B,C).");
  ASSERT_GE(t.size(), 8u);
  EXPECT_EQ(t[4].kind, TokenKind::kVariable);
  EXPECT_TRUE(t[4].path.empty());
  EXPECT_EQ(t[5].kind, TokenKind::kRParen);
  EXPECT_EQ(t[6].kind, TokenKind::kDot);
}

TEST(LexerTest, VariableDotFollowedByIdentIsPath) {
  std::vector<Token> t = MustLex("P.name = A");
  EXPECT_EQ(t[0].kind, TokenKind::kVariable);
  EXPECT_EQ(t[0].path, (std::vector<std::string>{"name"}));
  EXPECT_EQ(t[1].kind, TokenKind::kEq);
}

TEST(LexerTest, IntAndDoubleLiterals) {
  std::vector<Token> t = MustLex("42 -7 2.5 1e3 -1.5e-2");
  EXPECT_EQ(t[0].kind, TokenKind::kInt);
  EXPECT_EQ(t[0].int_value, 42);
  EXPECT_EQ(t[1].kind, TokenKind::kInt);
  EXPECT_EQ(t[1].int_value, -7);
  EXPECT_EQ(t[2].kind, TokenKind::kDouble);
  EXPECT_EQ(t[2].double_value, 2.5);
  EXPECT_EQ(t[3].kind, TokenKind::kDouble);
  EXPECT_EQ(t[3].double_value, 1000.0);
  EXPECT_EQ(t[4].kind, TokenKind::kDouble);
  EXPECT_DOUBLE_EQ(t[4].double_value, -0.015);
}

TEST(LexerTest, Int64AndDoubleExtremesLex) {
  std::vector<Token> t = MustLex(
      "9223372036854775807 -9223372036854775808 1.7976931348623157e308 "
      "4.9e-324");
  EXPECT_EQ(t[0].int_value, INT64_MAX);
  EXPECT_EQ(t[1].int_value, INT64_MIN);
  EXPECT_EQ(t[2].double_value, 1.7976931348623157e308);
  // The smallest subnormal is in range: only underflow to zero is not.
  EXPECT_EQ(t[3].double_value, 4.9e-324);
}

TEST(LexerTest, OutOfRangeNumbersAreParseErrorsAtTheLiteral) {
  const std::pair<const char*, const char*> cases[] = {
      {"p(99999999999999999999)",
       "numeric literal '99999999999999999999' is out of range at line 1, "
       "column 3"},
      {"p(-9223372036854775809)",
       "numeric literal '-9223372036854775809' is out of range at line 1, "
       "column 3"},
      {"p(1e999)", "numeric literal '1e999' is out of range at line 1, column 3"},
      {"p(1,\n  -2.5e-400)",
       "numeric literal '-2.5e-400' is out of range at line 2, column 3"},
  };
  for (const auto& [text, message] : cases) {
    Lexer lexer(text);
    Status s = lexer.Tokenize().status();
    ASSERT_TRUE(s.IsParseError()) << text;
    EXPECT_EQ(s.message(), message);
  }
}

TEST(LexerTest, NumberFollowedByClauseDot) {
  // "f(142)." — 142 then ')' then '.'
  std::vector<Token> t = MustLex("f(142).");
  EXPECT_EQ(t[2].kind, TokenKind::kInt);
  EXPECT_EQ(t[3].kind, TokenKind::kRParen);
  EXPECT_EQ(t[4].kind, TokenKind::kDot);
}

TEST(LexerTest, SingleAndDoubleQuotedStrings) {
  std::vector<Token> t = MustLex("'h-22 fuel' \"rope\"");
  EXPECT_EQ(t[0].kind, TokenKind::kString);
  EXPECT_EQ(t[0].text, "h-22 fuel");
  EXPECT_EQ(t[1].kind, TokenKind::kString);
  EXPECT_EQ(t[1].text, "rope");
}

TEST(LexerTest, StringEscapes) {
  std::vector<Token> t = MustLex(R"('it\'s\n')");
  EXPECT_EQ(t[0].text, "it's\n");
}

TEST(LexerTest, UnterminatedStringIsParseError) {
  Lexer lexer("'oops");
  EXPECT_TRUE(lexer.Tokenize().status().IsParseError());
}

TEST(LexerTest, OperatorsAndPunctuation) {
  std::vector<Token> t = MustLex(":- ?- => = == != <> < <= > >= & , ( ) [ ] :");
  std::vector<TokenKind> kinds;
  for (const Token& tok : t) kinds.push_back(tok.kind);
  EXPECT_EQ(kinds, (std::vector<TokenKind>{
                       TokenKind::kIf, TokenKind::kQuery, TokenKind::kImplies,
                       TokenKind::kEq, TokenKind::kEq, TokenKind::kNeq,
                       TokenKind::kNeq, TokenKind::kLt, TokenKind::kLe,
                       TokenKind::kGt, TokenKind::kGe, TokenKind::kAmp,
                       TokenKind::kComma, TokenKind::kLParen,
                       TokenKind::kRParen, TokenKind::kLBracket,
                       TokenKind::kRBracket, TokenKind::kColon,
                       TokenKind::kEnd}));
}

TEST(LexerTest, CommentsAreSkipped) {
  std::vector<Token> t = MustLex(
      "% a comment line\n"
      "foo // trailing comment\n"
      "bar");
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0].text, "foo");
  EXPECT_EQ(t[1].text, "bar");
}

TEST(LexerTest, TracksLineAndColumn) {
  std::vector<Token> t = MustLex("a\n  b");
  EXPECT_EQ(t[0].line, 1);
  EXPECT_EQ(t[0].column, 1);
  EXPECT_EQ(t[1].line, 2);
  EXPECT_EQ(t[1].column, 3);
}

TEST(LexerTest, UnexpectedCharacterReportsPosition) {
  Lexer lexer("foo @");
  Status s = lexer.Tokenize().status();
  ASSERT_TRUE(s.IsParseError());
  EXPECT_NE(s.message().find("line 1"), std::string::npos);
}

TEST(LexerTest, LoneDollarIsError) {
  Lexer lexer("$ x");
  EXPECT_TRUE(lexer.Tokenize().status().IsParseError());
}

TEST(LexerTest, EmptyAttributePathStepReportsPosition) {
  Lexer lexer("p(X.$y)");
  Status s = lexer.Tokenize().status();
  ASSERT_TRUE(s.IsParseError());
  EXPECT_EQ(s.message(), "empty attribute path step at line 1, column 5");
}

}  // namespace
}  // namespace hermes::lang
