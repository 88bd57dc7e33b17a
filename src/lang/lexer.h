#ifndef HERMES_LANG_LEXER_H_
#define HERMES_LANG_LEXER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "lang/token.h"

namespace hermes::lang {

/// Tokenizes mediator-language text.
///
/// Conventions:
///  - `%` and `//` start line comments.
///  - Identifiers beginning with a lowercase letter are constant symbols;
///    identifiers beginning with an uppercase letter, `_`, or `$` are
///    variables. `$b` is the special bound-pattern token.
///  - A variable immediately followed by `.attr` or `.3` (no whitespace)
///    lexes as a single variable token carrying the attribute path, which
///    keeps the clause-terminating dot unambiguous.
///  - Characters are classified as ASCII, independent of the C locale.
///  - An integer literal must fit int64_t, and a floating literal must
///    neither overflow a double nor underflow to zero; otherwise lexing
///    fails with a ParseError at the literal.
class Lexer {
 public:
  /// Views `text`, which must outlive the lexer; tokens own their text.
  explicit Lexer(std::string_view text) : text_(text) {}

  /// Lexes the entire input in one pass. On success the final token is
  /// kEnd.
  Result<std::vector<Token>> Tokenize();

 private:
  char Peek(size_t ahead = 0) const {
    return pos_ + ahead < text_.size() ? text_[pos_ + ahead] : '\0';
  }
  int Column(size_t pos) const {
    return static_cast<int>(pos - line_start_) + 1;
  }
  /// Starts a new line after the '\n' at offset `newline`.
  void NewLineAt(size_t newline);
  void SkipWhitespaceAndComments();
  Status LexOne(Token* t);
  Status LexNumber(Token* t);
  Status LexString(Token* t);
  Status LexWord(Token* t);
  /// A ParseError at the current position.
  Status ErrorHere(const std::string& message) const;

  std::string_view text_;
  size_t pos_ = 0;
  int line_ = 1;
  size_t line_start_ = 0;  ///< Offset of the first character of line_.
};

}  // namespace hermes::lang

#endif  // HERMES_LANG_LEXER_H_
