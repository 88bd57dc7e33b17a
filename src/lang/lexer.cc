#include "lang/lexer.h"

#include <algorithm>
#include <charconv>

namespace hermes::lang {

namespace {

bool IsDigit(char c) { return c >= '0' && c <= '9'; }
bool IsUpper(char c) { return c >= 'A' && c <= 'Z'; }
bool IsAlpha(char c) { return (c >= 'a' && c <= 'z') || IsUpper(c); }
// ' ', '\t', '\n', '\v', '\f' and '\r'.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

bool IsIdentStart(char c) { return IsAlpha(c) || c == '_' || c == '$'; }

bool IsIdentChar(char c) { return IsAlpha(c) || IsDigit(c) || c == '_'; }

Status ErrorAt(int line, int column, const std::string& message) {
  return Status::ParseError(message + " at line " + std::to_string(line) +
                            ", column " + std::to_string(column));
}

}  // namespace

void Lexer::NewLineAt(size_t newline) {
  ++line_;
  line_start_ = newline + 1;
}

void Lexer::SkipWhitespaceAndComments() {
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (IsSpace(c)) {
      if (c == '\n') NewLineAt(pos_);
      ++pos_;
    } else if (c == '%' || (c == '/' && Peek(1) == '/')) {
      pos_ = std::min(text_.find('\n', pos_), text_.size());
    } else {
      break;
    }
  }
}

Status Lexer::ErrorHere(const std::string& message) const {
  return ErrorAt(line_, Column(pos_), message);
}

Result<std::vector<Token>> Lexer::Tokenize() {
  std::vector<Token> out;
  // Every token spans at least one character, and queries average two to
  // three characters a token, so this rarely regrows.
  out.reserve(text_.size() / 2 + 2);
  while (true) {
    SkipWhitespaceAndComments();
    Token& t = out.emplace_back();
    t.line = line_;
    t.column = Column(pos_);
    if (pos_ >= text_.size()) {
      t.kind = TokenKind::kEnd;
      return out;
    }
    HERMES_RETURN_IF_ERROR(LexOne(&t));
  }
}

Status Lexer::LexOne(Token* t) {
  const char c = text_[pos_];
  if (IsDigit(c) || (c == '-' && IsDigit(Peek(1)))) return LexNumber(t);
  if (c == '\'' || c == '"') return LexString(t);
  if (IsIdentStart(c)) return LexWord(t);

  ++pos_;
  // Consumes the second character of a two-character operator.
  auto followed_by = [this](char second) {
    if (Peek() != second) return false;
    ++pos_;
    return true;
  };
  switch (c) {
    case '(': t->kind = TokenKind::kLParen; break;
    case ')': t->kind = TokenKind::kRParen; break;
    case '[': t->kind = TokenKind::kLBracket; break;
    case ']': t->kind = TokenKind::kRBracket; break;
    case ',': t->kind = TokenKind::kComma; break;
    case '.': t->kind = TokenKind::kDot; break;
    case '&': t->kind = TokenKind::kAmp; break;
    case ':':
      t->kind = followed_by('-') ? TokenKind::kIf : TokenKind::kColon;
      break;
    case '?':
      if (!followed_by('-')) return ErrorHere("unexpected '?'");
      t->kind = TokenKind::kQuery;
      break;
    case '=':
      if (followed_by('>')) {
        t->kind = TokenKind::kImplies;
      } else {
        followed_by('=');  // '==' is accepted as '='.
        t->kind = TokenKind::kEq;
      }
      break;
    case '!':
      if (!followed_by('=')) return ErrorHere("unexpected '!'");
      t->kind = TokenKind::kNeq;
      break;
    case '<':
      t->kind = followed_by('=')   ? TokenKind::kLe
                : followed_by('>') ? TokenKind::kNeq
                                   : TokenKind::kLt;
      break;
    case '>':
      t->kind = followed_by('=') ? TokenKind::kGe : TokenKind::kGt;
      break;
    default:
      return ErrorHere(std::string("unexpected character '") + c + "'");
  }
  return Status::OK();
}

Status Lexer::LexNumber(Token* t) {
  const size_t start = pos_;
  auto skip_digits = [this] {
    while (IsDigit(Peek())) ++pos_;
  };
  if (Peek() == '-') ++pos_;
  skip_digits();
  bool is_double = false;
  // A '.' continues the number only when followed by a digit; otherwise it
  // is the clause terminator.
  if (Peek() == '.' && IsDigit(Peek(1))) {
    is_double = true;
    ++pos_;
    skip_digits();
  }
  if (Peek() == 'e' || Peek() == 'E') {
    const size_t sign = (Peek(1) == '+' || Peek(1) == '-') ? 1 : 0;
    if (IsDigit(Peek(1 + sign))) {
      is_double = true;
      pos_ += 1 + sign;
      skip_digits();
    }
  }
  const char* first = text_.data() + start;
  const char* last = text_.data() + pos_;
  t->text.assign(first, last);
  std::from_chars_result parsed;
  if (is_double) {
    t->kind = TokenKind::kDouble;
    parsed = std::from_chars(first, last, t->double_value);
  } else {
    t->kind = TokenKind::kInt;
    parsed = std::from_chars(first, last, t->int_value);
  }
  if (parsed.ec != std::errc() || parsed.ptr != last) {
    return ErrorAt(t->line, t->column,
                   "numeric literal '" + t->text + "' is out of range");
  }
  return Status::OK();
}

Status Lexer::LexString(Token* t) {
  t->kind = TokenKind::kString;
  const char quote = text_[pos_++];
  size_t run = pos_;  // First character not yet copied into t->text.
  while (true) {
    if (pos_ >= text_.size()) return ErrorHere("unterminated string literal");
    const char c = text_[pos_];
    if (c == quote) break;
    if (c == '\\' && pos_ + 1 < text_.size()) {
      t->text.append(text_.data() + run, pos_ - run);
      const char esc = text_[pos_ + 1];
      switch (esc) {
        case 'n': t->text += '\n'; break;
        case 't': t->text += '\t'; break;
        default: t->text += esc; break;
      }
      if (esc == '\n') NewLineAt(pos_ + 1);
      pos_ += 2;
      run = pos_;
      continue;
    }
    if (c == '\n') NewLineAt(pos_);
    ++pos_;
  }
  t->text.append(text_.data() + run, pos_ - run);
  ++pos_;  // closing quote
  return Status::OK();
}

Status Lexer::LexWord(Token* t) {
  const size_t start = pos_++;  // ident start (may be '$')
  while (IsIdentChar(Peek())) ++pos_;
  const std::string_view word = text_.substr(start, pos_ - start);

  if (word == "$b") {
    t->kind = TokenKind::kDollarB;
    return Status::OK();
  }
  if (word == "$") return ErrorHere("'$' must begin a variable name");

  const char first = word[0];
  const bool variable = IsUpper(first) || first == '_' || first == '$';
  t->kind = variable ? TokenKind::kVariable : TokenKind::kIdent;
  t->text.assign(word);
  if (!variable) return Status::OK();

  // Attribute path: Var.attr, Var.2, $ans.1.name — consumed only when the
  // dot is immediately adjacent and followed by an identifier or number.
  // A digit-led step could be the start of a new numeric token after a
  // clause terminator only if preceded by whitespace; adjacency rules this
  // out here.
  while (Peek() == '.' && (IsIdentStart(Peek(1)) || IsDigit(Peek(1)))) {
    const size_t step = ++pos_;  // past the '.'
    while (IsIdentChar(Peek())) ++pos_;
    if (pos_ == step) return ErrorHere("empty attribute path step");
    t->path.emplace_back(text_.substr(step, pos_ - step));
  }
  return Status::OK();
}

}  // namespace hermes::lang
