#ifndef HERMES_LANG_PARSER_H_
#define HERMES_LANG_PARSER_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "lang/ast.h"
#include "lang/token.h"

namespace hermes::lang {

/// Recursive-descent parser for the mediator language.
///
/// Accepted syntax (see DESIGN.md and the paper's Sections 2, 4–6):
///
///   rule       := head [ ":-" body ] "."
///   body       := atom { ("&" | ",") atom }
///   atom       := "in" "(" term "," domaincall ")"
///               | relop "(" term "," term ")"          // prefix form
///               | term relop term                      // infix form
///               | ident [ "(" terms ")" ]              // predicate
///   domaincall := ident ":" ident "(" [ terms ] ")"
///   term       := number | string | ident | Variable[.path] | "$b"
///               | "[" [ constants ] "]"
///   query      := [ "?-" ] body "."
///   invariant  := [ conditions "=>" ] domaincall rel domaincall "."
///                 where rel ∈ { "=", ">=", "<=" }  (⊇ spelled ">=")
///
/// Lowercase identifiers are symbol constants; uppercase/`$`/`_`-initial
/// identifiers are variables. `%` and `//` start comments.
///
/// Every entry point lexes the whole text before parsing any of it, so a
/// lexing error anywhere wins over a parse error before it.
class Parser {
 public:
  /// Parses a whole program (zero or more rules).
  static Result<Program> ParseProgram(const std::string& text);
  /// Parses exactly one rule.
  static Result<Rule> ParseRule(const std::string& text);
  /// Parses a query; the leading `?-` is optional.
  static Result<Query> ParseQuery(const std::string& text);
  /// Parses exactly one invariant.
  static Result<Invariant> ParseInvariant(const std::string& text);
  /// Parses zero or more invariants.
  static Result<std::vector<Invariant>> ParseInvariants(const std::string& text);
  /// Parses a domain-call pattern such as `d:f(5, $b)`.
  static Result<DomainCallSpec> ParseCallPattern(const std::string& text);

 private:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  const Token& Peek(size_t ahead = 0) const;
  /// Consumes the current token. Its text and path may be moved from: no
  /// rule reads a consumed token's text again.
  Token& Advance();
  bool Check(TokenKind kind) const { return Peek().kind == kind; }
  bool Match(TokenKind kind);
  Status Expect(TokenKind kind, const char* context);
  Status ErrorAt(const Token& token, const std::string& message) const;
  bool AtEnd() const { return Peek().kind == TokenKind::kEnd; }
  /// Sizes a vector before parsing into it: one more than the ',' and '&'
  /// separators ahead at bracket depth 0, up to the first unmatched closing
  /// bracket, '.' or the end.
  size_t CountItemsAhead() const;

  // Each Parse* fills a default-constructed node that its caller has
  // already placed in the parent, so no node is built in a temporary and
  // moved.
  Status ParseRuleInternal(Rule* rule);
  Status ParseBody(std::vector<Atom>* body);
  Status ParseAtom(Atom* atom);
  Status ParseHeadAtom(Atom* atom);
  Status ParseDomainCall(DomainCallSpec* spec);
  /// Parses `term { "," term }` into `terms`.
  Status ParseTerms(std::vector<Term>* terms);
  Status ParseTerm(Term* term);
  Status ParseInvariantInternal(Invariant* inv);
  static bool IsRelOpToken(TokenKind kind);
  static RelOp RelOpFromToken(TokenKind kind);

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace hermes::lang

#endif  // HERMES_LANG_PARSER_H_
