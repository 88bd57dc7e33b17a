#include "lang/parser.h"

#include "lang/lexer.h"

namespace hermes::lang {

const Token& Parser::Peek(size_t ahead) const {
  size_t i = pos_ + ahead;
  if (i >= tokens_.size()) i = tokens_.size() - 1;  // final kEnd token
  return tokens_[i];
}

Token& Parser::Advance() {
  Token& t = tokens_[pos_];
  if (pos_ + 1 < tokens_.size()) ++pos_;
  return t;
}

bool Parser::Match(TokenKind kind) {
  if (Check(kind)) {
    Advance();
    return true;
  }
  return false;
}

Status Parser::Expect(TokenKind kind, const char* context) {
  if (Match(kind)) return Status::OK();
  return ErrorAt(Peek(), std::string("expected ") + TokenKindName(kind) +
                             " " + context + ", found " + Peek().Describe());
}

Status Parser::ErrorAt(const Token& token, const std::string& message) const {
  return Status::ParseError(message + " (line " + std::to_string(token.line) +
                            ", column " + std::to_string(token.column) + ")");
}

bool Parser::IsRelOpToken(TokenKind kind) {
  switch (kind) {
    case TokenKind::kEq:
    case TokenKind::kNeq:
    case TokenKind::kLt:
    case TokenKind::kLe:
    case TokenKind::kGt:
    case TokenKind::kGe:
      return true;
    default:
      return false;
  }
}

RelOp Parser::RelOpFromToken(TokenKind kind) {
  switch (kind) {
    case TokenKind::kEq: return RelOp::kEq;
    case TokenKind::kNeq: return RelOp::kNeq;
    case TokenKind::kLt: return RelOp::kLt;
    case TokenKind::kLe: return RelOp::kLe;
    case TokenKind::kGt: return RelOp::kGt;
    default: return RelOp::kGe;
  }
}

Status Parser::ParseTerm(Term* term) {
  const Token& t = Peek();
  switch (t.kind) {
    case TokenKind::kInt:
      term->constant = Value::Int(Advance().int_value);
      return Status::OK();
    case TokenKind::kDouble:
      term->constant = Value::Double(Advance().double_value);
      return Status::OK();
    case TokenKind::kString:
      term->constant = Value::Str(std::move(Advance().text));
      return Status::OK();
    case TokenKind::kIdent: {
      std::string& name = Advance().text;
      if (name == "true") {
        term->constant = Value::Bool(true);
      } else if (name == "false") {
        term->constant = Value::Bool(false);
      } else if (name == "null") {
        term->constant = Value::Null();
      } else {
        term->constant = Value::Str(std::move(name));
      }
      return Status::OK();
    }
    case TokenKind::kVariable: {
      Token& var = Advance();
      term->kind = Term::Kind::kVariable;
      term->var_name = std::move(var.text);
      term->path = std::move(var.path);
      return Status::OK();
    }
    case TokenKind::kDollarB:
      Advance();
      term->kind = Term::Kind::kBoundPattern;
      return Status::OK();
    case TokenKind::kLBracket: {
      const Token& open = Advance();
      ValueList items;
      if (!Check(TokenKind::kRBracket)) {
        do {
          Term item;
          HERMES_RETURN_IF_ERROR(ParseTerm(&item));
          if (!item.is_constant()) {
            return ErrorAt(open, "list literals may contain only constants");
          }
          items.push_back(std::move(item.constant));
        } while (Match(TokenKind::kComma));
      }
      HERMES_RETURN_IF_ERROR(Expect(TokenKind::kRBracket, "to close list"));
      term->constant = Value::List(std::move(items));
      return Status::OK();
    }
    default:
      return ErrorAt(t, "expected a term, found " + t.Describe());
  }
}

size_t Parser::CountItemsAhead() const {
  size_t items = 1;
  int depth = 0;
  for (size_t i = pos_; i < tokens_.size(); ++i) {
    switch (tokens_[i].kind) {
      case TokenKind::kLParen:
      case TokenKind::kLBracket:
        ++depth;
        break;
      case TokenKind::kRParen:
      case TokenKind::kRBracket:
        if (--depth < 0) return items;
        break;
      case TokenKind::kComma:
      case TokenKind::kAmp:
        if (depth == 0) ++items;
        break;
      case TokenKind::kDot:
        if (depth == 0) return items;
        break;
      case TokenKind::kEnd:
        return items;
      default:
        break;
    }
  }
  return items;
}

Status Parser::ParseTerms(std::vector<Term>* terms) {
  terms->reserve(CountItemsAhead());
  do {
    HERMES_RETURN_IF_ERROR(ParseTerm(&terms->emplace_back()));
  } while (Match(TokenKind::kComma));
  return Status::OK();
}

Status Parser::ParseDomainCall(DomainCallSpec* spec) {
  const Token& dom = Peek();
  if (dom.kind != TokenKind::kIdent) {
    return ErrorAt(dom, "expected domain name, found " + dom.Describe());
  }
  spec->domain = std::move(Advance().text);
  HERMES_RETURN_IF_ERROR(Expect(TokenKind::kColon, "after domain name"));
  const Token& fn = Peek();
  if (fn.kind != TokenKind::kIdent) {
    return ErrorAt(fn, "expected function name, found " + fn.Describe());
  }
  spec->function = std::move(Advance().text);
  HERMES_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "after function name"));
  if (!Check(TokenKind::kRParen)) {
    HERMES_RETURN_IF_ERROR(ParseTerms(&spec->args));
  }
  return Expect(TokenKind::kRParen, "to close domain call");
}

Status Parser::ParseAtom(Atom* atom) {
  const Token& t = Peek();

  // Prefix comparison: =(X, Y), <=(X, 5), ...
  if (IsRelOpToken(t.kind) && Peek(1).kind == TokenKind::kLParen) {
    atom->kind = Atom::Kind::kComparison;
    atom->op = RelOpFromToken(t.kind);
    Advance();
    Advance();  // '('
    HERMES_RETURN_IF_ERROR(ParseTerm(&atom->lhs));
    HERMES_RETURN_IF_ERROR(Expect(TokenKind::kComma, "in comparison"));
    HERMES_RETURN_IF_ERROR(ParseTerm(&atom->rhs));
    return Expect(TokenKind::kRParen, "to close comparison");
  }

  // in(Output, domain:function(args))
  if (t.kind == TokenKind::kIdent && t.text == "in" &&
      Peek(1).kind == TokenKind::kLParen) {
    atom->kind = Atom::Kind::kDomainCall;
    Advance();
    Advance();  // '('
    HERMES_RETURN_IF_ERROR(ParseTerm(&atom->output));
    HERMES_RETURN_IF_ERROR(Expect(TokenKind::kComma, "after in() output term"));
    HERMES_RETURN_IF_ERROR(ParseDomainCall(&atom->call));
    return Expect(TokenKind::kRParen, "to close in()");
  }

  // Predicate atom: ident(...) or bare ident.
  if (t.kind == TokenKind::kIdent) {
    atom->kind = Atom::Kind::kPredicate;
    atom->predicate = std::move(Advance().text);
    if (!Match(TokenKind::kLParen)) return Status::OK();
    if (!Check(TokenKind::kRParen)) {
      HERMES_RETURN_IF_ERROR(ParseTerms(&atom->args));
    }
    return Expect(TokenKind::kRParen, "to close predicate");
  }

  // Infix comparison: Term relop Term.
  atom->kind = Atom::Kind::kComparison;
  HERMES_RETURN_IF_ERROR(ParseTerm(&atom->lhs));
  const Token& op_tok = Peek();
  if (!IsRelOpToken(op_tok.kind)) {
    return ErrorAt(op_tok,
                   "expected comparison operator, found " + op_tok.Describe());
  }
  atom->op = RelOpFromToken(op_tok.kind);
  Advance();
  return ParseTerm(&atom->rhs);
}

Status Parser::ParseHeadAtom(Atom* atom) {
  const Token& t = Peek();
  if (t.kind != TokenKind::kIdent) {
    return ErrorAt(t, "expected predicate name, found " + t.Describe());
  }
  HERMES_RETURN_IF_ERROR(ParseAtom(atom));
  if (!atom->is_predicate()) {
    return ErrorAt(t, "rule head must be a predicate atom");
  }
  return Status::OK();
}

Status Parser::ParseBody(std::vector<Atom>* body) {
  body->reserve(CountItemsAhead());
  do {
    HERMES_RETURN_IF_ERROR(ParseAtom(&body->emplace_back()));
  } while (Match(TokenKind::kAmp) || Match(TokenKind::kComma));
  return Status::OK();
}

Status Parser::ParseRuleInternal(Rule* rule) {
  HERMES_RETURN_IF_ERROR(ParseHeadAtom(&rule->head));
  if (Match(TokenKind::kIf)) {
    HERMES_RETURN_IF_ERROR(ParseBody(&rule->body));
  }
  return Expect(TokenKind::kDot, "to end rule");
}

Status Parser::ParseInvariantInternal(Invariant* inv) {
  if (!Match(TokenKind::kImplies)) {
    // Parse conditions up to '=>'.
    do {
      Atom& cond = inv->conditions.emplace_back();
      HERMES_RETURN_IF_ERROR(ParseAtom(&cond));
      if (!cond.is_comparison()) {
        return Status::ParseError(
            "invariant conditions must be comparison atoms, got '" +
            cond.ToString() + "'");
      }
    } while (Match(TokenKind::kAmp) || Match(TokenKind::kComma));
    HERMES_RETURN_IF_ERROR(Expect(TokenKind::kImplies, "after conditions"));
  }
  HERMES_RETURN_IF_ERROR(ParseDomainCall(&inv->lhs));
  const Token& rel = Peek();
  switch (rel.kind) {
    case TokenKind::kEq:
      inv->relation = InvariantRelation::kEqual;
      break;
    case TokenKind::kGe:
      inv->relation = InvariantRelation::kSuperset;
      break;
    case TokenKind::kLe:
      inv->relation = InvariantRelation::kSubset;
      break;
    default:
      return ErrorAt(rel, "expected invariant relation '=', '>=' or '<='");
  }
  Advance();
  HERMES_RETURN_IF_ERROR(ParseDomainCall(&inv->rhs));
  HERMES_RETURN_IF_ERROR(Expect(TokenKind::kDot, "to end invariant"));

  // Well-formedness: no free variables — every condition variable must
  // appear in one of the two domain calls (Section 4).
  auto call_has_var = [](const DomainCallSpec& call, const std::string& name) {
    for (const Term& arg : call.args) {
      if (arg.is_variable() && arg.var_name == name) return true;
    }
    return false;
  };
  for (const Atom& cond : inv->conditions) {
    for (const std::string& var : cond.Variables()) {
      if (!call_has_var(inv->lhs, var) && !call_has_var(inv->rhs, var)) {
        return Status::ParseError("invariant condition variable '" + var +
                                  "' does not appear in either domain call");
      }
    }
  }
  return Status::OK();
}

Result<Program> Parser::ParseProgram(const std::string& text) {
  Lexer lexer(text);
  HERMES_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(std::move(tokens));
  Program program;
  while (!parser.AtEnd()) {
    HERMES_RETURN_IF_ERROR(
        parser.ParseRuleInternal(&program.rules.emplace_back()));
  }
  return program;
}

Result<Rule> Parser::ParseRule(const std::string& text) {
  Lexer lexer(text);
  HERMES_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(std::move(tokens));
  Rule rule;
  HERMES_RETURN_IF_ERROR(parser.ParseRuleInternal(&rule));
  if (!parser.AtEnd()) {
    return parser.ErrorAt(parser.Peek(), "trailing input after rule");
  }
  return rule;
}

Result<Query> Parser::ParseQuery(const std::string& text) {
  Lexer lexer(text);
  HERMES_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(std::move(tokens));
  parser.Match(TokenKind::kQuery);  // optional '?-'
  Query query;
  HERMES_RETURN_IF_ERROR(parser.ParseBody(&query.goals));
  HERMES_RETURN_IF_ERROR(parser.Expect(TokenKind::kDot, "to end query"));
  if (!parser.AtEnd()) {
    return parser.ErrorAt(parser.Peek(), "trailing input after query");
  }
  return query;
}

Result<Invariant> Parser::ParseInvariant(const std::string& text) {
  Lexer lexer(text);
  HERMES_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(std::move(tokens));
  Invariant inv;
  HERMES_RETURN_IF_ERROR(parser.ParseInvariantInternal(&inv));
  if (!parser.AtEnd()) {
    return parser.ErrorAt(parser.Peek(), "trailing input after invariant");
  }
  return inv;
}

Result<std::vector<Invariant>> Parser::ParseInvariants(
    const std::string& text) {
  Lexer lexer(text);
  HERMES_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(std::move(tokens));
  std::vector<Invariant> out;
  while (!parser.AtEnd()) {
    HERMES_RETURN_IF_ERROR(parser.ParseInvariantInternal(&out.emplace_back()));
  }
  return out;
}

Result<DomainCallSpec> Parser::ParseCallPattern(const std::string& text) {
  Lexer lexer(text);
  HERMES_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(std::move(tokens));
  DomainCallSpec spec;
  HERMES_RETURN_IF_ERROR(parser.ParseDomainCall(&spec));
  parser.Match(TokenKind::kDot);  // optional terminator
  if (!parser.AtEnd()) {
    return parser.ErrorAt(parser.Peek(), "trailing input after call pattern");
  }
  for (const Term& arg : spec.args) {
    if (arg.is_variable()) {
      return Status::ParseError(
          "call patterns may not contain variables; use '$b' for bound-"
          "unknown arguments (got '" + arg.ToString() + "')");
    }
  }
  return spec;
}

}  // namespace hermes::lang
