#include "lang/ast.h"

namespace hermes::lang {

bool Term::operator==(const Term& other) const {
  if (kind != other.kind) return false;
  switch (kind) {
    case Kind::kConstant:
      return constant == other.constant;
    case Kind::kVariable:
      return var_name == other.var_name && path == other.path;
    case Kind::kBoundPattern:
      return true;
  }
  return false;
}

std::string Term::ToString() const {
  switch (kind) {
    case Kind::kConstant:
      return constant.ToString();
    case Kind::kVariable: {
      std::string out = var_name;
      for (const std::string& step : path) {
        out += ".";
        out += step;
      }
      return out;
    }
    case Kind::kBoundPattern:
      return "$b";
  }
  return "<?>";
}

const char* RelOpName(RelOp op) {
  switch (op) {
    case RelOp::kEq: return "=";
    case RelOp::kNeq: return "!=";
    case RelOp::kLt: return "<";
    case RelOp::kLe: return "<=";
    case RelOp::kGt: return ">";
    case RelOp::kGe: return ">=";
  }
  return "?";
}

RelOp FlipRelOp(RelOp op) {
  switch (op) {
    case RelOp::kEq: return RelOp::kEq;
    case RelOp::kNeq: return RelOp::kNeq;
    case RelOp::kLt: return RelOp::kGt;
    case RelOp::kLe: return RelOp::kGe;
    case RelOp::kGt: return RelOp::kLt;
    case RelOp::kGe: return RelOp::kLe;
  }
  return op;
}

bool EvalRelOp(RelOp op, const Value& lhs, const Value& rhs) {
  int c = lhs.Compare(rhs);
  switch (op) {
    case RelOp::kEq: return c == 0;
    case RelOp::kNeq: return c != 0;
    case RelOp::kLt: return c < 0;
    case RelOp::kLe: return c <= 0;
    case RelOp::kGt: return c > 0;
    case RelOp::kGe: return c >= 0;
  }
  return false;
}

bool DomainCallSpec::is_ground() const {
  for (const Term& arg : args) {
    if (!arg.is_constant()) return false;
  }
  return true;
}

bool DomainCallSpec::operator==(const DomainCallSpec& other) const {
  return domain == other.domain && function == other.function &&
         args == other.args;
}

std::string DomainCallSpec::ToString() const {
  std::string out = domain;
  out += ":";
  out += function;
  out += "(";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out += ", ";
    out += args[i].ToString();
  }
  out += ")";
  return out;
}

Atom Atom::Predicate(std::string name, std::vector<Term> args) {
  Atom a;
  a.kind = Kind::kPredicate;
  a.predicate = std::move(name);
  a.args = std::move(args);
  return a;
}

Atom Atom::DomainCall(Term output, DomainCallSpec call) {
  Atom a;
  a.kind = Kind::kDomainCall;
  a.output = std::move(output);
  a.call = std::move(call);
  return a;
}

Atom Atom::Comparison(RelOp op, Term lhs, Term rhs) {
  Atom a;
  a.kind = Kind::kComparison;
  a.op = op;
  a.lhs = std::move(lhs);
  a.rhs = std::move(rhs);
  return a;
}

std::vector<std::string> Atom::Variables() const {
  std::vector<std::string> out;
  auto add = [&out](const Term& t) {
    if (t.is_variable()) {
      for (const std::string& existing : out) {
        if (existing == t.var_name) return;
      }
      out.push_back(t.var_name);
    }
  };
  switch (kind) {
    case Kind::kPredicate:
      for (const Term& t : args) add(t);
      break;
    case Kind::kDomainCall:
      add(output);
      for (const Term& t : call.args) add(t);
      break;
    case Kind::kComparison:
      add(lhs);
      add(rhs);
      break;
  }
  return out;
}

std::string Atom::ToString() const {
  switch (kind) {
    case Kind::kPredicate: {
      std::string out = predicate;
      if (!args.empty()) {
        out += "(";
        for (size_t i = 0; i < args.size(); ++i) {
          if (i > 0) out += ", ";
          out += args[i].ToString();
        }
        out += ")";
      } else if (predicate != "in") {
        // `in(` always opens a domain call, so a bare `in` stays bare.
        out += "()";
      }
      return out;
    }
    case Kind::kDomainCall:
      return "in(" + output.ToString() + ", " + call.ToString() + ")";
    case Kind::kComparison:
      // `true`, `false` and `null` lex as identifiers: leading an infix
      // comparison they would reparse as a predicate, so use prefix form.
      if (lhs.is_constant() &&
          (lhs.constant.is_bool() || lhs.constant.is_null())) {
        return std::string(RelOpName(op)) + "(" + lhs.ToString() + ", " +
               rhs.ToString() + ")";
      }
      return lhs.ToString() + " " + RelOpName(op) + " " + rhs.ToString();
  }
  return "<?>";
}

std::string Rule::ToString() const {
  std::string out = head.ToString();
  if (!body.empty()) {
    out += " :- ";
    for (size_t i = 0; i < body.size(); ++i) {
      if (i > 0) out += " & ";
      out += body[i].ToString();
    }
  }
  out += ".";
  return out;
}

std::string Query::ToString() const {
  std::string out = "?- ";
  for (size_t i = 0; i < goals.size(); ++i) {
    if (i > 0) out += " & ";
    out += goals[i].ToString();
  }
  out += ".";
  return out;
}

const char* InvariantRelationName(InvariantRelation rel) {
  switch (rel) {
    case InvariantRelation::kEqual: return "=";
    case InvariantRelation::kSuperset: return ">=";
    case InvariantRelation::kSubset: return "<=";
  }
  return "?";
}

std::string Invariant::ToString() const {
  std::string out;
  for (size_t i = 0; i < conditions.size(); ++i) {
    if (i > 0) out += " & ";
    out += conditions[i].ToString();
  }
  if (!conditions.empty()) out += " ";
  out += "=> ";
  out += lhs.ToString();
  out += " ";
  out += InvariantRelationName(relation);
  out += " ";
  out += rhs.ToString();
  out += ".";
  return out;
}

std::string Program::ToString() const {
  std::string out;
  for (const Rule& rule : rules) {
    out += rule.ToString();
    out += "\n";
  }
  return out;
}

}  // namespace hermes::lang
