#include "domain/call.h"

namespace hermes {

Result<DomainCall> DomainCall::FromSpec(const lang::DomainCallSpec& spec) {
  DomainCall call;
  call.domain = spec.domain;
  call.function = spec.function;
  call.args.reserve(spec.args.size());
  for (const lang::Term& arg : spec.args) {
    if (!arg.is_constant()) {
      return Status::InvalidArgument(
          "domain call must be ground before execution: " + spec.ToString());
    }
    call.args.push_back(arg.constant);
  }
  return call;
}

lang::DomainCallSpec DomainCall::ToSpec() const {
  lang::DomainCallSpec spec;
  spec.domain = domain;
  spec.function = function;
  spec.args.reserve(args.size());
  for (const Value& v : args) spec.args.push_back(lang::Term::Const(v));
  return spec;
}

size_t DomainCall::Hash() const { return CallKey(*this).Hash(); }

size_t CallKey::Hash() const {
  size_t seed = std::hash<std::string_view>()(domain);
  seed ^= std::hash<std::string_view>()(function) + 0x9e3779b97f4a7c15ULL +
          (seed << 6) + (seed >> 2);
  for (size_t i = 0; i < arity; ++i) {
    seed ^= arg(i).Hash() + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
  }
  return seed;
}

bool CallKey::operator==(const DomainCall& call) const {
  if (domain != call.domain || function != call.function ||
      arity != call.args.size()) {
    return false;
  }
  for (size_t i = 0; i < arity; ++i) {
    if (arg(i) != call.args[i]) return false;
  }
  return true;
}

std::string DomainCall::ToString() const {
  std::string out = domain;
  out += ":";
  out += function;
  out += "(";
  out += ValueListToString(args);
  out += ")";
  return out;
}

size_t AnswerSetByteSize(const AnswerSet& answers) {
  size_t total = 0;
  for (const Value& v : answers) total += v.ApproxByteSize();
  return total;
}

}  // namespace hermes
