#ifndef HERMES_DOMAIN_CALL_H_
#define HERMES_DOMAIN_CALL_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "common/value.h"
#include "lang/ast.h"

namespace hermes {

/// A fully-ground external call `domain:function(v_1, ..., v_N)`.
///
/// This is the unit of execution, caching (CIM keys its result cache on it)
/// and statistics recording (DCSM keys cost vectors on it).
struct DomainCall {
  std::string domain;
  std::string function;
  ValueList args;

  /// Converts a ground DomainCallSpec; fails if any argument is non-constant.
  static Result<DomainCall> FromSpec(const lang::DomainCallSpec& spec);

  /// Back-conversion to an all-constant spec.
  lang::DomainCallSpec ToSpec() const;

  bool operator==(const DomainCall& other) const {
    return domain == other.domain && function == other.function &&
           args == other.args;
  }

  size_t Hash() const;

  /// `domain:function(arg, ...)` rendering, usable as a cache key.
  std::string ToString() const;
};

/// A ground call read in place: the parts of `domain:function(args)` live
/// elsewhere, so a lookup keyed by it builds no DomainCall. Argument i is
/// `args[i]`, or `*arg_ptrs[i]` when the arguments are gathered from
/// several places. A key hashes and compares like the DomainCall it names,
/// and views its parts: it must not outlive them.
struct CallKey {
  std::string_view domain;
  std::string_view function;
  size_t arity = 0;
  const Value* args = nullptr;
  const Value* const* arg_ptrs = nullptr;

  CallKey(const DomainCall& call)  // NOLINT(google-explicit-constructor)
      : CallKey(call.domain, call.function, call.args) {}
  CallKey(std::string_view domain, std::string_view function,
          const ValueList& args)
      : domain(domain),
        function(function),
        arity(args.size()),
        args(args.data()) {}
  CallKey(std::string_view domain, std::string_view function,
          const Value* const* arg_ptrs, size_t arity)
      : domain(domain), function(function), arity(arity), arg_ptrs(arg_ptrs) {}

  const Value& arg(size_t i) const {
    return arg_ptrs != nullptr ? *arg_ptrs[i] : args[i];
  }
  size_t Hash() const;
  bool operator==(const DomainCall& call) const;
};

/// Hash functor for unordered containers keyed by DomainCall.
struct DomainCallHash {
  size_t operator()(const DomainCall& call) const { return call.Hash(); }
};

/// The answers returned by one domain call, in domain-defined order.
using AnswerSet = ValueList;

/// Approximate wire size of an answer set in bytes (network accounting).
size_t AnswerSetByteSize(const AnswerSet& answers);

}  // namespace hermes

#endif  // HERMES_DOMAIN_CALL_H_
