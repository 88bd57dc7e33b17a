#ifndef HERMES_COMMON_VALUE_H_
#define HERMES_COMMON_VALUE_H_

#include <cstdint>
#include <initializer_list>
#include <ostream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace hermes {

class Value;

/// Ordered field list of a structured value. Field order is preserved so
/// positional access ($ans.1, $ans.2 in the paper's rule syntax) is defined.
using StructFields = std::vector<std::pair<std::string, Value>>;
using ValueList = std::vector<Value>;

/// Dynamically-typed runtime value exchanged between the mediator and
/// external domains.
///
/// Domains may return elementary values (ints, strings, ...) or complex
/// types: lists and attribute-named structs. Attribute paths such as
/// `X.loc` or positional `$ans.2` are resolved with GetAttr()/GetIndex().
class Value {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kList, kStruct };

  /// Null value.
  Value() : repr_(std::monostate{}) {}
  explicit Value(bool b) : repr_(b) {}
  explicit Value(int64_t i) : repr_(i) {}
  explicit Value(int i) : repr_(static_cast<int64_t>(i)) {}
  explicit Value(double d) : repr_(d) {}
  explicit Value(std::string s) : repr_(std::move(s)) {}
  explicit Value(const char* s) : repr_(std::string(s)) {}
  explicit Value(ValueList list) : repr_(std::move(list)) {}
  explicit Value(StructFields fields) : repr_(std::move(fields)) {}

  /// Convenience factories (clearer at call sites than constructor picks).
  static Value Null() { return Value(); }
  static Value Bool(bool b) { return Value(b); }
  static Value Int(int64_t i) { return Value(i); }
  static Value Double(double d) { return Value(d); }
  static Value Str(std::string s) { return Value(std::move(s)); }
  static Value List(ValueList items) { return Value(std::move(items)); }
  static Value Struct(StructFields fields) { return Value(std::move(fields)); }
  /// A positional tuple, represented as a list.
  static Value TupleOf(std::initializer_list<Value> items) {
    return Value(ValueList(items));
  }

  Type type() const { return static_cast<Type>(repr_.index()); }

  bool is_null() const { return std::holds_alternative<std::monostate>(repr_); }
  bool is_bool() const { return std::holds_alternative<bool>(repr_); }
  bool is_int() const { return std::holds_alternative<int64_t>(repr_); }
  bool is_double() const { return std::holds_alternative<double>(repr_); }
  bool is_numeric() const { return is_int() || is_double(); }
  bool is_string() const { return std::holds_alternative<std::string>(repr_); }
  bool is_list() const { return std::holds_alternative<ValueList>(repr_); }
  bool is_struct() const { return std::holds_alternative<StructFields>(repr_); }

  bool as_bool() const { return std::get<bool>(repr_); }
  int64_t as_int() const { return std::get<int64_t>(repr_); }
  double as_double() const { return std::get<double>(repr_); }
  /// Numeric value widened to double; valid only when is_numeric().
  double as_number() const {
    return is_int() ? static_cast<double>(as_int()) : as_double();
  }
  const std::string& as_string() const& { return std::get<std::string>(repr_); }
  const ValueList& as_list() const& { return std::get<ValueList>(repr_); }
  const StructFields& as_struct() const& {
    return std::get<StructFields>(repr_);
  }

  /// Rvalue overloads move the payload out instead of forcing a copy at the
  /// call site (`std::move(v).as_list()` steals the vector).
  std::string as_string() && { return std::get<std::string>(std::move(repr_)); }
  ValueList as_list() && { return std::get<ValueList>(std::move(repr_)); }
  StructFields as_struct() && {
    return std::get<StructFields>(std::move(repr_));
  }

  /// Named attribute of a struct value.
  Result<Value> GetAttr(const std::string& name) const;
  /// 1-based positional component of a list or struct value.
  Result<Value> GetIndex(size_t index1) const;
  /// Resolves a dotted path: each element is an attribute name or a 1-based
  /// index written as decimal digits. An empty path yields *this.
  Result<Value> GetPath(const std::vector<std::string>& path) const;

  /// View accessors: the returned pointer aliases this value's own storage
  /// (or *this itself for the elementary 1-tuple case) and stays valid while
  /// the value is alive and unmodified. These are the hot-path forms — no
  /// payload is copied.
  ///
  /// `memo` optionally caches the field position across calls: pass the same
  /// slot for repeated lookups of the same attribute and the linear scan is
  /// skipped whenever the memoized index still names the right field (rows
  /// from one domain share their struct layout, so it nearly always does).
  Result<const Value*> GetAttrPtr(const std::string& name,
                                  size_t* memo = nullptr) const;
  Result<const Value*> GetIndexPtr(size_t index1) const;
  Result<const Value*> GetPathPtr(const std::vector<std::string>& path) const;

  /// Three-way comparison; ints and doubles compare numerically, otherwise
  /// values of different types order by type id. Returns -1/0/+1.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }
  bool operator<=(const Value& other) const { return Compare(other) <= 0; }
  bool operator>(const Value& other) const { return Compare(other) > 0; }
  bool operator>=(const Value& other) const { return Compare(other) >= 0; }

  /// Stable hash, consistent with operator== (numeric cross-type equality
  /// included).
  size_t Hash() const;

  /// Literal syntax: 42, 3.5, true, 'str', [v1, v2], {a: v1, b: v2}, null.
  std::string ToString() const;

  /// Approximate serialized size in bytes, used by the network simulator to
  /// charge transfer time for answer sets.
  size_t ApproxByteSize() const;

 private:
  std::variant<std::monostate, bool, int64_t, double, std::string, ValueList,
               StructFields>
      repr_;
};

inline std::ostream& operator<<(std::ostream& os, const Value& v) {
  return os << v.ToString();
}

/// Hash functor for unordered containers keyed by Value.
struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

/// Value::Hash() of a list taken item by item, so a lookup keyed by a list
/// need not build it: after Add(x) and Add(y), hash() equals
/// Value::List({x, y}).Hash().
class ListHasher {
 public:
  void Add(const Value& item);
  size_t hash() const { return seed_; }

 private:
  size_t seed_ = 4;  ///< The type rank of a list.
};

/// Joins the ToString() of each element with ", ".
std::string ValueListToString(const ValueList& values);

}  // namespace hermes

#endif  // HERMES_COMMON_VALUE_H_
