#include "common/value.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <sstream>

namespace hermes {

namespace {

// Rank used to order values of different types deterministically.
int TypeRank(const Value& v) {
  if (v.is_null()) return 0;
  if (v.is_bool()) return 1;
  if (v.is_numeric()) return 2;  // ints and doubles share a rank.
  if (v.is_string()) return 3;
  if (v.is_list()) return 4;
  return 5;  // struct
}

bool IsAllDigits(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

/// The 1-based index an all-digit path step names. A step too large for
/// size_t is past the end of any value, so it saturates instead of failing.
size_t PathIndex(const std::string& step) {
  size_t index = 0;
  std::from_chars_result parsed =
      std::from_chars(step.data(), step.data() + step.size(), index);
  return parsed.ec == std::errc() ? index
                                  : std::numeric_limits<size_t>::max();
}

void HashCombine(size_t& seed, size_t h) {
  seed ^= h + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
}

std::string FormatDouble(double d) {
  // Integral doubles print with a trailing ".0" so the literal re-parses as
  // a double rather than an int.
  std::ostringstream os;
  os << d;
  std::string s = os.str();
  if (s.find('.') == std::string::npos && s.find('e') == std::string::npos &&
      s.find("inf") == std::string::npos && s.find("nan") == std::string::npos) {
    s += ".0";
  }
  return s;
}

}  // namespace

Result<const Value*> Value::GetAttrPtr(const std::string& name,
                                       size_t* memo) const {
  if (!is_struct()) {
    return Status::TypeError("attribute '" + name +
                             "' requested on non-struct value " + ToString());
  }
  const StructFields& fields = as_struct();
  if (memo != nullptr && *memo < fields.size() &&
      fields[*memo].first == name) {
    return &fields[*memo].second;
  }
  for (size_t i = 0; i < fields.size(); ++i) {
    if (fields[i].first == name) {
      if (memo != nullptr) *memo = i;
      return &fields[i].second;
    }
  }
  return Status::NotFound("no attribute '" + name + "' in " + ToString());
}

Result<const Value*> Value::GetIndexPtr(size_t index1) const {
  if (index1 == 0) {
    return Status::InvalidArgument("positional attribute indexes are 1-based");
  }
  if (is_list()) {
    const ValueList& items = as_list();
    if (index1 > items.size()) {
      return Status::NotFound("index " + std::to_string(index1) +
                              " out of range for " + ToString());
    }
    return &items[index1 - 1];
  }
  if (is_struct()) {
    const StructFields& fields = as_struct();
    if (index1 > fields.size()) {
      return Status::NotFound("index " + std::to_string(index1) +
                              " out of range for " + ToString());
    }
    return &fields[index1 - 1].second;
  }
  if (index1 == 1) return this;  // Elementary value acts as a 1-tuple.
  return Status::TypeError("positional access on elementary value " +
                           ToString());
}

Result<const Value*> Value::GetPathPtr(
    const std::vector<std::string>& path) const {
  const Value* current = this;
  for (const std::string& step : path) {
    Result<const Value*> next = IsAllDigits(step)
                                    ? current->GetIndexPtr(PathIndex(step))
                                    : current->GetAttrPtr(step);
    if (!next.ok()) return next.status();
    current = next.value();
  }
  return current;
}

Result<Value> Value::GetAttr(const std::string& name) const {
  HERMES_ASSIGN_OR_RETURN(const Value* found, GetAttrPtr(name));
  return *found;
}

Result<Value> Value::GetIndex(size_t index1) const {
  HERMES_ASSIGN_OR_RETURN(const Value* found, GetIndexPtr(index1));
  return *found;
}

Result<Value> Value::GetPath(const std::vector<std::string>& path) const {
  HERMES_ASSIGN_OR_RETURN(const Value* found, GetPathPtr(path));
  return *found;
}

int Value::Compare(const Value& other) const {
  int lr = TypeRank(*this);
  int rr = TypeRank(other);
  if (lr != rr) return lr < rr ? -1 : 1;
  switch (lr) {
    case 0:  // null
      return 0;
    case 1: {  // bool
      bool a = as_bool(), b = other.as_bool();
      return a == b ? 0 : (a < b ? -1 : 1);
    }
    case 2: {  // numeric
      if (is_int() && other.is_int()) {
        int64_t a = as_int(), b = other.as_int();
        return a == b ? 0 : (a < b ? -1 : 1);
      }
      double a = as_number(), b = other.as_number();
      return a == b ? 0 : (a < b ? -1 : 1);
    }
    case 3: {  // string
      int c = as_string().compare(other.as_string());
      return c == 0 ? 0 : (c < 0 ? -1 : 1);
    }
    case 4: {  // list
      const ValueList& a = as_list();
      const ValueList& b = other.as_list();
      size_t n = std::min(a.size(), b.size());
      for (size_t i = 0; i < n; ++i) {
        int c = a[i].Compare(b[i]);
        if (c != 0) return c;
      }
      return a.size() == b.size() ? 0 : (a.size() < b.size() ? -1 : 1);
    }
    default: {  // struct: field names then values, in declared order.
      const StructFields& a = as_struct();
      const StructFields& b = other.as_struct();
      size_t n = std::min(a.size(), b.size());
      for (size_t i = 0; i < n; ++i) {
        int c = a[i].first.compare(b[i].first);
        if (c != 0) return c < 0 ? -1 : 1;
        c = a[i].second.Compare(b[i].second);
        if (c != 0) return c;
      }
      return a.size() == b.size() ? 0 : (a.size() < b.size() ? -1 : 1);
    }
  }
}

size_t Value::Hash() const {
  size_t seed = static_cast<size_t>(TypeRank(*this));
  switch (TypeRank(*this)) {
    case 0:
      break;
    case 1:
      HashCombine(seed, std::hash<bool>()(as_bool()));
      break;
    case 2: {
      // Hash ints and integral doubles identically so 2 == 2.0 hash-collide.
      double d = as_number();
      double integral;
      if (std::modf(d, &integral) == 0.0 &&
          integral >= -9.2e18 && integral <= 9.2e18) {
        HashCombine(seed, std::hash<int64_t>()(static_cast<int64_t>(integral)));
      } else {
        HashCombine(seed, std::hash<double>()(d));
      }
      break;
    }
    case 3:
      HashCombine(seed, std::hash<std::string>()(as_string()));
      break;
    case 4: {
      ListHasher list;
      for (const Value& v : as_list()) list.Add(v);
      return list.hash();
    }
    default:
      for (const auto& [name, v] : as_struct()) {
        HashCombine(seed, std::hash<std::string>()(name));
        HashCombine(seed, v.Hash());
      }
      break;
  }
  return seed;
}

void ListHasher::Add(const Value& item) { HashCombine(seed_, item.Hash()); }

std::string Value::ToString() const {
  switch (type()) {
    case Type::kNull:
      return "null";
    case Type::kBool:
      return as_bool() ? "true" : "false";
    case Type::kInt:
      return std::to_string(as_int());
    case Type::kDouble:
      return FormatDouble(as_double());
    case Type::kString: {
      std::string out = "'";
      for (char c : as_string()) {
        if (c == '\'' || c == '\\') out += '\\';
        out += c;
      }
      out += "'";
      return out;
    }
    case Type::kList: {
      std::string out = "[";
      out += ValueListToString(as_list());
      out += "]";
      return out;
    }
    case Type::kStruct: {
      std::string out = "{";
      bool first = true;
      for (const auto& [name, v] : as_struct()) {
        if (!first) out += ", ";
        first = false;
        out += name;
        out += ": ";
        out += v.ToString();
      }
      out += "}";
      return out;
    }
  }
  return "<?>";
}

size_t Value::ApproxByteSize() const {
  switch (type()) {
    case Type::kNull:
      return 1;
    case Type::kBool:
      return 1;
    case Type::kInt:
      return 8;
    case Type::kDouble:
      return 8;
    case Type::kString:
      return as_string().size() + 1;
    case Type::kList: {
      size_t total = 2;
      for (const Value& v : as_list()) total += v.ApproxByteSize();
      return total;
    }
    case Type::kStruct: {
      size_t total = 2;
      for (const auto& [name, v] : as_struct()) {
        total += name.size() + 1 + v.ApproxByteSize();
      }
      return total;
    }
  }
  return 1;
}

std::string ValueListToString(const ValueList& values) {
  std::string out;
  bool first = true;
  for (const Value& v : values) {
    if (!first) out += ", ";
    first = false;
    out += v.ToString();
  }
  return out;
}

}  // namespace hermes
