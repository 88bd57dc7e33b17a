// Whole-value parsing of the tools' numeric command-line flags.

#ifndef HERMES_TOOLS_NUMERIC_FLAG_H_
#define HERMES_TOOLS_NUMERIC_FLAG_H_

#include <charconv>
#include <cmath>
#include <cstdio>
#include <string>
#include <type_traits>

namespace hermes::tools {

/// Parses the whole of `text`, the value of `flag`, as one in-range `T`
/// (finite, for a floating-point `T`) into `*out`. On failure prints a
/// message naming the flag to stderr and returns false.
template <typename T>
bool ParseNumericFlag(const char* flag, const std::string& text, T* out) {
  const char* end = text.data() + text.size();
  auto [used, ec] = std::from_chars(text.data(), end, *out);
  bool ok = ec == std::errc() && used == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(*out);
  if (!ok) {
    std::fprintf(stderr, "bad value for %s: '%s' (try --help)\n", flag,
                 text.c_str());
  }
  return ok;
}

}  // namespace hermes::tools

#endif  // HERMES_TOOLS_NUMERIC_FLAG_H_
