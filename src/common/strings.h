#ifndef HERMES_COMMON_STRINGS_H_
#define HERMES_COMMON_STRINGS_H_

#include <string>
#include <vector>

namespace hermes {

/// Splits `text` on `sep`, keeping empty fields.
std::vector<std::string> SplitString(const std::string& text, char sep);

/// Joins `parts` with `sep`.
std::string JoinStrings(const std::vector<std::string>& parts,
                        const std::string& sep);

/// Strips leading and trailing ASCII whitespace.
std::string TrimString(const std::string& text);

/// ASCII lower-casing.
std::string ToLower(const std::string& text);

/// True when `text` begins with `prefix`.
bool StartsWith(const std::string& text, const std::string& prefix);

/// `text` escaped for the inside of a JSON string literal.
std::string JsonEscape(const std::string& text);

/// Compact %g-style rendering with enough precision (10 digits) for byte
/// counters and simulated milliseconds.
std::string FormatNumber(double v);

}  // namespace hermes

#endif  // HERMES_COMMON_STRINGS_H_
