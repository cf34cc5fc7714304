#ifndef SUBSIM_UTIL_STRING_UTIL_H_
#define SUBSIM_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace subsim {

/// Splits `text` on any character in `delims`, dropping empty pieces.
std::vector<std::string_view> SplitAndTrim(std::string_view text,
                                           std::string_view delims);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

/// True if `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// True if `a` and `b` are equal up to ASCII letter case (HTTP header
/// names and tokens such as `keep-alive`).
bool AsciiEqualsIgnoreCase(std::string_view a, std::string_view b);

/// Renders n with metric suffixes, e.g. 1500000 -> "1.5M", 2100 -> "2.1K".
std::string HumanCount(std::uint64_t n);

/// Renders seconds with an adaptive unit, e.g. "12.3ms", "4.56s".
std::string HumanSeconds(double seconds);

/// Parses a non-negative integer. Returns false on malformed input or
/// overflow; on success stores the value in `*out`.
bool ParseUint64(std::string_view text, std::uint64_t* out);

/// Parses a double. Returns false on malformed input.
bool ParseDouble(std::string_view text, double* out);

/// Escapes `text` for the inside of a JSON string literal: quote and
/// backslash are backslash-escaped, newline and tab become `\n` / `\t`,
/// and other control bytes become `\u00XX`. Every JSON document the
/// library writes (query responses, HTTP bodies, metrics) goes through it.
std::string JsonEscape(std::string_view text);

/// Renders a JSON number with six significant digits (`%.6g`).
std::string JsonDouble(double value);

}  // namespace subsim

#endif  // SUBSIM_UTIL_STRING_UTIL_H_
