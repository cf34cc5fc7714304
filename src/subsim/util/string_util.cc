#include "subsim/util/string_util.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace subsim {

std::vector<std::string_view> SplitAndTrim(std::string_view text,
                                           std::string_view delims) {
  std::vector<std::string_view> pieces;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t end = text.find_first_of(delims, start);
    const std::size_t stop = (end == std::string_view::npos) ? text.size() : end;
    if (stop > start) {
      pieces.push_back(text.substr(start, stop - start));
    }
    if (end == std::string_view::npos) {
      break;
    }
    start = end + 1;
  }
  return pieces;
}

std::string_view StripWhitespace(std::string_view text) {
  std::size_t begin = 0;
  while (begin < text.size() &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  std::size_t end = text.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

std::string HumanCount(std::uint64_t n) {
  char buf[32];
  if (n >= 1000000000ull) {
    std::snprintf(buf, sizeof(buf), "%.1fB", static_cast<double>(n) / 1e9);
  } else if (n >= 1000000ull) {
    std::snprintf(buf, sizeof(buf), "%.1fM", static_cast<double>(n) / 1e6);
  } else if (n >= 1000ull) {
    std::snprintf(buf, sizeof(buf), "%.1fK", static_cast<double>(n) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(n));
  }
  return buf;
}

std::string HumanSeconds(double seconds) {
  char buf[32];
  if (seconds < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.1fus", seconds * 1e6);
  } else if (seconds < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2fms", seconds * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3fs", seconds);
  }
  return buf;
}

bool ParseUint64(std::string_view text, std::uint64_t* out) {
  text = StripWhitespace(text);
  if (text.empty() || text[0] == '-') {
    return false;
  }
  std::string owned(text);
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(owned.c_str(), &end, 10);
  if (errno != 0 || end != owned.c_str() + owned.size()) {
    return false;
  }
  *out = v;
  return true;
}

bool ParseDouble(std::string_view text, double* out) {
  text = StripWhitespace(text);
  if (text.empty()) {
    return false;
  }
  std::string owned(text);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(owned.c_str(), &end);
  if (errno != 0 || end != owned.c_str() + owned.size()) {
    return false;
  }
  *out = v;
  return true;
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonDouble(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

}  // namespace subsim
