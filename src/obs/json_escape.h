// Minimal JSON string escaping shared by the observability sinks
// (event ring, statusz) and the bench JSON writers. Header-only
// so bench/ can use it without linking anything beyond the library it
// already links.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace shflbw {
namespace obs {

/// Escapes `s` for embedding inside a double-quoted JSON string:
/// backslash, quote, and control characters. Everything else passes
/// through byte-for-byte (the repo's JSON artifacts are ASCII/UTF-8).
inline std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  return out;
}

}  // namespace obs
}  // namespace shflbw
