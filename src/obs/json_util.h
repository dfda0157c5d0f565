// Shared JSON formatting/scanning helpers for the obs exporters.
//
// Every artifact that speaks JSON — the privacy-audit ledger, the Chrome
// trace export, the sweep journal — writes through these so
// the formats agree on escaping and on double round-tripping: FormatDouble
// uses %.17g, which reproduces any IEEE-754 double bit-exactly when parsed
// back, the property the ledger's replay-parity and epsilon'-recomputation
// contracts rest on. The Extract* scanners are the matching readers: they
// only parse JSON this module wrote (flat objects, one per line), not
// arbitrary JSON.

#ifndef DPAUDIT_OBS_JSON_UTIL_H_
#define DPAUDIT_OBS_JSON_UTIL_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

namespace dpaudit {
namespace obs {

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
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
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Shortest exact decimal form of a double (%.17g round-trips all doubles).
inline std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// FormatDouble, but non-finite values become the spellings Python's json
/// module (and strtod) accept — "%.17g" would emit bare "inf"/"nan", which
/// no JSON reader takes. The advantage-based epsilon' estimator is genuinely
/// +infinity when every trial succeeds, so ledger rows must survive this.
inline std::string JsonNumber(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "Infinity" : "-Infinity";
  return FormatDouble(v);
}

/// Extracts the string value of `"key":"..."` from a single-line JSON object
/// this module wrote. Returns false when the key is missing.
inline bool JsonExtractString(const std::string& line, const std::string& key,
                              std::string* out) {
  const std::string needle = "\"" + key + "\":\"";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  std::string value;
  for (size_t i = at + needle.size(); i < line.size(); ++i) {
    const char c = line[i];
    if (c == '\\' && i + 1 < line.size()) {
      const char next = line[++i];
      switch (next) {
        case 'n':
          value += '\n';
          break;
        case 't':
          value += '\t';
          break;
        case 'r':
          value += '\r';
          break;
        default:
          value += next;  // \" \\ and \uXXXX (kept verbatim sans escape)
      }
      continue;
    }
    if (c == '"') {
      *out = std::move(value);
      return true;
    }
    value += c;
  }
  return false;
}

inline bool JsonExtractNumber(const std::string& line, const std::string& key,
                              double* out) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  const char* start = line.c_str() + at + needle.size();
  char* end = nullptr;
  const double value = std::strtod(start, &end);
  if (end == start) return false;
  *out = value;
  return true;
}

/// Integer variant: strtod would lose precision above 2^53, and the ledger
/// stores 64-bit seeds verbatim.
inline bool JsonExtractUint(const std::string& line, const std::string& key,
                            uint64_t* out) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  const char* start = line.c_str() + at + needle.size();
  char* end = nullptr;
  const unsigned long long value = std::strtoull(start, &end, 10);
  if (end == start) return false;
  *out = static_cast<uint64_t>(value);
  return true;
}

inline bool JsonExtractBool(const std::string& line, const std::string& key,
                            bool* out) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  const size_t v = at + needle.size();
  if (line.compare(v, 4, "true") == 0) {
    *out = true;
    return true;
  }
  if (line.compare(v, 5, "false") == 0) {
    *out = false;
    return true;
  }
  return false;
}

}  // namespace obs
}  // namespace dpaudit

#endif  // DPAUDIT_OBS_JSON_UTIL_H_
