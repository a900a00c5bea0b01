#pragma once

// The one JSON encoder: every BENCH_*.json artifact, chrome trace and
// embedded report is written through json::Writer.
//
// A streaming writer: scopes place their own commas, strings are escaped
// (`"`, `\` and control characters as \u00XX), integers print as integers,
// and doubles print in the shortest form that reads back bit-exactly
// (std::to_chars). JSON has no NaN or infinity, so non-finite doubles are
// written as null.

#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <string>
#include <string_view>

namespace caqr::json {

class Writer {
 public:
  Writer& begin_object() { return open('{'); }
  Writer& end_object() { return close('}'); }
  Writer& begin_array() { return open('['); }
  Writer& end_array() { return close(']'); }

  Writer& key(std::string_view k) {
    value(k);
    out_ += ':';
    return *this;
  }

  Writer& value(std::string_view s) {
    separate();
    out_ += '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out_ += "\\u00";
        out_ += "0123456789abcdef"[c >> 4];
        out_ += "0123456789abcdef"[c & 15];
      } else {
        out_ += c;
      }
    }
    out_ += '"';
    return *this;
  }
  Writer& value(const char* s) { return value(std::string_view(s)); }
  Writer& value(bool b) { return raw(b ? "true" : "false"); }
  Writer& value(double d) {
    if (!std::isfinite(d)) return raw("null");
    char buf[32];
    return raw({buf, std::to_chars(buf, buf + sizeof(buf), d).ptr});
  }
  template <std::integral I>
    requires(!std::same_as<I, bool>)
  Writer& value(I i) {
    char buf[24];
    return raw({buf, std::to_chars(buf, buf + sizeof(buf), i).ptr});
  }

  // An already-encoded JSON value (an embedded report or profile).
  Writer& raw(std::string_view encoded) {
    separate();
    out_ += encoded;
    return *this;
  }

  template <typename V>
  Writer& field(std::string_view k, const V& v) {
    return key(k).value(v);
  }

  const std::string& str() const { return out_; }

 private:
  // A comma is due unless this is the first element of a scope or the
  // value of a key.
  void separate() {
    if (!out_.empty() && out_.back() != '{' && out_.back() != '[' &&
        out_.back() != ':') {
      out_ += ',';
    }
  }
  Writer& open(char c) {
    separate();
    out_ += c;
    return *this;
  }
  Writer& close(char c) {
    out_ += c;
    return *this;
  }

  std::string out_;
};

// Writes `text` to `path`; false if the file cannot be opened, written in
// full or closed.
inline bool write_json_file(const std::string& path, std::string_view text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool wrote = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && wrote;
}

}  // namespace caqr::json
