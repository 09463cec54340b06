// The flat JSON request parser as it was before its string decoder wrote
// through a buffer sized once from the value's extent, verbatim from
// io/jsonl.cpp: the char-by-char decoder appends each byte to the output
// string.
//
// The rewrite's contract is that nothing observable changes: the same
// ok/error outcome, the same error string and the same decoded members.
// tests/io/jsonl_test.cpp diffs the shipped parser against this one, and
// bench/bench_hotpaths.cpp times the two on one request frame. Deliberately
// unchanged; its value is being the old behavior.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace bisched::reference {

// Cursor over the request line; every helper leaves `pos` after what it
// consumed and reports failure through *error.
struct Cursor {
  std::string_view text;
  std::size_t pos = 0;
  std::string* error;

  bool fail(const std::string& message) {
    *error = message;
    return false;
  }
  void skip_space() {
    while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t')) ++pos;
  }
  bool at_end() {
    skip_space();
    return pos >= text.size();
  }
  bool expect(char c) {
    skip_space();
    if (pos >= text.size() || text[pos] != c) {
      return fail(std::string("expected '") + c + "'");
    }
    ++pos;
    return true;
  }
  bool peek_is(char c) {
    skip_space();
    return pos < text.size() && text[pos] == c;
  }
};

inline bool parse_string(Cursor& cur, std::string* out) {
  if (!cur.expect('"')) return false;
  out->clear();
  while (cur.pos < cur.text.size()) {
    const char c = cur.text[cur.pos++];
    if (c == '"') return true;
    if (c != '\\') {
      *out += c;
      continue;
    }
    if (cur.pos >= cur.text.size()) return cur.fail("dangling escape");
    const char esc = cur.text[cur.pos++];
    switch (esc) {
      case '"':
      case '\\':
      case '/':
        *out += esc;
        break;
      case 'n':
        *out += '\n';
        break;
      case 't':
        *out += '\t';
        break;
      case 'r':
        *out += '\r';
        break;
      case 'b':
        *out += '\b';
        break;
      case 'f':
        *out += '\f';
        break;
      case 'u': {
        if (cur.pos + 4 > cur.text.size()) return cur.fail("truncated \\u escape");
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = cur.text[cur.pos++];
          code <<= 4;
          if (h >= '0' && h <= '9') {
            code |= static_cast<unsigned>(h - '0');
          } else if (h >= 'a' && h <= 'f') {
            code |= static_cast<unsigned>(h - 'a' + 10);
          } else if (h >= 'A' && h <= 'F') {
            code |= static_cast<unsigned>(h - 'A' + 10);
          } else {
            return cur.fail("bad \\u escape");
          }
        }
        // The writers only emit \u00xx; anything wider is rejected rather
        // than silently mangled (requests carry paths and ids, not prose).
        if (code > 0xff) return cur.fail("\\u escape beyond latin-1 unsupported");
        *out += static_cast<char>(code);
        break;
      }
      default:
        return cur.fail("unsupported escape");
    }
  }
  return cur.fail("unterminated string");
}

// Captures a nested array/object as its raw balanced text, verbatim. The
// flat parser's callers treat values as opaque strings anyway; capturing the
// source text (instead of recursing into a tree) keeps golden comparisons
// byte-exact and the parser minimal. Strings inside the value are skipped
// with escape awareness so a brace in a string cannot unbalance the scan.
inline bool parse_raw_nested(Cursor& cur, std::string* out) {
  cur.skip_space();
  const std::size_t start = cur.pos;
  int depth = 0;
  bool in_string = false;
  while (cur.pos < cur.text.size()) {
    const char c = cur.text[cur.pos];
    if (in_string) {
      if (c == '\\') {
        if (cur.pos + 1 >= cur.text.size()) return cur.fail("dangling escape");
        cur.pos += 2;
        continue;
      }
      if (c == '"') in_string = false;
      ++cur.pos;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ++cur.pos;
    if (depth == 0) {
      *out = std::string(cur.text.substr(start, cur.pos - start));
      return true;
    }
  }
  return cur.fail("unterminated nested value");
}

inline bool parse_scalar(Cursor& cur, std::string* out) {
  cur.skip_space();
  out->clear();
  while (cur.pos < cur.text.size()) {
    const char c = cur.text[cur.pos];
    if (c == ',' || c == '}' || c == ' ' || c == '\t') break;
    if (c == '{' || c == '[') break;  // nested value: let the caller reject it
    *out += c;
    ++cur.pos;
  }
  if (out->empty()) return cur.fail("expected a value");
  return true;
}

inline std::optional<std::map<std::string, std::string>> parse_flat_json_object(
    std::string_view text, std::string* error) {
  std::string local;
  Cursor cur{text, 0, error != nullptr ? error : &local};
  std::map<std::string, std::string> out;
  if (!cur.expect('{')) return std::nullopt;
  if (!cur.peek_is('}')) {
    for (;;) {
      std::string key;
      if (!parse_string(cur, &key)) return std::nullopt;
      if (!cur.expect(':')) return std::nullopt;
      std::string value;
      if (cur.peek_is('"')) {
        if (!parse_string(cur, &value)) return std::nullopt;
      } else if (cur.peek_is('{') || cur.peek_is('[')) {
        if (!parse_raw_nested(cur, &value)) return std::nullopt;
      } else {
        if (!parse_scalar(cur, &value)) return std::nullopt;
      }
      if (!out.emplace(std::move(key), std::move(value)).second) {
        cur.fail("duplicate key");
        return std::nullopt;
      }
      if (cur.peek_is(',')) {
        cur.expect(',');
        continue;
      }
      break;
    }
  }
  if (!cur.expect('}')) return std::nullopt;
  if (!cur.at_end()) {
    cur.fail("trailing characters after object");
    return std::nullopt;
  }
  return out;
}

}  // namespace bisched::reference
