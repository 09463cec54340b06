// The pre-rewrite instance and schedule parsers, verbatim from io/format.cpp
// before it became one resumable push parser.
//
// The rewrite's contract is that nothing observable changes: the same
// ParsedInstance, the same error strings, and the same stop offset (the
// byte right after the token that decided the outcome, or the end of the
// text). This header keeps the istream tokenizer and its recursive-descent
// readers as the ground truth for that contract; tests/io/format_test.cpp
// diffs the shipped parser against it, whole and split at every byte.
// Deliberately unchanged, including its trust in declared counts (read_ints
// sizes each array before reading a value) — do not "fix" it; its value is
// being the old behavior.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <istream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "io/format.hpp"

namespace bisched::reference {

// Token stream that skips '#' comments to end of line.
class Tokens {
 public:
  explicit Tokens(std::istream& in) : in_(in) {}

  std::optional<std::string> next() {
    std::string token;
    while (in_ >> token) {
      if (token[0] == '#') {
        std::string rest;
        std::getline(in_, rest);
        continue;
      }
      return token;
    }
    return std::nullopt;
  }

  // The whole token must be the integer: strtoll stops at an embedded NUL
  // byte, which must then be the token's end, as in the shipped parser.
  bool next_int(std::int64_t* out) {
    const auto token = next();
    if (!token.has_value()) return false;
    errno = 0;
    char* end = nullptr;
    const long long value = std::strtoll(token->c_str(), &end, 10);
    if (end == token->c_str() || end != token->c_str() + token->size() || errno != 0) {
      return false;
    }
    *out = value;
    return true;
  }

 private:
  std::istream& in_;
};

inline bool expect(Tokens& tokens, const std::string& literal, std::string* error) {
  const auto token = tokens.next();
  if (!token.has_value() || *token != literal) {
    *error = "expected '" + literal + "'" +
             (token.has_value() ? ", got '" + *token + "'" : ", got end of input");
    return false;
  }
  return true;
}

inline bool read_count(Tokens& tokens, const std::string& keyword, std::int64_t lo,
                       std::int64_t hi, std::int64_t* out, std::string* error) {
  if (!expect(tokens, keyword, error)) return false;
  if (!tokens.next_int(out)) {
    *error = "expected an integer after '" + keyword + "'";
    return false;
  }
  if (*out < lo || *out > hi) {
    *error = "'" + keyword + "' value " + std::to_string(*out) + " out of range [" +
             std::to_string(lo) + ", " + std::to_string(hi) + "]";
    return false;
  }
  return true;
}

inline bool read_ints(Tokens& tokens, std::int64_t count, std::vector<std::int64_t>* out,
                      const std::string& what, std::string* error) {
  out->resize(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) {
    if (!tokens.next_int(&(*out)[static_cast<std::size_t>(i)])) {
      *error = "expected " + std::to_string(count) + " integers for " + what;
      return false;
    }
  }
  return true;
}

inline bool read_edges(Tokens& tokens, int n, Graph* g, std::string* error) {
  std::int64_t k = 0;
  if (!read_count(tokens, "edges", 0, static_cast<std::int64_t>(n) * n, &k, error)) {
    return false;
  }
  for (std::int64_t e = 0; e < k; ++e) {
    std::int64_t u = 0, v = 0;
    if (!tokens.next_int(&u) || !tokens.next_int(&v)) {
      *error = "expected " + std::to_string(k) + " edge lines";
      return false;
    }
    if (u < 0 || u >= n || v < 0 || v >= n || u == v) {
      *error = "bad edge (" + std::to_string(u) + ", " + std::to_string(v) + ")";
      return false;
    }
    g->add_edge(static_cast<int>(u), static_cast<int>(v));
  }
  return true;
}

inline constexpr std::int64_t kMaxJobs = 10'000'000;
inline constexpr std::int64_t kMaxMachines = 1'000'000;

inline ParsedInstance parse_instance(std::istream& in) {
  ParsedInstance result;
  Tokens tokens(in);
  if (!expect(tokens, "bisched", &result.error)) return result;
  const auto kind = tokens.next();
  if (!kind.has_value() || (*kind != "uniform" && *kind != "unrelated")) {
    result.error = "expected 'uniform' or 'unrelated' header";
    return result;
  }
  if (!expect(tokens, "v1", &result.error)) return result;

  std::int64_t n = 0;
  if (!read_count(tokens, "jobs", 0, kMaxJobs, &n, &result.error)) return result;

  if (*kind == "uniform") {
    std::vector<std::int64_t> p;
    if (!expect(tokens, "p", &result.error)) return result;
    if (!read_ints(tokens, n, &p, "p", &result.error)) return result;
    for (std::int64_t x : p) {
      if (x < 1) {
        result.error = "processing requirements must be >= 1";
        return result;
      }
    }
    std::int64_t m = 0;
    if (!read_count(tokens, "speeds", 1, kMaxMachines, &m, &result.error)) return result;
    std::vector<std::int64_t> speeds;
    if (!read_ints(tokens, m, &speeds, "speeds", &result.error)) return result;
    for (std::int64_t s : speeds) {
      if (s < 1) {
        result.error = "speeds must be >= 1";
        return result;
      }
    }
    Graph g(static_cast<int>(n));
    if (!read_edges(tokens, static_cast<int>(n), &g, &result.error)) return result;
    result.uniform = make_uniform_instance(std::move(p), std::move(speeds), std::move(g));
    return result;
  }

  std::int64_t m = 0;
  if (!read_count(tokens, "machines", 1, kMaxMachines, &m, &result.error)) return result;
  if (!expect(tokens, "times", &result.error)) return result;
  std::vector<std::vector<std::int64_t>> times(static_cast<std::size_t>(m));
  for (std::int64_t i = 0; i < m; ++i) {
    if (!read_ints(tokens, n, &times[static_cast<std::size_t>(i)], "times row",
                   &result.error)) {
      return result;
    }
    for (std::int64_t x : times[static_cast<std::size_t>(i)]) {
      if (x < 0) {
        result.error = "times must be >= 0";
        return result;
      }
    }
  }
  Graph g(static_cast<int>(n));
  if (!read_edges(tokens, static_cast<int>(n), &g, &result.error)) return result;
  result.unrelated = make_unrelated_instance(std::move(times), std::move(g));
  return result;
}

inline std::optional<Schedule> parse_schedule(std::istream& in, std::string* error) {
  Tokens tokens(in);
  std::string local_error;
  std::string* err = error != nullptr ? error : &local_error;
  if (!expect(tokens, "bisched", err)) return std::nullopt;
  if (!expect(tokens, "schedule", err)) return std::nullopt;
  if (!expect(tokens, "v1", err)) return std::nullopt;
  std::int64_t n = 0;
  if (!read_count(tokens, "jobs", 0, kMaxJobs, &n, err)) return std::nullopt;
  if (!expect(tokens, "machine_of", err)) return std::nullopt;
  std::vector<std::int64_t> raw;
  if (!read_ints(tokens, n, &raw, "machine_of", err)) return std::nullopt;
  Schedule s;
  s.machine_of.reserve(raw.size());
  for (std::int64_t x : raw) {
    if (x < 0 || x > INT32_MAX) {
      *err = "machine index out of range";
      return std::nullopt;
    }
    s.machine_of.push_back(static_cast<int>(x));
  }
  return s;
}

// parse_instance over a whole text, plus where it stopped reading: right
// after the last token it extracted, or the end of the text once the
// tokenizer ran into it (tellg reports -1 from then on).
inline ParsedInstance parse_with_stop(const std::string& text, std::size_t* stop) {
  std::istringstream in(text);
  ParsedInstance parsed = parse_instance(in);
  const std::streampos at = in.tellg();
  *stop = at == std::streampos(-1) ? text.size() : static_cast<std::size_t>(at);
  return parsed;
}

}  // namespace bisched::reference
