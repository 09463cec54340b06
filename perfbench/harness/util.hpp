// Small shared pieces of the benchmark harness: the seeded PRNG, the input
// digest, exact order statistics, a flat JSON reader for response lines, and
// the clock. Nothing here depends on the program under test.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// splitmix64: the harness's own generator, so its inputs do not move when
// the program's random module changes.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  // Uniform in [lo, hi].
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    const auto span = static_cast<unsigned __int128>(hi - lo + 1);
    return lo + static_cast<std::int64_t>((span * next()) >> 64);
  }
  // Uniform in (0, 1].
  double unit_open0() { return (static_cast<double>(next() >> 11) + 1.0) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

inline std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  Rng r(a * 0x9e3779b97f4a7c15ULL ^ (b + 0x632be59bd9b4e019ULL));
  return r.next();
}

// FNV-1a 64 over request bytes: printed so two runs can show they sent
// identical inputs.
class Digest {
 public:
  void add(std::string_view bytes) {
    for (unsigned char c : bytes) {
      h_ ^= c;
      h_ *= 0x100000001b3ULL;
    }
    bytes_ += bytes.size();
  }
  std::uint64_t value() const { return h_; }
  std::uint64_t bytes() const { return bytes_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
  std::uint64_t bytes_ = 0;
};

std::string hex64(std::uint64_t v);

// Nearest-rank order statistic on raw samples: the smallest sample with at
// least q of all samples at or below it. Sorts `samples` in place.
double percentile(std::vector<double>& samples, double q);
// The same by an independent sort-and-index route, for the self-check.
double percentile_reference(std::vector<double> samples, double q);
double median_of(std::vector<double> samples);

// A flat JSON object reader for response and stats lines: string, number,
// bool and null members; nested values are skipped. Returns false on
// malformed input.
struct JsonObject {
  std::map<std::string, std::string> strings;  // string members, unescaped
  std::map<std::string, double> numbers;       // numbers (and bools as 0/1)

  std::string str(const std::string& key) const {
    const auto it = strings.find(key);
    return it == strings.end() ? std::string() : it->second;
  }
  double num(const std::string& key, double fallback = 0) const {
    const auto it = numbers.find(key);
    return it == numbers.end() ? fallback : it->second;
  }
};
bool parse_json_object(std::string_view text, JsonObject* out);

// JSON string body escaping for request frames.
std::string json_escape(std::string_view text);

// The value of one sample line `NAME VALUE` (or `NAME{labels} VALUE`, summed
// over label sets) in a Prometheus exposition body; 0 when absent.
double prometheus_value(const std::string& body, const std::string& name);

// An exact rational "a" or "a/b" as (num, den); false when malformed.
bool parse_rational(const std::string& text, __int128* num, __int128* den);

// Writes a number with every digit a double holds.
std::string fmt_num(double v);

}  // namespace perfbench
