#include "engine/telemetry/trace.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdio>

#include "io/jsonl.hpp"
#include "util/fnv.hpp"
#include "util/table.hpp"

namespace bisched::engine::telemetry {

std::string next_trace_id() {
  // FNV-1a over pid + boot instant: stable within a process, distinct across
  // processes (modulo hash luck) without any cross-process coordination.
  static const std::string tag = [] {
    Fnv1a fnv;
    fnv.u64(static_cast<std::uint64_t>(::getpid()));
    fnv.u64(static_cast<std::uint64_t>(
        std::chrono::system_clock::now().time_since_epoch().count()));
    const std::uint64_t h = fnv.value();
    char buf[16];
    std::snprintf(buf, sizeof buf, "%08llx",
                  static_cast<unsigned long long>(h & 0xffffffffull));
    return std::string(buf);
  }();
  static std::atomic<std::uint64_t> counter{0};
  return "t-" + tag + "-" + std::to_string(counter.fetch_add(1) + 1);
}

TraceSpan::TraceSpan(std::string name)
    : TraceSpan(std::move(name), std::chrono::steady_clock::now()) {}

TraceSpan::TraceSpan(std::string name, std::chrono::steady_clock::time_point start)
    : name_(std::move(name)), start_(start) {}

TraceSpan* TraceSpan::child(std::string name) {
  return &children_.emplace_back(std::move(name));
}

TraceSpan* TraceSpan::child(std::string name, std::chrono::steady_clock::time_point start) {
  return &children_.emplace_back(std::move(name), start);
}

void TraceSpan::set_detail(std::string detail) { detail_ = std::move(detail); }

void TraceSpan::end() {
  if (ms_ >= 0) return;
  ms_ = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                  start_)
            .count();
}

void TraceSpan::append_json(std::string* out, bool zero_ms) const {
  *out += "{\"name\": " + json_quote(name_);
  if (!detail_.empty()) *out += ", \"detail\": " + json_quote(detail_);
  *out += ", \"ms\": " + fmt_double_exact(zero_ms ? 0 : ms());
  if (!children_.empty()) {
    *out += ", \"spans\": [";
    bool first = true;
    for (const TraceSpan& c : children_) {
      if (!first) *out += ", ";
      first = false;
      c.append_json(out, zero_ms);
    }
    *out += ']';
  }
  *out += '}';
}

void TraceSpan::append_compact(std::string* out, bool zero_ms) const {
  *out += name_;
  if (!detail_.empty()) *out += '[' + detail_ + ']';
  *out += ':' + fmt_double_exact(zero_ms ? 0 : ms());
  if (!children_.empty()) {
    *out += '(';
    bool first = true;
    for (const TraceSpan& c : children_) {
      if (!first) *out += ',';
      first = false;
      c.append_compact(out, zero_ms);
    }
    *out += ')';
  }
}

Trace::Trace(std::string id) : id_(std::move(id)), root_("request") {}

std::string Trace::spans_json(bool zero_ms) const {
  std::string out = "[";
  root_.append_json(&out, zero_ms);
  out += ']';
  return out;
}

std::string Trace::compact(bool zero_ms) const {
  std::string out;
  root_.append_compact(&out, zero_ms);
  return out;
}

}  // namespace bisched::engine::telemetry
