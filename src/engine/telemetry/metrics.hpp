// Lock-cheap metrics: counters, gauges, and fixed-bucket histograms behind
// one registry, exposed in Prometheus text format.
//
// The engine's hot paths (solver-pool workers, the serve session engine) update
// metrics on every request, so an update must never take a lock: Counter,
// Gauge, and Histogram are plain atomics with relaxed ordering — an `inc` is
// one fetch_add, a histogram `observe` is a branchless-ish bucket search plus
// two fetch_adds. The registry's mutex guards only registration and
// exposition, which happen at boot and at scrape time respectively.
//
// Identity model (a deliberate subset of Prometheus):
//   - a *family* is (name, type, help); families expose in registration
//     order, so scrape output is stable run to run.
//   - a *sample* is a family member with a fixed label string (rendered
//     form, e.g. `cache="profile",tier="memory"`); registering the same
//     (name, labels) twice returns the same metric object, so independent
//     subsystems can share a counter by name.
//   - histograms are cumulative fixed-bucket (`le` upper bounds plus the
//     implicit +Inf bucket) with a `_sum` and `_count`, and the snapshot
//     can extract p50/p95/p99 by linear interpolation within the bucket —
//     the same estimate a PromQL histogram_quantile would compute.
//
// Counters additionally support `mirror()` — monotonic ratchet to an
// externally maintained total — so pre-telemetry sources (the cache Stats
// structs) can be reflected into the registry at scrape time without
// double-counting.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace bisched::engine::telemetry {

// Monotonic counter. `inc` from any thread; `mirror` ratchets the value up
// to an externally tracked total (never down — counters do not regress).
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  void mirror(std::uint64_t total) {
    std::uint64_t cur = value_.load(std::memory_order_relaxed);
    while (cur < total &&
           !value_.compare_exchange_weak(cur, total, std::memory_order_relaxed)) {
    }
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Point-in-time value; set/add from any thread.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double d) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

// One consistent-enough read of a histogram (buckets are read individually;
// under concurrent recording the snapshot may straddle an observe, which is
// the standard scrape-time trade).
struct HistogramSnapshot {
  std::vector<double> bounds;           // finite `le` upper bounds, ascending
  std::vector<std::uint64_t> buckets;   // bounds.size() + 1 (+Inf last), NON-cumulative
  std::uint64_t count = 0;
  double sum = 0;

  // Quantile estimate by linear interpolation within the owning bucket —
  // what PromQL histogram_quantile computes. q in [0, 1]; returns 0 on an
  // empty histogram; observations in the +Inf bucket clamp to the largest
  // finite bound (there is nothing to interpolate toward).
  double percentile(double q) const;
};

// Fixed-bucket latency histogram. Bounds are set at registration and never
// change; observe() is lock-free.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(double value);
  HistogramSnapshot snapshot() const;
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }

  // 0.1ms .. 10s in a 1-2.5-5 ladder — the default for solve latencies.
  static std::vector<double> default_latency_bounds_ms();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0};
};

// Metric families in registration order; exposition is Prometheus text
// format (version 0.0.4: # HELP / # TYPE / samples).
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // `labels` is the rendered label body without braces (e.g.
  // `status="ok"`), empty for an unlabeled sample. Re-registering an
  // existing (name, labels) returns the same object; registering one name
  // as two different types aborts (a programming error, not input).
  Counter& counter(const std::string& name, const std::string& help,
                   const std::string& labels = "");
  Gauge& gauge(const std::string& name, const std::string& help,
               const std::string& labels = "");
  Histogram& histogram(const std::string& name, const std::string& help,
                       std::vector<double> bounds, const std::string& labels = "");

  // The full registry as Prometheus text exposition.
  std::string expose() const;

 private:
  enum class Type { kCounter, kGauge, kHistogram };
  struct Sample {
    std::string labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    std::string name;
    std::string help;
    Type type = Type::kCounter;
    std::vector<std::unique_ptr<Sample>> samples;
  };

  Family& family(const std::string& name, const std::string& help, Type type);
  Sample& sample(Family& fam, const std::string& labels);

  mutable std::mutex mu_;  // registration + exposition only; never on update
  std::vector<std::unique_ptr<Family>> families_;
};

}  // namespace bisched::engine::telemetry
