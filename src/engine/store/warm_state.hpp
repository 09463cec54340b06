// WarmState: the one warm-state handle the engine context carries.
//
// Before this module, api::run_request, BatchRunner, and the serve Server
// each threaded TWO cache pointers (ProfileCache*, ResultCache*) through
// every signature, and warmth was a per-process accident — both caches died
// with the process. WarmState collapses the plumbing to a single handle and
// makes warmth a first-class artifact: constructed with a store directory,
// it opens a store::CacheStore there, wires a "profile" and a "result"
// namespace (engine/store/cache_store.hpp) behind the two in-memory caches,
// and loads whatever a previous process persisted — so a fleet shard can be
// warmed by pointing it at a store directory.
//
// Lifecycle:
//   boot        WarmState(options) — loads snapshot + journal per namespace;
//               anomalies (rejected versions, torn tails) in *message.
//   steady      flush() — pushes buffered journal appends to the OS; serve
//               calls it periodically, so a crash loses at most the last
//               interval.
//   shutdown    checkpoint() — compacts both namespaces (snapshot rewrite +
//               journal reset); batch/solve/serve call it on clean exit.
//
// Without a store directory the handle is memory-only and behaves exactly
// like the two plain caches it replaced.
#pragma once

#include <memory>
#include <string>

#include "engine/profile_cache.hpp"
#include "engine/result_cache.hpp"
#include "engine/store/cache_store.hpp"
#include "engine/telemetry/engine_metrics.hpp"

namespace bisched::engine {

struct WarmOptions {
  std::string store_dir;  // empty = memory-only
  std::size_t profile_entries = 1 << 20;      // memory-tier LRU bounds
  std::size_t result_entries = ResultCache::kDefaultMaxEntries;
};

class WarmState {
 public:
  // Memory-only warm state with default bounds.
  WarmState();
  // With options.store_dir set, opens (creating if needed) the persistent
  // store and loads both namespaces. On store failure the state degrades to
  // memory-only and *message explains; load anomalies (rejected files, torn
  // tails) are appended to *message with the state still usable.
  explicit WarmState(const WarmOptions& options, std::string* message = nullptr);
  WarmState(const WarmState&) = delete;
  WarmState& operator=(const WarmState&) = delete;

  ProfileCache& profiles() { return *profiles_; }
  ResultCache& results() { return *results_; }
  const ProfileCache& profiles() const { return *profiles_; }
  const ResultCache& results() const { return *results_; }

  // The metric registry every boundary sharing this warm state records into
  // (api::run_request per solve; serve adds its frame/session series). Owned
  // here rather than process-global so embedded engines and tests stay
  // isolated. mirror_metrics() ratchets the caches' own Stats counters into
  // the registry — call it before scraping.
  telemetry::EngineMetrics& telemetry() { return *telemetry_; }
  void mirror_metrics();

  bool persistent() const { return store_ != nullptr; }
  // Empty when memory-only.
  const std::string& store_dir() const;
  // True when the store is open but another process holds its write lease:
  // disk-tier entries are served, nothing new is persisted.
  bool store_read_only() const { return store_ != nullptr && store_->read_only(); }

  // Journal flush on both namespaces (cheap; safe from any thread).
  void flush();
  // Snapshot compaction on both namespaces; false with *error on failure.
  bool checkpoint(std::string* error = nullptr);

 private:
  std::unique_ptr<store::CacheStore> store_;  // null = memory-only
  // Declared after store_: the caches borrow the store's tiers and must be
  // destroyed first.
  std::unique_ptr<ProfileCache> profiles_;
  std::unique_ptr<ResultCache> results_;
  std::unique_ptr<telemetry::EngineMetrics> telemetry_;
};

}  // namespace bisched::engine
