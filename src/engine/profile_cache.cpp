#include "engine/profile_cache.hpp"

#include <algorithm>

#include "engine/store/codec.hpp"
#include "sched/instance_hash.hpp"

namespace bisched::engine {

ProfileCache::ProfileCache(std::size_t max_entries, store::DiskTier* disk)
    : map_(std::max<std::size_t>(1, max_entries)), disk_(disk) {}

std::optional<CachedProfile> ProfileCache::find(std::uint64_t hash) {
  CachedProfile out;
  out.hash = hash;
  std::lock_guard<std::mutex> lock(mu_);
  if (const InstanceProfile* found = map_.get(hash)) {
    ++hits_;
    out.profile = *found;
    out.tier = CacheTier::kMemory;
    return out;
  }
  if (disk_ != nullptr) {
    if (const std::string* blob = disk_->get(store::encode_profile_key(hash))) {
      InstanceProfile decoded;
      if (store::decode_profile(*blob, &decoded)) {
        ++disk_hits_;
        map_.put(hash, decoded);  // promote: the next lookup is a memory hit
        out.profile = std::move(decoded);
        out.tier = CacheTier::kDisk;
        return out;
      }
    }
  }
  return std::nullopt;
}

CachedProfile ProfileCache::insert(std::uint64_t hash, InstanceProfile profile) {
  CachedProfile out;
  out.hash = hash;
  out.profile = std::move(profile);
  std::lock_guard<std::mutex> lock(mu_);
  ++misses_;
  map_.put(hash, out.profile);
  if (disk_ != nullptr) {
    disk_->put(store::encode_profile_key(hash), store::encode_profile(out.profile));
  }
  return out;
}

template <typename Instance>
CachedProfile ProfileCache::lookup(const Instance& inst) {
  const std::uint64_t hash = instance_hash(inst);
  if (auto found = find(hash)) return std::move(*found);
  // Probe outside the lock: concurrent misses on the same instance race
  // benignly (both compute the same profile; the second insert overwrites
  // with an identical value).
  return insert(hash, probe(inst));
}

CachedProfile ProfileCache::profile(const UniformInstance& inst) { return lookup(inst); }

CachedProfile ProfileCache::profile(const UnrelatedInstance& inst) { return lookup(inst); }

ProfileCache::Stats ProfileCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.hits = hits_;
  s.disk_hits = disk_hits_;
  s.misses = misses_;
  s.evictions = map_.evictions();
  s.entries = map_.size();
  s.disk_entries = disk_ != nullptr ? disk_->entries() : 0;
  return s;
}

void ProfileCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
  hits_ = 0;
  disk_hits_ = 0;
  misses_ = 0;
}

void ProfileCache::flush_disk() {
  std::lock_guard<std::mutex> lock(mu_);
  if (disk_ != nullptr) disk_->flush();
}

bool ProfileCache::checkpoint_disk(std::string* error) {
  std::lock_guard<std::mutex> lock(mu_);
  return disk_ == nullptr || disk_->compact(error);
}

}  // namespace bisched::engine
