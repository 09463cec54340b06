#include "engine/store/cache_store.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <utility>

#include "engine/fault.hpp"
#include "engine/store/codec.hpp"
#include "util/fnv.hpp"

namespace bisched::engine::store {

namespace fs = std::filesystem;

namespace {

// 8-byte magics: "bsst" (bisched store) + file role + format version. The
// trailing digit is the *container* format; the value codec is versioned
// separately through NamespaceConfig::schema.
constexpr std::string_view kSnapshotMagic = "bsstsnp1";
constexpr std::string_view kJournalMagic = "bsstjrn1";

// header = magic(8) + schema(u32) + flags(u64): 20 bytes.
constexpr std::uint64_t kHeaderSize = 20;

std::string header_bytes(std::string_view magic, const NamespaceConfig& config) {
  ByteWriter w;
  w.raw(magic);
  w.u32(config.schema);
  w.u64(config.flags);
  return w.take();
}

// One record = u32 key_len, u32 val_len, key, val, u64 fnv1a over the
// preceding bytes. The checksum is what turns "crash mid-append" into a
// detectable torn tail instead of a garbage entry.
std::string record_bytes(const std::string& key, const std::string& value) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(key.size()));
  w.u32(static_cast<std::uint32_t>(value.size()));
  w.raw(key);
  w.raw(value);
  const std::uint64_t check = fnv1a(w.bytes());
  w.u64(check);
  return w.take();
}

std::string read_whole_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

const char* tier_label(CacheTier tier) {
  switch (tier) {
    case CacheTier::kMemory:
      return "hit-memory";
    case CacheTier::kDisk:
      return "hit-disk";
    case CacheTier::kMiss:
      break;
  }
  return "miss";
}

// -------------------------------------------------------------- DiskTier ---

DiskTier::DiskTier(std::string dir, NamespaceConfig config, bool writable)
    : dir_(std::move(dir)), config_(std::move(config)), writable_(writable) {}

std::string DiskTier::snapshot_path() const { return dir_ + "/" + config_.name + ".snap"; }

std::string DiskTier::journal_path() const {
  return dir_ + "/" + config_.name + ".journal";
}

std::uint64_t DiskTier::load_file(const std::string& path, std::string_view magic,
                                  bool* rejected, std::size_t* entries) const {
  *rejected = false;
  *entries = 0;
  std::error_code ec;
  if (!fs::exists(path, ec)) return 0;  // absent is a fresh store, not an anomaly

  const std::string blob = read_whole_file(path);
  const std::string header = header_bytes(magic, config_);
  if (blob.size() < kHeaderSize || std::string_view(blob).substr(0, kHeaderSize) != header) {
    *rejected = true;
    return 0;
  }

  std::uint64_t pos = kHeaderSize;
  while (pos < blob.size()) {
    // Record prefix: two u32 lengths. Anything short of a full, checksummed
    // record from here on is a torn tail — stop at the last good offset.
    ByteReader lens(std::string_view(blob).substr(pos));
    std::uint32_t key_len = 0;
    std::uint32_t val_len = 0;
    if (!(lens.u32(&key_len) && lens.u32(&val_len))) break;
    const std::uint64_t body = 8ull + key_len + val_len;
    if (pos + body + 8 > blob.size()) break;
    const std::string_view record(blob.data() + pos, body);
    ByteReader check_reader(std::string_view(blob).substr(pos + body, 8));
    std::uint64_t check = 0;
    (void)check_reader.u64(&check);
    if (check != fnv1a(record)) break;
    map_[blob.substr(pos + 8, key_len)] = blob.substr(pos + 8 + key_len, val_len);
    ++*entries;
    pos += body + 8;
  }
  return pos;
}

bool DiskTier::open_journal_at(std::uint64_t valid_size) {
  journal_.close();
  journal_.clear();
  const std::string path = journal_path();
  if (valid_size < kHeaderSize) {
    // Absent, rejected, or torn-inside-the-header: start the journal over.
    std::ofstream fresh(path, std::ios::binary | std::ios::trunc);
    if (!fresh) return false;
    fresh << header_bytes(kJournalMagic, config_);
    if (!fresh.flush()) return false;
  } else {
    std::error_code ec;
    const auto actual = fs::file_size(path, ec);
    if (!ec && actual > valid_size &&
        ::truncate(path.c_str(), static_cast<off_t>(valid_size)) != 0) {
      return false;
    }
  }
  journal_.open(path, std::ios::binary | std::ios::app);
  return static_cast<bool>(journal_);
}

void DiskTier::load() {
  LoadReport report;
  std::uint64_t journal_size = 0;
  const std::uint64_t snap_end = load_file(snapshot_path(), kSnapshotMagic,
                                           &report.snapshot_rejected,
                                           &report.snapshot_entries);
  (void)snap_end;  // snapshots are atomic (tmp + rename): no tail to repair
  journal_size = load_file(journal_path(), kJournalMagic, &report.journal_rejected,
                           &report.journal_entries);
  std::error_code ec;
  const auto on_disk = fs::exists(journal_path(), ec) ? fs::file_size(journal_path(), ec) : 0;
  if (!ec && !report.journal_rejected && on_disk > journal_size && journal_size >= kHeaderSize) {
    report.torn_bytes = on_disk - journal_size;
  }

  std::ostringstream msg;
  if (report.snapshot_rejected) {
    msg << config_.name << ": snapshot rejected (magic/schema/flags mismatch); ";
  }
  if (report.journal_rejected) {
    msg << config_.name << ": journal rejected (magic/schema/flags mismatch); ";
  }
  if (report.torn_bytes != 0) {
    msg << config_.name << (writable_ ? ": truncated " : ": ignored ")
        << report.torn_bytes << " torn journal bytes; ";
  }
  // A read-only tier (lost write lease) must not touch the files at all —
  // no journal truncation, no fresh header. The tear (if any) is repaired
  // by the lease holder; entries past it are simply not loaded here.
  if (writable_ && !open_journal_at(report.journal_rejected ? 0 : journal_size)) {
    msg << config_.name << ": cannot open journal for append (store is read-only); ";
  }
  report.message = msg.str();
  if (!report.message.empty()) report.message.resize(report.message.size() - 2);
  load_report_ = std::move(report);
}

const std::string* DiskTier::get(const std::string& key) const {
  const auto it = map_.find(key);
  return it != map_.end() ? &it->second : nullptr;
}

void DiskTier::put(const std::string& key, std::string value) {
  if (journal_.is_open()) {
    const std::string record = record_bytes(key, value);
    // Fault injection (inert without BISCHED_FAULT=torn-journal:K): the
    // K+1th append writes HALF a record, flushes it, and dies — a real
    // process death mid-append, so the crash-recovery tests exercise the
    // torn-tail truncation against an actual kill, not a simulated file.
    switch (fault::on_journal_append()) {
      case fault::JournalAction::kTear:
        journal_.write(record.data(), static_cast<std::streamsize>(record.size() / 2));
        journal_.flush();
        fault::torn_exit();
      case fault::JournalAction::kAppendDurable:
        journal_.write(record.data(), static_cast<std::streamsize>(record.size()));
        journal_.flush();
        break;
      case fault::JournalAction::kNone:
        journal_.write(record.data(), static_cast<std::streamsize>(record.size()));
        break;
    }
    ++journal_appends_;
    check_journal("append");
  }
  map_[key] = std::move(value);
}

void DiskTier::flush() {
  if (journal_.is_open()) {
    journal_.flush();
    check_journal("flush");
  }
}

// A failed journal write is sticky on the stream (badbit: every later
// append is a no-op), which would silently void the "a crash loses at most
// one flush interval" durability bound — so the first failure is reported
// loudly, once. The in-memory map stays correct either way, and a
// successful compact() rewrites everything and re-arms the warning.
void DiskTier::check_journal(const char* what) {
  if (journal_ || journal_warned_) return;
  journal_warned_ = true;
  std::cerr << "store: journal " << what << " failed on '" << journal_path()
            << "' (disk full / unwritable?); persistence is degraded until a "
               "successful checkpoint — entries since the failure exist only "
               "in memory\n";
}

bool DiskTier::compact(std::string* error) {
  // A read-only handle checkpoints as a successful no-op: the data is the
  // lease holder's to persist.
  if (!writable_) return true;
  const std::string tmp = snapshot_path() + ".tmp";
  {
    std::ofstream snap(tmp, std::ios::binary | std::ios::trunc);
    if (!snap) {
      if (error != nullptr) *error = "cannot write '" + tmp + "'";
      return false;
    }
    snap << header_bytes(kSnapshotMagic, config_);
    for (const auto& [key, value] : map_) {
      const std::string record = record_bytes(key, value);
      snap.write(record.data(), static_cast<std::streamsize>(record.size()));
    }
    snap.flush();
    if (!snap) {
      if (error != nullptr) *error = "write failed on '" + tmp + "'";
      return false;
    }
  }
  // Publish atomically, THEN reset the journal: a crash between the two
  // leaves entries present in both files, and replaying them is an
  // idempotent re-put — never data loss.
  if (std::rename(tmp.c_str(), snapshot_path().c_str()) != 0) {
    if (error != nullptr) *error = "cannot rename '" + tmp + "' into place";
    return false;
  }
  if (!open_journal_at(0)) {
    if (error != nullptr) *error = "cannot reset journal '" + journal_path() + "'";
    return false;
  }
  journal_appends_ = 0;
  journal_warned_ = false;  // everything is on disk again; re-arm the warning
  return true;
}

// ------------------------------------------------------------ CacheStore ---

std::unique_ptr<CacheStore> CacheStore::open(const std::string& dir, std::string* error) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec || !fs::is_directory(dir, ec)) {
    if (error != nullptr) *error = "cannot create store directory '" + dir + "'";
    return nullptr;
  }
  auto store = std::unique_ptr<CacheStore>(new CacheStore(dir));
  store->acquire_lease();
  return store;
}

CacheStore::~CacheStore() {
  if (owns_lease_) ::unlink(lease_path().c_str());
}

std::string CacheStore::lease_path() const { return dir_ + "/LOCK"; }

// Takes the single-writer lease, or degrades this handle to read-only.
// O_EXCL is the atomic claim; the file body is the owner pid. A held lease
// is broken only when the owner is provably gone: its pid no longer exists
// (ESRCH — the common case after any crash on the same boot), or the
// heartbeat mtime is over an hour stale (a pid-recycled survivor). A live
// owner that simply predates us wins: we degrade rather than corrupt.
void CacheStore::acquire_lease() {
  const std::string path = lease_path();
  for (int attempt = 0; attempt < 2; ++attempt) {
    const int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (fd >= 0) {
      const std::string body = std::to_string(::getpid()) + "\n";
      const ssize_t n = ::write(fd, body.data(), body.size());
      (void)n;
      ::close(fd);
      owns_lease_ = true;
      return;
    }
    if (errno != EEXIST) {
      // Unexpected (permissions?): don't risk a second writer.
      read_only_ = true;
      lease_warning_ = "store '" + dir_ + "': cannot take write lease '" + path +
                       "' (" + std::strerror(errno) + "); running read-only";
      return;
    }

    // Lease held. Who by, and are they still alive?
    std::ifstream lock_file(path);
    long pid = 0;
    const bool parsed = static_cast<bool>(lock_file >> pid) && pid > 0;
    bool stale = !parsed;  // unreadable/garbage lock: a torn writer, take over
    if (parsed && static_cast<pid_t>(pid) != ::getpid()) {
      if (::kill(static_cast<pid_t>(pid), 0) != 0 && errno == ESRCH) {
        stale = true;
      } else {
        struct stat st{};
        if (::stat(path.c_str(), &st) == 0) {
          const auto age = std::time(nullptr) - st.st_mtime;
          if (age > 3600) stale = true;  // heartbeat dead for an hour
        }
      }
    }
    if (!stale) {
      read_only_ = true;
      lease_warning_ = "store '" + dir_ + "': write lease held by pid " +
                       std::to_string(pid) +
                       "; this process runs READ-ONLY (cached entries are "
                       "served, nothing new is persisted)";
      return;
    }
    ::unlink(path.c_str());  // stale: break it and retry the O_EXCL claim
  }
  // Lost the post-unlink race to another claimant.
  read_only_ = true;
  lease_warning_ = "store '" + dir_ +
                   "': lost the write-lease race; this process runs READ-ONLY";
}

void CacheStore::heartbeat() {
  if (owns_lease_) {
    ::utimensat(AT_FDCWD, lease_path().c_str(), nullptr, 0);
  }
}

DiskTier* CacheStore::open_namespace(const NamespaceConfig& config) {
  // Idempotent per name: a second open returns the SAME tier. Two tiers over
  // one journal file would interleave their appends with each other, so the
  // store never constructs them.
  for (const auto& tier : tiers_) {
    if (tier->config().name == config.name) return tier.get();
  }
  tiers_.push_back(
      std::unique_ptr<DiskTier>(new DiskTier(dir_, config, !read_only_)));
  tiers_.back()->load();
  return tiers_.back().get();
}

}  // namespace bisched::engine::store
