// Warm-state store tests: the binary codecs (round trips + golden byte
// pins — the persisted formats are a cross-process contract, like the
// instance hash), the DiskTier's crash-safety (torn journal tails
// truncated, corrupt snapshot magic rejected, schema/flag bumps rejected as
// clean cold starts), WarmState tiering (a second handle over the same
// directory serves disk-tier hits), and the acceptance path: a second CLI
// *process* pointed at a populated --store answers from disk with
// responses bit-identical to a store-off run, provenance fields aside.
#include "engine/store/cache_store.hpp"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli_process.hpp"
#include "engine/api.hpp"
#include "engine/registry.hpp"
#include "engine/store/codec.hpp"
#include "engine/store/warm_state.hpp"
#include "io/format.hpp"
#include "sched/simd_dispatch.hpp"
#include "testing_util.hpp"
#include "util/prng.hpp"

namespace bisched {
namespace {

namespace fs = std::filesystem;
namespace store = engine::store;

using engine::CacheTier;
using engine::WarmOptions;
using engine::WarmState;

std::string to_hex(const std::string& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out += digits[b >> 4];
    out += digits[b & 0xf];
  }
  return out;
}

// A fresh per-test directory; removed on destruction.
struct TempDir {
  explicit TempDir(const char* name) : path(fs::temp_directory_path() / name) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  fs::path path;
};

// ------------------------------------------------------------------ codec ---

TEST(StoreCodec, ProfileRoundTripsAndMatchesTheGoldenBytes) {
  engine::InstanceProfile p;
  p.model = engine::kModelUniform;
  p.jobs = 4;
  p.machines = 2;
  p.num_edges = 2;
  p.unit_jobs = false;
  p.graph_classes = 0x0b;
  p.total_work = 7;
  p.speed_lcm = 3;

  const std::string bytes = store::encode_profile(p);
  // The persisted layout is a cross-process contract: changing it must bump
  // kProfileSchema AND this pin, deliberately.
  EXPECT_EQ(to_hex(bytes),
            "010000000400000002000000020000000000000000"
            "0b000000000000000700000000000000"
            "0300000000000000");

  engine::InstanceProfile back;
  ASSERT_TRUE(store::decode_profile(bytes, &back));
  EXPECT_EQ(back.model, p.model);
  EXPECT_EQ(back.jobs, p.jobs);
  EXPECT_EQ(back.machines, p.machines);
  EXPECT_EQ(back.num_edges, p.num_edges);
  EXPECT_EQ(back.unit_jobs, p.unit_jobs);
  EXPECT_EQ(back.graph_classes, p.graph_classes);
  EXPECT_EQ(back.total_work, p.total_work);
  EXPECT_EQ(back.speed_lcm, p.speed_lcm);

  // Truncated or padded blobs are rejected, never half-decoded.
  EXPECT_FALSE(store::decode_profile(bytes.substr(0, bytes.size() - 1), &back));
  EXPECT_FALSE(store::decode_profile(bytes + "x", &back));
}

TEST(StoreCodec, ResultRoundTripsAndMatchesTheGoldenBytes) {
  engine::SolveResult r;
  r.ok = true;
  r.solver = "q2";
  r.guarantee = "exact";
  r.schedule.machine_of = {0, 1};
  r.cmax = Rational(7, 2);
  r.wall_ms = 0;
  r.solvers_tried = 1;

  const std::string bytes = store::encode_result(r);
  EXPECT_EQ(to_hex(bytes),
            "0100000000"
            "020000007132"
            "050000006578616374"
            "020000000000000001000000"
            "07000000000000000200000000000000"
            "0000000000000000"
            "01000000");

  engine::SolveResult back;
  ASSERT_TRUE(store::decode_result(bytes, &back));
  EXPECT_TRUE(back.ok);
  EXPECT_EQ(back.solver, "q2");
  EXPECT_EQ(back.guarantee, "exact");
  EXPECT_EQ(back.schedule.machine_of, r.schedule.machine_of);
  EXPECT_EQ(back.cmax, Rational(7, 2));
  EXPECT_EQ(back.solvers_tried, 1);

  EXPECT_FALSE(store::decode_result(bytes.substr(0, bytes.size() - 2), &back));
  // A corrupt job count must not drive a huge allocation or a bad loop.
  // Offset 20 = u8 ok + three length-prefixed strings ("", "q2", "exact"):
  // the first byte of the schedule-length u32.
  std::string corrupt = bytes;
  corrupt[20] = '\xff';
  corrupt[21] = '\xff';
  EXPECT_FALSE(store::decode_result(corrupt, &back));
}

TEST(StoreCodec, ResultKeyEncodingCoversEveryDeterminant) {
  engine::SolveOptions solve;
  solve.eps = 0.1;
  const store::ResultKey base = store::make_result_key(42, "auto", solve);
  EXPECT_EQ(base.schema, store::kResultKeySchema);

  const std::string encoded = store::encode_result_key(base);
  // Any single determinant flipped must change the persisted key bytes.
  auto changed = [&](auto mutate) {
    store::ResultKey other = base;
    mutate(other);
    return store::encode_result_key(other) != encoded;
  };
  EXPECT_TRUE(changed([](store::ResultKey& k) { k.hash = 43; }));
  EXPECT_TRUE(changed([](store::ResultKey& k) { k.alg = "alg1"; }));
  EXPECT_TRUE(changed([](store::ResultKey& k) { k.eps = 0.2; }));
  EXPECT_TRUE(changed([](store::ResultKey& k) { k.run_all = true; }));
  EXPECT_TRUE(changed([](store::ResultKey& k) { k.budget_ms = 50; }));
  EXPECT_TRUE(changed([](store::ResultKey& k) { k.schema = 2; }));
  EXPECT_EQ(store::encode_result_key(store::make_result_key(42, "auto", solve)),
            encoded);
}

// --------------------------------------------------------------- DiskTier ---

store::NamespaceConfig test_namespace(std::uint32_t schema = 1,
                                      std::uint64_t flags = 0) {
  return {"t", schema, flags};
}

TEST(CacheStoreDisk, EntriesPersistAcrossReopenViaJournalAndSnapshot) {
  TempDir dir("bisched_store_persist");
  std::string error;
  {
    auto cache_store = store::CacheStore::open(dir.path.string(), &error);
    ASSERT_NE(cache_store, nullptr) << error;
    auto* tier = cache_store->open_namespace(test_namespace());
    EXPECT_TRUE(tier->load_report().message.empty()) << tier->load_report().message;
    tier->put("k1", "v1");
    tier->put("k2", "v2");
    tier->put("k1", "v1b");  // overwrite: last put wins after replay
    tier->flush();
  }
  {
    // Journal-only reopen (no compaction happened).
    auto cache_store = store::CacheStore::open(dir.path.string(), &error);
    ASSERT_NE(cache_store, nullptr) << error;
    auto* tier = cache_store->open_namespace(test_namespace());
    EXPECT_EQ(tier->load_report().journal_entries, 3u);
    ASSERT_NE(tier->get("k1"), nullptr);
    EXPECT_EQ(*tier->get("k1"), "v1b");
    ASSERT_NE(tier->get("k2"), nullptr);
    EXPECT_EQ(tier->entries(), 2u);
    ASSERT_TRUE(tier->compact(&error)) << error;
  }
  {
    // Snapshot-only reopen (compaction reset the journal).
    auto cache_store = store::CacheStore::open(dir.path.string(), &error);
    ASSERT_NE(cache_store, nullptr) << error;
    auto* tier = cache_store->open_namespace(test_namespace());
    EXPECT_EQ(tier->load_report().snapshot_entries, 2u);
    EXPECT_EQ(tier->load_report().journal_entries, 0u);
    EXPECT_EQ(tier->entries(), 2u);
    EXPECT_EQ(*tier->get("k1"), "v1b");
  }
}

TEST(CacheStoreDisk, TornJournalTailIsTruncatedAndAppendingResumes) {
  TempDir dir("bisched_store_torn");
  const std::string journal = (dir.path / "t.journal").string();
  std::string error;
  std::uintmax_t good_size = 0;
  {
    auto cache_store = store::CacheStore::open(dir.path.string(), &error);
    auto* tier = cache_store->open_namespace(test_namespace());
    tier->put("k1", "v1");
    tier->put("k2", "v2");
    tier->flush();
    good_size = fs::file_size(journal);
    tier->put("k3", "v3");
    tier->flush();
  }
  // Crash mid-append: chop the last record in half.
  ASSERT_EQ(::truncate(journal.c_str(), static_cast<off_t>(good_size + 5)), 0);
  {
    auto cache_store = store::CacheStore::open(dir.path.string(), &error);
    auto* tier = cache_store->open_namespace(test_namespace());
    EXPECT_EQ(tier->load_report().journal_entries, 2u);
    EXPECT_EQ(tier->load_report().torn_bytes, 5u);
    EXPECT_NE(tier->load_report().message.find("torn"), std::string::npos);
    EXPECT_EQ(tier->get("k3"), nullptr);  // the torn entry is gone...
    EXPECT_EQ(*tier->get("k2"), "v2");    // ...everything before it survives
    EXPECT_EQ(fs::file_size(journal), good_size);  // tail physically removed
    tier->put("k4", "v4");  // appending resumes at the repaired tail
    tier->flush();
  }
  {
    auto cache_store = store::CacheStore::open(dir.path.string(), &error);
    auto* tier = cache_store->open_namespace(test_namespace());
    EXPECT_TRUE(tier->load_report().message.empty()) << tier->load_report().message;
    EXPECT_EQ(tier->entries(), 3u);
    ASSERT_NE(tier->get("k4"), nullptr);
    EXPECT_EQ(*tier->get("k4"), "v4");
  }

  // A bit-flip inside a record (checksum mismatch, not a short read) is
  // also treated as a tear: everything from the flipped record on is
  // dropped and physically truncated.
  {
    std::fstream f(journal, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(good_size) + 10);
    f.put('\xee');
  }
  {
    auto cache_store = store::CacheStore::open(dir.path.string(), &error);
    auto* tier = cache_store->open_namespace(test_namespace());
    EXPECT_EQ(tier->entries(), 2u);
    EXPECT_EQ(tier->get("k4"), nullptr);
    EXPECT_EQ(fs::file_size(journal), good_size);
  }
}

TEST(CacheStoreDisk, CorruptSnapshotMagicIsRejectedNotMisread) {
  TempDir dir("bisched_store_magic");
  const std::string snapshot = (dir.path / "t.snap").string();
  std::string error;
  {
    auto cache_store = store::CacheStore::open(dir.path.string(), &error);
    auto* tier = cache_store->open_namespace(test_namespace());
    tier->put("k1", "v1");
    ASSERT_TRUE(tier->compact(&error)) << error;
  }
  {
    std::fstream f(snapshot, std::ios::in | std::ios::out | std::ios::binary);
    f.put('X');  // stomp the magic
  }
  {
    auto cache_store = store::CacheStore::open(dir.path.string(), &error);
    auto* tier = cache_store->open_namespace(test_namespace());
    EXPECT_TRUE(tier->load_report().snapshot_rejected);
    EXPECT_NE(tier->load_report().message.find("snapshot rejected"), std::string::npos);
    EXPECT_EQ(tier->entries(), 0u);  // cold start, not a misdecoded entry
    // The next compaction heals the store in place.
    tier->put("k2", "v2");
    ASSERT_TRUE(tier->compact(&error)) << error;
  }
  {
    auto cache_store = store::CacheStore::open(dir.path.string(), &error);
    auto* tier = cache_store->open_namespace(test_namespace());
    EXPECT_TRUE(tier->load_report().message.empty());
    EXPECT_EQ(tier->entries(), 1u);
    EXPECT_NE(tier->get("k2"), nullptr);
  }
}

TEST(CacheStoreDisk, SchemaOrFlagMismatchIsACleanColdStart) {
  TempDir dir("bisched_store_schema");
  std::string error;
  {
    auto cache_store = store::CacheStore::open(dir.path.string(), &error);
    auto* tier = cache_store->open_namespace(test_namespace(/*schema=*/1));
    tier->put("k1", "v1");
    ASSERT_TRUE(tier->compact(&error)) << error;
    tier->put("k2", "v2");  // one journaled entry on top of the snapshot
    tier->flush();
  }
  {
    // A codec version bump: both files were recorded under schema 1 and
    // must be rejected — a v2 decoder reading v1 bytes would be garbage.
    auto cache_store = store::CacheStore::open(dir.path.string(), &error);
    auto* tier = cache_store->open_namespace(test_namespace(/*schema=*/2));
    EXPECT_TRUE(tier->load_report().snapshot_rejected);
    EXPECT_TRUE(tier->load_report().journal_rejected);
    EXPECT_EQ(tier->entries(), 0u);
    tier->put("k3", "v3");
    tier->flush();
  }
  {
    // The journal now speaks schema 2: a v2 reader loads it (the schema-1
    // snapshot stays rejected until the next compaction replaces it).
    auto cache_store = store::CacheStore::open(dir.path.string(), &error);
    auto* v2 = cache_store->open_namespace(test_namespace(/*schema=*/2));
    EXPECT_TRUE(v2->load_report().snapshot_rejected);
    EXPECT_EQ(v2->entries(), 1u);
    EXPECT_NE(v2->get("k3"), nullptr);
  }
  {
    // Acceptance is per FILE: a v1 reader still loads the (schema-1)
    // snapshot but rejects — and resets — the schema-2 journal. Mixed
    // versions never mix entries.
    auto cache_store = store::CacheStore::open(dir.path.string(), &error);
    auto* v1 = cache_store->open_namespace(test_namespace(/*schema=*/1));
    EXPECT_TRUE(v1->load_report().journal_rejected);
    EXPECT_FALSE(v1->load_report().snapshot_rejected);
    EXPECT_EQ(v1->entries(), 1u);
    EXPECT_NE(v1->get("k1"), nullptr);
    EXPECT_EQ(v1->get("k3"), nullptr);
  }
  {
    // Same schema, different semantic flags: a full cold start (the journal
    // was just reset to schema-1/flags-0, the snapshot is schema-1/flags-0).
    auto cache_store = store::CacheStore::open(dir.path.string(), &error);
    auto* flagged = cache_store->open_namespace(test_namespace(1, /*flags=*/1));
    EXPECT_TRUE(flagged->load_report().snapshot_rejected);
    EXPECT_TRUE(flagged->load_report().journal_rejected);
    EXPECT_EQ(flagged->entries(), 0u);
  }
}

// -------------------------------------------------------------- WarmState ---

TEST(WarmStateStore, SecondHandleOverTheSameDirectoryServesDiskTierHits) {
  TempDir dir("bisched_store_warm");
  Rng rng(61);
  const auto inst = testing::random_uniform_instance(5, 5, 2, 4, 3, rng);
  std::ostringstream text;
  write_instance(text, inst);
  const auto parse = [&] {
    std::istringstream in(text.str());
    return parse_instance(in);
  };

  const auto& registry = engine::SolverRegistry::builtin();
  WarmOptions options;
  options.store_dir = dir.path.string();
  std::string message;

  engine::SolveResponse cold;
  {
    WarmState first(options, &message);
    EXPECT_TRUE(message.empty()) << message;
    cold = engine::run_parsed(registry, first, "auto", {}, parse());
    ASSERT_TRUE(cold.ok) << cold.error;
    EXPECT_EQ(cold.cache_tier, CacheTier::kMiss);
    EXPECT_EQ(cold.result_tier, CacheTier::kMiss);
    // Same handle, same process: memory tier, and the same answer.
    const auto warm = engine::run_parsed(registry, first, "auto", {}, parse());
    EXPECT_EQ(warm.cache_tier, CacheTier::kMemory);
    EXPECT_EQ(warm.result_tier, CacheTier::kMemory);
    EXPECT_EQ(warm.solver, cold.solver);
    EXPECT_EQ(warm.makespan, cold.makespan);
    ASSERT_TRUE(first.checkpoint(&message)) << message;
  }

  // A fresh handle (fresh memory tiers — what a new process gets): the
  // solve is answered from the disk tier, bit-identical.
  WarmState second(options, &message);
  EXPECT_TRUE(message.empty()) << message;
  const auto from_disk = engine::run_parsed(registry, second, "auto", {}, parse());
  ASSERT_TRUE(from_disk.ok) << from_disk.error;
  EXPECT_EQ(from_disk.cache_tier, CacheTier::kDisk);
  EXPECT_EQ(from_disk.result_tier, CacheTier::kDisk);
  EXPECT_EQ(from_disk.solver, cold.solver);
  EXPECT_EQ(from_disk.makespan, cold.makespan);
  EXPECT_EQ(from_disk.makespan_value, cold.makespan_value);
  EXPECT_EQ(from_disk.instance_hash, cold.instance_hash);
  EXPECT_EQ(second.results().stats().disk_hits, 1u);
  EXPECT_EQ(second.profiles().stats().disk_hits, 1u);

  // Promotion: the disk hit now lives in the memory tier.
  const auto promoted = engine::run_parsed(registry, second, "auto", {}, parse());
  EXPECT_EQ(promoted.cache_tier, CacheTier::kMemory);
  EXPECT_EQ(promoted.result_tier, CacheTier::kMemory);

  // A different option set shares nothing: the key covers eps.
  engine::SolveOptions finer;
  finer.eps = 0.01;
  const auto other = engine::run_parsed(registry, second, "auto", finer, parse());
  ASSERT_TRUE(other.ok) << other.error;
  EXPECT_EQ(other.result_tier, CacheTier::kMiss);
}

// ------------------------------------------------------------ Write lease ---
// One writer per store directory. A second opener against a LIVE lease
// degrades to read-only (serves loaded entries, persists nothing, never
// releases someone else's lock); a lease whose owner is provably gone —
// garbage pid from a torn writer, or a pid the kernel no longer knows — is
// broken and taken over.

TEST(StoreLease, SecondLiveOpenerDegradesToReadOnlyAndStaleLeasesAreBroken) {
  TempDir dir("bisched_store_lease");
  const std::string lock = (dir.path / "LOCK").string();
  std::string error;

  auto owner = store::CacheStore::open(dir.path.string(), &error);
  ASSERT_NE(owner, nullptr) << error;
  EXPECT_FALSE(owner->read_only());
  EXPECT_TRUE(owner->lease_warning().empty()) << owner->lease_warning();
  auto* tier = owner->open_namespace(test_namespace());
  tier->put("k1", "v1");
  tier->flush();

  {
    // Held by a live pid (ours — exactly the case the pid-liveness check
    // must NOT misread as stale): degrade, don't corrupt.
    auto reader = store::CacheStore::open(dir.path.string(), &error);
    ASSERT_NE(reader, nullptr) << error;
    EXPECT_TRUE(reader->read_only());
    EXPECT_NE(reader->lease_warning().find("READ-ONLY"), std::string::npos)
        << reader->lease_warning();
    auto* read_tier = reader->open_namespace(test_namespace());
    ASSERT_NE(read_tier->get("k1"), nullptr);  // loaded entries still served
    read_tier->put("k2", "v2");  // accepted in memory, never journaled
    read_tier->flush();
    EXPECT_EQ(read_tier->journal_appends(), 0u);
  }
  // The reader's destructor must not release the owner's lease.
  EXPECT_TRUE(fs::exists(lock));

  // Nothing the reader wrote reached disk: a fresh (read-only) load sees
  // only the owner's entry.
  {
    auto check = store::CacheStore::open(dir.path.string(), &error);
    auto* check_tier = check->open_namespace(test_namespace());
    EXPECT_NE(check_tier->get("k1"), nullptr);
    EXPECT_EQ(check_tier->get("k2"), nullptr);
  }

  // The owner releases on destruction.
  owner.reset();
  EXPECT_FALSE(fs::exists(lock));

  // A garbage lock body is a torn writer: broken and taken over.
  {
    std::ofstream(lock) << "not-a-pid\n";
    auto taker = store::CacheStore::open(dir.path.string(), &error);
    ASSERT_NE(taker, nullptr) << error;
    EXPECT_FALSE(taker->read_only()) << taker->lease_warning();
  }

  // A lease whose owner pid is dead (ESRCH) is broken and taken over.
  {
    const pid_t child = ::fork();
    if (child == 0) ::_exit(0);
    ASSERT_GT(child, 0);
    ::waitpid(child, nullptr, 0);  // reaped: the pid is provably gone
    std::ofstream(lock) << child << "\n";
    auto taker = store::CacheStore::open(dir.path.string(), &error);
    ASSERT_NE(taker, nullptr) << error;
    EXPECT_FALSE(taker->read_only()) << taker->lease_warning();
  }
}

// ---------------------------------------------------------------------------
// The acceptance path, end to end through the real CLI: a second PROCESS
// pointed at a populated --store serves result-cache hits from disk, with
// responses bit-identical to store-off runs apart from the provenance
// fields. BISCHED_CLI_PATH is injected by CMake.

#ifdef BISCHED_CLI_PATH

using testing::CliRun;
using testing::EnvEdits;
using testing::run_cli;

TEST(StoreCli, SecondProcessHitsDiskWithResponsesBitIdenticalToStoreOff) {
  TempDir dir("bisched_store_cli");
  Rng rng(62);
  const auto inst = testing::random_uniform_instance(6, 6, 2, 4, 3, rng);
  const std::string file = (dir.path / "q.inst").string();
  {
    std::ofstream out(file);
    write_instance(out, inst);
  }
  const std::string store_dir = (dir.path / "store").string();
  const std::vector<std::string> base = {"solve", "--alg=auto", "--json", "--stable",
                                         file};
  auto with_store = base;
  with_store.insert(with_store.begin() + 1, "--store=" + store_dir);

  const CliRun first = run_cli(with_store);
  ASSERT_EQ(first.exit_code, 0) << first.out;
  EXPECT_NE(first.out.find("\"solve_cache\": \"miss\""), std::string::npos) << first.out;

  // Process #2, same store: both the probe and the full solve come off disk.
  const CliRun second = run_cli(with_store);
  ASSERT_EQ(second.exit_code, 0) << second.out;
  EXPECT_NE(second.out.find("\"cache\": \"hit-disk\""), std::string::npos) << second.out;
  EXPECT_NE(second.out.find("\"solve_cache\": \"hit-disk\""), std::string::npos)
      << second.out;

  // Process #3, no store at all.
  const CliRun without = run_cli(base);
  ASSERT_EQ(without.exit_code, 0) << without.out;

  // Bit-identical modulo provenance: normalize ONLY the two cache fields
  // and require byte equality of the full v1 line (wall_ms is zeroed by
  // --stable on both sides).
  const auto normalized = [](std::string line) {
    const auto replace = [&line](const std::string& from, const std::string& to) {
      const auto at = line.find(from);
      if (at != std::string::npos) line.replace(at, from.size(), to);
    };
    replace("\"cache\": \"hit-disk\"", "\"cache\": \"miss\"");
    replace("\"solve_cache\": \"hit-disk\"", "\"solve_cache\": \"miss\"");
    return line;
  };
  EXPECT_EQ(normalized(second.out), without.out);
  EXPECT_EQ(first.out, without.out);
}

// Process-granularity crash safety: a CLI process KILLED mid-journal-append
// (BISCHED_FAULT=torn-journal — half a record flushed, then _exit) leaves a
// store the next process repairs on load: the torn tail is truncated and
// reported, everything persisted before the tear still serves from disk,
// and the victim entry is simply gone.

TEST(StoreCli, ProcessDeathMidJournalAppendIsRepairedOnTheNextOpen) {
  TempDir dir("bisched_store_crash");
  Rng rng(63);
  const auto survivor = testing::random_uniform_instance(6, 6, 2, 4, 3, rng);
  const auto victim = testing::random_uniform_instance(7, 7, 3, 4, 3, rng);
  const std::string survivor_file = (dir.path / "survivor.inst").string();
  const std::string victim_file = (dir.path / "victim.inst").string();
  {
    std::ofstream out(survivor_file);
    write_instance(out, survivor);
  }
  {
    std::ofstream out(victim_file);
    write_instance(out, victim);
  }
  const std::string store_dir = (dir.path / "store").string();
  const auto solve_args = [&](const std::string& file) {
    return std::vector<std::string>{"solve", "--store=" + store_dir, "--alg=auto",
                                    "--json", "--stable", file};
  };

  // Seed the store (clean exit): the survivor's entries are durable.
  const CliRun seeded = run_cli(solve_args(survivor_file));
  ASSERT_EQ(seeded.exit_code, 0) << seeded.out << seeded.err;
  EXPECT_NE(seeded.out.find("\"solve_cache\": \"miss\""), std::string::npos) << seeded.out;

  // The victim run dies INSIDE its first journal append — a real process
  // death with half a record flushed, not a simulated truncate.
  const CliRun victim_run =
      run_cli(solve_args(victim_file), "", EnvEdits{{"BISCHED_FAULT", "torn-journal:0"}});
  ASSERT_EQ(victim_run.exit_code, 42) << victim_run.err;

  // Next process: the tear is repaired and reported on stderr; the
  // survivor still answers from the disk tier.
  const CliRun recovered = run_cli(solve_args(survivor_file));
  ASSERT_EQ(recovered.exit_code, 0) << recovered.out << recovered.err;
  EXPECT_NE(recovered.err.find("torn"), std::string::npos) << recovered.err;
  EXPECT_NE(recovered.out.find("\"cache\": \"hit-disk\""), std::string::npos)
      << recovered.out;
  EXPECT_NE(recovered.out.find("\"solve_cache\": \"hit-disk\""), std::string::npos)
      << recovered.out;

  // The victim's own entry never made it in: it re-solves as a miss (and
  // this clean run leaves a repaired store behind — no more warnings).
  const CliRun resolved = run_cli(solve_args(victim_file));
  ASSERT_EQ(resolved.exit_code, 0) << resolved.out << resolved.err;
  EXPECT_NE(resolved.out.find("\"solve_cache\": \"miss\""), std::string::npos)
      << resolved.out;
  const CliRun clean = run_cli(solve_args(victim_file));
  ASSERT_EQ(clean.exit_code, 0) << clean.out << clean.err;
  EXPECT_EQ(clean.err.find("torn"), std::string::npos) << clean.err;
}

TEST(CliCatalog, ListAlgsJsonReportsResolvedSimdLevel) {
  const CliRun run = run_cli({"list-algs", "--json"});
  ASSERT_EQ(run.exit_code, 0) << run.out;
  // The subprocess inherits this process's environment, so it resolves the
  // same level simd_level() reports here (BISCHED_SIMD override included).
  EXPECT_NE(run.out.find(std::string("\"simd\": \"") + to_string(simd_level()) + "\""),
            std::string::npos)
      << run.out;
}

#endif  // BISCHED_CLI_PATH

}  // namespace
}  // namespace bisched
