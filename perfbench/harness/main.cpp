// perfbench: the repository benchmark harness.
//
// One process boots the real `bisched_cli serve` / `route` binaries, drives a
// closed-loop workload through them over local sockets from two connection
// threads (window 1: a thread sends its next request only after the previous
// response arrived), checks every answer against its own in-process replay
// and lower bound, and prints one JSON result line last on stdout.
//
//   perfbench_harness --cli=PATH --run-dir=DIR --workload=NAME --seed=N
//                     --seconds=S --trace=0|1 [--git=SHA] [--src=DIGEST]
//
// --trace 0 reports the end-to-end metrics; --trace 1 the per-layer ones,
// from a live pass with client spans plus an in-process replay that times
// each layer's public functions (README.md lists both sets).
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <functional>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "gen.hpp"
#include "proc.hpp"
#include "replay.hpp"
#include "util.hpp"
#include "wire.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr int kConnections = 2;
constexpr int kSetupRepeats = 5;
constexpr int kReplayThreads = 2;
constexpr int kCheckThreads = 3;
// Repeated-set workloads replay at most this many requests in-process; every
// distinct instance is among them (the set-up pass touches each once).
constexpr std::size_t kReplayCap = 8192;
constexpr double kSliceSeconds = 0.5;  // traced run: untraced/traced slices
constexpr double kMaxStealShare = 0.01;
constexpr int kMeasureAttempts = 2;

struct Options {
  std::string cli;
  std::string run_dir;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string git = "n/a";
  std::string src = "n/a";
};

// Thrown on a run that cannot go on; main() reports it after every server
// has been stopped by its destructor.
struct Fatal : std::runtime_error {
  using std::runtime_error::runtime_error;
};

[[noreturn]] void die(const std::string& message) { throw Fatal(message); }

// ----------------------------------------------------------------- frames ---

const std::string kJsonHead = "{\"v\": 1, \"id\": \"";
const std::string kJsonMid = "\", \"instance\": \"";
const std::string kJsonTail = "\"}\n";
const std::string kNativeHead = "instance ";
const std::string kNewline = "\n";

std::string json_line(const Instance& inst, const std::string& id) {
  return kJsonHead + id + kJsonMid + inst.json_text + "\"}";
}

bool send_request(Conn& conn, const Instance& inst, const std::string& id, bool native) {
  const auto part = [](const std::string& s) {
    return iovec{const_cast<char*>(s.data()), s.size()};
  };
  if (native) {
    const iovec parts[] = {part(kNativeHead), part(id), part(kNewline), part(inst.text)};
    return conn.send(parts, 4);
  }
  const iovec parts[] = {part(kJsonHead), part(id), part(kJsonMid), part(inst.json_text),
                         part(kJsonTail)};
  return conn.send(parts, 5);
}

// One request as sent and answered.
struct Sent {
  const Instance* inst = nullptr;
  std::string id;
  bool native = false;
  bool traced = false;  // sent inside a traced slice
  bool answered = false;
  Clock::time_point send, written, first_byte, recv;
  std::string response;
  const char* want_tier = nullptr;  // required solve_cache provenance, if any

  double rtt_ms() const { return ms_between(send, recv); }
};

bool round_trip(Conn& conn, Sent* s) {
  s->send = Clock::now();
  if (!send_request(conn, *s->inst, s->id, s->native)) return false;
  s->written = Clock::now();
  s->answered = conn.read_line(&s->response, &s->first_byte, 30000);
  s->recv = Clock::now();
  return s->answered;
}

// ---------------------------------------------------------------- checking ---

// "" when `line` answers request `id` for `inst` as `want` says, else why not.
std::string check_response(const std::string& line, const std::string& id,
                           const Instance& inst, const Expected& want,
                           const char* want_tier) {
  JsonObject r;
  if (!parse_json_object(line, &r)) return "malformed response line";
  if (r.str("id") != id) return "id '" + r.str("id") + "' answers request '" + id + "'";
  if (r.str("status") != "ok") return "status " + r.str("status") + ": " + r.str("error");
  if (!want.ok) return "expected failure, got ok: " + want.error;
  if (r.str("hash") != want.hash) return "hash " + r.str("hash") + " != " + want.hash;
  if (r.str("solver") != want.solver) return "solver " + r.str("solver") + " != " + want.solver;
  if (r.str("makespan") != want.makespan) {
    return "makespan " + r.str("makespan") + " != " + want.makespan;
  }
  if (!meets_lower_bound(inst, r.str("makespan"))) {
    return "makespan " + r.str("makespan") + " below the lower bound";
  }
  if (want_tier != nullptr && r.str("solve_cache") != want_tier) {
    return "solve_cache " + r.str("solve_cache") + ", expected " + want_tier;
  }
  return "";
}

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void fail(const std::string& why) {
    ++failed;
    if (errors.size() < 5) errors.push_back(why);
  }
};

void check_all(const std::vector<Sent>& sent, const std::map<const Instance*, Expected>& want,
               Tally* tally) {
  for (const Sent& s : sent) {
    ++tally->attempted;
    if (!s.answered) {
      tally->fail(s.id + ": no response");
      continue;
    }
    const auto it = want.find(s.inst);
    if (it == want.end()) {
      tally->fail(s.id + ": no expected answer");
      continue;
    }
    const std::string why = check_response(s.response, s.id, *s.inst, it->second, s.want_tier);
    if (!why.empty()) tally->fail(s.id + ": " + why);
  }
}

// ----------------------------------------------------------------- servers ---

struct Server {
  std::unique_ptr<Child> child;
  std::string unix_path;  // serve: unix socket; route: empty (tcp)
  int port = 0;           // route: the router's tcp port
  std::vector<int> backend_ports;
  bool stopped = false;

  Server() = default;
  ~Server() {
    if (child && !stopped) stop();
  }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  std::unique_ptr<Conn> connect() const {
    std::string error;
    auto conn = unix_path.empty() ? Conn::connect_tcp(port, &error)
                                  : Conn::connect_unix(unix_path, &error);
    if (!conn) die(error);
    return conn;
  }
  // The server process and its children (the router's backends).
  std::vector<pid_t> tree() const {
    std::vector<pid_t> pids{child->pid()};
    for (pid_t c : child_pids(child->pid())) pids.push_back(c);
    return pids;
  }

  // Graceful stop: a `shutdown` frame, then wait for the exit (the router
  // stops its backends itself). Any process of the tree still alive is
  // killed.
  void stop() {
    stopped = true;
    const std::vector<pid_t> pids = tree();
    std::string error;
    auto conn = unix_path.empty() ? Conn::connect_tcp(port, &error)
                                  : Conn::connect_unix(unix_path, &error);
    if (conn) conn->send(std::string_view("shutdown\n"));
    child->stop(15000);
    for (pid_t p : pids) {
      if (p == child->pid()) continue;
      for (int i = 0; i < 300 && process_alive(p); ++i) ::usleep(10000);
      if (process_alive(p)) ::kill(p, SIGKILL);
    }
  }
};

bool has(const std::string& line, const char* what) { return line.find(what) != std::string::npos; }

int port_after_colon(const std::string& line) {
  return std::atoi(line.c_str() + line.rfind(':') + 1);
}

std::unique_ptr<Server> boot_serve(const Options& o, const std::string& sock,
                                   const std::string& store) {
  auto s = std::make_unique<Server>();
  s->unix_path = sock;
  s->child = std::make_unique<Child>(std::vector<std::string>{
      o.cli, "serve", "--listen=unix:" + sock, "--threads=2", "--store=" + store});
  const std::string banner = s->child->wait_line(
      [](const std::string& l) { return has(l, "serve: listening on"); }, 30000);
  if (banner.empty()) die("serve did not come up");
  return s;
}

std::unique_ptr<Server> boot_route(const Options& o) {
  auto s = std::make_unique<Server>();
  s->child = std::make_unique<Child>(std::vector<std::string>{
      o.cli, "route", "--listen=tcp:127.0.0.1:0", "--fleet=2", "--threads=1"});
  const std::string banner = s->child->wait_line(
      [](const std::string& l) { return has(l, "route: listening on tcp:"); }, 30000);
  if (banner.empty()) die("route did not come up");
  // "route: listening on tcp:127.0.0.1:PORT (2 backends)"
  const std::string endpoint = banner.substr(0, banner.find(" ("));
  s->port = port_after_colon(endpoint);
  for (int i = 0; i < 2; ++i) {
    const std::string prefix = "[backend " + std::to_string(i) + "] serve: listening on tcp:";
    const std::string line = s->child->wait_line(
        [&](const std::string& l) { return l.rfind(prefix, 0) == 0; }, 30000);
    if (line.empty()) die("backend " + std::to_string(i) + " did not come up");
    s->backend_ports.push_back(port_after_colon(line));
  }
  return s;
}

// One probe frame (`stats` / `metrics`) answered as a parsed object.
JsonObject probe(Conn& conn, const std::string& frame) {
  std::string line;
  JsonObject out;
  if (!conn.exchange(frame, &line) || !parse_json_object(line, &out)) {
    die("probe '" + frame + "' got no valid answer");
  }
  return out;
}

// ------------------------------------------------------------ closed loop ---

using Pick = std::function<std::pair<const Instance*, bool>(int conn, std::uint64_t k)>;

// cold_mix's list of distinct instances, shared by the connection threads.
// It extends block by block (each a pure function of the seed) when a run
// outruns the pre-generated part.
class RequestList {
 public:
  using Extend = std::function<std::vector<Instance>(std::uint64_t block)>;
  RequestList(std::vector<Instance> first, Extend extend)
      : extend_(std::move(extend)), blocks_(first.size() / block_size()) {
    for (Instance& inst : first) items_.push_back(std::make_unique<Instance>(std::move(inst)));
  }
  const Instance* at(std::size_t i) {
    std::lock_guard<std::mutex> lock(mu_);
    while (i >= items_.size()) {
      for (Instance& inst : extend_(blocks_++)) {
        items_.push_back(std::make_unique<Instance>(std::move(inst)));
      }
      ++extensions_;
    }
    return items_[i].get();
  }
  std::uint64_t extensions() const { return extensions_; }

 private:
  static std::size_t block_size() {
    std::size_t n = 0;
    for (const MixClass& c : cold_mix_classes()) n += static_cast<std::size_t>(c.per_block);
    return n;
  }
  std::mutex mu_;
  std::vector<std::unique_ptr<Instance>> items_;
  Extend extend_;
  std::uint64_t blocks_;
  std::uint64_t extensions_ = 0;
};

struct LoopResult {
  std::vector<Sent> sent;
  Clock::time_point start, end;
  double server_cpu_s = 0;
  double harness_cpu_s = 0;
  double rss_mib = 0;
  std::vector<double> per_pid_cpu_s;  // aligned with `pids`
  std::vector<pid_t> pids;
  double traced_s = 0, untraced_s = 0;  // time in each slice kind (traced run)
  double steal_s = 0;                     // host CPU steal over the phase
};

// Runs kConnections closed-loop threads for `seconds`. `pick(conn, k)` gives
// the k-th request of a connection: its instance and whether to send it as a
// native frame.
LoopResult closed_loop(const Server& server, double seconds, bool slices, const Pick& pick) {
  std::vector<std::unique_ptr<Conn>> conns;
  for (int c = 0; c < kConnections; ++c) conns.push_back(server.connect());
  LoopResult out;
  out.pids = server.tree();
  std::vector<std::vector<Sent>> per_conn(kConnections);
  std::vector<std::exception_ptr> thread_error(kConnections);
  std::mutex mu;
  std::condition_variable cv;
  bool go = false;
  Clock::time_point start, deadline;
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return go; });
      }
      std::vector<Sent>& mine = per_conn[static_cast<std::size_t>(c)];
      try {
        for (std::uint64_t k = 0; Clock::now() < deadline; ++k) {
          Sent s;
          const auto [inst, native] = pick(c, k);
          s.inst = inst;
          s.native = native;
          s.id = "c" + std::to_string(c) + "-" + std::to_string(k);
          if (slices) {
            const double at = std::chrono::duration<double>(Clock::now() - start).count();
            s.traced = static_cast<long>(at / kSliceSeconds) % 2 == 1;
          }
          const bool ok = round_trip(*conns[static_cast<std::size_t>(c)], &s);
          mine.push_back(std::move(s));
          if (!ok) break;  // a broken connection ends this thread's loop
        }
      } catch (...) {
        thread_error[static_cast<std::size_t>(c)] = std::current_exception();
      }
    });
  }
  for (pid_t p : out.pids) out.per_pid_cpu_s.push_back(-process_cpu_s(p));
  const double harness0 = self_cpu_s();
  const double steal0 = steal_s();
  {
    std::lock_guard<std::mutex> lock(mu);
    start = Clock::now();
    deadline = start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    go = true;
  }
  cv.notify_all();
  for (auto& t : threads) t.join();
  for (const auto& e : thread_error) {
    if (e) std::rethrow_exception(e);
  }
  out.harness_cpu_s = self_cpu_s() - harness0;
  out.steal_s = steal_s() - steal0;
  out.start = start;
  out.end = start;
  for (auto& v : per_conn) {
    for (Sent& s : v) {
      out.end = std::max(out.end, s.recv);
      out.sent.push_back(std::move(s));
    }
  }
  for (std::size_t i = 0; i < out.pids.size(); ++i) {
    out.per_pid_cpu_s[i] += process_cpu_s(out.pids[i]);
    out.server_cpu_s += out.per_pid_cpu_s[i];
    out.rss_mib += process_hwm_kib(out.pids[i]) / 1024.0;
  }
  if (slices) {
    const double total = std::chrono::duration<double>(out.end - start).count();
    for (double t = 0; t < total; t += kSliceSeconds) {
      const double len = std::min(kSliceSeconds, total - t);
      (static_cast<long>(t / kSliceSeconds) % 2 == 1 ? out.traced_s : out.untraced_s) += len;
    }
  }
  std::sort(out.sent.begin(), out.sent.end(),
            [](const Sent& a, const Sent& b) { return a.send < b.send; });
  return out;
}

// Sends every instance once over one connection (the set-up pass).
void touch_all(Conn& conn, const std::vector<const Instance*>& instances, const char* prefix,
               const char* want_tier, std::vector<Sent>* out) {
  for (std::size_t i = 0; i < instances.size(); ++i) {
    Sent s;
    s.inst = instances[i];
    s.id = prefix + std::to_string(i);
    s.want_tier = want_tier;
    round_trip(conn, &s);
    out->push_back(std::move(s));
  }
}

// ------------------------------------------------------------ self-check ---

// The routed_warm working set of seed 1, pinned: a generator change shows.
constexpr std::uint64_t kPinnedDigest = 0x6a677484174fa014ULL;

std::uint64_t set_digest(const std::vector<Instance>& set) {
  Digest d;
  for (const Instance& inst : set) d.add(inst.text);
  return d.value();
}

bool self_check(std::string* report) {
  std::ostringstream why;
  bool ok = true;
  // 1. The answer checker rejects tampered responses.
  Rng rng(42);
  const Instance inst = gen_gilbert_uniform(rng, "selfcheck", 6, 6, 2.0, 3, 8);
  const std::vector<Expected> want = solve_expected({&inst}, 1);
  const auto response = [&](const std::string& id, const std::string& solver,
                            const std::string& makespan) {
    return "{\"v\": 1, \"id\": \"" + id + "\", \"status\": \"ok\", \"hash\": \"" +
           want[0].hash + "\", \"solve_cache\": \"miss\", \"solver\": \"" + solver +
           "\", \"makespan\": \"" + makespan + "\"}";
  };
  const std::string below =
      std::to_string(static_cast<long long>(inst.lb_num - 1)) + "/" +
      std::to_string(static_cast<long long>(inst.lb_den));
  int rejected = 0;
  if (!check_response(response("a", want[0].solver, want[0].makespan), "a", inst, want[0],
                      nullptr)
           .empty()) {
    ok = false;
    why << " genuine response rejected;";
  }
  for (const std::string& bad :
       {response("b", want[0].solver, want[0].makespan),
        response("a", want[0].solver, below),
        response("a", want[0].solver == "alg1" ? "greedy" : "alg1", want[0].makespan)}) {
    if (check_response(bad, "a", inst, want[0], nullptr).empty()) {
      ok = false;
      why << " tampered response accepted: " << bad << ";";
    } else {
      ++rejected;
    }
  }
  // 2. Percentiles match a sort-and-index reference.
  int cases = 0;
  for (std::size_t n : {1u, 2u, 7u, 100u, 1001u}) {
    std::vector<double> v(n);
    for (double& x : v) x = static_cast<double>(rng.range(0, 50));  // ties on purpose
    for (double q : {0.01, 0.5, 0.9, 0.99, 1.0}) {
      std::vector<double> copy = v;
      if (percentile(copy, q) != percentile_reference(v, q)) {
        ok = false;
        why << " percentile mismatch n=" << n << " q=" << q << ";";
      }
      ++cases;
    }
  }
  // 3. The input digest is fixed for a fixed seed.
  const std::uint64_t d1 = set_digest(routed_warm_set(1));
  const std::uint64_t d2 = set_digest(routed_warm_set(1));
  const std::uint64_t d3 = set_digest(routed_warm_set(2));
  if (d1 != d2 || d1 == d3 || d1 != kPinnedDigest) {
    ok = false;
    why << " digest not fixed for a fixed seed (" << hex64(d1) << ");";
  }
  std::ostringstream r;
  r << "self-check: " << (ok ? "ok" : "FAILED") << " (" << rejected
    << "/3 tampered answers rejected, " << cases << " percentile cases match, seed-1 digest "
    << hex64(d1) << ")" << why.str();
  *report = r.str();
  return ok;
}

// ---------------------------------------------------------------- metrics ---

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, const Tally& tally, const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": "
      << tally.attempted << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
        << fmt_num(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

// ---------------------------------------------------------------- runner ---

// The measured phase on one server, with the probe deltas a traced run
// reports.
struct Measured {
  LoopResult loop;
  double loop_wakeups = 0, backend_sessions = 0, fleet_attempts = 0;
  std::vector<double> backend_solves;
  double router_cpu_s = 0, backend_cpu_s = 0;
  std::string simd = "unknown";

  double steal_share() const {
    const double s = std::chrono::duration<double>(loop.end - loop.start).count();
    return loop.steal_s / std::max(1e-9, s * std::thread::hardware_concurrency());
  }
};

// Everything one workload run produces, for the metric functions.
struct Run {
  std::vector<double> setup_s;
  std::vector<Sent> setup_sent;  // the measured server's set-up pass
  std::vector<Sent> other_sent;  // every other answer: preparation, retired passes
  Measured measured;
  std::string store_dir;  // replay store: how the measured server opened it
  bool replay_fresh_store = false;
  std::uint64_t first_touch_disk_hits = 0;
};

struct Probes {
  double wakeups = 0, sessions = 0, attempts = 0;
  std::vector<double> solves;
};

// Scrapes the live servers' public stats/metrics frames: serve directly, or
// the router plus each backend on the port from its banner.
Probes scrape(std::vector<std::unique_ptr<Conn>>& direct, Conn* router) {
  Probes p;
  for (auto& c : direct) {
    const JsonObject stats = probe(*c, "stats probe");
    const JsonObject metrics = probe(*c, "metrics probe");
    p.wakeups += prometheus_value(metrics.str("body"), "bisched_serve_loop_wakeups_total");
    p.sessions += stats.num("sessions");
    p.solves.push_back(stats.num("solve_frames"));
  }
  if (router != nullptr) {
    const JsonObject metrics = probe(*router, "metrics probe");
    p.attempts = prometheus_value(metrics.str("body"), "bisched_fleet_attempts_total");
  }
  return p;
}


Measured measure(const Options& o, const Server& server, const Pick& pick) {
  // Probe connections: serve directly, or router + each backend directly.
  std::vector<std::unique_ptr<Conn>> direct;
  std::unique_ptr<Conn> router;
  if (server.backend_ports.empty()) {
    direct.push_back(server.connect());
  } else {
    router = server.connect();
    for (int port : server.backend_ports) {
      std::string error;
      direct.push_back(Conn::connect_tcp(port, &error));
      if (!direct.back()) die(error);
    }
  }
  Measured m;
  m.simd = probe(*direct.front(), "stats ready").str("simd");
  const Probes before = o.trace ? scrape(direct, router.get()) : Probes{};
  m.loop = closed_loop(server, o.seconds, o.trace, pick);
  if (o.trace) {
    const Probes after = scrape(direct, router.get());
    m.loop_wakeups = after.wakeups - before.wakeups;
    m.backend_sessions = after.sessions - before.sessions;
    m.fleet_attempts = after.attempts - before.attempts;
    for (std::size_t i = 0; i < after.solves.size(); ++i) {
      m.backend_solves.push_back(after.solves[i] - before.solves[i]);
    }
    for (std::size_t i = 0; i < m.loop.pids.size(); ++i) {
      (i == 0 ? m.router_cpu_s : m.backend_cpu_s) += m.loop.per_pid_cpu_s[i];
    }
  }
  return m;
}

Run run_workload(const Options& o, const std::vector<const Instance*>& set,
                 const Pick& pick) {
  Run run;
  const std::string& w = o.workload;

  if (w == "hot_repeat") {
    // A separate process solves the working set into the store and exits.
    auto prep = boot_serve(o, "prep.sock", "store");
    touch_all(*prep->connect(), set, "p", "miss", &run.other_sent);
    prep->stop();
    run.store_dir = "store";
  } else if (w == "cold_mix") {
    run.store_dir = "replay-store";
    run.replay_fresh_store = true;
  }

  // One boot plus the workload's set-up pass; `index` names cold_mix's fresh
  // store.
  const auto set_up = [&](int index, std::vector<Sent>* pass) {
    std::unique_ptr<Server> server;
    if (w == "hot_repeat") {
      server = boot_serve(o, "s.sock", "store");
      touch_all(*server->connect(), set, "s", "hit-disk", pass);
    } else if (w == "cold_mix") {
      server = boot_serve(o, "s.sock", "cold-" + std::to_string(index));
      probe(*server->connect(), "stats ready");
    } else {
      server = boot_route(o);
      auto conn = server->connect();
      for (int i = 0; probe(*conn, "stats ready").num("healthy") < 2; ++i) {
        if (i > 1000) die("backends never reported healthy");
        ::usleep(10000);
      }
      touch_all(*conn, set, "s", "miss", pass);
    }
    return server;
  };
  const auto retire = [&](std::vector<Sent>* sent) {
    std::move(sent->begin(), sent->end(), std::back_inserter(run.other_sent));
    sent->clear();
  };

  std::unique_ptr<Server> server;
  std::vector<Sent> pass;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    if (server) {
      server->stop();
      retire(&pass);
    }
    const auto t0 = Clock::now();
    server = set_up(rep, &pass);
    run.setup_s.push_back(ms_between(t0, Clock::now()) * 1e-3);
  }

  // A measured phase during which the hypervisor stole more than
  // kMaxStealShare of the CPU time is run once more on a freshly set-up
  // server; the attempt with less steal is kept. Every attempt's answers
  // are checked.
  Measured kept;
  for (int attempt = 0;; ++attempt) {
    Measured m = measure(o, *server, pick);
    server->stop();
    const double share = m.steal_share();
    std::cout << "measure: attempt " << attempt + 1 << ", " << m.loop.sent.size()
              << " requests, steal_share " << fmt_num(share) << "\n";
    if (attempt == 0 || share < kept.steal_share()) {
      retire(&kept.loop.sent);
      retire(&run.setup_sent);
      kept = std::move(m);
      run.setup_sent = std::move(pass);
    } else {
      retire(&m.loop.sent);
      retire(&pass);
    }
    pass.clear();
    if (share <= kMaxStealShare || attempt + 1 == kMeasureAttempts) break;
    server = set_up(kSetupRepeats + attempt, &pass);
  }
  for (const Sent& s : run.setup_sent) {
    JsonObject r;
    if (parse_json_object(s.response, &r) && r.str("solve_cache") == "hit-disk") {
      ++run.first_touch_disk_hits;
    }
  }
  run.measured = std::move(kept);
  return run;
}

// Requests and server time per instance class, as the responses report it.
void print_class_shares(const std::vector<Sent>& sent) {
  std::map<std::string, std::pair<int, double>> by_class;
  double total = 0;
  for (const Sent& s : sent) {
    JsonObject r;
    if (!s.answered || !parse_json_object(s.response, &r)) continue;
    auto& [count, ms] = by_class[s.inst->cls];
    ++count;
    ms += r.num("elapsed_ms");
    total += r.num("elapsed_ms");
  }
  if (by_class.size() < 2) return;
  std::printf("classes (requests, mean elapsed, share of server time):");
  for (const auto& [cls, v] : by_class) {
    std::printf(" %s %d %.3g ms %.1f%%;", cls.c_str(), v.first, v.second / v.first,
                100 * v.second / total);
  }
  std::printf("\n");
  std::fflush(stdout);
}

// `enough_tail` is false when fewer than 10 samples lie beyond p99.
std::vector<Metric> end_to_end(const Run& run, bool* enough_tail) {
  const LoopResult& loop = run.measured.loop;
  std::vector<double> rtt;
  std::uint64_t ok = 0;
  std::set<const Instance*> distinct;
  double ratio_sum = 0;
  for (const Sent& s : loop.sent) {
    if (!s.answered) continue;
    JsonObject r;
    if (!parse_json_object(s.response, &r) || r.str("status") != "ok") continue;
    ++ok;
    rtt.push_back(s.rtt_ms());
    if (distinct.insert(s.inst).second) {
      __int128 num = 0, den = 1;
      parse_rational(r.str("makespan"), &num, &den);
      ratio_sum += static_cast<double>(num) / static_cast<double>(den) / s.inst->lb();
    }
  }
  const double seconds = std::chrono::duration<double>(loop.end - loop.start).count();
  print_class_shares(loop.sent);
  std::vector<double> sorted = rtt;
  const double p50 = percentile(sorted, 0.50);
  const double p99 = percentile(sorted, 0.99);
  const auto beyond = std::count_if(rtt.begin(), rtt.end(), [&](double x) { return x > p99; });
  std::cout << "latency: " << rtt.size() << " samples, p50 " << fmt_num(p50) << " ms, p99 "
            << fmt_num(p99) << " ms, " << beyond << " samples beyond p99\n";
  *enough_tail = beyond >= 10;
  if (!*enough_tail) std::cout << "latency: fewer than 10 samples beyond p99\n";
  return {
      {"throughput_rps", static_cast<double>(ok) / seconds, "1/s"},
      {"latency_p50_ms", p50, "ms"},
      {"latency_p99_ms", p99, "ms"},
      {"cpu_ms_per_req", loop.server_cpu_s * 1e3 / static_cast<double>(std::max<std::uint64_t>(ok, 1)), "ms"},
      {"server_rss_mb", loop.rss_mib, "MiB"},
      {"setup_s", median_of(run.setup_s), "s"},
      {"makespan_over_lb", distinct.empty() ? 0 : ratio_sum / static_cast<double>(distinct.size()), "ratio"},
  };
}

// Client spans of the traced slices: request > send, wait, read.
void record_client_spans(const std::vector<Sent>& sent, std::uint64_t first_id, SpanLog* log) {
  SpanLog::Track* track = log->new_track();
  const std::uint32_t root = SpanLog::name_id("client.request");
  const std::uint32_t send = SpanLog::name_id("client.send");
  const std::uint32_t wait = SpanLog::name_id("client.wait");
  const std::uint32_t read = SpanLog::name_id("client.read");
  for (std::size_t i = 0; i < sent.size(); ++i) {
    const Sent& s = sent[i];
    if (!s.traced || !s.answered) continue;
    const std::uint64_t id = first_id + i;
    const auto parent = static_cast<std::uint32_t>(track->size() + 1);
    track->push_back({root, 0, id, log->ns(s.send), log->ns(s.recv)});
    track->push_back({send, parent, id, log->ns(s.send), log->ns(s.written)});
    track->push_back({wait, parent, id, log->ns(s.written), log->ns(s.first_byte)});
    track->push_back({read, parent, id, log->ns(s.first_byte), log->ns(s.recv)});
  }
}

// Per-layer metrics of a traced run, and the verdict on each prediction.
std::vector<Metric> per_layer(const Options& o, const Run& run, const ReplayStats& rs,
                              const SpanLog& spans, double harness_ms) {
  const bool routed = o.workload == "routed_warm";
  const LoopResult& loop = run.measured.loop;
  std::vector<double> residual;
  std::vector<double> rtt;
  double ok_traced = 0, ok_untraced = 0;
  for (const Sent& s : loop.sent) {
    JsonObject r;
    if (!s.answered || !parse_json_object(s.response, &r) || r.str("status") != "ok") continue;
    residual.push_back(s.rtt_ms() - r.num("elapsed_ms"));
    rtt.push_back(s.rtt_ms());
    (s.traced ? ok_traced : ok_untraced) += 1;
  }
  const double ok = std::max(1.0, ok_traced + ok_untraced);
  const double residual_p50 = median_of(residual);
  const double overhead = ok_traced > 0 && loop.traced_s > 0 && loop.untraced_s > 0
                              ? (ok_untraced / loop.untraced_s) / (ok_traced / loop.traced_s)
                              : 1.0;

  const auto self = spans.self_ms();
  const auto total = spans.total_ms();
  const auto get = [](const std::map<std::string, double>& m, const std::string& k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  };
  const double r = std::max<double>(1, static_cast<double>(rs.requests));
  const double request_ms = std::max(get(total, "request"), 1e-9);
  const double parse_ms = get(self, "io.parse");
  double skew = 0;
  double solves = 0;
  for (double x : run.measured.backend_solves) solves += x;
  for (double x : run.measured.backend_solves) skew = std::max(skew, solves > 0 ? x / solves / 0.5 : 0);

  std::vector<Metric> m = {
      {"serve.residual_p50_ms", residual_p50, "ms"},
      {"serve.loop_wakeups_per_req", run.measured.loop_wakeups / ok, "count"},
      {"io.parse_ms_per_req", parse_ms / r, "ms"},
      {"io.parse_mb_per_s", parse_ms > 0 ? static_cast<double>(rs.parse_bytes) / 1e3 / parse_ms : 0,
       "MB/s"},
      {"api.decode_ms_per_req", get(self, "api.decode") / r, "ms"},
      {"api.render_ms_per_req", get(self, "api.render") / r, "ms"},
      {"sched.hash_ms_per_req", get(self, "sched.hash") / r, "ms"},
      {"profile_cache.ms_per_req", get(self, "profile_cache.profile") / r, "ms"},
      {"profile_cache.hit_ratio", static_cast<double>(rs.profile_hits) / r, "ratio"},
      {"result_cache.lookup_ms_per_req", get(self, "result_cache.lookup") / r, "ms"},
      {"result_cache.hit_ratio",
       static_cast<double>(rs.result_hits) / std::max<double>(1, static_cast<double>(rs.result_lookups)),
       "ratio"},
      {"result_cache.store_ms_per_req", get(self, "result_cache.store") / r, "ms"},
      {"store.open_s", rs.store_open_s, "s"},
      {"store.first_touch_disk_hits", static_cast<double>(run.first_touch_disk_hits), "count"},
      {"store.journal_bytes_per_req", static_cast<double>(rs.journal_bytes) / r, "bytes"},
      {"portfolio.ms_per_req", get(self, "portfolio.solve_auto") / r, "ms"},
      {"portfolio.attempts_per_req", static_cast<double>(rs.attempts) / r, "count"},
      {"portfolio.wasted_ms_per_req", rs.wasted_ms / r, "ms"},
  };
  double kernel_ms = 0;
  for (const char* name : {"alg5", "r2exact", "alg1", "q2exact", "exact"}) {
    const auto calls_it = rs.solver_calls.find(name);
    const double calls = calls_it == rs.solver_calls.end() ? 0 : static_cast<double>(calls_it->second);
    const double ms = get(rs.solver_ms, name);
    m.push_back({std::string("solver.") + name + ".calls", calls, "count"});
    m.push_back({std::string("solver.") + name + ".ms_per_call", calls > 0 ? ms / calls : 0, "ms"});
    m.push_back({std::string("solver.") + name + ".share", ms / request_ms, "ratio"});
  }
  for (const auto& [name, ms] : rs.solver_ms) kernel_ms += ms;
  m.push_back({"fleet.residual_p50_ms", routed ? residual_p50 : 0, "ms"});
  m.push_back({"fleet.backend_sessions_per_req", routed ? run.measured.backend_sessions / ok : 0, "count"});
  m.push_back({"fleet.attempts_per_req", routed ? run.measured.fleet_attempts / ok : 0, "count"});
  m.push_back({"fleet.router_cpu_ms_per_req", routed ? run.measured.router_cpu_s * 1e3 / ok : 0, "ms"});
  m.push_back({"fleet.backend_cpu_ms_per_req", routed ? run.measured.backend_cpu_s * 1e3 / ok : 0, "ms"});
  m.push_back({"fleet.placement_skew", routed ? skew : 0, "ratio"});
  m.push_back({"harness.cpu_ms_per_req", harness_ms, "ms"});
  m.push_back({"trace.overhead_ratio", overhead, "ratio"});
  m.push_back({"trace.residual_share", get(self, "request") / request_ms, "ratio"});

  // The layer table and the predictions, with their numbers.
  std::cout << "replay: " << rs.requests << " requests in-process, " << fmt_num(request_ms / r)
            << " ms/req; self time by layer:\n";
  std::string largest;
  double largest_ms = -1;
  for (const char* layer : {"api.decode", "io.parse", "sched.hash", "profile_cache.profile",
                            "result_cache.lookup", "portfolio.solve_auto", "result_cache.store",
                            "api.render", "request"}) {
    const double ms = get(self, layer);
    std::printf("  %-24s %10.4f ms/req %6.1f%%\n",
                std::string(layer) == "request" ? "(residual)" : layer, ms / r,
                100 * ms / request_ms);
    if (std::string(layer) != "request" && ms > largest_ms) {
      largest_ms = ms;
      largest = layer;
    }
  }
  std::fflush(stdout);
  if (o.workload == "hot_repeat") {
    std::cout << "prediction: io.parse is the largest layer on hot_repeat: "
              << (largest == "io.parse" ? "HELD" : "NOT HELD") << " (io.parse "
              << fmt_num(parse_ms / r) << " ms/req, " << fmt_num(100 * parse_ms / request_ms)
              << "% of in-process time; largest " << largest << ")\n";
  } else if (o.workload == "cold_mix") {
    const double share = kernel_ms / request_ms;
    std::cout << "prediction: solver kernels take > 3/4 of cold_mix in-process time: "
              << (share > 0.75 ? "HELD" : "NOT HELD") << " (kernels " << fmt_num(100 * share)
              << "%)\n";
  } else {
    std::vector<double> sorted = rtt;
    const double p50 = percentile(sorted, 0.5);
    std::cout << "prediction: fleet.residual_p50_ms exceeds half of routed_warm p50: "
              << (residual_p50 > 0.5 * p50 ? "HELD" : "NOT HELD") << " (residual "
              << fmt_num(residual_p50) << " ms, p50 " << fmt_num(p50) << " ms)\n";
  }
  std::cout << "trace: overhead ratio " << fmt_num(overhead) << " (untraced "
            << fmt_num(ok_untraced / std::max(loop.untraced_s, 1e-9)) << " req/s, traced "
            << fmt_num(ok_traced / std::max(loop.traced_s, 1e-9)) << " req/s)\n";
  return m;
}

int run_main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    }
    if (arg == "--cli") o.cli = value;
    else if (arg == "--run-dir") o.run_dir = value;
    else if (arg == "--workload") o.workload = value;
    else if (arg == "--seed") o.seed = std::stoull(value);
    else if (arg == "--seconds") o.seconds = std::stod(value);
    else if (arg == "--trace") o.trace = value == "1";
    else if (arg == "--git") o.git = value;
    else if (arg == "--src") o.src = value;
    else die("unknown argument " + arg);
  }
  if (o.workload != "hot_repeat" && o.workload != "cold_mix" && o.workload != "routed_warm") {
    die("--workload must be hot_repeat, cold_mix or routed_warm");
  }
  if (o.cli.empty() || o.run_dir.empty() || o.seconds <= 0) die("--cli, --run-dir and --seconds > 0 are required");
  o.cli = std::filesystem::absolute(o.cli).string();
  std::error_code ec;
  std::filesystem::remove_all(o.run_dir, ec);
  std::filesystem::create_directories(o.run_dir);
  if (::chdir(o.run_dir.c_str()) != 0) die("cannot enter " + o.run_dir);

  // Each routed request leaves a TIME_WAIT socket for 60 s, and the host's
  // count at the start changes routed throughput. routed_warm therefore
  // runs in a fresh network namespace of its own (before any thread starts,
  // so every thread and child shares it), starting from zero every time.
  const long time_wait = time_wait_sockets();
  std::string netns = "host";
  if (o.workload == "routed_warm") netns = fresh_network_namespace();

  std::string report;
  const bool self_ok = self_check(&report);
  std::cout << report << "\n";
  if (!self_ok) die("self-check failed");

  // Inputs: generated here from the seed, digested so runs can be compared.
  // hot_repeat and routed_warm repeat a fixed working set; cold_mix walks a
  // list of distinct instances that extends block by block if a run outruns
  // the pre-generated part.
  std::vector<Instance> working;
  std::unique_ptr<RequestList> list;
  if (o.workload == "hot_repeat") {
    working = hot_repeat_set(o.seed);
  } else if (o.workload == "routed_warm") {
    working = routed_warm_set(o.seed);
  } else {
    const auto blocks = static_cast<std::uint64_t>(std::ceil(o.seconds)) + 3;
    for (std::uint64_t b = 0; b < blocks; ++b) {
      auto more = cold_mix_block(o.seed, b);
      std::move(more.begin(), more.end(), std::back_inserter(working));
    }
  }
  Digest digest;
  for (const Instance& inst : working) digest.add(inst.text);
  std::cout << "inputs: workload " << o.workload << " seed " << o.seed << ", "
            << working.size() << " instances, " << digest.bytes() << " bytes, digest "
            << hex64(digest.value()) << "\n";

  std::vector<const Instance*> set;
  Pick pick;
  std::atomic<std::uint64_t> next{0};
  if (o.workload == "cold_mix") {
    list = std::make_unique<RequestList>(std::move(working), [seed = o.seed](std::uint64_t b) {
      return cold_mix_block(seed, b);
    });
    pick = [&](int, std::uint64_t) { return std::make_pair(list->at(next.fetch_add(1)), false); };
  } else {
    for (const Instance& inst : working) set.push_back(&inst);
    // Each connection walks the working set from its own half; on
    // hot_repeat every fourth request of a connection is a native frame,
    // which the server's event-loop thread parses itself. The connections
    // start half a period apart, so they do not begin by sending their
    // native frames at the same moment.
    const bool hot = o.workload == "hot_repeat";
    pick = [&set, hot](int c, std::uint64_t k) {
      const std::size_t i = (static_cast<std::size_t>(c) * set.size() / kConnections + k) %
                            set.size();
      return std::make_pair(set[i], hot && (k + 2 * static_cast<std::uint64_t>(c)) % 4 == 3);
    };
  }

  Run run = run_workload(o, set, pick);
  const LoopResult& loop = run.measured.loop;
  if (list && list->extensions() > 0) {
    std::cout << "inputs: list extended by " << list->extensions() << " blocks during the run\n";
  }

  // Expected answers. A traced run takes them from its replay where the
  // replay solved fresh; everything else is solved here from scratch.
  std::map<const Instance*, Expected> want;
  SpanLog spans(loop.start);
  ReplayStats rs;
  std::vector<ReplayItem> items;
  if (o.trace) {
    // Request ids: the set-up pass first, then the measured requests in send
    // order, the same ids the client spans carry.
    std::uint64_t request = 0;
    for (const Sent& s : run.setup_sent) {
      items.push_back({s.inst, json_line(*s.inst, s.id), request++});
    }
    record_client_spans(loop.sent, request, &spans);
    const std::size_t cap = o.workload == "cold_mix" ? SIZE_MAX : kReplayCap;
    for (const Sent& s : loop.sent) {
      if (items.size() >= cap) break;
      items.push_back({s.inst, s.native ? "" : json_line(*s.inst, s.id), request++});
    }
    if (run.replay_fresh_store) std::filesystem::create_directories(run.store_dir);
    rs = replay(items, o.workload == "routed_warm" ? "" : run.store_dir, kReplayThreads, &spans);
    if (run.replay_fresh_store || o.workload == "routed_warm") {
      for (std::size_t i = 0; i < items.size(); ++i) want.emplace(items[i].inst, rs.answers[i]);
    }
  }
  std::vector<const Instance*> todo;
  std::set<const Instance*> queued;
  const auto need = [&](const std::vector<Sent>& sent) {
    for (const Sent& s : sent) {
      if (want.count(s.inst) == 0 && queued.insert(s.inst).second) todo.push_back(s.inst);
    }
  };
  need(run.other_sent);
  need(run.setup_sent);
  need(loop.sent);
  const std::vector<Expected> solved = solve_expected(todo, kCheckThreads);
  for (std::size_t i = 0; i < todo.size(); ++i) want.emplace(todo[i], solved[i]);

  Tally tally;
  check_all(run.other_sent, want, &tally);
  check_all(run.setup_sent, want, &tally);
  check_all(loop.sent, want, &tally);
  for (std::size_t i = 0; i < items.size(); ++i) {
    const Expected& got = rs.answers[i];
    const Expected& exp = want[items[i].inst];
    if (got.hash != exp.hash || got.solver != exp.solver || got.makespan != exp.makespan) {
      tally.fail("replay request " + std::to_string(i) + " disagrees with a fresh solve");
    }
  }
  std::cout << "checked: " << tally.attempted << " answers, " << tally.failed << " failed\n";
  for (const std::string& e : tally.errors) std::cout << "check failure: " << e << "\n";

  std::uint64_t ok = 0;
  for (const Sent& s : loop.sent) ok += s.answered ? 1 : 0;
  const double harness_ms = loop.harness_cpu_s * 1e3 / static_cast<double>(std::max<std::uint64_t>(ok, 1));
  std::cout << "fingerprint: cpu \"" << cpu_model() << "\", nproc "
            << std::thread::hardware_concurrency() << ", simd " << run.measured.simd << ", build "
            << PERFBENCH_BUILD_TYPE << ", git " << o.git << ", src " << o.src
            << ", loadavg1 " << fmt_num(load_average_1m()) << ", harness.cpu_ms_per_req "
            << fmt_num(harness_ms);
  if (o.workload == "routed_warm") {
    std::cout << ", time_wait_at_start " << time_wait << ", network namespace " << netns;
  }
  std::cout << "\n";
  std::cout << "setup_s runs:";
  for (double s : run.setup_s) std::cout << " " << fmt_num(s);
  std::cout << "\n";

  std::vector<Metric> metrics;
  bool enough_tail = true;
  if (o.trace) {
    metrics = per_layer(o, run, rs, spans, harness_ms);
    const std::string path = "spans-" + o.workload + "-" + std::to_string(o.seed) + ".jsonl";
    spans.write_jsonl(path);
    std::cout << "trace: " << spans.size() << " spans written to " << o.run_dir << "/" << path
              << "\n";
  } else {
    metrics = end_to_end(run, &enough_tail);
  }
  const bool correct = tally.failed == 0 && enough_tail;
  print_result(correct, tally, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
