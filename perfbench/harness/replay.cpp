#include "replay.hpp"

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "engine/api.hpp"
#include "engine/portfolio.hpp"
#include "engine/registry.hpp"
#include "engine/store/warm_state.hpp"
#include "io/format.hpp"
#include "sched/instance_hash.hpp"

namespace perfbench {

namespace engine = bisched::engine;

namespace {

template <typename Fn>
void run_threads(int threads, std::size_t count, const Fn& body) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i; (i = next.fetch_add(1)) < count;) body(t, i);
    });
  }
  for (auto& th : pool) th.join();
}

std::uint64_t journal_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  if (dir.empty() || !std::filesystem::exists(dir, ec)) return 0;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    if (e.path().extension() == ".journal") total += e.file_size(ec);
  }
  return total;
}

std::mutex g_names_mu;
std::vector<std::string>& names() {
  static std::vector<std::string> table;
  return table;
}

}  // namespace

std::vector<Expected> solve_expected(const std::vector<const Instance*>& instances,
                                     int threads) {
  const auto& registry = engine::SolverRegistry::builtin();
  std::vector<Expected> out(instances.size());
  run_threads(threads, instances.size(), [&](int, std::size_t i) {
    std::istringstream in(instances[i]->text);
    const bisched::ParsedInstance parsed = bisched::parse_instance(in);
    Expected& e = out[i];
    if (!parsed.ok()) {
      e.error = "parse error: " + parsed.error;
      return;
    }
    const engine::SolveOptions options;
    const auto solve = [&](const auto& inst) {
      e.hash = bisched::hash_hex(bisched::instance_hash(inst));
      return engine::solve_auto(registry, inst, options);
    };
    const engine::SolveResult r =
        parsed.uniform ? solve(*parsed.uniform) : solve(*parsed.unrelated);
    e.ok = r.ok;
    e.error = r.error;
    e.solver = r.solver;
    e.makespan = r.cmax.to_string();
  });
  return out;
}

// ------------------------------------------------------------------ spans ---

SpanLog::Track* SpanLog::new_track() {
  std::lock_guard<std::mutex> lock(mu_);
  tracks_.push_back(std::make_unique<Track>());
  return tracks_.back().get();
}

std::uint32_t SpanLog::name_id(const std::string& name) {
  std::lock_guard<std::mutex> lock(g_names_mu);
  auto& table = names();
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (table[i] == name) return static_cast<std::uint32_t>(i);
  }
  table.push_back(name);
  return static_cast<std::uint32_t>(table.size() - 1);
}

const std::string& SpanLog::name_of(std::uint32_t id) {
  std::lock_guard<std::mutex> lock(g_names_mu);
  return names()[id];
}

std::map<std::string, double> SpanLog::self_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> out;
  for (const auto& track : tracks_) {
    std::vector<std::int64_t> self(track->size());
    for (std::size_t i = 0; i < track->size(); ++i) {
      const Span& s = (*track)[i];
      self[i] += s.end_ns - s.start_ns;
      if (s.parent != 0) self[s.parent - 1] -= s.end_ns - s.start_ns;
    }
    for (std::size_t i = 0; i < track->size(); ++i) {
      out[name_of((*track)[i].name)] += static_cast<double>(self[i]) * 1e-6;
    }
  }
  return out;
}

std::map<std::string, double> SpanLog::total_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> out;
  for (const auto& track : tracks_) {
    for (const Span& s : *track) {
      out[name_of(s.name)] += static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    }
  }
  return out;
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& track : tracks_) n += track->size();
  return n;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t t = 0; t < tracks_.size(); ++t) {
    for (std::size_t i = 0; i < tracks_[t]->size(); ++i) {
      const Span& s = (*tracks_[t])[i];
      out << "{\"track\": " << t << ", \"span\": " << i + 1 << ", \"parent\": " << s.parent
          << ", \"request\": " << s.request << ", \"name\": \"" << name_of(s.name)
          << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns << "}\n";
    }
  }
  return static_cast<bool>(out);
}

// ----------------------------------------------------------------- replay ---

ReplayStats replay(const std::vector<ReplayItem>& items, const std::string& store_dir,
                   int threads, SpanLog* log) {
  const auto& registry = engine::SolverRegistry::builtin();
  const engine::SolveOptions options;
  ReplayStats stats;
  stats.answers.resize(items.size());

  engine::WarmOptions warm_options;
  warm_options.store_dir = store_dir;
  const auto t_open = Clock::now();
  engine::WarmState warm(warm_options);
  stats.store_open_s = ms_between(t_open, Clock::now()) * 1e-3;
  const std::uint64_t journal_before = journal_bytes(store_dir);

  const std::uint32_t kRequest = SpanLog::name_id("request");
  const std::uint32_t kDecode = SpanLog::name_id("api.decode");
  const std::uint32_t kParse = SpanLog::name_id("io.parse");
  const std::uint32_t kHash = SpanLog::name_id("sched.hash");
  const std::uint32_t kProfile = SpanLog::name_id("profile_cache.profile");
  const std::uint32_t kLookup = SpanLog::name_id("result_cache.lookup");
  const std::uint32_t kSolve = SpanLog::name_id("portfolio.solve_auto");
  const std::uint32_t kStore = SpanLog::name_id("result_cache.store");
  const std::uint32_t kRender = SpanLog::name_id("api.render");
  const std::uint32_t kNamed = SpanLog::name_id("measure.solve_named");

  std::vector<SpanLog::Track*> tracks;
  for (int t = 0; t < threads; ++t) tracks.push_back(log->new_track());
  std::vector<ReplayStats> per_thread(static_cast<std::size_t>(threads));

  run_threads(threads, items.size(), [&](int t, std::size_t idx) {
    const ReplayItem& item = items[idx];
    SpanLog::Track& track = *tracks[static_cast<std::size_t>(t)];
    ReplayStats& st = per_thread[static_cast<std::size_t>(t)];
    Expected& answer = stats.answers[idx];
    const std::size_t root = track.size();
    track.push_back({kRequest, 0, item.request, 0, 0});
    const auto parent = static_cast<std::uint32_t>(root + 1);
    auto mark = Clock::now();
    track[root].start_ns = log->ns(mark);
    // Closes the span that started at `mark` and starts the next one.
    const auto span = [&](std::uint32_t name) {
      const auto now = Clock::now();
      track.push_back({name, parent, item.request, log->ns(mark), log->ns(now)});
      mark = now;
    };

    std::string text_storage;
    const std::string* text = &item.inst->text;
    if (!item.json_line.empty()) {
      std::string error;
      auto req = engine::decode_request_json(item.json_line, &error);
      span(kDecode);
      if (!req.has_value()) {
        answer.error = "decode: " + error;
        track[root].end_ns = log->ns(mark);
        return;
      }
      text_storage = std::move(req->inline_text);
      text = &text_storage;
    }
    std::istringstream in(*text);
    mark = Clock::now();
    const bisched::ParsedInstance parsed = bisched::parse_instance(in);
    span(kParse);
    st.parse_bytes += text->size();
    if (!parsed.ok()) {
      answer.error = "parse error: " + parsed.error;
      track[root].end_ns = log->ns(mark);
      return;
    }

    engine::SolveResponse row;
    std::int64_t named_start = -1;  // the winner-alone solve, when one ran
    std::int64_t named_end = -1;
    const auto dispatch = [&](const auto& inst) {
      row.jobs = inst.num_jobs();
      row.machines = inst.num_machines();
      mark = Clock::now();
      const std::uint64_t h = bisched::instance_hash(inst);
      span(kHash);
      (void)h;
      const engine::CachedProfile cached = warm.profiles().profile(inst);
      span(kProfile);
      st.profile_hits += cached.hit() ? 1 : 0;
      row.instance_hash = bisched::hash_hex(cached.hash);
      row.cache_tier = cached.tier;
      row.result_cache_used = true;
      const engine::ResultKey key = engine::make_result_key(cached.hash, "auto", options);
      engine::CacheTier tier = engine::CacheTier::kMiss;
      auto hit = warm.results().lookup(key, &tier);
      span(kLookup);
      ++st.result_lookups;
      if (hit.has_value()) {
        ++st.result_hits;
        row.result_tier = tier;
        return std::move(*hit);
      }
      engine::SolveResult fresh = engine::solve_auto(registry, inst, options, cached.profile);
      const auto solve_end = Clock::now();
      const double auto_ms = ms_between(mark, solve_end);
      span(kSolve);
      warm.results().store(key, fresh);
      span(kStore);
      ++st.solves;
      st.attempts += static_cast<std::uint64_t>(fresh.solvers_tried);
      if (!fresh.ok) return fresh;
      if (fresh.solvers_tried <= 1) {
        st.solver_calls[fresh.solver] += 1;
        st.solver_ms[fresh.solver] += auto_ms;
        return fresh;
      }
      // Several solvers ran: time the winner alone, outside the request, and
      // charge the rest of solve_auto to the solvers that failed before it.
      const auto t0 = Clock::now();
      const engine::SolveResult named =
          engine::solve_named(registry, fresh.solver, inst, options, cached.profile);
      const auto t1 = Clock::now();
      (void)named;
      const double named_ms = ms_between(t0, t1);
      const double wasted = std::max(0.0, auto_ms - named_ms);
      st.wasted_ms += wasted;
      st.solver_calls[fresh.solver] += 1;
      st.solver_ms[fresh.solver] += named_ms;
      const auto eligible = registry.applicable(cached.profile);
      const int failed = fresh.solvers_tried - 1;
      for (int k = 0; k < failed && k < static_cast<int>(eligible.size()); ++k) {
        st.solver_calls[eligible[static_cast<std::size_t>(k)]->name()] += 1;
        st.solver_ms[eligible[static_cast<std::size_t>(k)]->name()] += wasted / failed;
      }
      named_start = log->ns(t0);
      named_end = log->ns(t1);
      return fresh;
    };
    const engine::SolveResult result =
        parsed.uniform ? dispatch(*parsed.uniform) : dispatch(*parsed.unrelated);

    mark = Clock::now();
    row.id = "r" + std::to_string(item.request);
    row.model = parsed.uniform ? "uniform" : "unrelated";
    row.ok = result.ok;
    row.error = result.error;
    row.solver = result.solver;
    row.guarantee = result.guarantee;
    row.makespan = result.cmax.to_string();
    row.makespan_value = result.cmax.to_double();
    const std::string rendered = engine::encode_response_json(row);
    span(kRender);
    track[root].end_ns = log->ns(mark);
    (void)rendered;
    // The winner-alone solve is measurement, not request work: its own root.
    if (named_start >= 0) track.push_back({kNamed, 0, item.request, named_start, named_end});

    ++st.requests;
    answer.ok = result.ok;
    answer.error = result.error;
    answer.hash = row.instance_hash;
    answer.solver = result.solver;
    answer.makespan = row.makespan;
  });

  warm.flush();
  stats.journal_bytes = journal_bytes(store_dir) - journal_before;
  for (const ReplayStats& st : per_thread) {
    stats.requests += st.requests;
    stats.parse_bytes += st.parse_bytes;
    stats.profile_hits += st.profile_hits;
    stats.result_lookups += st.result_lookups;
    stats.result_hits += st.result_hits;
    stats.solves += st.solves;
    stats.attempts += st.attempts;
    stats.wasted_ms += st.wasted_ms;
    for (const auto& [k, v] : st.solver_calls) stats.solver_calls[k] += v;
    for (const auto& [k, v] : st.solver_ms) stats.solver_ms[k] += v;
  }
  return stats;
}

}  // namespace perfbench
