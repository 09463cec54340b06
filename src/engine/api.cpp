#include "engine/api.hpp"

#include <charconv>
#include <chrono>
#include <fstream>
#include <ostream>
#include <sstream>
#include <utility>

#include "engine/portfolio.hpp"
#include "io/jsonl.hpp"
#include "sched/instance_hash.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace bisched::engine {

SolveOptions resolved_options(const SolveRequest& req, const SolveOptions& defaults) {
  SolveOptions out = defaults;
  if (req.has_eps) out.eps = req.eps;
  if (req.has_run_all) out.run_all = req.run_all;
  if (req.has_budget_ms) out.budget_ms = req.budget_ms;
  return out;
}

// ----------------------------------------------------------------- codec ---

std::string encode_request_json(const SolveRequest& req) {
  std::ostringstream out;
  out << "{\"v\": " << kApiVersion;
  if (!req.id.empty()) out << ", \"id\": " << json_quote(req.id);
  if (!req.path.empty()) out << ", \"path\": " << json_quote(req.path);
  if (req.has_inline_text) out << ", \"instance\": " << json_quote(req.inline_text);
  if (!req.alg.empty()) out << ", \"alg\": " << json_quote(req.alg);
  if (req.has_eps) out << ", \"eps\": " << fmt_double_exact(req.eps);
  if (req.has_run_all) out << ", \"all\": " << (req.run_all ? "true" : "false");
  if (req.has_budget_ms) out << ", \"budget_ms\": " << fmt_double_exact(req.budget_ms);
  if (req.want_spans) out << ", \"spans\": true";
  out << '}';
  return out.str();
}

namespace {

bool parse_double_field(const std::string& text, double* out) {
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), *out);
  return ec == std::errc() && ptr == text.data() + text.size();
}

}  // namespace

std::optional<SolveRequest> decode_request_json(std::string_view line,
                                                std::string* error,
                                                std::string* salvaged_id) {
  std::string local;
  std::string& err = error != nullptr ? *error : local;
  auto object = parse_flat_json_object(line, &err);
  if (!object.has_value()) return std::nullopt;
  if (salvaged_id != nullptr) {
    const auto id_it = object->find("id");
    if (id_it != object->end()) *salvaged_id = id_it->second;
  }

  // Unknown keys are rejected, not skipped: a typo like "ep" or "algo"
  // would otherwise solve with defaults and report success.
  for (const auto& [key, value] : *object) {
    if (key != "v" && key != "id" && key != "path" && key != "instance" &&
        key != "alg" && key != "eps" && key != "all" && key != "budget_ms" &&
        key != "spans") {
      err = "unknown key \"" + key + "\"";
      return std::nullopt;
    }
  }
  const auto get = [&](const char* key) -> std::string* {
    const auto it = object->find(key);
    return it != object->end() ? &it->second : nullptr;
  };

  SolveRequest req;
  if (const auto* v = get("v")) {
    if (*v != std::to_string(kApiVersion)) {
      err = "unsupported api version \"" + *v + "\" (this engine speaks v" +
            std::to_string(kApiVersion) + ")";
      return std::nullopt;
    }
  }
  if (const auto* id = get("id")) req.id = *id;
  if (const auto* alg = get("alg")) req.alg = *alg;
  if (const auto* eps = get("eps")) {
    if (!parse_double_field(*eps, &req.eps)) {
      err = "eps is not a number";
      return std::nullopt;
    }
    req.has_eps = true;
  }
  if (const auto* all = get("all")) {
    if (*all != "true" && *all != "false") {
      err = "all must be true or false";
      return std::nullopt;
    }
    req.has_run_all = true;
    req.run_all = *all == "true";
  }
  if (const auto* budget = get("budget_ms")) {
    if (!parse_double_field(*budget, &req.budget_ms)) {
      err = "budget_ms is not a number";
      return std::nullopt;
    }
    req.has_budget_ms = true;
  }
  if (const auto* spans = get("spans")) {
    if (*spans != "true" && *spans != "false") {
      err = "spans must be true or false";
      return std::nullopt;
    }
    req.want_spans = *spans == "true";
  }
  auto* path = get("path");
  auto* inline_text = get("instance");
  if ((path != nullptr) == (inline_text != nullptr)) {
    err = "exactly one of \"path\" / \"instance\" required";
    return std::nullopt;
  }
  // The source moves out of the map: an inline instance is most of the line.
  if (path != nullptr) {
    req.path = std::move(*path);
  } else {
    req.inline_text = std::move(*inline_text);
    req.has_inline_text = true;
  }
  return req;
}

// Empty when the instance never reached the cache (open/parse failure);
// otherwise the serving tier: "hit-memory" / "hit-disk" / "miss".
const char* response_cache_label(const SolveResponse& r) {
  if (r.instance_hash.empty()) return "";
  return tier_label(r.cache_tier);
}

// Empty when no result cache was consulted (parse failure).
const char* response_result_label(const SolveResponse& r) {
  if (r.instance_hash.empty() || !r.result_cache_used) return "";
  return tier_label(r.result_tier);
}

void write_response_json(std::ostream& out, const SolveResponse& r) {
  out << "{\"v\": " << kApiVersion;
  if (!r.id.empty()) out << ", \"id\": " << json_quote(r.id);
  out << ", \"seq\": " << r.seq << ", \"file\": " << json_quote(r.file)
      << ", \"status\": " << (r.ok ? "\"ok\"" : "\"error\"")
      << ", \"model\": " << json_quote(r.model) << ", \"jobs\": " << r.jobs
      << ", \"machines\": " << r.machines
      << ", \"hash\": " << json_quote(r.instance_hash)
      << ", \"cache\": " << json_quote(response_cache_label(r))
      << ", \"solve_cache\": " << json_quote(response_result_label(r))
      << ", \"solver\": " << json_quote(r.solver)
      << ", \"guarantee\": " << json_quote(r.guarantee)
      << ", \"makespan\": " << json_quote(r.makespan)
      << ", \"makespan_value\": " << fmt_double_exact(r.makespan_value)
      << ", \"wall_ms\": " << fmt_double_exact(r.wall_ms)
      << ", \"elapsed_ms\": " << fmt_double_exact(r.elapsed_ms)
      << ", \"error\": " << json_quote(r.error);
  if (!r.trace_id.empty()) out << ", \"trace_id\": " << json_quote(r.trace_id);
  if (r.show_spans && r.trace != nullptr) {
    out << ", \"spans\": " << r.trace->spans_json(r.stable_timing);
  }
  out << "}\n";
}

std::string encode_response_json(const SolveResponse& r) {
  std::ostringstream out;
  write_response_json(out, r);
  return out.str();
}

void write_response_header_csv(std::ostream& out) {
  out << "seq,file,status,model,jobs,machines,hash,cache,solve_cache,solver,guarantee,"
         "makespan,makespan_value,wall_ms,elapsed_ms,error\n";
}

void write_response_csv(std::ostream& out, const SolveResponse& r) {
  out << r.seq << ',' << csv_quote(r.file) << ',' << (r.ok ? "ok" : "error") << ','
      << csv_quote(r.model) << ',' << r.jobs << ',' << r.machines << ','
      << csv_quote(r.instance_hash) << ',' << response_cache_label(r) << ','
      << response_result_label(r) << ',' << csv_quote(r.solver) << ','
      << csv_quote(r.guarantee) << ',' << csv_quote(r.makespan) << ','
      << fmt_double_exact(r.makespan_value) << ',' << fmt_double_exact(r.wall_ms)
      << ',' << fmt_double_exact(r.elapsed_ms) << ',' << csv_quote(r.error) << '\n';
}

// ------------------------------------------------------------- execution ---

namespace {

template <typename Fn>
auto with_instance(const ParsedInstance& parsed, Fn&& fn) {
  return parsed.uniform.has_value() ? fn(*parsed.uniform) : fn(*parsed.unrelated);
}

// An instance as the lookup order sees it: its hash first, the instance
// itself on first use. A parser record is built then, under a `build` span;
// an instance its caller built is handed out as it is.
class LazyInstance {
 public:
  explicit LazyInstance(const InstanceRecord& record) : record_(&record) {}
  explicit LazyInstance(const ParsedInstance& parsed) : built_(&parsed) {}

  std::uint64_t hash() const {
    return record_ != nullptr
               ? record_->hash()
               : with_instance(*built_, [](const auto& i) { return instance_hash(i); });
  }

  bool built() const { return built_ != nullptr; }
  const ParsedInstance& get(telemetry::TraceSpan* parent) {
    if (built_ == nullptr) {
      telemetry::ScopedSpan span(parent, "build");
      owned_ = record_->build();
      built_ = &*owned_;
    }
    return *built_;
  }

 private:
  const InstanceRecord* record_ = nullptr;
  const ParsedInstance* built_ = nullptr;
  std::optional<ParsedInstance> owned_;
};

// The one lookup order: the profile tier by hash alone, then the result
// key; the instance is built only when a tier misses. A profile miss still
// probes before the result lookup, so the hit and miss counts of any
// stream are those of building every instance first.
SolveResponse run_hash_first(const SolverRegistry& registry, WarmState& warm,
                             const std::string& alg, const SolveOptions& solve,
                             LazyInstance& instance, SolveResult* full,
                             telemetry::TraceSpan* parent) {
  SolveResponse row;
  Timer timer;

  // `probe` spans the hash, the lookup and, on a miss, the detection. A
  // build that the miss forces gets a span of its own, and `probe` then
  // starts after it, so the two never overlap.
  auto probe_start = std::chrono::steady_clock::now();
  const std::uint64_t hash = instance.hash();
  std::optional<CachedProfile> cached = warm.profiles().find(hash);
  if (!cached.has_value() && !instance.built()) {
    instance.get(parent);
    probe_start = std::chrono::steady_clock::now();
  }
  telemetry::TraceSpan* probe_span =
      parent != nullptr ? parent->child("probe", probe_start) : nullptr;
  if (!cached.has_value()) {
    // Probed outside the cache's lock: concurrent misses on one instance
    // race benignly (both insert the same profile).
    cached = warm.profiles().insert(
        hash, with_instance(instance.get(parent), [](const auto& i) { return probe(i); }));
  }
  if (probe_span != nullptr) {
    probe_span->set_detail(tier_label(cached->tier));
    probe_span->end();
  }
  const InstanceProfile& profile = cached->profile;
  row.model = profile.model == kModelUniform ? "uniform" : "unrelated";
  row.jobs = profile.jobs;
  row.machines = profile.machines;
  row.instance_hash = hash_hex(hash);
  row.cache_tier = cached->tier;
  row.result_cache_used = true;

  // The ONE key derivation every boundary shares (engine/store/codec.hpp):
  // instance hash + alg + eps + run_all + budget_ms + key schema.
  const ResultKey key = make_result_key(hash, alg, solve);
  CacheTier tier = CacheTier::kMiss;
  telemetry::TraceSpan* result_span = parent != nullptr ? parent->child("result") : nullptr;
  std::optional<SolveResult> result = warm.results().lookup(key, &tier);
  if (result_span != nullptr) {
    result_span->set_detail(tier_label(tier));
    result_span->end();
  }
  if (result.has_value()) {
    row.result_tier = tier;
  } else {
    const ParsedInstance& parsed = instance.get(parent);
    telemetry::TraceSpan* solve_span = parent != nullptr ? parent->child("solve") : nullptr;
    SolveOptions traced = solve;
    traced.trace = solve_span;
    result = with_instance(parsed, [&](const auto& inst) {
      return alg == "auto" ? solve_auto(registry, inst, traced, profile)
                           : solve_named(registry, alg, inst, traced, profile);
    });
    if (solve_span != nullptr) {
      if (!result->solver.empty()) solve_span->set_detail(result->solver);
      solve_span->end();
    }
    telemetry::ScopedSpan store_span(parent, "store");
    warm.results().store(key, *result);  // failures are not memoized
  }

  row.wall_ms = timer.millis();
  if (!result->ok) {
    row.error = result->error;
    return row;
  }
  row.ok = true;
  row.solver = result->solver;
  row.guarantee = result->guarantee;
  row.makespan = result->cmax.to_string();
  row.makespan_value = result->cmax.to_double();
  if (full != nullptr) *full = std::move(*result);
  return row;
}

SolveResponse run_record(const SolverRegistry& registry, WarmState& warm,
                         const std::string& alg, const SolveOptions& solve,
                         const InstanceRecord& record, SolveResult* full,
                         telemetry::TraceSpan* parent) {
  if (!record.ok()) {
    SolveResponse row;
    row.error = "parse error: " + record.error();
    return row;
  }
  LazyInstance instance(record);
  return run_hash_first(registry, warm, alg, solve, instance, full, parent);
}

}  // namespace

SolveResponse run_parsed(const SolverRegistry& registry, WarmState& warm,
                         const std::string& alg, const SolveOptions& solve,
                         const ParsedInstance& parsed, SolveResult* full,
                         telemetry::TraceSpan* parent) {
  if (!parsed.ok()) {
    SolveResponse row;
    row.error = "parse error: " + parsed.error;
    return row;
  }
  LazyInstance instance(parsed);
  return run_hash_first(registry, warm, alg, solve, instance, full, parent);
}

SolveResponse run_request(const SolverRegistry& registry, WarmState& warm,
                          const SolveRequest& req, const std::string& default_alg,
                          const SolveOptions& defaults, SolveResult* full) {
  const std::string& alg = req.alg.empty() ? default_alg : req.alg;
  const SolveOptions options = resolved_options(req, defaults);

  // Every request gets a trace, whether or not the client asked to see it:
  // the serve slow log renders it after the fact, and collection costs a few
  // clock reads next to a solve.
  auto trace = std::make_shared<telemetry::Trace>();
  Timer timer;

  SolveResponse r;
  // The portfolio-only options must not be silently ignored on a named
  // solver — the same rule the CLI enforces on its flags, applied here so
  // every boundary (wire requests included) gets it: a request asking for
  // run-all or a budget that cannot take effect is an error, not an "ok"
  // that quietly solved something else.
  if (options.run_all && alg != "auto") {
    r.error = "\"all\" requires alg \"auto\" (it runs the portfolio)";
  } else if (options.budget_ms != 0 && !options.run_all) {
    r.error = "\"budget_ms\" requires \"all\" (it bounds the run-all portfolio)";
  } else if (req.parsed != nullptr) {
    r = run_record(registry, warm, alg, options, *req.parsed, full, &trace->root());
  } else if (req.has_inline_text) {
    telemetry::TraceSpan* parse_span = trace->root().child("parse");
    const InstanceRecord record = parse_instance_record(req.inline_text);
    parse_span->end();
    r = run_record(registry, warm, alg, options, record, full, &trace->root());
  } else if (!req.path.empty()) {
    telemetry::TraceSpan* parse_span = trace->root().child("parse");
    std::ifstream file(req.path);
    if (!file) {
      parse_span->end();
      r.error = "cannot open file";
    } else {
      const InstanceRecord record = parse_instance_record(file);
      parse_span->end();
      r = run_record(registry, warm, alg, options, record, full, &trace->root());
    }
  } else {
    r.error = "no instance source in request";
  }
  // A path is the instance's label even when the caller pre-parsed it
  // (CLI solve parses up front for its summary line but still names the file).
  if (!req.path.empty()) r.file = req.path;
  r.id = req.id;

  trace->finish();
  r.elapsed_ms = timer.millis();
  r.trace_id = trace->id();
  r.show_spans = req.want_spans;
  r.trace = std::move(trace);
  telemetry::EngineMetrics& metrics = warm.telemetry();
  metrics.solve_latency_ms().observe(r.elapsed_ms);
  (r.ok ? metrics.solves_ok() : metrics.solves_error()).inc();
  return r;
}

}  // namespace bisched::engine
