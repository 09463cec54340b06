// Engine API v1: the typed request/response boundary of the solver engine.
//
// Before this module the engine had three parallel dialects for the same
// conversation — CLI flags, batch CSV/JSON rows, and serve's hand-rolled
// frame fields — each emitting and parsing its own field list. This header
// makes the boundary two value types plus one schema-stable JSON codec, and
// every entry point (CLI `solve`, `BatchRunner`, the serve sessions) now
// constructs a `SolveRequest` and emits a `SolveResponse` through it.
//
// Wire schema, version 1 (flat JSON objects, one per line):
//
//   request   {"v": 1, "id": "r1", "path": "a.inst" | "instance": "...",
//              "alg": "auto", "eps": 0.1, "all": true, "budget_ms": 50,
//              "spans": true}
//             `v` is optional on requests (absent = 1; anything else is
//             rejected). Exactly one of `path` / `instance`. Every other
//             member is optional and overrides the server/runner default;
//             `spans` asks for the per-request trace breakdown on the
//             response. Unknown keys are rejected, never skipped: a typo
//             like "ep" must not solve with defaults and report success.
//
//   response  {"v": 1, "id": ..., "seq": N, "file": ..., "status":
//              "ok"|"error", "model": ..., "jobs": N, "machines": N,
//              "hash": ..., "cache": "hit-memory"|"hit-disk"|"miss"|"",
//              "solve_cache": ..., "solver": ..., "guarantee": ...,
//              "makespan": ..., "makespan_value": X, "wall_ms": X,
//              "elapsed_ms": X, "error": ..., "trace_id": ...,
//              "spans": [...]}
//             `id` is present iff the request carried (or was assigned) an
//             id; batch rows omit it. `wall_ms` is the solve alone;
//             `elapsed_ms` is the request end to end (parse + probe + build
//             + cache + solve) — the value the latency histogram records.
//             `trace_id` is present unless timing was stripped (--stable);
//             `spans` (the telemetry span tree, engine/telemetry/trace.hpp)
//             only when the request asked for it. The field set is pinned
//             by the golden wire-schema test
//             (tests/engine/golden/solve_response_v1.json): growing the
//             schema is a deliberate, versioned act, not a side effect of
//             an edit to some writer.
//
// The CSV row emitted by `batch --format=csv` is the same value type through
// the same module (write_response_csv) — one field list, two encodings.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>

#include "engine/registry.hpp"
#include "engine/solver.hpp"
#include "engine/store/warm_state.hpp"
#include "engine/telemetry/trace.hpp"
#include "io/format.hpp"

namespace bisched::engine {

inline constexpr int kApiVersion = 1;

// One solve request. In-process callers may hand the parser's record of an
// instance (`parsed`: serve's native bodies, CLI solve); the wire forms
// carry a file path or the inline native text.
struct SolveRequest {
  std::string id;  // empty = the executor/serve session assigns one

  // Exactly one source. `has_inline_text` disambiguates an empty inline
  // body (a parse-error response) from "no inline text".
  std::string path;
  std::string inline_text;
  bool has_inline_text = false;
  std::shared_ptr<const InstanceRecord> parsed;  // never on the wire

  std::string alg;  // registry name or "auto"; empty = caller default

  // Optional SolveOptions overrides; the has_* flags keep "absent" distinct
  // from an explicit default value so resolved_options can layer correctly.
  bool has_eps = false;
  double eps = 0;
  bool has_run_all = false;
  bool run_all = false;
  bool has_budget_ms = false;
  double budget_ms = 0;

  // Ask for the trace-span breakdown on the response (wire key "spans").
  // Off by default: the tree is always *collected* (the slow log needs it);
  // this only controls whether it is emitted to the client.
  bool want_spans = false;

  bool has_source() const {
    return !path.empty() || has_inline_text || parsed != nullptr;
  }
};

// `defaults` overlaid with the request's explicit overrides.
SolveOptions resolved_options(const SolveRequest& req, const SolveOptions& defaults);

// One solve outcome — the single response value type of the engine. A batch
// row is a SolveResponse with an empty id; a serve response always has one.
struct SolveResponse {
  std::string id;        // correlation id; omitted from the wire when empty
  std::int64_t seq = 0;  // batch: global input-order index; serve: admission order
  std::string file;      // instance path ("" for inline requests)
  bool ok = false;
  std::string error;  // parse or solve failure; nonempty iff !ok
  std::string model;  // "uniform" | "unrelated" | "" on parse failure
  int jobs = 0;
  int machines = 0;
  std::string instance_hash;  // 16-hex stable content hash ("" on parse failure)
  // Provenance per layer, tiered since the warm-state store: which tier
  // served the probe profile / the full solve (kMiss = computed fresh).
  CacheTier cache_tier = CacheTier::kMiss;
  bool result_cache_used = false;  // did the request reach the result cache?
  CacheTier result_tier = CacheTier::kMiss;
  std::string solver;  // winning solver (empty on failure)
  std::string guarantee;
  std::string makespan;  // exact rational string (empty on failure)
  double makespan_value = 0;
  double wall_ms = 0;     // the solve dispatch alone (run_parsed)
  double elapsed_ms = 0;  // the request end to end (run_request) — what the
                          // solve-latency histogram records

  // Telemetry: run_request stamps a process-unique trace id and attaches the
  // request's span tree. The tree is always collected (serve's slow log
  // renders it from here); it reaches the wire as the `"spans"` member only
  // when the request opted in (`show_spans`).
  std::string trace_id;  // omitted from the wire when empty
  std::shared_ptr<const telemetry::Trace> trace;  // never encoded directly
  bool show_spans = false;
  bool stable_timing = false;  // render span durations as 0 (see strip_timing)

  // Byte-stable output (--stable): zero both timings, drop the
  // process-unique trace id, and render any emitted spans with ms 0. The
  // trace object itself keeps its real durations — serve's slow log reads
  // them even under stable output.
  void strip_timing() {
    wall_ms = 0;
    elapsed_ms = 0;
    trace_id.clear();
    stable_timing = true;
  }
};

// ----------------------------------------------------------------- codec ---

// The request as one v1 JSON line (no trailing newline). A `parsed`-only
// request has no wire form; its source is simply absent from the output.
std::string encode_request_json(const SolveRequest& req);

// Decodes one v1 request line. nullopt + *error on a malformed frame; the
// caller owns turning that into an error response. When the frame is at
// least a parseable JSON object, *salvaged_id (if non-null) receives its
// "id" member even on validation failure — so the error response can still
// reach the client under the id it is correlating by.
std::optional<SolveRequest> decode_request_json(const std::string& line,
                                                std::string* error,
                                                std::string* salvaged_id = nullptr);

// The wire labels of a response's cache provenance — "hit-memory" /
// "hit-disk" / "miss", or "" when the layer was never reached (open/parse
// failure). Shared by the JSON/CSV writers and serve's slow-request log.
const char* response_cache_label(const SolveResponse& r);
const char* response_result_label(const SolveResponse& r);

// The response as one v1 JSON object ending in '\n'.
std::string encode_response_json(const SolveResponse& r);
void write_response_json(std::ostream& out, const SolveResponse& r);

// The same response as a CSV row (util/table.hpp csv_quote escaping); the
// header matches the field order exactly once per stream.
void write_response_header_csv(std::ostream& out);
void write_response_csv(std::ostream& out, const SolveResponse& r);

// ------------------------------------------------------------- execution ---

// Solves one already-built instance through the warm state (probe cache +
// result cache, each optionally disk-tiered) + the portfolio, in the same
// hash-first lookup order run_request takes. `seq`, `id`, `file`, and parse
// errors are the caller's to fill in (a !parsed.ok() input yields an error
// response). If `full` is non-null it receives the complete SolveResult
// (schedule included) on success. When `parent` is non-null each stage
// (probe, result cache, solve dispatch, store) records a child span under
// it. Thread-safe for concurrent calls sharing `warm` (each call gets its
// own span subtree).
SolveResponse run_parsed(const SolverRegistry& registry, WarmState& warm,
                         const std::string& alg, const SolveOptions& solve,
                         const ParsedInstance& parsed, SolveResult* full = nullptr,
                         telemetry::TraceSpan* parent = nullptr);

// Executes a full request: resolves its source (parsed > inline text > file
// path) into the parser's record, layers its option overrides over
// `defaults`, and answers by the record's hash: the profile tier, then the
// result key, building the instance only when a tier misses (a `build`
// span). Stamps id/file. `default_alg` applies when req.alg is
// empty. The one entry point CLI solve, batch workers, and serve sessions
// all call — all three therefore share one WarmState vocabulary, one
// result-key derivation (engine/store/codec.hpp), and one telemetry stream:
// every call opens a Trace, records elapsed_ms into warm.telemetry()'s
// latency histogram and solve counters, and attaches the trace to the
// response.
SolveResponse run_request(const SolverRegistry& registry, WarmState& warm,
                          const SolveRequest& req, const std::string& default_alg,
                          const SolveOptions& defaults, SolveResult* full = nullptr);

}  // namespace bisched::engine
