#include "io/format.hpp"

#include <algorithm>
#include <charconv>
#include <functional>
#include <istream>
#include <iterator>
#include <ostream>
#include <utility>

#include "sched/instance_hash.hpp"

namespace bisched {

namespace {

constexpr std::int64_t kMaxJobs = 10'000'000;
constexpr std::int64_t kMaxMachines = 1'000'000;

// What istream extraction skips in the "C" locale: space, \t \n \v \f \r.
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

enum class Lex { kToken, kEnd, kNeedMore };

// The next token of bytes[*pos..), past whitespace and '#' comments (a token
// that starts with '#' comments out the rest of its line). kToken leaves
// *pos just past the token, kEnd (only with eof) at the end of the bytes;
// kNeedMore (only without eof) means a token or comment touches the end of
// the bytes, and leaves *pos on its first byte.
Lex next_token(std::string_view bytes, std::size_t* pos, bool eof, std::string_view* token) {
  std::size_t i = *pos;
  while (true) {
    while (i < bytes.size() && is_space(bytes[i])) ++i;
    *pos = i;
    if (i == bytes.size()) return eof ? Lex::kEnd : Lex::kNeedMore;
    if (bytes[i] == '#') {
      const std::size_t nl = bytes.find('\n', i);
      if (nl == std::string_view::npos && !eof) return Lex::kNeedMore;
      i = nl == std::string_view::npos ? bytes.size() : nl + 1;
      continue;
    }
    std::size_t end = i;
    while (end < bytes.size() && !is_space(bytes[end])) ++end;
    if (end == bytes.size() && !eof) return Lex::kNeedMore;
    *token = bytes.substr(i, end - i);
    *pos = end;
    return Lex::kToken;
  }
}

// A whole token in base 10: an optional '+' or '-', then digits that fit in
// int64, and nothing else (an embedded NUL byte included).
bool to_int(std::string_view token, std::int64_t* out) {
  if (token.size() > 1 && token[0] == '+' && token[1] != '-') token.remove_prefix(1);
  const char* end = token.data() + token.size();
  const auto [stop, ec] = std::from_chars(token.data(), end, *out);
  return ec == std::errc() && stop == end;
}

using Token = std::optional<std::string_view>;  // nullopt: the input ended

std::string expected(std::string_view word, Token token) {
  return "expected '" + std::string(word) + "', got " +
         (token.has_value() ? "'" + std::string(*token) + "'" : "end of input");
}

// The count after `word`, range-checked; the error, or "" when it is good.
std::string count_error(Token token, std::string_view word, std::int64_t lo,
                        std::int64_t hi, std::int64_t* out) {
  const std::string quoted = "'" + std::string(word) + "'";
  if (!token.has_value() || !to_int(*token, out)) {
    return "expected an integer after " + quoted;
  }
  if (*out < lo || *out > hi) {
    return quoted + " value " + std::to_string(*out) + " out of range [" +
           std::to_string(lo) + ", " + std::to_string(hi) + "]";
  }
  return "";
}

bool any_below(const std::vector<std::int64_t>& values, std::int64_t lo) {
  return std::any_of(values.begin(), values.end(), [lo](std::int64_t x) { return x < lo; });
}

}  // namespace

InstanceRecord InstanceRecord::failed(std::string error) {
  InstanceRecord record;
  record.error_ = std::move(error);
  return record;
}

std::uint64_t InstanceRecord::hash() const {
  std::vector<std::int64_t> sorted = speeds_;  // make_uniform_instance's order
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  return content_hash({.uniform = uniform_,
                       .jobs = jobs_,
                       .machines = machines_,
                       .p = p_,
                       .speeds = sorted,
                       .times = times_,
                       .edges = std::ssize(edges_) / 2,
                       .edge_sum = edge_sum_});
}

ParsedInstance InstanceRecord::build() const& { return InstanceRecord(*this).build(); }

ParsedInstance InstanceRecord::build() && {
  ParsedInstance out;
  if (!ok()) {
    out.error = std::move(error_);
    return out;
  }
  Graph conflicts = Graph::from_edges(jobs_, edges_);
  if (uniform_) {
    out.uniform = make_uniform_instance(std::move(p_), std::move(speeds_), std::move(conflicts));
  } else {
    times_.resize(static_cast<std::size_t>(machines_));  // `jobs 0`: m empty rows
    out.unrelated = make_unrelated_instance(std::move(times_), std::move(conflicts));
  }
  return out;
}

InstanceParser::Status InstanceParser::feed(std::string_view bytes, std::size_t* pos,
                                            bool eof) {
  while (step_ != Step::kDone && step_ != Step::kError) {
    std::string_view token;
    const Lex lex = next_token(bytes, pos, eof, &token);
    if (lex == Lex::kNeedMore) return Status::kNeedMore;
    on_token(lex == Lex::kToken ? Token(token) : std::nullopt);
  }
  return step_ == Step::kDone ? Status::kDone : Status::kError;
}

void InstanceParser::fail(std::string error) {
  record_.error_ = std::move(error);
  step_ = Step::kError;
}

// Every step fails on the end of input, so feed() always decides at eof.
void InstanceParser::on_token(Token token) {
  InstanceRecord& r = record_;
  const std::int64_t n = r.jobs_;
  const std::int64_t m = r.machines_;
  std::int64_t value = 0;
  const bool is_int = token.has_value() && to_int(*token, &value);
  const auto expect = [&](std::string_view word, Step next) {
    if (token != word) return fail(expected(word, token));
    enter(next);
  };
  const auto count = [&](std::string_view word, std::int64_t lo, std::int64_t hi,
                         std::int64_t* out) {
    std::string error = count_error(token, word, lo, hi, out);
    if (error.empty()) return true;
    fail(std::move(error));
    return false;
  };
  const auto ints_error = [](std::int64_t n, const char* what) {
    return "expected " + std::to_string(n) + " integers for " + what;
  };
  switch (step_) {
    case Step::kMagic:
      return expect("bisched", Step::kKind);
    case Step::kKind:
      if (token != "uniform" && token != "unrelated") {
        return fail("expected 'uniform' or 'unrelated' header");
      }
      r.uniform_ = token == "uniform";
      return enter(Step::kVersion);
    case Step::kVersion:
      return expect("v1", Step::kJobsKw);
    case Step::kJobsKw:
      return expect("jobs", Step::kJobs);
    case Step::kJobs:
      if (count("jobs", 0, kMaxJobs, &value)) {
        r.jobs_ = static_cast<int>(value);
        enter(r.uniform_ ? Step::kPKw : Step::kMachinesKw);
      }
      return;

    case Step::kPKw:
      return expect("p", Step::kP);
    case Step::kP:
      if (!is_int) return fail(ints_error(n, "p"));
      r.p_.push_back(value);
      return enter(Step::kP);
    case Step::kSpeedsKw:
      return expect("speeds", Step::kSpeeds);
    case Step::kSpeeds:
      if (count("speeds", 1, kMaxMachines, &value)) {
        r.machines_ = static_cast<int>(value);
        enter(Step::kSpeed);
      }
      return;
    case Step::kSpeed:
      if (!is_int) return fail(ints_error(m, "speeds"));
      r.speeds_.push_back(value);
      return enter(Step::kSpeed);

    case Step::kMachinesKw:
      return expect("machines", Step::kMachines);
    case Step::kMachines:
      if (count("machines", 1, kMaxMachines, &value)) {
        r.machines_ = static_cast<int>(value);
        enter(Step::kTimesKw);
      }
      return;
    case Step::kTimesKw:
      return expect("times", Step::kTime);
    case Step::kTime:
      if (!is_int) return fail(ints_error(n, "times row"));
      if (r.times_.empty() || std::ssize(r.times_.back()) == n) r.times_.emplace_back();
      r.times_.back().push_back(value);
      return enter(Step::kTime);

    case Step::kEdgesKw:
      return expect("edges", Step::kEdges);
    case Step::kEdges:
      if (count("edges", 0, n * n, &k_)) enter(Step::kEdge);
      return;
    case Step::kEdge:
      if (!is_int) return fail("expected " + std::to_string(k_) + " edge lines");
      if (!edge_u_.has_value()) {
        edge_u_ = value;
        return;
      }
      if (*edge_u_ < 0 || *edge_u_ >= n || value < 0 || value >= n || *edge_u_ == value) {
        return fail("bad edge (" + std::to_string(*edge_u_) + ", " + std::to_string(value) +
                    ")");
      }
      {
        const int u = static_cast<int>(*edge_u_);
        const int v = static_cast<int>(value);
        r.edges_.push_back(u);
        r.edges_.push_back(v);
        r.edge_sum_ += edge_hash(std::min(u, v), std::max(u, v));
      }
      edge_u_.reset();
      return enter(Step::kEdge);

    case Step::kDone:
    case Step::kError:
      return;
  }
}

// Moves to `next`. An array step checks its values once the last one is in
// and passes on at once, so an empty array (`jobs 0`, `edges 0`) takes no
// tokens at all.
void InstanceParser::enter(Step next) {
  InstanceRecord& r = record_;
  step_ = next;
  switch (step_) {
    case Step::kP:
      if (std::ssize(r.p_) < r.jobs_) return;
      if (any_below(r.p_, 1)) return fail("processing requirements must be >= 1");
      step_ = Step::kSpeedsKw;
      return;
    case Step::kSpeed:
      if (std::ssize(r.speeds_) < r.machines_) return;
      if (any_below(r.speeds_, 1)) return fail("speeds must be >= 1");
      step_ = Step::kEdgesKw;
      return;
    case Step::kTime: {
      // Rows are checked one at a time, as each one completes.
      const bool row_done = !r.times_.empty() && std::ssize(r.times_.back()) == r.jobs_;
      if (row_done && any_below(r.times_.back(), 0)) return fail("times must be >= 0");
      if (r.jobs_ != 0 && !(row_done && std::ssize(r.times_) == r.machines_)) return;
      step_ = Step::kEdgesKw;
      return;
    }
    case Step::kEdge:
      if (std::ssize(r.edges_) / 2 < k_) return;
      step_ = Step::kDone;
      return;
    default:
      return;
  }
}

InstanceRecord parse_instance_record(std::string_view text) {
  InstanceParser parser;
  std::size_t pos = 0;
  parser.feed(text, &pos, /*eof=*/true);
  return parser.take();
}

InstanceRecord parse_instance_record(std::istream& in) {
  constexpr std::size_t kChunk = std::size_t{64} << 10;
  InstanceParser parser;
  std::string buf;
  std::size_t pos = 0;
  auto status = InstanceParser::Status::kNeedMore;
  while (status == InstanceParser::Status::kNeedMore) {
    buf.erase(0, pos);
    pos = 0;
    const std::size_t kept = buf.size();
    buf.resize(kept + kChunk);
    in.read(buf.data() + kept, static_cast<std::streamsize>(kChunk));
    buf.resize(kept + static_cast<std::size_t>(in.gcount()));
    status = parser.feed(buf, &pos, /*eof=*/!in);
  }
  return parser.take();
}

ParsedInstance parse_instance(std::string_view text) {
  return parse_instance_record(text).build();
}

ParsedInstance parse_instance(std::istream& in) { return parse_instance_record(in).build(); }

std::optional<Schedule> parse_schedule(std::istream& in, std::string* error) {
  std::string local_error;
  std::string& err = error != nullptr ? *error : local_error;
  const std::string text{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  std::size_t pos = 0;
  const auto next = [&text, &pos]() -> Token {
    std::string_view token;
    if (next_token(text, &pos, /*eof=*/true, &token) == Lex::kEnd) return std::nullopt;
    return token;
  };
  for (const std::string_view word : {"bisched", "schedule", "v1", "jobs"}) {
    if (const Token token = next(); token != word) {
      err = expected(word, token);
      return std::nullopt;
    }
  }
  std::int64_t n = 0;
  if (std::string count = count_error(next(), "jobs", 0, kMaxJobs, &n); !count.empty()) {
    err = std::move(count);
    return std::nullopt;
  }
  if (const Token token = next(); token != "machine_of") {
    err = expected("machine_of", token);
    return std::nullopt;
  }
  Schedule s;
  bool out_of_range = false;  // reported once every value is in, as before
  for (std::int64_t i = 0; i < n; ++i) {
    std::int64_t x = 0;
    const Token token = next();
    if (!token.has_value() || !to_int(*token, &x)) {
      err = "expected " + std::to_string(n) + " integers for machine_of";
      return std::nullopt;
    }
    out_of_range = out_of_range || x < 0 || x > INT32_MAX;
    s.machine_of.push_back(static_cast<int>(x));
  }
  if (out_of_range) {
    err = "machine index out of range";
    return std::nullopt;
  }
  return s;
}

namespace {

void write_edges(std::ostream& out, const Graph& g) {
  out << "edges " << g.num_edges() << "\n";
  for (int u = 0; u < g.num_vertices(); ++u) {
    for (int v : g.neighbors(u)) {
      if (v > u) out << u << " " << v << "\n";
    }
  }
}

}  // namespace

void write_instance(std::ostream& out, const UniformInstance& inst) {
  out << "bisched uniform v1\n";
  out << "jobs " << inst.num_jobs() << "\n";
  out << "p";
  for (std::int64_t x : inst.p) out << " " << x;
  out << "\nspeeds " << inst.num_machines() << "\n";
  bool first = true;
  for (std::int64_t s : inst.speeds) {
    out << (first ? "" : " ") << s;
    first = false;
  }
  out << "\n";
  write_edges(out, inst.conflicts);
}

void write_instance(std::ostream& out, const UnrelatedInstance& inst) {
  out << "bisched unrelated v1\n";
  out << "jobs " << inst.num_jobs() << "\n";
  out << "machines " << inst.num_machines() << "\n";
  out << "times\n";
  for (const auto& row : inst.times) {
    bool first = true;
    for (std::int64_t x : row) {
      out << (first ? "" : " ") << x;
      first = false;
    }
    out << "\n";
  }
  write_edges(out, inst.conflicts);
}

void write_schedule(std::ostream& out, const Schedule& schedule) {
  out << "bisched schedule v1\n";
  out << "jobs " << schedule.machine_of.size() << "\n";
  out << "machine_of";
  for (int machine : schedule.machine_of) out << " " << machine;
  out << "\n";
}

}  // namespace bisched
