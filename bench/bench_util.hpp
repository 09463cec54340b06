// Shared plumbing for the experiment binaries: banner printing, the fixed
// Monte-Carlo seed, and machine-readable output. bench_paper prints the
// repository's reproduction of the paper's results as TextTables and exits 1
// when a claim a table states fails; bench_hotpaths writes its report through
// JsonReport, so runs diff without scraping tables, and exits 1 when a
// shipped path differs from its reference. ctest runs both (bench_hotpaths at
// --quick, checked by bench/check_hotpaths.cmake).
#pragma once

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "io/jsonl.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace bisched::bench {

inline void banner(const std::string& experiment, const std::string& claim) {
  std::cout << "\n############################################################\n"
            << "# " << experiment << "\n"
            << "# " << claim << "\n"
            << "############################################################\n";
}

// Seeds are fixed so that the printed tables are reproducible run-to-run.
constexpr std::uint64_t kBenchSeed = 0xB15C4EDu;

// ---- machine-readable bench output ----------------------------------------
//
// One JsonField is one `"key": value` member; a row is a brace-enclosed list
// of them; the report is a single JSON document
//   {"bench": "<name>", "rows": [ {...}, {...} ]}
// written to the path the bench passes in, on destruction. Strings go through
// io/jsonl's json_quote — the same escaping the serving stack uses — and
// doubles through fmt_double_exact, so the file always parses.

struct JsonField {
  JsonField(const char* key, double value)
      : rendered(json_quote(key) + ": " + fmt_double_exact(value)) {}
  JsonField(const char* key, long long value)
      : rendered(json_quote(key) + ": " + std::to_string(value)) {}
  JsonField(const char* key, unsigned long long value)
      : rendered(json_quote(key) + ": " + std::to_string(value)) {}
  JsonField(const char* key, int value) : JsonField(key, static_cast<long long>(value)) {}
  JsonField(const char* key, std::size_t value)
      : JsonField(key, static_cast<unsigned long long>(value)) {}
  JsonField(const char* key, std::int64_t value)
      : JsonField(key, static_cast<long long>(value)) {}
  JsonField(const char* key, bool value)
      : rendered(json_quote(key) + ": " + (value ? "true" : "false")) {}
  JsonField(const char* key, const std::string& value)
      : rendered(json_quote(key) + ": " + json_quote(value)) {}
  JsonField(const char* key, const char* value)
      : JsonField(key, std::string(value)) {}

  std::string rendered;
};

class JsonReport {
 public:
  // `name` is the bench's short name, the document's "bench" member.
  JsonReport(std::string name, std::string path)
      : name_(std::move(name)), path_(std::move(path)) {}

  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;

  void add(std::initializer_list<JsonField> fields) {
    std::string row = "{";
    bool first = true;
    for (const JsonField& f : fields) {
      row += (first ? "" : ", ") + f.rendered;
      first = false;
    }
    row += "}";
    rows_.push_back(std::move(row));
  }

  // The complete report file contents.
  std::string document() const {
    std::string out = "{\"bench\": " + json_quote(name_) + ", \"rows\": [";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      out += (i == 0 ? "\n  " : ",\n  ") + rows_[i];
    }
    out += "\n]}\n";
    return out;
  }

  // Writes the report; called by the destructor, exposed so mains can report
  // the path (and failures) before exiting.
  bool write() {
    if (written_) return true;
    written_ = true;
    std::ofstream out(path_);
    if (!out) {
      std::cerr << "cannot write bench report '" << path_ << "'\n";
      return false;
    }
    out << document();
    out.flush();
    if (out) std::cout << "wrote " << path_ << " (" << rows_.size() << " rows)\n";
    return static_cast<bool>(out);
  }

  ~JsonReport() { write(); }

 private:
  std::string name_;
  std::string path_;
  std::vector<std::string> rows_;
  bool written_ = false;
};

}  // namespace bisched::bench
