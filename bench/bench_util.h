// Shared helpers for the experiment harnesses: bench_paper_sweep (the
// table-driven E1–E7, E10, E11 and E14, bench/paper_sweeps.h) and the
// hand-written bench_e8 .. bench_e19.
//
// Each harness prints a self-describing table: experiment id, the claim
// being reproduced ("paper shape"), the sweep axis, and one row per
// configuration. No document archives these outputs: the claim travels in
// each table's banner, DESIGN.md discusses the serving and replication
// experiments (E16–E19), and CI asserts rows of the JSON files below
// (.github/workflows/ci.yml).
//
// Alongside the human-readable table, every harness also writes a
// machine-readable BENCH_<id>.json (into $RSR_BENCH_JSON_DIR, default the
// working directory) so the perf trajectory can be tracked across PRs:
//   { "experiment": "E1", "title": ..., "shape": ...,
//     "columns": ["k", "quadtree_B", ...],
//     "rows": [{"k": 1, "quadtree_B": 1234.5, ...}, ...] }
// The first Row() after Banner() names the columns; numeric-looking cells
// are emitted as JSON numbers, everything else as strings.

#ifndef RSR_BENCH_BENCH_UTIL_H_
#define RSR_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "recon/evaluate.h"
#include "server/sync_client.h"
#include "util/stats.h"
#include "workload/scenario.h"

namespace rsr {
namespace bench {

/// True when a served sync is bit-identical to the in-process driver's
/// result on the same inputs — the definition every load harness's
/// `match_driver` column uses. Every ReconResult field must agree
/// (`bob_final` included when the driver succeeded), and the outcome's
/// error_detail must be empty: the in-process driver has no transport, so
/// a served session that failed at some transport stage is NOT a match
/// even if its synthesized result happens to mirror a driver-side protocol
/// failure. (Shared by E16/E17/E18 — two harnesses previously carried
/// diverging private copies that ignored error_detail.)
inline bool MatchesDriver(const server::SyncOutcome& outcome,
                          const recon::ReconResult& expected) {
  const recon::ReconResult& got = outcome.result;
  return outcome.handshake_ok && outcome.error_detail.empty() &&
         got.success == expected.success && got.error == expected.error &&
         got.chosen_level == expected.chosen_level &&
         got.decoded_entries == expected.decoded_entries &&
         got.attempts == expected.attempts &&
         got.transmitted == expected.transmitted &&
         (!expected.success || got.bob_final == expected.bob_final);
}

/// Incremental writer for BENCH_<id>.json. The whole (tiny) document is
/// rewritten after every row, so the file is always valid JSON even if the
/// harness is interrupted.
class JsonSink {
 public:
  static JsonSink& Instance() {
    static JsonSink sink;
    return sink;
  }

  void Open(const std::string& id, const std::string& title,
            const std::string& shape) {
    id_ = id;
    title_ = title;
    shape_ = shape;
    columns_.clear();
    rows_.clear();
    const char* dir = std::getenv("RSR_BENCH_JSON_DIR");
    path_ = (dir != nullptr && dir[0] != '\0')
                ? std::string(dir) + "/BENCH_" + id + ".json"
                : "BENCH_" + id + ".json";
  }

  void Row(const std::vector<std::string>& cells) {
    if (path_.empty()) return;  // no Banner yet
    if (columns_.empty()) {
      columns_ = cells;  // header row
      pending_extras_.clear();
    } else {
      rows_.push_back({cells, std::move(pending_extras_)});
      pending_extras_.clear();
    }
    Flush();
  }

  /// JSON-only key/value pairs attached to the NEXT data row, on top of
  /// its table cells. Harnesses use this for the standard throughput
  /// fields ("wall_ms", "syncs_per_sec") so BENCH_*.json rows stay
  /// machine-comparable across experiments and PRs even where the printed
  /// tables differ.
  void Extras(std::vector<std::pair<std::string, std::string>> extras) {
    pending_extras_ = std::move(extras);
  }

 private:
  static std::string Escape(const std::string& s) {
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      if (c == '\n') {
        out += "\\n";
        continue;
      }
      out += c;
    }
    return out;
  }

  // Numeric-looking cells become JSON numbers.
  static std::string Cell(const std::string& s) {
    if (!s.empty()) {
      char* end = nullptr;
      std::strtod(s.c_str(), &end);
      if (end != nullptr && *end == '\0') return s;
    }
    // Appended in place: `"\"" + Escape(s) + "\""` draws GCC 12's
    // -Wrestrict false positive at -O3.
    std::string quoted(1, '"');
    quoted += Escape(s);
    quoted += '"';
    return quoted;
  }

  void Flush() const {
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) return;  // e.g. read-only working directory
    std::fprintf(f, "{\n  \"experiment\": \"%s\",\n", Escape(id_).c_str());
    std::fprintf(f, "  \"title\": \"%s\",\n", Escape(title_).c_str());
    std::fprintf(f, "  \"shape\": \"%s\",\n", Escape(shape_).c_str());
    std::fprintf(f, "  \"columns\": [");
    for (size_t i = 0; i < columns_.size(); ++i) {
      std::fprintf(f, "%s\"%s\"", i ? ", " : "",
                   Escape(columns_[i]).c_str());
    }
    std::fprintf(f, "],\n  \"rows\": [\n");
    for (size_t r = 0; r < rows_.size(); ++r) {
      std::fprintf(f, "    {");
      const auto& row = rows_[r];
      size_t emitted = 0;
      for (size_t i = 0; i < row.cells.size(); ++i) {
        const std::string key =
            i < columns_.size() ? columns_[i] : "col" + std::to_string(i);
        std::fprintf(f, "%s\"%s\": %s", emitted++ ? ", " : "",
                     Escape(key).c_str(), Cell(row.cells[i]).c_str());
      }
      for (const auto& [key, value] : row.extras) {
        // A table column of the same name already carries the value;
        // emitting the extra too would duplicate the JSON key.
        if (std::find(columns_.begin(), columns_.end(), key) !=
            columns_.end()) {
          continue;
        }
        std::fprintf(f, "%s\"%s\": %s", emitted++ ? ", " : "",
                     Escape(key).c_str(), Cell(value).c_str());
      }
      std::fprintf(f, "}%s\n", r + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
  }

  struct StoredRow {
    std::vector<std::string> cells;
    std::vector<std::pair<std::string, std::string>> extras;
  };

  std::string id_, title_, shape_, path_;
  std::vector<std::string> columns_;
  std::vector<StoredRow> rows_;
  std::vector<std::pair<std::string, std::string>> pending_extras_;
};

/// Prints the experiment banner and opens BENCH_<id>.json.
inline void Banner(const char* id, const char* title, const char* shape) {
  std::printf(
      "==============================================================\n");
  std::printf("%s: %s\n", id, title);
  std::printf("paper shape: %s\n", shape);
  std::printf(
      "==============================================================\n");
  JsonSink::Instance().Open(id, title, shape);
}

/// Prints a row of cells separated by two spaces, padded to width 14, and
/// mirrors it into the JSON sink (first row after Banner = column names).
inline void Row(const std::vector<std::string>& cells) {
  for (size_t i = 0; i < cells.size(); ++i) {
    std::printf("%s%-14s", i ? "  " : "", cells[i].c_str());
  }
  std::printf("\n");
  JsonSink::Instance().Row(cells);
}

/// Attaches JSON-only key/value pairs to the next data row. The standard
/// throughput fields every load harness should attach are "wall_ms" (the
/// configuration's total wall clock) and "syncs_per_sec"; E12/E16/E17 use
/// them so throughput is machine-comparable across PRs.
inline void RowExtras(
    std::vector<std::pair<std::string, std::string>> extras) {
  JsonSink::Instance().Extras(std::move(extras));
}

inline std::string Num(double v, int digits = 5) {
  return FormatCompact(v, digits);
}

/// Session-latency quantile extras for a serving host's row: "p50_ms" and
/// "p99_ms" from the host registry's rsr_sync_session_seconds histograms,
/// merged across protocols (DESIGN.md §12). Empty when no session has
/// been recorded, so callers can splice the result unconditionally.
inline std::vector<std::pair<std::string, std::string>> LatencyExtras(
    const obs::MetricsRegistry& registry) {
  std::vector<std::pair<std::string, std::string>> extras;
  const std::optional<obs::HistogramSnapshot> snap =
      registry.SnapshotHistogramSum("rsr_sync_session_seconds");
  if (snap.has_value() && snap->count > 0) {
    extras.emplace_back("p50_ms", Num(1e3 * snap->Quantile(0.5)));
    extras.emplace_back("p99_ms", Num(1e3 * snap->Quantile(0.99)));
  }
  return extras;
}

inline std::string Bits(size_t bits) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", static_cast<double>(bits) / 8.0);
  return std::string(buf);  // bytes
}

}  // namespace bench
}  // namespace rsr

#endif  // RSR_BENCH_BENCH_UTIL_H_
