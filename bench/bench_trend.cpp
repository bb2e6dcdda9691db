// bench_trend — CLI over the bench-history ledger (obs::bench_history):
//
//   bench_trend --append LEDGER BENCH.json...   append one record per file
//   bench_trend LEDGER [--last N]               print per-bench metric deltas
//                                               across the last N records
//   bench_trend LEDGER --csv [--last N]         same window as one flat CSV
//                                               (bench,metric,record,
//                                               unix_time,value) for
//                                               spreadsheets / plotting
//
// Append mode is what bench_smoke runs after the regression gate: each
// produced BENCH_*.json contributes one schema-tagged JSONL line, so the
// ledger accumulates the perf trajectory across commits. Trend mode groups
// the ledger by bench kind and prints, for every metric present in the most
// recent record, its value per retained entry plus the delta from the
// previous one — the "did efficiency drift" question answered locally.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <map>
#include <string>
#include <vector>

#include "src/obs/bench_history.hpp"
#include "src/obs/durable_file.hpp"
#include "src/obs/json.hpp"

using namespace mrpic;

namespace {

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s --append LEDGER BENCH.json...\n"
               "       %s LEDGER [--last N] [--csv]\n",
               prog, prog);
  return 2;
}

std::string basename_of(const std::string& path) {
  const auto pos = path.find_last_of('/');
  return pos == std::string::npos ? path : path.substr(pos + 1);
}

int append_mode(const std::string& ledger, const std::vector<std::string>& files) {
  int appended = 0;
  for (const auto& f : files) {
    obs::json::Value doc;
    try {
      doc = obs::load_json(f);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_trend: %s\n", e.what());
      return 1;
    }
    auto entry = obs::extract_bench_history(doc, basename_of(f));
    if (entry.bench.empty()) {
      std::fprintf(stderr, "bench_trend: %s has no 'bench' tag, skipped\n", f.c_str());
      continue;
    }
    entry.unix_time = static_cast<std::int64_t>(std::time(nullptr));
    if (!obs::append_bench_history(ledger, entry)) {
      std::fprintf(stderr, "bench_trend: cannot append to %s\n", ledger.c_str());
      return 1;
    }
    ++appended;
  }
  std::printf("bench_trend: appended %d record(s) to %s\n", appended, ledger.c_str());
  return 0;
}

// Metric names stay bare in the CSV: extract_bench_history paths are
// [A-Za-z0-9_./]-only, so no quoting/escaping is ever needed.
int csv_mode(const std::string& ledger, int last) {
  std::size_t skipped = 0;
  std::vector<obs::BenchHistoryEntry> entries;
  try {
    entries = obs::read_bench_history(ledger, &skipped);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_trend: %s\n", e.what());
    return 1;
  }
  if (skipped > 0) {
    std::fprintf(stderr, "bench_trend: %zu unrecognized line(s) skipped\n", skipped);
  }

  std::map<std::string, std::vector<const obs::BenchHistoryEntry*>> by_bench;
  for (const auto& e : entries) { by_bench[e.bench].push_back(&e); }

  std::printf("bench,metric,record,unix_time,value\n");
  for (const auto& [bench, hist] : by_bench) {
    const std::size_t keep = std::min<std::size_t>(hist.size(), std::size_t(last));
    const std::size_t first = hist.size() - keep;
    for (std::size_t i = first; i < hist.size(); ++i) {
      for (const auto& [metric, value] : hist[i]->metrics) {
        std::printf("%s,%s,%zu,%lld,%.17g\n", bench.c_str(), metric.c_str(), i,
                    static_cast<long long>(hist[i]->unix_time), value);
      }
    }
  }
  return 0;
}

int trend_mode(const std::string& ledger, int last) {
  std::size_t skipped = 0;
  std::vector<obs::BenchHistoryEntry> entries;
  try {
    entries = obs::read_bench_history(ledger, &skipped);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_trend: %s\n", e.what());
    return 1;
  }
  if (skipped > 0) {
    std::printf("(%zu unrecognized line(s) skipped)\n", skipped);
  }
  if (entries.empty()) {
    std::printf("ledger %s is empty\n", ledger.c_str());
    return 0;
  }

  // Group by bench kind, preserving ledger (append) order.
  std::map<std::string, std::vector<const obs::BenchHistoryEntry*>> by_bench;
  for (const auto& e : entries) { by_bench[e.bench].push_back(&e); }

  for (const auto& [bench, hist] : by_bench) {
    const std::size_t keep = std::min<std::size_t>(hist.size(), std::size_t(last));
    const std::size_t first = hist.size() - keep;
    std::printf("== %s (%zu of %zu record(s))\n", bench.c_str(), keep, hist.size());
    // Metric set of the most recent record drives the rows.
    for (const auto& [metric, latest] : hist.back()->metrics) {
      (void)latest;
      std::printf("  %-44s", metric.c_str());
      double prev = 0;
      bool have_prev = false;
      for (std::size_t i = first; i < hist.size(); ++i) {
        const auto it = hist[i]->metrics.find(metric);
        if (it == hist[i]->metrics.end()) {
          std::printf(" %12s", "-");
          have_prev = false;
          continue;
        }
        if (have_prev && prev != 0) {
          std::printf(" %12.6g (%+.2f%%)", it->second,
                      100 * (it->second - prev) / std::fabs(prev));
        } else {
          std::printf(" %12.6g", it->second);
        }
        prev = it->second;
        have_prev = true;
      }
      std::printf("\n");
    }
  }
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  if (argc < 2) { return usage(argv[0]); }
  if (std::strcmp(argv[1], "--append") == 0) {
    if (argc < 4) { return usage(argv[0]); }
    std::vector<std::string> files;
    for (int i = 3; i < argc; ++i) { files.emplace_back(argv[i]); }
    return append_mode(argv[2], files);
  }
  std::string ledger;
  int last = 10;
  bool csv = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--last") == 0 && i + 1 < argc) {
      last = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--csv") == 0) {
      csv = true;
    } else if (argv[i][0] != '-') {
      ledger = argv[i];
    } else {
      return usage(argv[0]);
    }
  }
  if (ledger.empty() || last <= 0) { return usage(argv[0]); }
  return csv ? csv_mode(ledger, last) : trend_mode(ledger, last);
}
