// bench_compare — the perf-regression gate CLI over BENCH_*.json files.
//
//   bench_compare [options] BASELINE.json CURRENT.json
//   bench_compare [options] BASELINE_DIR CURRENT_DIR
//   bench_compare --schema FILE...
//
// File mode diffs one bench document against its baseline; directory mode
// iterates every BENCH_*.json in BASELINE_DIR and diffs it against the
// same-named file in CURRENT_DIR (a missing current file is a failure, so a
// bench that silently stops running trips the gate). --schema validates the
// per-kind required keys without needing a baseline. Exit codes: 0 = all
// metrics within tolerance, 1 = regression / missing metric / schema error,
// 2 = usage or I/O error. Run from ctest as the `bench_smoke` gate (see
// bench/bench_smoke.sh) against the committed bench/baselines/.
//
// Options:
//   --rel-tol X    relative tolerance (default 0.05)
//   --abs-tol X    absolute tolerance floor (default 1e-12)
//   --ignore S     skip metric paths containing S (repeatable)
//   --verbose      print every metric row, not just non-Pass ones

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/bench_diff.hpp"
#include "src/obs/durable_file.hpp"
#include "src/obs/json.hpp"

namespace fs = std::filesystem;
using namespace mrpic::obs;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--rel-tol X] [--abs-tol X] [--ignore S]... [--verbose] \\\n"
               "          BASELINE CURRENT     (two files or two directories)\n"
               "       %s --schema FILE...\n",
               argv0, argv0);
  return 2;
}

bool load_json(const std::string& path, json::Value& out) {
  try {
    out = mrpic::obs::load_json(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_compare: %s\n", e.what());
    return false;
  }
  return true;
}

// Returns 0 ok / 1 regression / 2 I/O error.
int compare_files(const std::string& base_path, const std::string& cur_path,
                  const benchdiff::Options& opt, bool verbose) {
  json::Value base, cur;
  if (!load_json(base_path, base) || !load_json(cur_path, cur)) { return 2; }
  const auto report = benchdiff::compare(base, cur, opt);
  std::printf("%s vs %s\n", base_path.c_str(), cur_path.c_str());
  std::ostringstream os;
  benchdiff::print_report(report, os, verbose);
  std::fputs(os.str().c_str(), stdout);
  return report.ok() ? 0 : 1;
}

int schema_mode(const std::vector<std::string>& files) {
  if (files.empty()) { return 2; }
  int rc = 0;
  for (const auto& f : files) {
    json::Value doc;
    if (!load_json(f, doc)) { return 2; }
    const auto errors = benchdiff::validate_schema(doc);
    if (errors.empty()) {
      std::printf("%s: schema OK\n", f.c_str());
    } else {
      rc = 1;
      for (const auto& e : errors) {
        std::printf("%s: schema error: %s\n", f.c_str(), e.c_str());
      }
    }
  }
  return rc;
}

} // namespace

int main(int argc, char** argv) {
  benchdiff::Options opt;
  bool verbose = false;
  bool schema = false;
  std::vector<std::string> positional;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_compare: %s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--rel-tol") {
      opt.rel_tol = std::atof(need_value("--rel-tol"));
    } else if (a == "--abs-tol") {
      opt.abs_tol = std::atof(need_value("--abs-tol"));
    } else if (a == "--ignore") {
      opt.ignore.emplace_back(need_value("--ignore"));
    } else if (a == "--verbose") {
      verbose = true;
    } else if (a == "--schema") {
      schema = true;
    } else if (a == "--help" || a == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "bench_compare: unknown option %s\n", a.c_str());
      return usage(argv[0]);
    } else {
      positional.push_back(a);
    }
  }

  if (schema) { return schema_mode(positional); }
  if (positional.size() != 2) { return usage(argv[0]); }
  const std::string& base = positional[0];
  const std::string& cur = positional[1];

  std::error_code ec;
  if (!fs::is_directory(base, ec)) { return compare_files(base, cur, opt, verbose); }

  // Directory mode: every BENCH_*.json in the baseline dir must exist and
  // pass in the current dir.
  if (!fs::is_directory(cur, ec)) {
    std::fprintf(stderr, "bench_compare: %s is a directory but %s is not\n", base.c_str(),
                 cur.c_str());
    return 2;
  }
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(base, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) == 0 && entry.path().extension() == ".json") {
      names.push_back(name);
    }
  }
  if (names.empty()) {
    std::fprintf(stderr, "bench_compare: no BENCH_*.json in %s\n", base.c_str());
    return 2;
  }
  std::sort(names.begin(), names.end());
  int rc = 0;
  for (const auto& name : names) {
    const std::string cur_path = (fs::path(cur) / name).string();
    if (!fs::exists(cur_path, ec)) {
      std::printf("%s: MISSING in %s\n", name.c_str(), cur.c_str());
      rc = std::max(rc, 1);
      continue;
    }
    const int r = compare_files((fs::path(base) / name).string(), cur_path, opt, verbose);
    rc = std::max(rc, r);
    std::printf("\n");
  }
  std::printf("bench_compare: %zu file(s) compared -> %s\n", names.size(),
              rc == 0 ? "OK" : "REGRESSION");
  return rc;
}
