// The obs durable-file unit (append+flush JSONL, atomic rewrite, tolerant
// JSONL reader, JSON loader) and a truncation sweep over every reader it
// serves: each valid file is cut at every byte offset, and each reader must
// either return a prefix of the uncut file's records or throw
// std::runtime_error — never crash, hang or invent a record.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "src/insitu/registry.hpp"
#include "src/insitu/streaming.hpp"
#include "src/obs/bench_history.hpp"
#include "src/obs/durable_file.hpp"
#include "src/obs/event_log.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/rank_recorder_io.hpp"
#include "src/obs/run_manifest.hpp"

namespace mrpic::obs {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

void spit(const std::string& path, const std::string& text) {
  std::ofstream os(path, std::ios::trunc | std::ios::binary);
  os << text;
}

template <class T, class Write>
std::string to_text(const T& value, Write write) {
  std::ostringstream os;
  write(value, os);
  return os.str();
}

TEST(DurableFile, AppenderTruncatesOrAppendsAndFlushesEachLine) {
  const std::string path = "durable_appender.jsonl";
  spit(path, "{\"stale\":1}\n");
  {
    JsonlAppender app;
    ASSERT_TRUE(app.open(path, /*append=*/false));
    EXPECT_EQ(app.path(), path);
    ASSERT_TRUE(app.append([](std::ostream& os) { os << "{\"a\":1}"; }));
    // Flushed: visible to a reader while the appender is still open.
    EXPECT_EQ(slurp(path), "{\"a\":1}\n");
  }
  {
    JsonlAppender app;
    ASSERT_TRUE(app.open(path, /*append=*/true));
    ASSERT_TRUE(app.append([](std::ostream& os) { os << "{\"b\":2}"; }));
  }
  EXPECT_EQ(slurp(path), "{\"a\":1}\n{\"b\":2}\n");

  JsonlAppender closed;
  EXPECT_FALSE(closed.is_open());
  EXPECT_FALSE(closed.append([](std::ostream& os) { os << "{}"; }));
  EXPECT_FALSE(closed.open("no_such_dir_durable/x.jsonl", false));
  EXPECT_TRUE(closed.path().empty());
  std::remove(path.c_str());
}

TEST(DurableFile, AtomicRewriteReplacesWholeDocumentAndLeavesNoTmp) {
  const std::string path = "durable_rewrite.json";
  ASSERT_TRUE(rewrite_json_atomic(path, [](std::ostream& os) { os << "{\"v\":1}"; }));
  ASSERT_TRUE(rewrite_json_atomic(path, [](std::ostream& os) { os << "{\"v\":2}"; }));
  EXPECT_EQ(slurp(path), "{\"v\":2}\n");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_EQ(load_json(path)["v"].as_int(), 2);

  EXPECT_FALSE(rewrite_json_atomic("no_such_dir_durable/x.json",
                                   [](std::ostream& os) { os << "{}"; }));
  std::remove(path.c_str());
}

TEST(DurableFile, ReadJsonlSkipsEmptyAndCountsBadLines) {
  const std::string path = "durable_read.jsonl";
  spit(path, "{\"n\":1}\n\nnot json\n{\"n\":2}\n{\"n\":");
  std::vector<std::int64_t> got;
  std::vector<std::size_t> bad_lines;
  const std::size_t skipped = read_jsonl(
      path, "test file",
      [&](const std::string& line) { got.push_back(json::parse(line)["n"].as_int()); },
      [&](std::size_t lineno, const char*) { bad_lines.push_back(lineno); });
  EXPECT_EQ(got, (std::vector<std::int64_t>{1, 2}));
  EXPECT_EQ(skipped, 2u);  // the empty line is skipped but not counted
  EXPECT_EQ(bad_lines, (std::vector<std::size_t>{3, 5}));

  try {
    read_jsonl("no_such_durable.jsonl", "test file", [](const std::string&) {});
    FAIL() << "expected an open error";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "cannot open test file: no_such_durable.jsonl");
  }
  std::remove(path.c_str());
}

TEST(DurableFile, LoadJsonNamesThePathOnEveryError) {
  const std::string path = "durable_load.json";
  spit(path, "{\"a\": [1, 2");
  for (const std::string& p : {path, std::string("no_such_durable.json")}) {
    try {
      load_json(p);
      FAIL() << "expected an error for " << p;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(p), std::string::npos) << e.what();
    }
  }
  std::remove(path.c_str());
}

// --- truncation sweep --------------------------------------------------------

// Reads a file and returns its records, each serialized back to text.
using Reader = std::function<std::vector<std::string>(const std::string&)>;

// Cut `text` at every byte offset; the reader must return a prefix of the
// uncut file's records or throw std::runtime_error. Returns how many cuts
// threw (so callers can assert the document readers do reject cuts).
std::size_t sweep(const std::string& path, const std::string& text, const Reader& read) {
  spit(path, text);
  const auto full = read(path);
  EXPECT_FALSE(full.empty());
  std::size_t threw = 0;
  for (std::size_t cut = 0; cut <= text.size(); ++cut) {
    spit(path, text.substr(0, cut));
    try {
      const auto got = read(path);
      EXPECT_LE(got.size(), full.size()) << "cut at byte " << cut;
      for (std::size_t i = 0; i < got.size() && i < full.size(); ++i) {
        EXPECT_EQ(got[i], full[i]) << "record " << i << ", cut at byte " << cut;
      }
    } catch (const std::runtime_error&) {
      ++threw;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "cut at byte " << cut << " threw a non-runtime_error: " << e.what();
    }
  }
  std::remove(path.c_str());
  return threw;
}

TEST(TruncationSweep, MetricsJsonl) {
  MetricsRegistry m;
  for (std::int64_t s = 0; s < 4; ++s) {
    m.begin_step(s);
    m.counter("particles_pushed").add(100 + s);
    m.gauge("step_wall_s").set(1e-3 * double(s + 1));
    m.end_step();
  }
  std::ostringstream text;
  m.write_jsonl(text);
  sweep("sweep_metrics.jsonl", text.str(), [](const std::string& path) {
    std::vector<std::string> out;
    for (const auto& rec : MetricsRegistry::read_jsonl(path)) {
      out.push_back(to_text(rec, MetricsRegistry::write_record));
    }
    return out;
  });
}

TEST(TruncationSweep, EventLogJsonl) {
  EventLog log;
  log.publish("lifecycle", "run_start", EventSeverity::Info, -1, "quickstart");
  log.publish("health", "alert", EventSeverity::Critical, 3, "max_gamma", {{"value", 50.0}});
  log.publish("resil", "checkpoint", EventSeverity::Info, 4);
  std::string text;
  for (const auto& ev : log.snapshot()) { text += EventLog::event_line(ev) + "\n"; }
  sweep("sweep_events.jsonl", text, [](const std::string& path) {
    std::vector<std::string> out;
    for (const auto& ev : EventLog::read_events_jsonl(path)) {
      out.push_back(EventLog::event_line(ev));
    }
    return out;
  });
}

TEST(TruncationSweep, InsituSeriesJsonl) {
  std::string text;
  for (std::int64_t s = 0; s < 4; ++s) {
    insitu::Record r;
    r.diag = s % 2 == 0 ? "beam" : "spectrum";
    r.step = s;
    r.time = 1e-15 * double(s);
    r.set("emit_ny_m_rad", 1e-6 * double(s + 1));
    r.set("peak_energy_J", 1.6e-13);
    text += to_text(r, insitu::Registry::write_record) + "\n";
  }
  sweep("sweep_insitu.jsonl", text, [](const std::string& path) {
    std::vector<std::string> out;
    for (const auto& r : insitu::Registry::read_series_jsonl(path)) {
      out.push_back(to_text(r, insitu::Registry::write_record));
    }
    return out;
  });
}

TEST(TruncationSweep, BenchHistoryJsonl) {
  std::string text;
  for (int i = 0; i < 3; ++i) {
    BenchHistoryEntry e;
    e.bench = i == 1 ? "memory" : "kernel_grain";
    e.source = "BENCH_x.json";
    e.unix_time = 1754600000 + i;
    e.metrics["probe[0].overhead_frac"] = 0.004 * (i + 1);
    text += bench_history_line(e) + "\n";
  }
  sweep("sweep_history.jsonl", text, [](const std::string& path) {
    std::vector<std::string> out;
    for (const auto& e : read_bench_history(path)) { out.push_back(bench_history_line(e)); }
    return out;
  });
}

TEST(TruncationSweep, RunManifest) {
  RunManifest m;
  m.run_id = "sweep-run";
  m.scenario = "quickstart";
  m.spec_digest = "82ece7b409c271eb";
  m.status = kRunStatusCompleted;
  m.steps_done = 12;
  m.flags = {"--steps 12"};
  m.artifacts.push_back({"metrics", "quickstart_metrics.jsonl", 2048});
  const std::size_t threw =
      sweep("sweep_run.json", manifest_json(m) + "\n", [](const std::string& path) {
        return std::vector<std::string>{manifest_json(read_manifest(path))};
      });
  EXPECT_GT(threw, 0u);
}

TEST(TruncationSweep, InsituStreamManifest) {
  insitu::StreamConfig cfg;
  cfg.basename = "sweep_stream";
  {
    insitu::StreamWriter w(cfg);
    for (std::int64_t s = 0; s < 2; ++s) {
      insitu::Frame f;
      f.name = "Ex";
      f.step = s;
      f.nx = 2;
      f.ny = 2;
      f.data.assign(4, 1.0f);
      ASSERT_TRUE(w.write(f));
    }
  }
  const std::string manifest = cfg.basename + ".manifest.json";
  const std::string text = slurp(manifest);
  std::remove(manifest.c_str());
  std::remove((cfg.basename + ".000.bin").c_str());
  const std::size_t threw = sweep(manifest, text, [](const std::string& path) {
    const auto m = insitu::read_manifest(path);
    return std::vector<std::string>{m.basename + ":" + std::to_string(m.total_frames) + ":" +
                                    std::to_string(m.files.size())};
  });
  EXPECT_GT(threw, 0u);
}

TEST(TruncationSweep, RankRecorderDump) {
  RankRecorder rec(2);
  RankStepBreakdown bd;
  bd.step = 0;
  bd.ranks.resize(2);
  for (int r = 0; r < 2; ++r) {
    bd.ranks[r].rank = r;
    bd.ranks[r].compute_s = 1e-3 * (r + 1);
    bd.ranks[r].boxes = 2;
  }
  rec.set_step(0);
  rec.add_step(bd, {});
  rec.add_fault_event({0, "slowdown", 1, 0.0, "rank 1"});
  const auto dump = [](const RankRecorder& r) {
    std::ostringstream os;
    write_recorder_json(r, os);
    return os.str();
  };
  const std::size_t threw =
      sweep("sweep_ranks.json", dump(rec), [&](const std::string& path) {
        return std::vector<std::string>{dump(read_recorder_file(path))};
      });
  EXPECT_GT(threw, 0u);
}

} // namespace
} // namespace mrpic::obs
