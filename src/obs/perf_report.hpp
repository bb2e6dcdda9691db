#pragma once

// perf_report — the automated performance report of a run: the attribution
// core over obs::analysis (per recorded step the critical path and the
// parallel-overhead decomposition, straggler ranks, optionally a scaling
// sweep's loss terms; the recorder runs on the modeled cluster clock and the
// headings say so) plus one Section per source (measured step anatomy,
// health, beam physics, memory, kernel headroom, roofline), each built once
// by its builder below. write_markdown (the human artifact; the step anatomy
// comes right after the title) and write_json (bench kind "attribution",
// schema-validated and baseline-gated in bench_smoke) each walk the sections
// once. Producers: the perf_report CLI over a recorder dump, the scaling
// benches under --attribution, and scenario::assemble_perf_report.

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "src/obs/analysis.hpp"
#include "src/obs/kernel_probe.hpp"
#include "src/obs/memory.hpp"

namespace mrpic::health {
class HealthMonitor;
}

namespace mrpic::insitu {
class Registry;
class StreamWriter;
}

namespace mrpic::obs {

class Profiler;

// printf-format a number for humans: "n/a" when it is not finite, and never
// "-0". Every report cell and every beam line on stdout goes through it.
std::string fmt_value(double v, const char* printf_fmt = "%.3g");

// One labelled value. Markdown renders "B" units as bytes, "%" as a
// fraction in percent, "us" as seconds in microseconds, integer lists as a
// rank chain, anything else as %.3g plus the unit.
struct Field {
  std::string key;    // JSON member name ("" = Markdown only)
  std::string label;  // Markdown label / column header ("" = JSON only)
  using Value =
      std::variant<double, std::int64_t, bool, std::string, std::vector<std::int64_t>>;
  Value value;
  std::string unit{};

  double number() const;  // numeric value (bool 0/1; NaN otherwise)
};

// A JSON array of objects; in Markdown a table whose columns are the
// labelled fields. Consecutive rows labelled by consecutive integers (steps)
// whose other cells are identical render as one "a–b" row.
struct Table {
  std::string key;
  std::vector<std::vector<Field>> rows{};
};

// One report section. Markdown: "## heading" ("### " when nested), the
// note, a label/value table of the labelled fields, the tables, then the
// sub-sections. JSON: object `key` holding the fields, the tables as arrays
// and the sub-sections as objects ("" key: those sit in the parent object).
struct Section {
  std::string key;
  std::string name;     // name on the driver's "perf report sections:" line
  std::string heading;
  std::string note{};   // one Markdown paragraph ("" = none)
  bool first = false;   // rendered right after the title, ahead of the core
  std::vector<Field> fields{};
  std::vector<Table> tables{};
  std::vector<Section> subsections{};

  Section& add(std::string key, std::string label, Field::Value v, std::string unit = "");
  double number(std::string_view key) const;  // NaN when absent
};

// Measured step anatomy from the profiler tree: one row per direct
// sub-region of "step" (stages and probes alike) with total seconds, ms/step
// and share of the step, plus an "other" row (the step's own time outside
// every sub-region) so the rows sum to the step's inclusive time.
Section step_anatomy_section(const Profiler& prof);

// Simulation health (src/health): alert counts, sampled-window invariants.
// In a laser-driven run pass the time from which every antenna is off
// (`sources_off_s`): the energy drift then spans only the ledger samples
// taken at or after it, since before it the antenna is still adding energy
// to the box; with no such sample the drift is n/a and a field says so.
Section health_section(const health::HealthMonitor& mon,
                       std::optional<double> sources_off_s = std::nullopt);

// Beam physics (src/insitu): the latest record of each reduced diagnostic
// (n/a when it never ran or the beam is empty), the streamed volume.
Section beam_section(const insitu::Registry& reg, const insitu::StreamWriter* stream);

// Memory (obs::MemoryLedger): bytes per subsystem, optionally the measured
// vs analytic MR savings and, from a recorder's resident-bytes lanes, the
// per-rank peak and first-rank-to-OOM prediction (`budget_bytes` 0 = none).
Section memory_section(const MemoryLedger& ledger, const MrSavings* measured = nullptr,
                       const MrSavings* analytic = nullptr,
                       const RankRecorder* rec = nullptr, double budget_bytes = 0);

// Kernel headroom (obs::KernelProbe + the recorder's halo phase lanes):
// per-kernel roofline placement, predicted sort payoff, the critical rank's
// overlap headroom, and the probe's self time (spent inside "particles").
Section kernel_section(const KernelProbe& probe, const RankRecorder* rec = nullptr);

// Roofline placement of analytic per-stage flop/byte counts on `machine`
// (JSON: top-level "machine" and "roofline").
Section roofline_section(const std::string& machine,
                         const std::vector<analysis::KernelRoofline>& kernels);

struct PerfReportOptions {
  std::string title = "perf report";
  // Wire model used for the latency split (cluster::CommModel::latency_s of
  // the model the recorder was driven with).
  double latency_s = 2e-6;
  // Steps listed individually in the Markdown (worst by makespan).
  int top_steps = 5;
};

struct PerfReport {
  std::string title;
  int nranks = 0;
  double latency_s = 0;
  std::vector<analysis::CriticalPath> paths;        // one per recorded step
  analysis::CriticalPathSummary summary;
  std::vector<analysis::LossTerms> step_overhead;   // per-step decomposition
  std::vector<analysis::LossTerms> scaling_losses;  // optional sweep terms
  std::vector<Section> sections;                    // in the order added
  int top_steps = 5;

  // Steps ordered by descending critical-path makespan.
  std::vector<int> worst_steps() const;
  const Section* section(std::string_view key) const;
};

// Build the attribution core from a recorder. Sweep losses and sections are
// attached by the caller (they need context the recorder does not carry).
PerfReport build_perf_report(const RankRecorder& rec, const PerfReportOptions& opt = {});

void write_markdown(const PerfReport& report, std::ostream& os);
bool write_markdown(const PerfReport& report, const std::string& path);
// bench kind "attribution": {"bench":"attribution","critical_path":[...],
// "loss":[...]} (loss = scaling_losses when present, else step_overhead).
void write_json(const PerfReport& report, std::ostream& os);
bool write_json(const PerfReport& report, const std::string& path);

} // namespace mrpic::obs
