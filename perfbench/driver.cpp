// mrpic benchmark driver.
//
// Builds each workload through the public scenario::build_simulation API,
// times Simulation::step() from outside, checks the physics of every
// design-point run, and prints every metric by name with its unit and
// sample count. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set; with --trace 1 a
// separate traced pass reports the per-layer step anatomy (stage split,
// replayed kernels, allocations, observability cost, thread speedup, host
// bandwidth) and writes its spans as a Chrome trace.
//
//   perfbench_driver --workload lwfa_mr|uniform_plasma|campaign_pair
//                    --seed N --seconds S --trace 0|1
//                    [--steps N] [--outdir DIR] [--corrupt nan|particle]
//
// Workloads (why each exists: perfbench/README.md):
//   lwfa_mr        the registered MR scenario, one design point (a0 and
//                  density drawn from the seed in a +-5% band)
//   uniform_plasma periodic thermal plasma, 256x128 cells, 131k particles;
//                  the seed is the thermal-loading seed
//   campaign_pair  two hybrid_target_mr design points stepped concurrently
//                  from two threads, each with cluster/health/insitu obs
//
// Every run is closed-loop: a design point steps as fast as it can, and the
// timed segment (steps 0..N-1 of a freshly built simulation) is repeated
// while the next repetition still fits in --seconds, so every sample times
// the same work. Step percentiles and the FOM are taken per repetition and
// reported as the median over repetitions.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#ifdef MRPIC_USE_OPENMP
#include <omp.h>
#endif

#include "src/diag/diagnostics.hpp"
#include "src/obs/kernel_probe.hpp"
#include "src/obs/locality.hpp"
#include "src/obs/memory.hpp"
#include "src/particles/sorting.hpp"
#include "src/perf/fom.hpp"
#include "src/scenario/builder.hpp"
#include "src/scenario/registry.hpp"

namespace {

using mrpic::Real;
using Sim = mrpic::core::Simulation<2>;
using Spec = mrpic::scenario::ScenarioSpec;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void set_threads(int n) {
#ifdef MRPIC_USE_OPENMP
  omp_set_num_threads(n);
#else
  (void)n;
#endif
}

// OpenMP threads each design point steps with: half the host's processors.
// An OpenMP step waits at every barrier for its slowest thread, so a team as
// wide as the host stalls whenever another process takes one processor (on
// a 4-vCPU VM with two busy threads beside it, uniform_plasma stepped 9x
// slower at 4 threads and 1.06x slower at 2). Against the load of other
// tenants of the host, 2 and 4 threads spread alike and 1 thread spread
// most, so the two campaign_pair runs get half the processors each rather
// than sharing one half.
int step_threads() {
#ifdef MRPIC_USE_OPENMP
  return std::max(1, omp_get_num_procs() / 2);
#else
  return 1;
#endif
}

// Continuity residuals are normalized by max|rho|/dt (as the health probe
// does). Esirkepov deposition satisfies the discrete continuity equation
// exactly in exact arithmetic, so what remains is round-off of sums over
// the shape support: the repository's Esirkepov gate, ~4.5e3 ulp of 1.
constexpr double kContinuityBound = 1e-12;

// Half-width of the design-scan band around the registered a0 and density.
constexpr double kDesignBand = 0.05;

// ---------------------------------------------------------------------------
// Statistics.

double quantile(std::vector<double> v, double q) {
  if (v.empty()) { return std::numeric_limits<double>::quiet_NaN(); }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) { return std::numeric_limits<double>::quiet_NaN(); }
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

// ---------------------------------------------------------------------------
// Seeded inputs. The benchmark draws every input from --seed; the library
// only receives the resulting specs.

std::uint64_t splitmix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Uniform in [-1, 1).
double symmetric_unit(std::uint64_t& s) {
  return static_cast<double>(splitmix64(s) >> 11) * 0x1.0p-52 - 1.0;
}

// One point of a design scan around a registered scenario: every laser a0
// and every species density scaled by independent factors in
// [1 - kDesignBand, 1 + kDesignBand).
Spec design_point(Spec spec, std::uint64_t seed, int index) {
  std::uint64_t s = seed * 0x100000001B3ull + static_cast<std::uint64_t>(index);
  const double fa = 1.0 + kDesignBand * symmetric_unit(s);
  const double fn = 1.0 + kDesignBand * symmetric_unit(s);
  for (auto& l : spec.lasers) { l.a0 *= static_cast<Real>(fa); }
  for (auto& sp : spec.species) {
    sp.injector.density = [base = sp.injector.density,
                           f = static_cast<Real>(fn)](const mrpic::RealVect<2>& x) {
      return f * base(x);
    };
  }
  return spec;
}

Spec make_registered(const char* name) {
  return mrpic::scenario::ScenarioRegistry::instance().make(name);
}

// The paper's FOM problem at benchmark scale: the quickstart thermal
// plasma (100 eV, 2x2 ppc, 32^2 tiles, same 0.1 um cells) enlarged to
// 256x128 cells = 32 tiles, 131072 macroparticles.
Spec make_uniform_plasma(std::uint64_t seed) {
  Spec spec = make_registered("quickstart");
  spec.name = "uniform_plasma";
  spec.sim.domain = mrpic::Box2(mrpic::IntVect2(0, 0), mrpic::IntVect2(255, 127));
  spec.sim.prob_hi = mrpic::RealVect2(25.6e-6, 12.8e-6);
  spec.sim.max_grid_size = mrpic::IntVect2(32);
  spec.species.at(0).injector.seed = seed;
  return spec;
}

// ---------------------------------------------------------------------------
// Workload table.

enum class Kind { LwfaMr, Uniform, Campaign };

struct Workload {
  const char* name;
  Kind kind;
  int steps;          // timed segment per design-point run
  int speedup_steps;  // steps of the single-thread repeat (traced run)
};

const Workload kWorkloads[] = {
    {"lwfa_mr", Kind::LwfaMr, 200, 40},
    {"uniform_plasma", Kind::Uniform, 200, 30},
    {"campaign_pair", Kind::Campaign, 120, 30},
};

std::vector<Spec> make_specs(const Workload& w, std::uint64_t seed) {
  switch (w.kind) {
    case Kind::LwfaMr: return {design_point(make_registered("lwfa_mr"), seed, 0)};
    case Kind::Uniform: return {make_uniform_plasma(seed)};
    case Kind::Campaign: {
      const Spec base = make_registered("hybrid_target_mr");
      return {design_point(base, seed, 0), design_point(base, seed, 1)};
    }
  }
  return {};
}

// ---------------------------------------------------------------------------
// Spans (traced run only): kept in memory, written out at the end.

class SpanLog {
public:
  struct Span {
    int id = 0;
    int parent = -1;
    std::string name;
    double t0_us = 0;
    double dur_us = 0;
    int lane = 0;
  };

  explicit SpanLog(Clock::time_point origin) : m_origin(origin) {}

  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - m_origin).count();
  }

  int add(std::string name, int parent, double t0_us, double dur_us, int lane) {
    std::lock_guard<std::mutex> lk(m_mu);
    const int id = static_cast<int>(m_spans.size());
    m_spans.push_back({id, parent, std::move(name), t0_us, dur_us, lane});
    return id;
  }
  int open(std::string name, int parent, int lane = 0) {
    return add(std::move(name), parent, now_us(), -1, lane);
  }
  void close(int id) {
    const double t = now_us();
    std::lock_guard<std::mutex> lk(m_mu);
    m_spans[id].dur_us = t - m_spans[id].t0_us;
  }

  // Self time per span name: duration minus the union of the intervals its
  // children cover.
  struct SelfRow {
    std::int64_t count = 0;
    double total_us = 0;
    double self_us = 0;
  };
  std::map<std::string, SelfRow> self_times() const {
    std::vector<std::vector<int>> kids(m_spans.size());
    for (const auto& s : m_spans) {
      if (s.parent >= 0) { kids[s.parent].push_back(s.id); }
    }
    std::map<std::string, SelfRow> rows;
    for (const auto& s : m_spans) {
      std::vector<std::pair<double, double>> iv;
      for (int k : kids[s.id]) {
        iv.emplace_back(m_spans[k].t0_us, m_spans[k].t0_us + m_spans[k].dur_us);
      }
      std::sort(iv.begin(), iv.end());
      double covered = 0, lo = 0, hi = -1;
      for (const auto& [a, b] : iv) {
        if (a > hi) {
          if (hi > lo) { covered += hi - lo; }
          lo = a;
          hi = b;
        } else {
          hi = std::max(hi, b);
        }
      }
      if (hi > lo) { covered += hi - lo; }
      auto& r = rows[s.name];
      ++r.count;
      r.total_us += s.dur_us;
      r.self_us += s.dur_us - covered;
    }
    return rows;
  }

  bool write_chrome_trace(const std::string& path) const {
    std::ofstream os(path);
    if (!os) { return false; }
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < m_spans.size(); ++i) {
      const auto& s = m_spans[i];
      os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
         << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.lane << ",\"ts\":" << s.t0_us
         << ",\"dur\":" << s.dur_us << ",\"args\":{\"id\":" << s.id
         << ",\"parent\":" << s.parent << "}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
  }

  std::size_t size() const { return m_spans.size(); }

private:
  Clock::time_point m_origin;
  mutable std::mutex m_mu;
  std::vector<Span> m_spans;
};

// ---------------------------------------------------------------------------
// One design-point run: a freshly built simulation stepped through the
// timed segment.

// Profiler regions of Simulation::step() that belong to observability.
const char* const kObsRegions[] = {"health", "insitu", "cluster_obs", "memory", "kernel_obs"};
// Stage regions reported by name (core.<stage>_ms); "obs" is kObsRegions.
const char* const kStages[] = {"particles",    "field_solve",   "mr_aux",
                               "current_sync", "redistribute", "moving_window"};

struct StepSample {
  double wall_s = 0;                       // outside-timed step() call
  std::map<std::string, double> region_s;  // profiler split of this step
  double inversion = 0;                    // level-0 cell-order inversion fraction
  double patch_inversion = -1;             // same on the MR patch (-1: no patch particles)
  double ppc = 0;
};

struct Run {
  Spec spec;
  std::unique_ptr<Sim> sim;
  std::vector<StepSample> steps;
  double work = 0;  // sum over steps of 0.1 N_c + 0.9 N_p (paper Eq. 1)
  double setup_s = 0;
  std::int64_t n0 = 0;  // particles after init
  Real charge0 = 0;
  Real x_lo0 = 0;       // window position after init
  double continuity = std::numeric_limits<double>::quiet_NaN();
  std::int64_t probe_allocs = 0;  // ledger allocations of the continuity probe
  std::string failure;  // empty = every check passed
};

struct Context {
  const Workload* w = nullptr;
  std::string scratch;  // insitu series / stream files of campaign runs
  int rep = 0;
};

// build_simulation + (campaign observability) + init + drifts.
void setup_run(Run& r, const Context& ctx, int dp) {
  const auto t0 = Clock::now();
  mrpic::scenario::BuildOptions opts;
  opts.init = false;
  r.sim = mrpic::scenario::build_simulation(r.spec, opts);
  if (ctx.w->kind == Kind::Campaign) {
    // What a campaign run carries. Memory obs stays off: the byte ledger is
    // process-global and would merge the two runs.
    r.sim->enable_cluster_obs();
    r.sim->enable_health(r.spec.health);
    auto icfg = r.spec.insitu;
    const std::string base =
        ctx.scratch + "/dp" + std::to_string(dp) + "_rep" + std::to_string(ctx.rep);
    icfg.series_path = base + "_insitu.jsonl";
    if (icfg.stream_interval > 0) { icfg.stream.basename = base + "_stream"; }
    r.sim->enable_insitu(icfg);
  }
  r.sim->init();
  mrpic::scenario::apply_species_drifts(*r.sim, r.spec);
  r.setup_s = since(t0);
  r.n0 = r.sim->total_particles();
  r.charge0 = 0;
  for (int s = 0; s < r.sim->num_species(); ++s) {
    r.charge0 += r.sim->species_level0(s).total_charge() + r.sim->species_patch(s).total_charge();
  }
  r.x_lo0 = r.sim->geom().prob_lo()[0];
}

mrpic::MultiFab<2> charge_density(const Sim& sim) {
  const auto& f = sim.fields();
  mrpic::MultiFab<2> rho(f.box_array(), 1, f.num_ghost());
  for (int s = 0; s < sim.num_species(); ++s) {
    mrpic::diag::accumulate_charge<2>(sim.config().shape_order, sim.species_level0(s),
                                      f.geom(), rho);
  }
  rho.sum_boundary(f.geom());
  return rho;
}

// Pair-weighted cell-order inversion fraction of one level's tiles.
double inversion(const Sim& sim, bool patch_level) {
  const auto* patch = sim.patch();
  const auto& geom = patch_level ? patch->fine().geom() : sim.geom();
  mrpic::obs::TileLocality acc;
  for (int s = 0; s < sim.num_species(); ++s) {
    const auto& pc = patch_level ? sim.species_patch(s) : sim.species_level0(s);
    for (int ti = 0; ti < pc.num_tiles(); ++ti) {
      mrpic::obs::merge_locality(
          acc, mrpic::obs::tile_locality<2>(pc.tile(ti), geom, pc.box_array()[ti]));
    }
  }
  return acc.pairs > 0 ? acc.inversion_fraction : -1;
}

struct StepOptions {
  int nsteps = 0;
  int threads = 0;             // > 0: omp_set_num_threads on the stepping thread
  SpanLog* spans = nullptr;    // traced pass
  int parent_span = -1;
  int lane = 0;
  bool continuity_probe = false;  // one-step continuity residual on the last step
};

void step_run(Run& r, const StepOptions& o) {
  if (o.threads > 0) { set_threads(o.threads); }
  Sim& sim = *r.sim;
  const auto& ledger = mrpic::obs::memory_ledger();
  try {
    for (int i = 0; i < o.nsteps; ++i) {
      std::optional<mrpic::MultiFab<2>> rho_old;
      const bool probe = o.continuity_probe && i == o.nsteps - 1;
      if (probe) {
        const std::int64_t a0 = ledger.total_alloc_count();
        rho_old = charge_density(sim);
        r.probe_allocs += ledger.total_alloc_count() - a0;
      }

      StepSample smp;
      const double t0_us = o.spans ? o.spans->now_us() : 0;
      const auto t0 = Clock::now();
      sim.step();
      smp.wall_s = since(t0);
      const auto& rep = sim.last_step_report();
      r.work += mrpic::perf::fom_alpha * static_cast<double>(rep.cells_advanced) +
                mrpic::perf::fom_beta * static_cast<double>(rep.particles_pushed);

      if (o.spans) {
        smp.region_s = rep.region_s;
        // The step span's children are the stage times the profiler
        // reported, laid out in pipeline order from the step's start.
        const int id = o.spans->add("core.step", o.parent_span, t0_us, smp.wall_s * 1e6, o.lane);
        double t = t0_us;
        for (const char* stage : {"health", "particles", "laser", "current_sync",
                                  "field_solve", "mr_aux", "moving_window", "redistribute",
                                  "cluster_obs", "kernel_obs", "memory", "insitu"}) {
          const auto it = rep.region_s.find(stage);
          if (it == rep.region_s.end()) { continue; }
          o.spans->add(std::string("core.") + stage, id, t, it->second * 1e6, o.lane);
          t += it->second * 1e6;
        }
        smp.inversion = inversion(sim, false);
        if (sim.patch() && sim.patch()->active()) { smp.patch_inversion = inversion(sim, true); }
        smp.ppc = static_cast<double>(sim.total_particles()) /
                  static_cast<double>(sim.geom().domain().num_cells());
      }
      r.steps.push_back(std::move(smp));

      if (probe) {
        const std::int64_t a0 = ledger.total_alloc_count();
        const auto rho_new = charge_density(sim);
        r.probe_allocs += ledger.total_alloc_count() - a0;
        const auto& geom = sim.fields().geom();
        const double raw = mrpic::diag::continuity_residual<2>(*rho_old, rho_new,
                                                               sim.fields().J(), geom, sim.dt());
        const double scale = rho_new.max_abs(0) / sim.dt();
        r.continuity = scale > 0 ? raw / scale : raw;
      }
    }
  } catch (const std::exception& e) {
    r.failure = std::string("step threw: ") + e.what();
  }
}

// ---------------------------------------------------------------------------
// Correctness checks (they feed `failed`; tolerances come from the physics).

bool finite_fab(const mrpic::MultiFab<2>& mf) {
  for (int i = 0; i < mf.num_fabs(); ++i) {
    const auto& fab = mf.fab(i);
    const Real* p = fab.data();
    for (std::size_t k = 0; k < fab.size(); ++k) {
      if (!std::isfinite(p[k])) { return false; }
    }
  }
  return true;
}

bool finite_fields(const mrpic::fields::FieldSet<2>& f) {
  return finite_fab(f.E()) && finite_fab(f.B()) && finite_fab(f.J());
}

bool finite_tiles(const mrpic::particles::ParticleContainer<2>& pc) {
  for (int ti = 0; ti < pc.num_tiles(); ++ti) {
    const auto& t = pc.tile(ti);
    const auto all_finite = [](const std::vector<Real>& v) {
      return std::all_of(v.begin(), v.end(), [](Real x) { return std::isfinite(x); });
    };
    for (const auto& v : t.x) {
      if (!all_finite(v)) { return false; }
    }
    for (const auto& v : t.u) {
      if (!all_finite(v)) { return false; }
    }
    if (!all_finite(t.w)) { return false; }
  }
  return true;
}

std::string check_run(Run& r, Kind kind) {
  if (!r.failure.empty()) { return r.failure; }
  Sim& sim = *r.sim;

  // Every workload: all field and particle state is finite.
  if (!finite_fields(sim.fields())) { return "non-finite level-0 field"; }
  if (auto* pml = sim.domain_pml(); pml && !finite_fab(pml->split_fab())) {
    return "non-finite PML field";
  }
  if (const auto* p = sim.patch(); p && p->active()) {
    if (!finite_fields(p->fine()) || !finite_fields(p->coarse()) || !finite_fab(p->aux_E()) ||
        !finite_fab(p->aux_B())) {
      return "non-finite MR patch field";
    }
  }
  Real charge = 0;
  for (int s = 0; s < sim.num_species(); ++s) {
    if (!finite_tiles(sim.species_level0(s)) || !finite_tiles(sim.species_patch(s))) {
      return "non-finite particle state in species " + std::to_string(s);
    }
    charge += sim.species_level0(s).total_charge() + sim.species_patch(s).total_charge();
  }
  const std::int64_t n = sim.total_particles();

  switch (kind) {
    case Kind::Uniform: {
      // Periodic box: nothing enters or leaves and weights never change, so
      // count and charge are conserved exactly (all weights are equal, so
      // the sum does not depend on particle order).
      if (n != r.n0) {
        return "particle count " + std::to_string(n) + " != " + std::to_string(r.n0);
      }
      if (charge != r.charge0) { return "total charge not conserved"; }
      if (!(r.continuity <= kContinuityBound)) {
        return "continuity residual " + std::to_string(r.continuity) + " above bound";
      }
      break;
    }
    case Kind::LwfaMr: {
      // Without a window shift nothing is injected, so every loaded
      // particle is either still live or counted as escaped/swept.
      if (sim.geom().prob_lo()[0] != r.x_lo0) {
        return "moving window shifted inside the timed segment";
      }
      if (n + sim.particles_escaped() + sim.particles_swept() != r.n0) {
        return "particle accounting: live " + std::to_string(n) + " + escaped " +
               std::to_string(sim.particles_escaped()) + " + swept " +
               std::to_string(sim.particles_swept()) + " != loaded " + std::to_string(r.n0);
      }
      break;
    }
    case Kind::Campaign: {
      const auto* h = sim.health();
      if (h == nullptr) { return "health monitor missing"; }
      if (h->abort_requested()) { return "health abort requested"; }
      int residual_samples = 0;
      for (const auto& s : h->history()) {
        for (double v : {s.continuity_residual, s.continuity_residual_fine}) {
          if (std::isnan(v)) { continue; }
          ++residual_samples;
          if (!(v <= kContinuityBound)) {
            return "health continuity residual " + std::to_string(v) + " at step " +
                   std::to_string(s.step) + " above bound";
          }
        }
      }
      if (residual_samples == 0) { return "no continuity residual in the health ledger"; }
      break;
    }
  }
  return {};
}

// Deliberate corruption for the benchmark's own test: the checks must count
// a corrupted run as failed.
void corrupt(Run& r, const std::string& how) {
  Sim& sim = *r.sim;
  if (how == "nan") {
    sim.fields().E().fab(0).data()[0] = std::numeric_limits<Real>::quiet_NaN();
  } else if (how == "particle") {
    for (int s = 0; s < sim.num_species(); ++s) {
      auto& pc = sim.species_level0(s);
      for (int ti = 0; ti < pc.num_tiles(); ++ti) {
        if (pc.tile(ti).size() > 0) {
          pc.tile(ti).erase(0);
          return;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// A repetition: set up every design point of the workload, step them (two
// design points step concurrently from two threads), check them.

struct RepResult {
  std::vector<Run> runs;
  double setup_s = 0;      // all design points
  std::int64_t allocs = 0;  // ledger allocations made by step() calls
};

RepResult run_rep(const Context& ctx, const std::vector<Spec>& specs, StepOptions so,
                  const std::string& corrupt_how, SpanLog* spans, int parent_span) {
  RepResult rr;
  rr.runs.resize(specs.size());
  const int setup_span = spans ? spans->open("scenario.build_simulation", parent_span) : -1;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    rr.runs[i].spec = specs[i];
    try {
      setup_run(rr.runs[i], ctx, static_cast<int>(i));
    } catch (const std::exception& e) {
      rr.runs[i].failure = std::string("setup threw: ") + e.what();
    }
  }
  rr.setup_s = since(t0);
  if (spans) { spans->close(setup_span); }
  // The ledger is process-global, so concurrent design points are counted
  // over the whole stepping phase rather than per step.
  const auto& ledger = mrpic::obs::memory_ledger();
  const std::int64_t allocs0 = ledger.total_alloc_count();

  const auto step_one = [&](std::size_t i) {
    Run& r = rr.runs[i];
    if (!r.failure.empty()) { return; }
    StepOptions o = so;
    o.lane = static_cast<int>(i);
    int run_span = -1;
    if (spans) {
      run_span = spans->open("design_point." + std::to_string(i), parent_span, o.lane);
      o.parent_span = run_span;
    }
    step_run(r, o);
    if (spans) { spans->close(run_span); }
  };
  if (rr.runs.size() == 1) {
    step_one(0);
  } else {
    std::barrier sync(static_cast<std::ptrdiff_t>(rr.runs.size()));
    std::vector<std::thread> workers;
    for (std::size_t i = 0; i < rr.runs.size(); ++i) {
      workers.emplace_back([&, i] {
        sync.arrive_and_wait();
        step_one(i);
      });
    }
    for (auto& t : workers) { t.join(); }
  }
  rr.allocs = ledger.total_alloc_count() - allocs0;
  for (const auto& r : rr.runs) { rr.allocs -= r.probe_allocs; }

  for (std::size_t i = 0; i < rr.runs.size(); ++i) {
    Run& r = rr.runs[i];
    if (i == 0 && !corrupt_how.empty() && r.sim) { corrupt(r, corrupt_how); }
    if (r.failure.empty()) { r.failure = check_run(r, ctx.w->kind); }
  }
  return rr;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::int64_t samples = 0;
  bool na = false;       // the layer does not run on this workload
  bool in_json = true;   // false: printed in the table only
};

std::string json_number(double v) {
  if (!std::isfinite(v)) { return "0"; }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(const std::vector<Metric>& ms, bool correct, std::int64_t attempted,
                  std::int64_t failed) {
  std::printf("%-34s %16s  %-6s %s\n", "metric", "value", "unit", "samples");
  for (const auto& m : ms) {
    if (m.na) {
      std::printf("%-34s %16s  %-6s %s\n", m.name.c_str(), "n/a", m.unit.c_str(), "-");
    } else {
      std::printf("%-34s %16.6g  %-6s %lld\n", m.name.c_str(), m.value, m.unit.c_str(),
                  static_cast<long long>(m.samples));
    }
  }
  std::printf("%-34s %16.6g  %-6s %lld\n", "failed_frac",
              attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0,
              "1", static_cast<long long>(attempted));
  // JSON carries numbers only: a layer that does not run reports 0 there
  // and "n/a" in the table above.
  std::ostringstream js;
  js << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  const char* sep = "";
  for (const auto& m : ms) {
    if (!m.in_json) { continue; }
    js << sep << "\"" << m.name << "\": {\"value\": " << (m.na ? "0" : json_number(m.value))
       << ", \"unit\": \"" << m.unit << "\"}";
    sep = ", ";
  }
  js << "}}";
  std::printf("%s\n", js.str().c_str());
  std::fflush(stdout);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  void add(const RepResult& rr) {
    for (const auto& r : rr.runs) {
      ++attempted;
      if (!r.failure.empty()) {
        ++failed;
        std::fprintf(stderr, "design point failed: %s\n", r.failure.c_str());
      }
    }
  }
};

// ---------------------------------------------------------------------------
// End-to-end run (--trace 0).

// Set-up-only builds before every repetition. Spreading them over the run
// (rather than one burst) samples the host's slow and fast phases the way
// the step times do.
constexpr int kSetupsPerRep = 6;

int run_end_to_end(const Context& ctx, const std::vector<Spec>& specs, int nsteps,
                   double seconds, const std::string& corrupt_how) {
  // Each repetition yields its own p50, p95 and FOM; the run reports the
  // median over repetitions, so a burst of host interference that hits one
  // repetition does not move the result.
  std::vector<double> setup_s, rep_p50, rep_p95, rep_fom;
  std::int64_t n_steps = 0;
  Tally tally;

  Context c = ctx;
  const auto setup_only = [&](int k) {
    c.rep = -1 - k;
    const auto t0 = Clock::now();
    std::vector<Run> runs(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      runs[i].spec = specs[i];
      setup_run(runs[i], c, static_cast<int>(i));
    }
    setup_s.push_back(since(t0));
  };

  StepOptions so;
  so.nsteps = nsteps;
  so.threads = step_threads();
  so.continuity_probe = ctx.w->kind == Kind::Uniform;
  const auto start = Clock::now();
  double last_rep_s = 0, rss_mib = 0;
  int reps = 0;
  do {
    const auto t0 = Clock::now();
    for (int k = 0; k < kSetupsPerRep; ++k) { setup_only(reps * kSetupsPerRep + k); }
    c.rep = reps;
    RepResult rr = run_rep(c, specs, so, reps == 0 ? corrupt_how : "", nullptr, -1);
    last_rep_s = since(t0);
    ++reps;
    // High-water after the first repetition: later repetitions only add
    // allocator fragmentation, and their number depends on speed.
    if (reps == 1) { rss_mib = peak_rss_mib(); }
    tally.add(rr);
    setup_s.push_back(rr.setup_s);

    // Paper Eq. 1 with measured time and percent_of_system = 1, taking the
    // median step time as the time per step: the mean follows the tail of
    // host interference. For concurrent design points the node throughput
    // is the sum of their FOMs.
    std::vector<double> ms;
    double fom = 0;
    for (const auto& r : rr.runs) {
      std::vector<double> dp_s;
      for (const auto& st : r.steps) {
        ms.push_back(st.wall_s * 1e3);
        dp_s.push_back(st.wall_s);
      }
      if (!dp_s.empty()) { fom += r.work / static_cast<double>(dp_s.size()) / median(dp_s); }
    }
    if (!ms.empty()) {
      rep_p50.push_back(median(ms));
      rep_p95.push_back(quantile(ms, 0.95));
      rep_fom.push_back(fom);
      n_steps += static_cast<std::int64_t>(ms.size());
    }
  } while (since(start) + last_rep_s <= seconds);  // never runs past --seconds

  std::printf("workload %s  threads %d per design point  design points %zu  reps %d  "
              "steps/rep %d\n",
              ctx.w->name, so.threads, specs.size(), reps, nsteps);
  std::vector<Metric> ms{
      {"setup_s", median(setup_s), "s", static_cast<std::int64_t>(setup_s.size())},
      {"step_ms_p50", median(rep_p50), "ms", n_steps},
      // Printed, not gated: on a shared host the tail follows the
      // neighbours more than the program (perfbench/README.md).
      {"step_ms_p95", median(rep_p95), "ms", n_steps, false, false},
      {"fom", median(rep_fom), "1/s", n_steps},
      {"peak_rss_mb", rss_mib, "MiB", 1},
  };
  print_result(ms, tally.failed == 0, tally.attempted, tally.failed);
  return 0;
}

// ---------------------------------------------------------------------------
// Replay of the public layer calls on the live end state (traced run). Every
// call works on copies (tiles, J, fields, PML, patch), so the checked state
// is never touched and no particle leaves its tile.

struct Timed {
  double seconds = 0;
  double work = 0;  // particles, cells or calls per pass
  bool ran() const { return work > 0; }
};

constexpr int kReplayPasses = 5;

// Median over passes of the summed timed sections of one pass.
template <typename PassFn>
Timed replay(PassFn&& pass) {
  std::vector<double> t;
  double work = 0;
  for (int k = 0; k < kReplayPasses; ++k) {
    double s = 0;
    work = pass(s);
    t.push_back(s);
  }
  return {median(t), work};
}

template <typename F>
void timed(double& acc, F&& f) {
  const auto t0 = Clock::now();
  f();
  acc += since(t0);
}

struct ReplayTimes {
  std::map<std::string, Timed> t;
  void add(const std::string& k, const Timed& v) {
    t[k].seconds += v.seconds;
    t[k].work += v.work;
  }
};

void replay_particles(Sim& sim, bool patch_level, ReplayTimes& out) {
  const int order = sim.config().shape_order;
  const auto kind = sim.config().deposition;
  const auto pusher = sim.config().pusher;
  const Real dt = sim.dt();
  auto* patch = sim.patch();
  if (patch_level && (patch == nullptr || !patch->active())) { return; }
  const auto& geom = patch_level ? patch->fine().geom() : sim.fields().geom();
  const auto& E = patch_level ? patch->aux_E() : sim.fields().E();
  const auto& B = patch_level ? patch->aux_B() : sim.fields().B();
  const auto& J = patch_level ? patch->fine().J() : sim.fields().J();

  Timed g, p, d;
  std::vector<double> tg, tp, td;
  for (int k = 0; k < kReplayPasses; ++k) {
    auto Jc = J;
    double sg = 0, sp = 0, sd = 0, np = 0;
    mrpic::particles::GatheredFields gf;
    for (int s = 0; s < sim.num_species(); ++s) {
      auto& pc = patch_level ? sim.species_patch(s) : sim.species_level0(s);
      const Real q = pc.species().charge;
      const Real mass = pc.species().mass;
      for (int ti = 0; ti < pc.num_tiles(); ++ti) {
        const auto& tile = pc.tile(ti);
        if (tile.size() == 0) { continue; }
        const int fab = patch_level ? 0 : ti;
        timed(sg, [&] {
          mrpic::particles::gather_fields<2>(order, tile, geom, E.const_array(fab),
                                             B.const_array(fab), gf);
        });
        auto moved = tile;
        timed(sp, [&] {
          mrpic::particles::push_particles<2>(pusher, moved, gf, q, mass, dt);
        });
        timed(sd, [&] {
          mrpic::particles::deposit_current<2>(kind, order, moved, tile.x, geom,
                                               Jc.array(fab), q, dt);
        });
        np += static_cast<double>(tile.size());
      }
    }
    tg.push_back(sg);
    tp.push_back(sp);
    td.push_back(sd);
    g.work = p.work = d.work = np;
  }
  g.seconds = median(tg);
  p.seconds = median(tp);
  d.seconds = median(td);
  const std::string pre = patch_level ? "patch_" : "";
  out.add(pre + "gather", g);
  out.add(pre + "push", p);
  out.add(pre + "deposit", d);
}

void replay_layers(Sim& sim, const Spec& spec, ReplayTimes& out) {
  const auto& geom = sim.fields().geom();
  const Real dt = sim.dt();
  replay_particles(sim, false, out);
  replay_particles(sim, true, out);

  out.add("sort", replay([&](double& s) {
    double np = 0;
    for (int sp = 0; sp < sim.num_species(); ++sp) {
      const auto& pc = sim.species_level0(sp);
      for (int ti = 0; ti < pc.num_tiles(); ++ti) {
        auto copy = pc.tile(ti);
        timed(s, [&] { mrpic::particles::sort_tile_by_cell<2>(copy, geom, pc.box_array()[ti]); });
        np += static_cast<double>(copy.size());
      }
    }
    return np;
  }));

  // Redistribute the particles one replayed push ahead (untimed push on a
  // copy of the container), i.e. the migration work of a real step.
  out.add("redistribute", replay([&](double& s) {
    double np = 0;
    mrpic::particles::GatheredFields gf;
    for (int sp = 0; sp < sim.num_species(); ++sp) {
      auto pc = sim.species_level0(sp);
      for (int ti = 0; ti < pc.num_tiles(); ++ti) {
        auto& tile = pc.tile(ti);
        if (tile.size() == 0) { continue; }
        mrpic::particles::gather_fields<2>(sim.config().shape_order, tile, geom,
                                           sim.fields().E().const_array(ti),
                                           sim.fields().B().const_array(ti), gf);
        mrpic::particles::push_particles<2>(sim.config().pusher, tile, gf,
                                            pc.species().charge, pc.species().mass, dt);
      }
      np += static_cast<double>(pc.total_particles());
      timed(s, [&] { pc.redistribute(geom); });
    }
    return np;
  }));

  mrpic::fields::FDTDSolver<2> solver;
  out.add("fdtd", replay([&](double& s) {
    auto f = sim.fields();
    timed(s, [&] {
      solver.evolve_b(f, dt / 2);
      solver.evolve_e(f, dt);
    });
    return static_cast<double>(geom.domain().num_cells());
  }));

  if (const auto* pml = sim.domain_pml()) {
    out.add("pml", replay([&](double& s) {
      auto p = *pml;
      timed(s, [&] {
        p.evolve_b(dt / 2);
        p.evolve_e(dt);
      });
      return static_cast<double>(p.box_array().total_cells());
    }));
  }

  // One level-0 exchange, as Simulation::exchange_level0 does it (the FDTD
  // step makes four).
  out.add("exchange", replay([&](double& s) {
    auto f = sim.fields();
    std::optional<mrpic::fields::Pml<2>> p;
    if (const auto* pml = sim.domain_pml()) { p = *pml; }
    timed(s, [&] {
      f.fill_boundary();
      if (p) {
        p->exchange_from_interior(f);
        p->fill_boundary();
        p->copy_to_interior(f);
      }
    });
    return 1.0;
  }));

  out.add("sum_boundary", replay([&](double& s) {
    auto J = sim.fields().J();
    timed(s, [&] { J.sum_boundary(geom); });
    return 1.0;
  }));

  if (const auto* patch = sim.patch(); patch && patch->active()) {
    out.add("build_aux", replay([&](double& s) {
      auto mp = *patch;
      timed(s, [&] { mp.build_aux(sim.fields()); });
      return 1.0;
    }));
    out.add("sync_currents", replay([&](double& s) {
      auto mp = *patch;
      auto J = sim.fields().J();
      timed(s, [&] { mp.sync_currents(J); });
      return 1.0;
    }));
    out.add("patch_evolve", replay([&](double& s) {
      auto mp = *patch;
      timed(s, [&] {
        mp.evolve_b(dt / 2);
        mp.evolve_e(dt);
      });
      return static_cast<double>(mp.extra_cells());
    }));
  }

  // Plasma loading: every species' injector over the whole domain into an
  // empty container.
  out.add("inject", replay([&](double& s) {
    double np = 0;
    for (int sp = 0; sp < sim.num_species(); ++sp) {
      mrpic::particles::ParticleContainer<2> pc(sim.species_level0(sp).species(),
                                                sim.fields().box_array());
      mrpic::plasma::PlasmaInjector<2> inj(spec.species.at(sp).injector);
      timed(s, [&] { np += static_cast<double>(inj.inject_all(pc, geom)); });
    }
    return np;
  }));
}

// STREAM triad a = b + s*c over arrays totalling >= 4x the last-level
// cache (sysconf reports it from CPUID), best of 5 passes. Host context for
// the computed kernel bytes only; it rescales no metric.
struct Triad {
  double gb_s = 0;
  double array_mib = 0;
  double llc_mib = 0;
};

Triad stream_triad() {
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) { llc = sysconf(_SC_LEVEL2_CACHE_SIZE); }
  if (llc <= 0) { llc = 32l << 20; }
  const std::size_t n = static_cast<std::size_t>(4 * llc / 3 / sizeof(double)) + 1;
  std::unique_ptr<double[]> a(new double[n]), b(new double[n]), c(new double[n]);
  const auto len = static_cast<std::int64_t>(n);
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < len; ++i) {
    a[i] = 0;
    b[i] = 1.0 + static_cast<double>(i % 7);
    c[i] = 2.0;
  }
  double best = std::numeric_limits<double>::infinity();
  for (int k = 0; k < 5; ++k) {
    const auto t0 = Clock::now();
    const double s = 0.5 + k;
#pragma omp parallel for schedule(static)
    for (std::int64_t i = 0; i < len; ++i) { a[i] = b[i] + s * c[i]; }
    best = std::min(best, since(t0));
  }
  volatile double sink = a[n / 2];
  (void)sink;
  return {3.0 * static_cast<double>(n) * sizeof(double) / best / 1e9,
          static_cast<double>(n) * sizeof(double) / (1 << 20),
          static_cast<double>(llc) / (1 << 20)};
}

// ---------------------------------------------------------------------------
// Traced run (--trace 1).

double stage_sum(const std::vector<StepSample>& steps, std::size_t first, std::size_t count,
                 const char* stage) {
  double s = 0;
  for (std::size_t i = first; i < std::min(steps.size(), first + count); ++i) {
    if (stage == nullptr) {
      s += steps[i].wall_s;
    } else {
      const auto it = steps[i].region_s.find(stage);
      if (it != steps[i].region_s.end()) { s += it->second; }
    }
  }
  return s;
}

int run_traced(const Context& ctx, const std::vector<Spec>& specs, int nsteps,
               const std::string& outdir, std::uint64_t seed) {
  const auto origin = Clock::now();
  SpanLog spans(origin);
  Tally tally;
  Context c = ctx;

  // Untraced reference pass of the same segment: the tracing overhead is
  // the difference of the two step_ms_p50 values.
  StepOptions plain;
  plain.nsteps = nsteps;
  plain.threads = step_threads();
  plain.continuity_probe = ctx.w->kind == Kind::Uniform;
  set_threads(plain.threads);  // the replay and the triad run on this thread
  c.rep = 0;
  RepResult ref = run_rep(c, specs, plain, "", nullptr, -1);
  tally.add(ref);
  std::vector<double> ref_ms;
  for (const auto& r : ref.runs) {
    for (const auto& s : r.steps) { ref_ms.push_back(s.wall_s * 1e3); }
  }
  ref.runs.clear();

  // Traced pass: workload -> scenario.build_simulation, design_point.<i>
  // -> core.step -> core.<stage>.
  const int root = spans.open(std::string("workload.") + ctx.w->name, -1);
  StepOptions traced = plain;
  traced.spans = &spans;
  c.rep = 1;
  RepResult tr = run_rep(c, specs, traced, "", &spans, root);
  spans.close(root);
  tally.add(tr);

  // Replay on the checked end state.
  ReplayTimes rt;
  const int replay_span = spans.open("replay", -1);
  for (auto& r : tr.runs) {
    if (r.sim) { replay_layers(*r.sim, r.spec, rt); }
  }
  spans.close(replay_span);

  std::vector<StepSample> steps;  // traced steps of every design point
  for (const auto& r : tr.runs) { steps.insert(steps.end(), r.steps.begin(), r.steps.end()); }

  // Single-thread repeat of the first steps of the same runs. The speedups
  // compare it with the benchmark's thread count (step_threads), so they are
  // n/a on a host where that is already 1.
  const std::int64_t traced_allocs = tr.allocs;
  const int nthreads = plain.threads;
  const int m = std::min(ctx.w->speedup_steps, nsteps);
  StepOptions one = traced;
  one.nsteps = m;
  one.threads = 1;
  SpanLog scratch_spans(origin);  // region split of the 1-thread steps
  one.spans = &scratch_spans;
  c.rep = 2;
  RepResult st = run_rep(c, specs, one, "", &scratch_spans, -1);
  set_threads(nthreads);
  tally.add(st);
  const auto speedup = [&](const char* stage) -> std::optional<double> {
    double t1 = 0, tn = 0;
    for (std::size_t i = 0; i < st.runs.size(); ++i) {
      t1 += stage_sum(st.runs[i].steps, 0, m, stage);
      tn += stage_sum(tr.runs[i].steps, 0, m, stage);
    }
    if (nthreads == 1 || tn <= 0 || t1 <= 0) { return std::nullopt; }
    return t1 / tn;
  };
  const Triad triad = stream_triad();

  // --- per-layer metrics ---------------------------------------------------
  std::vector<Metric> ms;
  const auto n_steps = static_cast<std::int64_t>(steps.size());
  const auto per_step = [&](const char* stage) {
    std::vector<double> v;
    bool any = false;
    for (const auto& s : steps) {
      const auto it = s.region_s.find(stage);
      any = any || it != s.region_s.end();
      v.push_back(it == s.region_s.end() ? 0.0 : it->second * 1e3);
    }
    return std::make_pair(v, any);
  };
  for (const char* stage : kStages) {
    auto [v, any] = per_step(stage);
    ms.push_back({std::string("core.") + stage + "_ms", median(v), "ms", n_steps, !any});
  }
  std::vector<double> obs_ms, self_ms, wall_ms;
  double obs_total = 0, wall_total = 0;
  bool any_obs = false;
  for (const auto& s : steps) {
    double o = 0, listed = 0;
    for (const char* r : kObsRegions) {
      const auto it = s.region_s.find(r);
      if (it != s.region_s.end()) {
        o += it->second;
        any_obs = true;
      }
    }
    for (const char* r : kStages) {
      const auto it = s.region_s.find(r);
      if (it != s.region_s.end()) { listed += it->second; }
    }
    obs_ms.push_back(o * 1e3);
    self_ms.push_back((s.wall_s - listed - o) * 1e3);
    wall_ms.push_back(s.wall_s * 1e3);
    obs_total += o;
    wall_total += s.wall_s;
  }
  ms.push_back({"core.obs_ms", median(obs_ms), "ms", n_steps, !any_obs});
  ms.push_back({"core.self_ms", median(self_ms), "ms", n_steps});
  ms.push_back({"core.step_ms", median(wall_ms), "ms", n_steps});
  ms.push_back({"core.step_ms_p95", quantile(wall_ms, 0.95), "ms", n_steps});
  for (const auto& [name, stage] :
       std::vector<std::pair<const char*, const char*>>{{"core.step_speedup", nullptr},
                                                        {"core.particles_speedup", "particles"},
                                                        {"core.field_solve_speedup",
                                                         "field_solve"},
                                                        {"core.mr_aux_speedup", "mr_aux"}}) {
    const auto v = speedup(stage);
    ms.push_back({name, v.value_or(0), "1", m, !v.has_value()});
  }

  const auto ns_per = [&](const char* key, const char* name) {
    const auto it = rt.t.find(key);
    const bool ran = it != rt.t.end() && it->second.ran();
    ms.push_back({name, ran ? it->second.seconds / it->second.work * 1e9 : 0, "ns",
                  kReplayPasses, !ran});
  };
  const auto us_per = [&](const char* key, const char* name) {
    const auto it = rt.t.find(key);
    const bool ran = it != rt.t.end() && it->second.ran();
    ms.push_back({name, ran ? it->second.seconds / it->second.work * 1e6 : 0, "us",
                  kReplayPasses, !ran});
  };
  ns_per("gather", "particles.gather_ns");
  ns_per("push", "particles.push_ns");
  ns_per("deposit", "particles.deposit_ns");
  ns_per("patch_gather", "particles.patch_gather_ns");
  ns_per("patch_deposit", "particles.patch_deposit_ns");
  ns_per("sort", "particles.sort_ns");
  ns_per("redistribute", "particles.redistribute_ns");
  {
    std::vector<double> inv, pinv, ppc;
    for (const auto& s : steps) {
      inv.push_back(std::max(s.inversion, 0.0));
      if (s.patch_inversion >= 0) { pinv.push_back(s.patch_inversion); }
      ppc.push_back(s.ppc);
    }
    ms.push_back({"particles.inversion_frac", mean(inv), "1", n_steps});
    ms.push_back({"particles.patch_inversion_frac", pinv.empty() ? 0 : mean(pinv), "1",
                  static_cast<std::int64_t>(pinv.size()), pinv.empty()});
    ms.push_back({"particles.ppc_mean", mean(ppc), "1", n_steps});
  }
  ns_per("fdtd", "fields.fdtd_ns_per_cell");
  ns_per("pml", "fields.pml_ns_per_cell");
  us_per("exchange", "fields.exchange_us");
  us_per("build_aux", "mr.build_aux_us");
  us_per("sync_currents", "mr.sync_currents_us");
  ns_per("patch_evolve", "mr.patch_evolve_ns_per_cell");
  us_per("sum_boundary", "amr.sum_boundary_us");
  ms.push_back({"amr.allocs_per_step",
                static_cast<double>(traced_allocs) / static_cast<double>(n_steps), "count",
                n_steps});
  ns_per("inject", "plasma.inject_ns");
  for (const auto& [name, region] : std::vector<std::pair<const char*, const char*>>{
           {"obs.health_ms", "health"}, {"obs.insitu_ms", "insitu"},
           {"obs.cluster_ms", "cluster_obs"}}) {
    auto [v, any] = per_step(region);
    // Mean, not median: insitu runs on a cadence, so its per-step cost is
    // the amortized one.
    ms.push_back({name, mean(v), "ms", n_steps, !any});
  }
  ms.push_back({"obs.overhead_frac", wall_total > 0 ? obs_total / wall_total : 0, "1", n_steps,
                !any_obs});
  ms.push_back({"trace.overhead_ms", median(wall_ms) - median(ref_ms), "ms", n_steps});
  ms.push_back({"host.triad_gbs", triad.gb_s, "GB/s", 5});
  for (const auto& [name, kind] : std::vector<std::pair<const char*, mrpic::obs::KernelKind>>{
           {"particles.gather_bytes_computed", mrpic::obs::KernelKind::Gather},
           {"particles.push_bytes_computed", mrpic::obs::KernelKind::Push},
           {"particles.deposit_bytes_computed", mrpic::obs::KernelKind::Deposit}}) {
    ms.push_back({name,
                  mrpic::obs::kernel_bytes_per_particle(kind, specs.front().sim.shape_order, 2),
                  "B", 1});
  }

  // Set-up time of the traced pass, from its span.
  const auto self = spans.self_times();
  const auto bs = self.find("scenario.build_simulation");
  ms.push_back({"scenario.build_simulation_ms",
                bs == self.end() ? 0 : bs->second.total_us / 1e3, "ms", 1});

  std::filesystem::create_directories(outdir);
  const std::string trace_path = outdir + "/trace_" + ctx.w->name + "_seed" +
                                 std::to_string(seed) + ".json";
  const bool wrote = spans.write_chrome_trace(trace_path);

  std::printf("workload %s  threads %d per design point  design points %zu  traced steps "
              "%lld  spans %zu\n",
              ctx.w->name, nthreads, specs.size(), static_cast<long long>(n_steps),
              spans.size());
  std::printf("span self times (ms):\n");
  for (const auto& [name, row] : self) {
    std::printf("  %-28s n=%-6lld total %10.3f  self %10.3f\n", name.c_str(),
                static_cast<long long>(row.count), row.total_us / 1e3, row.self_us / 1e3);
  }
  std::printf("host: LLC %.1f MiB, triad arrays 3 x %.1f MiB; kernel bytes are computed "
              "(cold-cache model), not measured\n",
              triad.llc_mib, triad.array_mib);
  std::printf("trace %s%s\n", trace_path.c_str(), wrote ? "" : " (write failed)");
  print_result(ms, tally.failed == 0 && wrote, tally.attempted, tally.failed);
  return 0;
}

// ---------------------------------------------------------------------------

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload NAME --seed N "
               "--seconds S --trace 0|1 [--steps N] [--outdir DIR] [--corrupt nan|particle]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, outdir = ".bench_build/perfbench/out", corrupt_how;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0, steps_override = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) { return usage(("missing value for " + a).c_str()); }
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        workload = v;
      } else if (a == "--seed") {
        seed = std::stoull(v);
      } else if (a == "--seconds") {
        seconds = std::stod(v);
      } else if (a == "--trace") {
        trace = std::stoi(v);
      } else if (a == "--steps") {
        steps_override = std::stoi(v);
      } else if (a == "--outdir") {
        outdir = v;
      } else if (a == "--corrupt") {
        corrupt_how = v;
      } else {
        return usage(("unknown flag " + a).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + a).c_str());
    }
  }
  if (trace != 0 && trace != 1) { return usage("--trace must be 0 or 1"); }
  if (!(seconds > 0)) { return usage("--seconds must be positive"); }
  if (!corrupt_how.empty() && corrupt_how != "nan" && corrupt_how != "particle") {
    return usage("--corrupt must be nan or particle");
  }
  const Workload* w = nullptr;
  for (const auto& cand : kWorkloads) {
    if (workload == cand.name) { w = &cand; }
  }
  if (w == nullptr) { return usage(("unknown workload '" + workload + "'").c_str()); }
  const int nsteps = steps_override > 0 ? steps_override : w->steps;

  Context ctx;
  ctx.w = w;
  ctx.scratch = outdir + "/scratch_" + std::to_string(getpid());
  std::filesystem::create_directories(ctx.scratch);
  int rc = 0;
  try {
    const auto specs = make_specs(*w, seed);
    rc = trace ? run_traced(ctx, specs, nsteps, outdir, seed)
               : run_end_to_end(ctx, specs, nsteps, seconds, corrupt_how);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    rc = 1;
  }
  std::error_code ec;
  std::filesystem::remove_all(ctx.scratch, ec);
  return rc;
}
