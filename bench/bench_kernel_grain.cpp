// Kernel-grain observability bench (ROADMAP item 2's measuring stick): four
// record families, three of them pure model arithmetic and baseline-gated,
// one host timing and --ignore'd by bench_smoke:
//
//  - kernels[]:  per-kind probe aggregates from a thermal-plasma run with
//                kernel obs at the default cadence. Invocation/particle
//                counts and the analytic flops/bytes/intensity columns are
//                deterministic; time/bandwidth/attainment are host timing.
//  - locality[]: the cell-key locality model on synthetic key streams
//                (sorted, LCG-shuffled, reversed, strided) — pure
//                arithmetic, including the predicted cell-binned-sort
//                speedup.
//  - overlap[]:  the halo phase timeline (post/wait/interior/headroom) of
//                SimCluster::step_cost over a rank sweep — pure model
//                arithmetic, with the post+wait == comm split verdict as a
//                gated 0/1 flag.
//  - probe[]:    the <= 1% probe-overhead acceptance gate, best of 3 runs:
//                overhead_frac is host timing (ignored), the overhead_ok
//                0/1 verdict is gated.
//
// Run: ./bench_kernel_grain [--json] [--steps N] [--outdir DIR]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "src/cluster/sim_cluster.hpp"
#include "src/core/simulation.hpp"
#include "src/diag/output_dir.hpp"
#include "src/dist/distribution_mapping.hpp"
#include "src/obs/json.hpp"
#include "src/obs/kernel_probe.hpp"
#include "src/obs/locality.hpp"

using namespace mrpic;

namespace {

std::unique_ptr<core::Simulation<2>> make_sim(int n) {
  core::SimulationConfig<2> cfg;
  cfg.domain = Box2(IntVect2(0, 0), IntVect2(n - 1, n - 1));
  cfg.prob_lo = RealVect2(0, 0);
  cfg.prob_hi = RealVect2(n * 1e-7, n * 1e-7);
  cfg.periodic = {true, true};
  cfg.max_grid_size = IntVect2(n / 2);
  cfg.shape_order = 2;
  auto sim = std::make_unique<core::Simulation<2>>(cfg);

  plasma::InjectorConfig<2> inj;
  inj.density = plasma::uniform<2>(5e23);
  inj.ppc = IntVect2(2, 2);
  inj.temperature_ev = 50.0;
  sim->add_species(particles::Species::electron(), inj);
  return sim;
}

// Synthetic cell-key streams for the locality model: every case is exactly
// reproducible (fixed LCG), so all columns diff at tight tolerance.
std::vector<std::int64_t> make_keys(const std::string& kind, std::int64_t n) {
  std::vector<std::int64_t> keys(static_cast<std::size_t>(n));
  std::iota(keys.begin(), keys.end(), std::int64_t(0));
  if (kind == "reversed") {
    std::reverse(keys.begin(), keys.end());
  } else if (kind == "strided") {
    // Interleave two halves: stride n/2 on every other pair.
    std::vector<std::int64_t> s;
    s.reserve(keys.size());
    for (std::int64_t i = 0; i < n / 2; ++i) {
      s.push_back(i);
      s.push_back(i + n / 2);
    }
    keys = std::move(s);
  } else if (kind == "shuffled") {
    std::uint64_t state = 88172645463325252ull;
    for (std::size_t i = keys.size() - 1; i > 0; --i) {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      std::swap(keys[i], keys[state % (i + 1)]);
    }
  }
  return keys;
}

} // namespace

int main(int argc, char** argv) {
  const auto out = diag::OutputDir::from_args(argc, argv);
  bool json_out = false;
  int steps = 20;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) { json_out = true; }
    if (std::strcmp(argv[i], "--steps") == 0 && i + 1 < argc) {
      steps = std::atoi(argv[i + 1]);
    }
  }

  // --- kernels + probe: thermal plasma with the probe at default cadence --
  // 64x64 so the overhead gate measures the probe against a realistic step
  // cost (a 32x32 step is so cheap the fixed locality-sample cost dominates).
  // The overhead is one wall-time ratio, so a busy host can inflate any
  // single run: keep the best of kReps identical runs (the counts and the
  // model columns are the same in every one).
  constexpr int kReps = 3;
  obs::KernelObsConfig kcfg; // interval 5, Summit roofline
  std::unique_ptr<core::Simulation<2>> sim;
  double probe_s = 0, step_s = 0, overhead_frac = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    auto run = make_sim(64);
    run->enable_kernel_obs(kcfg);
    run->init();
    run->run(steps);
    // The probe's self time is spent inside "particles"; its publishing
    // stage is the "kernel_obs" row of the step anatomy.
    const auto step = run->profiler().breakdown("step");
    const double p = run->kernel_probe()->self_time_s() + step.seconds("kernel_obs");
    const double frac = step.total.inclusive_s > 0 ? p / step.total.inclusive_s : 0;
    if (rep == 0 || frac < overhead_frac) {
      sim = std::move(run);
      probe_s = p;
      step_s = step.total.inclusive_s;
      overhead_frac = frac;
    }
  }

  const obs::KernelProbe& probe = *sim->kernel_probe();
  const auto aggs = probe.aggregates();
  std::printf("kernel-grain probe: %d steps at cadence %d (thermal plasma 64x64)\n\n",
              steps, kcfg.sample_interval);
  std::printf("  %-8s %6s %10s %12s %12s %7s %8s\n", "kernel", "invoc", "particles",
              "flops", "bytes", "intens", "GB/s");
  for (int i = 0; i < obs::kNumKernelKinds; ++i) {
    const auto& a = aggs[std::size_t(i)];
    std::printf("  %-8s %6lld %10lld %12.4g %12.4g %7.3f %8.2f\n",
                obs::kernel_kind_name(static_cast<obs::KernelKind>(i)),
                static_cast<long long>(a.invocations),
                static_cast<long long>(a.particles), a.flops, a.bytes, a.intensity(),
                a.gbyte_s());
  }

  const bool overhead_ok = overhead_frac <= 0.01;
  std::printf("\n  probe %.3g s of %.3g s stepped (%.3f%%, best of %d) -> %s\n", probe_s,
              step_s, 100 * overhead_frac, kReps, overhead_ok ? "ok" : "FAIL");

  // --- locality model on synthetic key streams --------------------------
  const std::int64_t nkeys = 4096;
  const std::vector<std::string> cases = {"sorted", "shuffled", "reversed", "strided"};
  std::vector<obs::TileLocality> locs;
  std::printf("\n  %-9s %8s %7s %7s %7s %7s %8s\n", "keys", "invfrac", "stride",
              "p99", "reuse", "sorted", "speedup");
  for (const auto& kind : cases) {
    const auto l = obs::locality_from_keys(make_keys(kind, nkeys));
    std::printf("  %-9s %8.4f %7.1f %7.0f %7.3f %7.3f %7.2fx\n", kind.c_str(),
                l.inversion_fraction, l.mean_stride_cells, l.p99_stride_cells,
                l.line_reuse, l.sorted_line_reuse, l.predicted_sort_speedup);
    locs.push_back(l);
  }

  // --- halo phase timeline over a rank sweep ----------------------------
  struct OverlapRecord {
    int nranks;
    cluster::StepCost cost;
    bool split_ok;
  };
  std::vector<OverlapRecord> overlaps;
  std::printf("\n  %6s %10s %10s %10s %10s %12s\n", "ranks", "comm_s", "post_s",
              "wait_s", "interior_s", "headroom_s");
  for (int nranks : {2, 4, 8}) {
    const Box2 domain(IntVect2(0, 0), IntVect2(63, 63));
    const auto ba = BoxArray<2>::decompose(domain, 16);
    const auto dm =
        dist::DistributionMapping::make(ba, nranks, dist::Strategy::SpaceFillingCurve);
    cluster::SimCluster cl(nranks);
    const auto cost = cl.step_cost(ba, dm, std::vector<Real>(ba.size(), Real(1e-4)), 9, 2);
    const bool split_ok = std::abs(cost.post_s + cost.wait_s - cost.comm_s) <= 1e-12;
    std::printf("  %6d %10.3g %10.3g %10.3g %10.3g %12.3g\n", nranks, cost.comm_s,
                cost.post_s, cost.wait_s, cost.interior_compute_s,
                cost.overlap_headroom_s);
    overlaps.push_back({nranks, cost, split_ok});
  }

  if (json_out) {
    const std::string json_path = out.path("BENCH_kernel_grain.json");
    std::ofstream os(json_path);
    obs::json::Writer w(os);
    w.begin_object();
    w.field("bench", "kernel_grain");
    w.begin_array("kernels");
    for (int i = 0; i < obs::kNumKernelKinds; ++i) {
      const auto& a = aggs[std::size_t(i)];
      w.begin_object()
          .field("kernel", obs::kernel_kind_name(static_cast<obs::KernelKind>(i)))
          .field("invocations", a.invocations)
          .field("particles", a.particles)
          .field("flops", a.flops)
          .field("bytes", a.bytes)
          .field("intensity", a.intensity())
          .field("time_s", a.time_s)
          .field("gbyte_s", a.gbyte_s())
          .end_object();
    }
    w.end_array();
    w.begin_array("locality");
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const auto& l = locs[i];
      w.begin_object()
          .field("case", cases[i])
          .field("particles", l.particles)
          .field("pairs", l.pairs)
          .field("inversion_fraction", l.inversion_fraction)
          .field("mean_stride_cells", l.mean_stride_cells)
          .field("p99_stride_cells", l.p99_stride_cells)
          .field("line_reuse", l.line_reuse)
          .field("sorted_line_reuse", l.sorted_line_reuse)
          .field("predicted_sort_speedup", l.predicted_sort_speedup)
          .end_object();
    }
    w.end_array();
    w.begin_array("overlap");
    for (const auto& o : overlaps) {
      w.begin_object()
          .field("nranks", std::int64_t(o.nranks))
          .field("compute_s", o.cost.compute_s)
          .field("comm_s", o.cost.comm_s)
          .field("post_s", o.cost.post_s)
          .field("wait_s", o.cost.wait_s)
          .field("interior_compute_s", o.cost.interior_compute_s)
          .field("overlap_headroom_s", o.cost.overlap_headroom_s)
          .field("split_ok", std::int64_t(o.split_ok ? 1 : 0))
          .end_object();
    }
    w.end_array();
    w.begin_array("probe");
    w.begin_object()
        .field("steps", std::int64_t(steps))
        .field("sample_interval", std::int64_t(kcfg.sample_interval))
        .field("sampled_invocations",
               std::int64_t(aggs[0].invocations + aggs[1].invocations +
                             aggs[2].invocations))
        .field("probe_s", probe_s)
        .field("step_s", step_s)
        .field("overhead_frac", overhead_frac)
        .field("overhead_ok", std::int64_t(overhead_ok ? 1 : 0))
        .end_object();
    w.end_array();
    w.end_object();
    os << '\n';
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return overhead_ok ? 0 : 1;
}
