// KernelProbe is driven from whatever thread owns a kernel launch while
// report builders snapshot it; hammer the mutex-guarded surface from many
// threads. Runs in the normal suite and again under -DMRPIC_SANITIZE=thread
// via the kernel_concurrency_sanitized ctest.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/obs/kernel_probe.hpp"
#include "src/obs/locality.hpp"
#include "src/obs/metrics.hpp"

namespace mrpic::obs {
namespace {

TEST(KernelConcurrency, RecordAndSnapshotHammer) {
  KernelObsConfig cfg;
  cfg.max_invocations = 256; // force the drop path under contention
  KernelProbe probe(cfg);

  const mrpic::Geometry<2> geom(mrpic::Box2(mrpic::IntVect2(0, 0), mrpic::IntVect2(15, 15)),
                                mrpic::RealVect2(0, 0), mrpic::RealVect2(16.0, 16.0),
                                {false, false});
  particles::ParticleTile<2> tile;
  for (int i = 0; i < 512; ++i) {
    const Real x = Real((i * 7) % 16) + Real(0.5);
    const Real y = Real((i * 3) % 16) + Real(0.5);
    tile.push_back({x, y}, {0, 0, 0}, 1.0);
  }

  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const auto kind = static_cast<KernelKind>((t + i) % kNumKernelKinds);
        probe.record(kind, i, "e", t, 100, 1e-6, 2, 2);
        if (i % 16 == 0) {
          probe.add_locality(
              tile_locality<2>(tile, geom, geom.domain(), probe.config().locality_sample));
        }
        if (i % 8 == 0) {
          (void)probe.aggregates();
          (void)probe.invocations();
          (void)probe.locality();
          (void)probe.self_time_s();
        }
      }
    });
  }
  for (auto& th : threads) { th.join(); }

  std::int64_t total = 0;
  for (const auto& agg : probe.aggregates()) { total += agg.invocations; }
  EXPECT_EQ(total, std::int64_t(kThreads) * kIters);
  EXPECT_EQ(std::int64_t(probe.invocations().size()) + probe.dropped_invocations(),
            total);
  EXPECT_EQ(probe.locality_tiles(), kThreads * (kIters / 16 + (kIters % 16 ? 1 : 0)));
  EXPECT_GT(probe.locality().pairs, 0);

  MetricsRegistry metrics;
  probe.publish(metrics);
  EXPECT_GT(metrics.gauge("kernel_probe_self_s").value(), 0.0);
}

} // namespace
} // namespace mrpic::obs
