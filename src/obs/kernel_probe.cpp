#include "src/obs/kernel_probe.hpp"

#include <chrono>
#include <cmath>

#include "src/obs/analysis.hpp"
#include "src/obs/metrics.hpp"
#include "src/particles/deposition.hpp"
#include "src/particles/gather.hpp"
#include "src/particles/pusher.hpp"

namespace mrpic::obs {

namespace {

using probe_clock = std::chrono::steady_clock;

double stencil_points(int shape_order, int dim) {
  return std::pow(static_cast<double>(shape_order + 1), dim);
}

double esirkepov_points(int shape_order, int dim) {
  return std::pow(static_cast<double>(shape_order + 2), dim);
}

} // namespace

const char* kernel_kind_name(KernelKind k) {
  switch (k) {
    case KernelKind::Gather: return "gather";
    case KernelKind::Push: return "push";
    case KernelKind::Deposit: return "deposit";
  }
  return "unknown";
}

double kernel_flops_per_particle(KernelKind k, int shape_order, int dim) {
  switch (k) {
    case KernelKind::Gather:
      return static_cast<double>(particles::gather_flops_per_particle(shape_order, dim));
    case KernelKind::Push:
      return static_cast<double>(particles::push_flops_per_particle());
    case KernelKind::Deposit:
      return static_cast<double>(particles::deposit_flops_per_particle(shape_order, dim));
  }
  return 0;
}

double kernel_bytes_per_particle(KernelKind k, int shape_order, int dim) {
  const double real_b = static_cast<double>(sizeof(Real));
  switch (k) {
    case KernelKind::Gather:
      // read x, stream 6 field components over the stencil, write 6 gathered.
      return real_b * dim + 6 * real_b * stencil_points(shape_order, dim) + 6 * real_b;
    case KernelKind::Push:
      // read 6 gathered, read+write u (3), read+write x (dim).
      return 6 * real_b + 2 * 3 * real_b + 2 * real_b * dim;
    case KernelKind::Deposit:
      // read x_old + x_new, read w, RMW 3 current components over the
      // Esirkepov support.
      return 2 * real_b * dim + real_b + 6 * real_b * esirkepov_points(shape_order, dim);
  }
  return 0;
}

KernelProbe::KernelProbe(KernelObsConfig cfg)
    : m_cfg(std::move(cfg)), m_machine(&perf::machine_by_name(m_cfg.machine)) {}

void KernelProbe::record(KernelKind kind, std::int64_t step,
                         const std::string& species, int tile,
                         std::int64_t particles, double time_s, int shape_order,
                         int dim) {
  const auto t0 = probe_clock::now();

  KernelInvocation inv;
  inv.kind = kind;
  inv.step = step;
  inv.species = species;
  inv.tile = tile;
  inv.particles = particles;
  inv.time_s = time_s;
  inv.flops = static_cast<double>(particles) *
              kernel_flops_per_particle(kind, shape_order, dim);
  inv.bytes = static_cast<double>(particles) *
              kernel_bytes_per_particle(kind, shape_order, dim);
  const auto rp = analysis::roofline_point(kernel_kind_name(kind), inv.flops,
                                           inv.bytes, *m_machine, time_s);
  inv.intensity = rp.intensity;
  inv.roof_tflops = rp.roof_tflops;
  inv.attained_tflops = rp.attained_tflops;
  inv.attainment = rp.attainment;
  inv.memory_bound = rp.memory_bound;
  inv.gbyte_s = time_s > 0 ? inv.bytes / time_s / 1e9 : 0;

  std::lock_guard<std::mutex> lk(m_mu);
  auto& agg = m_agg[static_cast<int>(kind)];
  ++agg.invocations;
  agg.particles += particles;
  agg.time_s += time_s;
  agg.flops += inv.flops;
  agg.bytes += inv.bytes;
  if (m_invocations.size() < m_cfg.max_invocations) {
    m_invocations.push_back(std::move(inv));
  } else {
    ++m_dropped;
  }
  m_self_s += std::chrono::duration<double>(probe_clock::now() - t0).count();
}

void KernelProbe::add_locality(const TileLocality& loc) {
  const auto t0 = probe_clock::now();
  std::lock_guard<std::mutex> lk(m_mu);
  merge_locality(m_locality, loc);
  ++m_locality_tiles;
  m_self_s += std::chrono::duration<double>(probe_clock::now() - t0).count();
}

void KernelProbe::add_self_time(double seconds) {
  std::lock_guard<std::mutex> lk(m_mu);
  m_self_s += seconds;
}

std::vector<KernelInvocation> KernelProbe::invocations() const {
  std::lock_guard<std::mutex> lk(m_mu);
  return m_invocations;
}

std::vector<KernelAggregate> KernelProbe::aggregates() const {
  std::lock_guard<std::mutex> lk(m_mu);
  return std::vector<KernelAggregate>(m_agg, m_agg + kNumKernelKinds);
}

KernelAggregate KernelProbe::aggregate(KernelKind k) const {
  std::lock_guard<std::mutex> lk(m_mu);
  return m_agg[static_cast<int>(k)];
}

TileLocality KernelProbe::locality() const {
  std::lock_guard<std::mutex> lk(m_mu);
  return m_locality;
}

std::int64_t KernelProbe::locality_tiles() const {
  std::lock_guard<std::mutex> lk(m_mu);
  return m_locality_tiles;
}

std::int64_t KernelProbe::dropped_invocations() const {
  std::lock_guard<std::mutex> lk(m_mu);
  return m_dropped;
}

double KernelProbe::self_time_s() const {
  std::lock_guard<std::mutex> lk(m_mu);
  return m_self_s;
}

void KernelProbe::publish(MetricsRegistry& metrics) const {
  std::lock_guard<std::mutex> lk(m_mu);
  for (int k = 0; k < kNumKernelKinds; ++k) {
    const auto& agg = m_agg[k];
    const std::string base = std::string("kernel_") +
                             kernel_kind_name(static_cast<KernelKind>(k));
    metrics.gauge(base + "_time_s").set(agg.time_s);
    metrics.gauge(base + "_gbyte_s").set(agg.gbyte_s());
    metrics.gauge(base + "_intensity").set(agg.intensity());
    metrics.gauge(base + "_tflops").set(agg.attained_tflops());
  }
  metrics.gauge("kernel_locality_inversion_fraction").set(m_locality.inversion_fraction);
  metrics.gauge("kernel_locality_line_reuse").set(m_locality.line_reuse);
  metrics.gauge("kernel_predicted_sort_speedup").set(m_locality.predicted_sort_speedup);
  metrics.gauge("kernel_probe_self_s").set(m_self_s);
}

void KernelProbe::clear() {
  std::lock_guard<std::mutex> lk(m_mu);
  m_invocations.clear();
  for (auto& a : m_agg) { a = KernelAggregate{}; }
  m_locality = TileLocality{};
  m_locality_tiles = 0;
  m_dropped = 0;
  m_self_s = 0;
}

} // namespace mrpic::obs
