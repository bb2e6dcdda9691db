#pragma once

// Test helpers for thread-count invariance: run a callable at a given
// OpenMP thread count, and flatten a simulation's state (level-0 and MR
// patch E/B/J, every particle's x/u/w on both levels) into named arrays
// that compare bit for bit.

#ifdef MRPIC_USE_OPENMP
#include <omp.h>
#endif

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/core/simulation.hpp"

namespace mrpic::testing {

using StateArrays = std::vector<std::pair<std::string, std::vector<Real>>>;

// Call f() with the OpenMP thread count set to n, then restore it (a no-op
// setting without OpenMP).
template <typename F>
void with_threads(int n, F&& f) {
#ifdef MRPIC_USE_OPENMP
  const int before = omp_get_max_threads();
  omp_set_num_threads(n);
  f();
  omp_set_num_threads(before);
#else
  (void)n;
  f();
#endif
}

template <int DIM>
StateArrays state_of(const core::Simulation<DIM>& sim) {
  StateArrays out;
  const auto add_fabs = [&](const std::string& name, const MultiFab<DIM>& mf) {
    for (int m = 0; m < mf.num_fabs(); ++m) {
      const auto& f = mf.fab(m);
      out.emplace_back(name + "[" + std::to_string(m) + "]",
                       std::vector<Real>(f.data(), f.data() + f.size()));
    }
  };
  const auto add_fields = [&](const std::string& level, const fields::FieldSet<DIM>& fs) {
    add_fabs(level + ".E", fs.E());
    add_fabs(level + ".B", fs.B());
    add_fabs(level + ".J", fs.J());
  };
  const auto add_particles = [&](const std::string& name,
                                 const particles::ParticleContainer<DIM>& pc) {
    for (int t = 0; t < pc.num_tiles(); ++t) {
      const auto& tile = pc.tile(t);
      const std::string at = name + ".tile" + std::to_string(t);
      for (int d = 0; d < DIM; ++d) { out.emplace_back(at + ".x" + std::to_string(d), tile.x[d]); }
      for (int c = 0; c < 3; ++c) { out.emplace_back(at + ".u" + std::to_string(c), tile.u[c]); }
      out.emplace_back(at + ".w", tile.w);
    }
  };
  add_fields("level0", sim.fields());
  if (const auto* patch = sim.patch(); patch != nullptr && patch->active()) {
    add_fields("fine", patch->fine());
    add_fields("coarse", patch->coarse());
  }
  for (int s = 0; s < sim.num_species(); ++s) {
    add_particles("species" + std::to_string(s) + ".level0", sim.species_level0(s));
    add_particles("species" + std::to_string(s) + ".patch", sim.species_patch(s));
  }
  return out;
}

// Name of the first array whose bits differ ("" when a and b are identical).
inline std::string first_difference(const StateArrays& a, const StateArrays& b) {
  if (a.size() != b.size()) { return "array count"; }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& [name, va] = a[i];
    const auto& vb = b[i].second;
    if (name != b[i].first || va.size() != vb.size() ||
        (!va.empty() && std::memcmp(va.data(), vb.data(), va.size() * sizeof(Real)) != 0)) {
      return name;
    }
  }
  return "";
}

} // namespace mrpic::testing
