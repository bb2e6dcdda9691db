#pragma once

// Field gathering: interpolation of the Yee-staggered E and B fields onto
// particle positions with B-spline shapes of order 1-3 (paper Fig. 3, the
// "field gathering" stage; one of the two hotspots of the PIC cycle).

#include <vector>

#include "src/amr/array4.hpp"
#include "src/amr/geometry.hpp"
#include "src/particles/particle_container.hpp"

namespace mrpic::particles {

// Per-particle gathered field buffers (SoA scratch reused across tiles).
struct GatheredFields {
  std::array<std::vector<Real>, 3> E, B;
  void resize(std::size_t n) {
    for (auto& v : E) { v.resize(n); }
    for (auto& v : B) { v.resize(n); }
  }
  std::size_t size() const { return E[0].size(); }
};

// Gather E,B (Array4 views of one fab, 3 components each) at the positions
// of the particles of `tile` in `range` (default: all of them); out is
// resized to the range and holds particle range.begin + k at index k.
// Positions must lie within the fab's valid region (ghost layers cover the
// staggered stencils). Serial: the caller owns the threading.
template <int DIM>
void gather_fields(int order, const ParticleTile<DIM>& tile,
                   const mrpic::Geometry<DIM>& geom, const Array4<const Real>& E,
                   const Array4<const Real>& B, GatheredFields& out,
                   ParticleRange range = {});

// FLOPs per particle of one gather at the given order/dimension.
std::int64_t gather_flops_per_particle(int order, int dim);

extern template void gather_fields<2>(int, const ParticleTile<2>&,
                                      const mrpic::Geometry<2>&, const Array4<const Real>&,
                                      const Array4<const Real>&, GatheredFields&,
                                      ParticleRange);
extern template void gather_fields<3>(int, const ParticleTile<3>&,
                                      const mrpic::Geometry<3>&, const Array4<const Real>&,
                                      const Array4<const Real>&, GatheredFields&,
                                      ParticleRange);

} // namespace mrpic::particles
