#pragma once

// Relativistic particle pushers. The default is the Boris rotation scheme
// (Boris 1970), the standard leapfrog pusher of the PIC recipe: momenta live
// at half-integer times, positions at integer times.

#include "src/amr/config.hpp"
#include "src/particles/gather.hpp"
#include "src/particles/particle_container.hpp"

namespace mrpic::particles {

enum class PusherKind { Boris, Vay };

// Advance momenta u^{n-1/2} -> u^{n+1/2} with the gathered fields at x^n,
// then positions x^n -> x^{n+1} with v = u^{n+1/2}/gamma^{n+1/2}, for the
// particles in `range` (default: the whole tile); f holds the fields of
// particle range.begin + k at index k, as gather_fields left them. Serial:
// the caller owns the threading.
template <int DIM>
void push_particles(PusherKind kind, ParticleTile<DIM>& tile, const GatheredFields& f,
                    Real charge, Real mass, Real dt, ParticleRange range = {});

// Momentum-only update (used by tests that need the rotation in isolation).
void boris_rotate(std::array<Real, 3>& u, const std::array<Real, 3>& E,
                  const std::array<Real, 3>& B, Real charge, Real mass, Real dt);

std::int64_t push_flops_per_particle();

extern template void push_particles<2>(PusherKind, ParticleTile<2>&, const GatheredFields&,
                                       Real, Real, Real, ParticleRange);
extern template void push_particles<3>(PusherKind, ParticleTile<3>&, const GatheredFields&,
                                       Real, Real, Real, ParticleRange);

} // namespace mrpic::particles
