#pragma once

// Current and charge deposition (paper Fig. 3: "current deposition", usually
// the most expensive stage of the PIC cycle).
//
// The production scheme is the charge-conserving Esirkepov density
// decomposition: the current is built from the difference of the particle
// shapes before and after the position push such that the discrete
// continuity equation  (rho^{n+1}-rho^n)/dt + div J = 0  holds exactly on
// the Yee lattice (verified by property tests). A direct (non-conserving)
// v*S deposition is provided as an ablation baseline.

#include "src/amr/array4.hpp"
#include "src/amr/geometry.hpp"
#include "src/particles/particle_container.hpp"

namespace mrpic::particles {

enum class DepositionKind { Esirkepov, Direct };

// Deposit the current of the particles of `tile` in `range` (default: all
// of them) into J (3-component fab view), in particle order. x_old holds
// the pre-push positions, particle range.begin + k at index k; tile.x the
// post-push ones. Momenta in the tile are the mid-step u^{n+1/2} used for
// the push. Serial: the caller owns the threading.
template <int DIM>
void deposit_current(DepositionKind kind, int order, const ParticleTile<DIM>& tile,
                     const std::array<std::vector<Real>, DIM>& x_old,
                     const mrpic::Geometry<DIM>& geom, const Array4<Real>& J, Real charge,
                     Real dt, ParticleRange range = {});

// Deposit macro-charge density rho (nodal, 1 component) at current positions.
template <int DIM>
void deposit_charge(int order, const ParticleTile<DIM>& tile,
                    const mrpic::Geometry<DIM>& geom, const Array4<Real>& rho, Real charge);

std::int64_t deposit_flops_per_particle(int order, int dim);

extern template void deposit_current<2>(DepositionKind, int, const ParticleTile<2>&,
                                        const std::array<std::vector<Real>, 2>&,
                                        const mrpic::Geometry<2>&, const Array4<Real>&,
                                        Real, Real, ParticleRange);
extern template void deposit_current<3>(DepositionKind, int, const ParticleTile<3>&,
                                        const std::array<std::vector<Real>, 3>&,
                                        const mrpic::Geometry<3>&, const Array4<Real>&,
                                        Real, Real, ParticleRange);
extern template void deposit_charge<2>(int, const ParticleTile<2>&, const mrpic::Geometry<2>&,
                                       const Array4<Real>&, Real);
extern template void deposit_charge<3>(int, const ParticleTile<3>&, const mrpic::Geometry<3>&,
                                       const Array4<Real>&, Real);

} // namespace mrpic::particles
