#include "src/particles/pusher.hpp"

#include <cmath>

namespace mrpic::particles {

using mrpic::constants::c;

void boris_rotate(std::array<Real, 3>& u, const std::array<Real, 3>& E,
                  const std::array<Real, 3>& B, Real charge, Real mass, Real dt) {
  const Real qmdt2 = charge * dt / (2 * mass);
  // Half electric acceleration.
  Real ux = u[0] + qmdt2 * E[0];
  Real uy = u[1] + qmdt2 * E[1];
  Real uz = u[2] + qmdt2 * E[2];
  // Magnetic rotation at the mid-step gamma.
  const Real gm = std::sqrt(1 + (ux * ux + uy * uy + uz * uz) / (c * c));
  const Real tx = qmdt2 * B[0] / gm;
  const Real ty = qmdt2 * B[1] / gm;
  const Real tz = qmdt2 * B[2] / gm;
  const Real t2 = tx * tx + ty * ty + tz * tz;
  const Real sx = 2 * tx / (1 + t2);
  const Real sy = 2 * ty / (1 + t2);
  const Real sz = 2 * tz / (1 + t2);
  const Real upx = ux + uy * tz - uz * ty;
  const Real upy = uy + uz * tx - ux * tz;
  const Real upz = uz + ux * ty - uy * tx;
  ux += upy * sz - upz * sy;
  uy += upz * sx - upx * sz;
  uz += upx * sy - upy * sx;
  // Second half electric acceleration.
  u[0] = ux + qmdt2 * E[0];
  u[1] = uy + qmdt2 * E[1];
  u[2] = uz + qmdt2 * E[2];
}

namespace {

// Vay (2008) pusher: volume-preserving alternative that avoids the spurious
// force of Boris for relativistic E x B drift. Provided as an option
// (WarpX offers several pushers); Boris is the production default.
void vay_rotate(std::array<Real, 3>& u, const std::array<Real, 3>& E,
                const std::array<Real, 3>& B, Real charge, Real mass, Real dt) {
  const Real qmdt2 = charge * dt / (2 * mass);
  const Real invc2 = Real(1) / (c * c);
  // u' = u^n + q dt/m (E + v^n x B / 2)
  const Real g0 = std::sqrt(1 + (u[0] * u[0] + u[1] * u[1] + u[2] * u[2]) * invc2);
  const Real vx = u[0] / g0, vy = u[1] / g0, vz = u[2] / g0;
  const Real upx = u[0] + 2 * qmdt2 * E[0] + qmdt2 * (vy * B[2] - vz * B[1]);
  const Real upy = u[1] + 2 * qmdt2 * E[1] + qmdt2 * (vz * B[0] - vx * B[2]);
  const Real upz = u[2] + 2 * qmdt2 * E[2] + qmdt2 * (vx * B[1] - vy * B[0]);
  const Real taux = qmdt2 * B[0], tauy = qmdt2 * B[1], tauz = qmdt2 * B[2];
  const Real tau2 = taux * taux + tauy * tauy + tauz * tauz;
  const Real ust = (upx * taux + upy * tauy + upz * tauz) * invc2 * c; // u*.tau/c
  const Real gp2 = 1 + (upx * upx + upy * upy + upz * upz) * invc2;
  const Real sig = gp2 - tau2;
  const Real gnew = std::sqrt((sig + std::sqrt(sig * sig + 4 * (tau2 + ust * ust))) / 2);
  const Real tx = taux / gnew, ty = tauy / gnew, tz = tauz / gnew;
  const Real s = Real(1) / (1 + tx * tx + ty * ty + tz * tz);
  const Real ut = upx * tx + upy * ty + upz * tz;
  u[0] = s * (upx + ut * tx + upy * tz - upz * ty);
  u[1] = s * (upy + ut * ty + upz * tx - upx * tz);
  u[2] = s * (upz + ut * tz + upx * ty - upy * tx);
}

} // namespace

template <int DIM>
void push_particles(PusherKind kind, ParticleTile<DIM>& tile, const GatheredFields& f,
                    Real charge, Real mass, Real dt, ParticleRange range) {
  range = range.within(tile.size());
  for (std::size_t p = range.begin; p < range.end; ++p) {
    const std::size_t k = p - range.begin;
    std::array<Real, 3> u = {tile.u[0][p], tile.u[1][p], tile.u[2][p]};
    const std::array<Real, 3> E = {f.E[0][k], f.E[1][k], f.E[2][k]};
    const std::array<Real, 3> B = {f.B[0][k], f.B[1][k], f.B[2][k]};
    if (kind == PusherKind::Vay) {
      vay_rotate(u, E, B, charge, mass, dt);
    } else {
      boris_rotate(u, E, B, charge, mass, dt);
    }
    for (int cc = 0; cc < 3; ++cc) { tile.u[cc][p] = u[cc]; }
    const Real gamma = std::sqrt(1 + (u[0] * u[0] + u[1] * u[1] + u[2] * u[2]) / (c * c));
    const Real invg = 1 / gamma;
    for (int d = 0; d < DIM; ++d) { tile.x[d][p] += u[d] * invg * dt; }
  }
}

std::int64_t push_flops_per_particle() {
  // Boris: 2 half-kicks (12), gamma (9 + sqrt~4), t,s (12), two cross
  // products (18), position update (~8).
  return 63;
}

template void push_particles<2>(PusherKind, ParticleTile<2>&, const GatheredFields&, Real,
                                Real, Real, ParticleRange);
template void push_particles<3>(PusherKind, ParticleTile<3>&, const GatheredFields&, Real,
                                Real, Real, ParticleRange);

} // namespace mrpic::particles
