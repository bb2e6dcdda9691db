#include "src/particles/deposition.hpp"

#include <cmath>

#include "src/fields/yee.hpp"
#include "src/particles/shape.hpp"

namespace mrpic::particles {

using mrpic::constants::c;

namespace {

// Shape window for Esirkepov: old and new shapes on a common index range.
// A CFL-limited push moves a particle by less than one cell, so the union of
// the two supports spans at most ORDER+2 points.
template <int ORDER>
struct ShapePair {
  static constexpr int NW = ORDER + 2;
  Real S0[NW];
  Real S1[NW];
  int imin;

  void compute(Real xi_old, Real xi_new) {
    Real w0[ORDER + 1], w1[ORDER + 1];
    const int i0 = Shape<ORDER>::compute(w0, xi_old);
    const int i1 = Shape<ORDER>::compute(w1, xi_new);
    imin = std::min(i0, i1);
    for (int a = 0; a < NW; ++a) {
      S0[a] = 0;
      S1[a] = 0;
    }
    for (int a = 0; a <= ORDER; ++a) {
      S0[a + i0 - imin] = w0[a];
      S1[a + i1 - imin] = w1[a];
    }
  }
  Real ds(int a) const { return S1[a] - S0[a]; }
};

template <int ORDER>
void esirkepov_2d(const ParticleTile<2>& tile, const std::array<std::vector<Real>, 2>& x_old,
                  const mrpic::Geometry<2>& geom, const Array4<Real>& J, Real charge,
                  Real dt, ParticleRange range) {
  constexpr int NW = ORDER + 2;
  const auto lo = geom.prob_lo();
  const auto idx = geom.inv_dx();
  const Real dxv = geom.cell_size(0), dyv = geom.cell_size(1);

  for (std::size_t p = range.begin; p < range.end; ++p) {
    const std::size_t k = p - range.begin;
    const Real Q = charge * tile.w[p];
    ShapePair<ORDER> sx, sy;
    sx.compute((x_old[0][k] - lo[0]) * idx[0], (tile.x[0][p] - lo[0]) * idx[0]);
    sy.compute((x_old[1][k] - lo[1]) * idx[1], (tile.x[1][p] - lo[1]) * idx[1]);

    // Jx: prefix sum along x of Wx = DSx * (S0y + DSy/2).
    const Real cx = -Q / (dyv * dt); // 2D: unit length in z
    for (int b = 0; b < NW; ++b) {
      const Real yfac = sy.S0[b] + Real(0.5) * sy.ds(b);
      Real acc = 0;
      for (int a = 0; a < NW - 1; ++a) { // last column sums to zero
        acc += sx.ds(a) * yfac;
        J(sx.imin + a, sy.imin + b, 0, fields::X) += cx * acc;
      }
    }
    // Jy: prefix sum along y of Wy = DSy * (S0x + DSx/2).
    const Real cy = -Q / (dxv * dt);
    for (int a = 0; a < NW; ++a) {
      const Real xfac = sx.S0[a] + Real(0.5) * sx.ds(a);
      Real acc = 0;
      for (int b = 0; b < NW - 1; ++b) {
        acc += sy.ds(b) * xfac;
        J(sx.imin + a, sy.imin + b, 0, fields::Y) += cy * acc;
      }
    }
    // Jz (out-of-plane): direct deposition with the time-averaged shape
    // bracket Wz = S0x S0y + (DSx S0y + S0x DSy)/2 + DSx DSy / 3.
    const Real u2 = tile.u[0][p] * tile.u[0][p] + tile.u[1][p] * tile.u[1][p] +
                    tile.u[2][p] * tile.u[2][p];
    const Real vz = tile.u[2][p] / std::sqrt(1 + u2 / (c * c));
    const Real cz = Q * vz / (dxv * dyv);
    for (int b = 0; b < NW; ++b) {
      for (int a = 0; a < NW; ++a) {
        const Real wz = sx.S0[a] * sy.S0[b] +
                        Real(0.5) * (sx.ds(a) * sy.S0[b] + sx.S0[a] * sy.ds(b)) +
                        sx.ds(a) * sy.ds(b) / 3;
        J(sx.imin + a, sy.imin + b, 0, fields::Z) += cz * wz;
      }
    }
  }
}

template <int ORDER>
void esirkepov_3d(const ParticleTile<3>& tile, const std::array<std::vector<Real>, 3>& x_old,
                  const mrpic::Geometry<3>& geom, const Array4<Real>& J, Real charge,
                  Real dt, ParticleRange range) {
  constexpr int NW = ORDER + 2;
  const auto lo = geom.prob_lo();
  const auto idx = geom.inv_dx();
  const Real dxv = geom.cell_size(0), dyv = geom.cell_size(1), dzv = geom.cell_size(2);

  for (std::size_t p = range.begin; p < range.end; ++p) {
    const std::size_t k = p - range.begin;
    const Real Q = charge * tile.w[p];
    ShapePair<ORDER> sx, sy, sz;
    sx.compute((x_old[0][k] - lo[0]) * idx[0], (tile.x[0][p] - lo[0]) * idx[0]);
    sy.compute((x_old[1][k] - lo[1]) * idx[1], (tile.x[1][p] - lo[1]) * idx[1]);
    sz.compute((x_old[2][k] - lo[2]) * idx[2], (tile.x[2][p] - lo[2]) * idx[2]);

    // Esirkepov bracket for direction d1 given the two transverse shapes:
    // W = DS1 * (S0a S0b + (DSa S0b + S0a DSb)/2 + DSa DSb / 3).
    auto bracket = [](const auto& sa, const auto& sb, int a, int b) {
      return sa.S0[a] * sb.S0[b] +
             Real(0.5) * (sa.ds(a) * sb.S0[b] + sa.S0[a] * sb.ds(b)) +
             sa.ds(a) * sb.ds(b) / 3;
    };

    const Real cx = -Q / (dyv * dzv * dt);
    for (int cc = 0; cc < NW; ++cc) {
      for (int b = 0; b < NW; ++b) {
        const Real t = bracket(sy, sz, b, cc);
        Real acc = 0;
        for (int a = 0; a < NW - 1; ++a) {
          acc += sx.ds(a) * t;
          J(sx.imin + a, sy.imin + b, sz.imin + cc, fields::X) += cx * acc;
        }
      }
    }
    const Real cy = -Q / (dxv * dzv * dt);
    for (int cc = 0; cc < NW; ++cc) {
      for (int a = 0; a < NW; ++a) {
        const Real t = bracket(sx, sz, a, cc);
        Real acc = 0;
        for (int b = 0; b < NW - 1; ++b) {
          acc += sy.ds(b) * t;
          J(sx.imin + a, sy.imin + b, sz.imin + cc, fields::Y) += cy * acc;
        }
      }
    }
    const Real cz = -Q / (dxv * dyv * dt);
    for (int b = 0; b < NW; ++b) {
      for (int a = 0; a < NW; ++a) {
        const Real t = bracket(sx, sy, a, b);
        Real acc = 0;
        for (int cc = 0; cc < NW - 1; ++cc) {
          acc += sz.ds(cc) * t;
          J(sx.imin + a, sy.imin + b, sz.imin + cc, fields::Z) += cz * acc;
        }
      }
    }
  }
}

// Direct (non-charge-conserving) deposition: J += q w v S(x_mid) at the
// Yee-staggered component locations.
template <int DIM, int ORDER>
void direct_deposit(const ParticleTile<DIM>& tile,
                    const std::array<std::vector<Real>, DIM>& x_old,
                    const mrpic::Geometry<DIM>& geom, const Array4<Real>& J, Real charge,
                    ParticleRange range) {
  const auto lo = geom.prob_lo();
  const auto idx = geom.inv_dx();
  Real dv = 1;
  for (int d = 0; d < DIM; ++d) { dv *= geom.cell_size(d); }

  for (std::size_t p = range.begin; p < range.end; ++p) {
    const std::size_t k = p - range.begin;
    const Real u2 = tile.u[0][p] * tile.u[0][p] + tile.u[1][p] * tile.u[1][p] +
                    tile.u[2][p] * tile.u[2][p];
    const Real invg = 1 / std::sqrt(1 + u2 / (c * c));
    const Real Qv = charge * tile.w[p] / dv;

    Real xi_mid[DIM];
    for (int d = 0; d < DIM; ++d) {
      xi_mid[d] = (Real(0.5) * (x_old[d][k] + tile.x[d][p]) - lo[d]) * idx[d];
    }

    for (int comp = 0; comp < 3; ++comp) {
      const auto& stag = fields::j_stag3[comp];
      Real w[DIM][ORDER + 1];
      int start[DIM];
      for (int d = 0; d < DIM; ++d) {
        start[d] = Shape<ORDER>::compute(w[d], xi_mid[d] - Real(0.5) * stag[d]);
      }
      const Real amp = Qv * tile.u[comp][p] * invg;
      if constexpr (DIM == 2) {
        for (int b = 0; b <= ORDER; ++b) {
          for (int a = 0; a <= ORDER; ++a) {
            J(start[0] + a, start[1] + b, 0, comp) += amp * w[0][a] * w[1][b];
          }
        }
      } else {
        for (int cc = 0; cc <= ORDER; ++cc) {
          for (int b = 0; b <= ORDER; ++b) {
            for (int a = 0; a <= ORDER; ++a) {
              J(start[0] + a, start[1] + b, start[2] + cc, comp) +=
                  amp * w[0][a] * w[1][b] * w[2][cc];
            }
          }
        }
      }
    }
  }
}

template <int DIM, int ORDER>
void charge_impl(const ParticleTile<DIM>& tile, const mrpic::Geometry<DIM>& geom,
                 const Array4<Real>& rho, Real charge) {
  const auto lo = geom.prob_lo();
  const auto idx = geom.inv_dx();
  Real dv = 1;
  for (int d = 0; d < DIM; ++d) { dv *= geom.cell_size(d); }

  for (std::size_t p = 0; p < tile.size(); ++p) {
    const Real Q = charge * tile.w[p] / dv;
    Real w[DIM][ORDER + 1];
    int start[DIM];
    for (int d = 0; d < DIM; ++d) {
      start[d] = Shape<ORDER>::compute(w[d], (tile.x[d][p] - lo[d]) * idx[d]);
    }
    if constexpr (DIM == 2) {
      for (int b = 0; b <= ORDER; ++b) {
        for (int a = 0; a <= ORDER; ++a) {
          rho(start[0] + a, start[1] + b, 0, 0) += Q * w[0][a] * w[1][b];
        }
      }
    } else {
      for (int cc = 0; cc <= ORDER; ++cc) {
        for (int b = 0; b <= ORDER; ++b) {
          for (int a = 0; a <= ORDER; ++a) {
            rho(start[0] + a, start[1] + b, start[2] + cc, 0) +=
                Q * w[0][a] * w[1][b] * w[2][cc];
          }
        }
      }
    }
  }
}

} // namespace

template <int DIM>
void deposit_current(DepositionKind kind, int order, const ParticleTile<DIM>& tile,
                     const std::array<std::vector<Real>, DIM>& x_old,
                     const mrpic::Geometry<DIM>& geom, const Array4<Real>& J, Real charge,
                     Real dt, ParticleRange range) {
  range = range.within(tile.size());
  if (kind == DepositionKind::Esirkepov) {
    if constexpr (DIM == 2) {
      switch (order) {
        case 1: esirkepov_2d<1>(tile, x_old, geom, J, charge, dt, range); break;
        case 2: esirkepov_2d<2>(tile, x_old, geom, J, charge, dt, range); break;
        default: esirkepov_2d<3>(tile, x_old, geom, J, charge, dt, range); break;
      }
    } else {
      switch (order) {
        case 1: esirkepov_3d<1>(tile, x_old, geom, J, charge, dt, range); break;
        case 2: esirkepov_3d<2>(tile, x_old, geom, J, charge, dt, range); break;
        default: esirkepov_3d<3>(tile, x_old, geom, J, charge, dt, range); break;
      }
    }
  } else {
    switch (order) {
      case 1: direct_deposit<DIM, 1>(tile, x_old, geom, J, charge, range); break;
      case 2: direct_deposit<DIM, 2>(tile, x_old, geom, J, charge, range); break;
      default: direct_deposit<DIM, 3>(tile, x_old, geom, J, charge, range); break;
    }
  }
}

template <int DIM>
void deposit_charge(int order, const ParticleTile<DIM>& tile, const mrpic::Geometry<DIM>& geom,
                    const Array4<Real>& rho, Real charge) {
  switch (order) {
    case 1: charge_impl<DIM, 1>(tile, geom, rho, charge); break;
    case 2: charge_impl<DIM, 2>(tile, geom, rho, charge); break;
    default: charge_impl<DIM, 3>(tile, geom, rho, charge); break;
  }
}

std::int64_t deposit_flops_per_particle(int order, int dim) {
  const int nw = order + 2;
  // Shape pairs: 2 evaluations per dim; brackets + prefix sums per window
  // point; see esirkepov_*d above.
  const std::int64_t shape_cost = 2 * dim * (order == 1 ? 2 : order == 2 ? 9 : 16);
  if (dim == 2) { return shape_cost + 2 * nw * (2 + 3 * (nw - 1)) + nw * nw * 9; }
  return shape_cost + 3 * nw * nw * (8 + 3 * (nw - 1));
}

template void deposit_current<2>(DepositionKind, int, const ParticleTile<2>&,
                                 const std::array<std::vector<Real>, 2>&,
                                 const mrpic::Geometry<2>&, const Array4<Real>&, Real, Real,
                                 ParticleRange);
template void deposit_current<3>(DepositionKind, int, const ParticleTile<3>&,
                                 const std::array<std::vector<Real>, 3>&,
                                 const mrpic::Geometry<3>&, const Array4<Real>&, Real, Real,
                                 ParticleRange);
template void deposit_charge<2>(int, const ParticleTile<2>&, const mrpic::Geometry<2>&,
                                const Array4<Real>&, Real);
template void deposit_charge<3>(int, const ParticleTile<3>&, const mrpic::Geometry<3>&,
                                const Array4<Real>&, Real);

} // namespace mrpic::particles
