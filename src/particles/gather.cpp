#include "src/particles/gather.hpp"

#include "src/fields/yee.hpp"
#include "src/particles/shape.hpp"

namespace mrpic::particles {

namespace {

// Per-dimension interpolation data for both staggerings at a fixed order.
template <int ORDER>
struct DimWeights {
  Real w_nodal[ORDER + 1];
  Real w_half[ORDER + 1];
  int i_nodal;
  int i_half;

  void compute(Real xi) {
    i_nodal = Shape<ORDER>::compute(w_nodal, xi);
    i_half = Shape<ORDER>::compute(w_half, xi - Real(0.5));
  }
};

template <int DIM, int ORDER>
void gather_impl(const ParticleTile<DIM>& tile, const mrpic::Geometry<DIM>& geom,
                 const Array4<const Real>& E, const Array4<const Real>& B,
                 GatheredFields& out, ParticleRange range) {
  range = range.within(tile.size());
  out.resize(range.size());

  const auto lo = geom.prob_lo();
  const auto idx = geom.inv_dx();

  for (std::size_t p = range.begin; p < range.end; ++p) {
    DimWeights<ORDER> dw[DIM];
    for (int d = 0; d < DIM; ++d) {
      dw[d].compute((tile.x[d][p] - lo[d]) * idx[d]);
    }

    // Interpolate one staggered component: stag[d] selects nodal/half
    // weights per dimension.
    auto interp = [&](const Array4<const Real>& f, int comp, const auto& stag) {
      Real acc = 0;
      if constexpr (DIM == 2) {
        for (int b = 0; b <= ORDER; ++b) {
          const Real wy = stag[1] ? dw[1].w_half[b] : dw[1].w_nodal[b];
          const int j = (stag[1] ? dw[1].i_half : dw[1].i_nodal) + b;
          for (int a = 0; a <= ORDER; ++a) {
            const Real wx = stag[0] ? dw[0].w_half[a] : dw[0].w_nodal[a];
            const int i = (stag[0] ? dw[0].i_half : dw[0].i_nodal) + a;
            acc += wx * wy * f(i, j, 0, comp);
          }
        }
      } else {
        for (int cc = 0; cc <= ORDER; ++cc) {
          const Real wz = stag[2] ? dw[2].w_half[cc] : dw[2].w_nodal[cc];
          const int k = (stag[2] ? dw[2].i_half : dw[2].i_nodal) + cc;
          for (int b = 0; b <= ORDER; ++b) {
            const Real wy = stag[1] ? dw[1].w_half[b] : dw[1].w_nodal[b];
            const int j = (stag[1] ? dw[1].i_half : dw[1].i_nodal) + b;
            for (int a = 0; a <= ORDER; ++a) {
              const Real wx = stag[0] ? dw[0].w_half[a] : dw[0].w_nodal[a];
              const int i = (stag[0] ? dw[0].i_half : dw[0].i_nodal) + a;
              acc += wx * wy * wz * f(i, j, k, comp);
            }
          }
        }
      }
      return acc;
    };

    const std::size_t k = p - range.begin;
    for (int comp = 0; comp < 3; ++comp) {
      out.E[comp][k] = interp(E, comp, fields::e_stag3[comp]);
      out.B[comp][k] = interp(B, comp, fields::b_stag3[comp]);
    }
  }
}

} // namespace

template <int DIM>
void gather_fields(int order, const ParticleTile<DIM>& tile, const mrpic::Geometry<DIM>& geom,
                   const Array4<const Real>& E, const Array4<const Real>& B,
                   GatheredFields& out, ParticleRange range) {
  switch (order) {
    case 1: gather_impl<DIM, 1>(tile, geom, E, B, out, range); break;
    case 2: gather_impl<DIM, 2>(tile, geom, E, B, out, range); break;
    case 3: gather_impl<DIM, 3>(tile, geom, E, B, out, range); break;
    default: gather_impl<DIM, 3>(tile, geom, E, B, out, range); break;
  }
}

std::int64_t gather_flops_per_particle(int order, int dim) {
  const int sup = order + 1;
  const std::int64_t points = dim == 2 ? sup * sup : sup * sup * sup;
  const std::int64_t shape_cost = 2 * dim * (order == 1 ? 2 : order == 2 ? 9 : 16);
  // Per interpolation point: dim weight multiplies + 1 fma (2 flops).
  return shape_cost + 6 * points * (dim + 2);
}

template void gather_fields<2>(int, const ParticleTile<2>&, const mrpic::Geometry<2>&,
                               const Array4<const Real>&, const Array4<const Real>&,
                               GatheredFields&, ParticleRange);
template void gather_fields<3>(int, const ParticleTile<3>&, const mrpic::Geometry<3>&,
                               const Array4<const Real>&, const Array4<const Real>&,
                               GatheredFields&, ParticleRange);

} // namespace mrpic::particles
