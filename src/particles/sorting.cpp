#include "src/particles/sorting.hpp"

#include <algorithm>
#include <numeric>

namespace mrpic::particles {

namespace {

template <int DIM>
std::int64_t cell_key(const ParticleTile<DIM>& tile, std::size_t p,
                      const mrpic::Geometry<DIM>& geom, const mrpic::Box<DIM>& valid) {
  mrpic::IntVect<DIM> cell;
  for (int d = 0; d < DIM; ++d) {
    int i = geom.cell_index(tile.x[d][p], d);
    i = std::clamp(i, valid.lo(d), valid.hi(d));
    cell[d] = i;
  }
  return valid.index(cell);
}

} // namespace

template <int DIM>
void sort_tile_by_cell(ParticleTile<DIM>& tile, const mrpic::Geometry<DIM>& geom,
                       const mrpic::Box<DIM>& valid) {
  const std::size_t np = tile.size();
  if (np < 2) { return; }

  const std::size_t nbins = static_cast<std::size_t>(valid.num_cells());
  std::vector<std::int64_t> keys(np);
  for (std::size_t p = 0; p < np; ++p) { keys[p] = cell_key(tile, p, geom, valid); }

  // Counting sort: histogram, exclusive scan, scatter to a permutation.
  std::vector<std::size_t> count(nbins + 1, 0);
  for (std::size_t p = 0; p < np; ++p) { ++count[keys[p] + 1]; }
  std::partial_sum(count.begin(), count.end(), count.begin());
  std::vector<std::size_t> perm(np);
  for (std::size_t p = 0; p < np; ++p) { perm[count[keys[p]]++] = p; }

  // Apply the permutation to every SoA attribute through one buffer, copied
  // back so that the tile keeps its own storage (the sort runs on worker
  // threads; swapping in a worker-allocated buffer would move the tile's
  // storage into that thread's malloc arena).
  std::vector<Real> tmp(np);
  auto apply = [&](std::vector<Real>& v) {
    for (std::size_t p = 0; p < np; ++p) { tmp[p] = v[perm[p]]; }
    std::copy(tmp.begin(), tmp.end(), v.begin());
  };
  for (int d = 0; d < DIM; ++d) { apply(tile.x[d]); }
  for (int cc = 0; cc < 3; ++cc) { apply(tile.u[cc]); }
  apply(tile.w);
}

template <int DIM>
bool is_sorted_by_cell(const ParticleTile<DIM>& tile, const mrpic::Geometry<DIM>& geom,
                       const mrpic::Box<DIM>& valid) {
  for (std::size_t p = 1; p < tile.size(); ++p) {
    if (cell_key(tile, p - 1, geom, valid) > cell_key(tile, p, geom, valid)) {
      return false;
    }
  }
  return true;
}

template void sort_tile_by_cell<2>(ParticleTile<2>&, const mrpic::Geometry<2>&,
                                   const mrpic::Box<2>&);
template void sort_tile_by_cell<3>(ParticleTile<3>&, const mrpic::Geometry<3>&,
                                   const mrpic::Box<3>&);
template bool is_sorted_by_cell<2>(const ParticleTile<2>&, const mrpic::Geometry<2>&,
                                   const mrpic::Box<2>&);
template bool is_sorted_by_cell<3>(const ParticleTile<3>&, const mrpic::Geometry<3>&,
                                   const mrpic::Box<3>&);

} // namespace mrpic::particles
