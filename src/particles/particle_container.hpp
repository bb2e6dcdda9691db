#pragma once

// ParticleContainer<DIM>: the macroparticles of one species, stored
// struct-of-arrays per box of the level's BoxArray (one ParticleTile per
// box). Positions are absolute physical coordinates; momenta are proper
// velocities u = gamma * v [m/s] with all three components even in 2D.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/amr/box_array.hpp"
#include "src/amr/config.hpp"
#include "src/amr/geometry.hpp"
#include "src/particles/species.hpp"

namespace mrpic::particles {

// Half-open particle index range [begin, end) of one tile; the default is
// the whole tile. The particle kernels take one so that a caller can run
// them chunk by chunk; their per-particle scratch (gathered fields, x_old)
// then holds particle `begin + k` at index k.
struct ParticleRange {
  std::size_t begin = 0;
  std::size_t end = std::numeric_limits<std::size_t>::max();

  // This range clipped to a tile of n particles.
  ParticleRange within(std::size_t n) const {
    return {std::min(begin, n), std::min(std::max(begin, end), n)};
  }
  std::size_t size() const { return end - begin; }
};

template <int DIM>
struct ParticleTile {
  // Positions (SoA, one vector per coordinate).
  std::array<std::vector<Real>, DIM> x;
  // Proper velocity u = gamma v, all 3 components.
  std::array<std::vector<Real>, 3> u;
  // Macroparticle weight (number of physical particles represented).
  std::vector<Real> w;

  std::size_t size() const { return w.size(); }
  // Live SoA bytes of the tile: (DIM + 4) reals per particle (x[DIM], u[3],
  // w). Counts particles, not vector slack, so the measured footprint
  // matches the analytic count * bytes-per-particle model exactly.
  std::int64_t byte_footprint() const {
    return static_cast<std::int64_t>(size()) *
           static_cast<std::int64_t>((DIM + 4) * sizeof(Real));
  }
  void clear() {
    for (auto& v : x) { v.clear(); }
    for (auto& v : u) { v.clear(); }
    w.clear();
  }
  void reserve(std::size_t n) {
    for (auto& v : x) { v.reserve(n); }
    for (auto& v : u) { v.reserve(n); }
    w.reserve(n);
  }
  void push_back(const std::array<Real, DIM>& pos, const std::array<Real, 3>& mom,
                 Real weight) {
    for (int d = 0; d < DIM; ++d) { x[d].push_back(pos[d]); }
    for (int c = 0; c < 3; ++c) { u[c].push_back(mom[c]); }
    w.push_back(weight);
  }
  // Move particle i from this tile to dst (order within this tile changes:
  // swap-with-last removal).
  void transfer_to(std::size_t i, ParticleTile& dst) {
    std::array<Real, DIM> pos;
    std::array<Real, 3> mom;
    for (int d = 0; d < DIM; ++d) { pos[d] = x[d][i]; }
    for (int c = 0; c < 3; ++c) { mom[c] = u[c][i]; }
    dst.push_back(pos, mom, w[i]);
    erase(i);
  }
  void erase(std::size_t i) {
    const std::size_t last = size() - 1;
    for (int d = 0; d < DIM; ++d) {
      x[d][i] = x[d][last];
      x[d].pop_back();
    }
    for (int c = 0; c < 3; ++c) {
      u[c][i] = u[c][last];
      u[c].pop_back();
    }
    w[i] = w[last];
    w.pop_back();
  }
};

template <int DIM>
class ParticleContainer {
public:
  ParticleContainer() = default;

  ParticleContainer(Species species, const mrpic::BoxArray<DIM>& ba)
      : m_species(std::move(species)), m_ba(ba), m_tiles(ba.size()) {}

  const Species& species() const { return m_species; }
  const mrpic::BoxArray<DIM>& box_array() const { return m_ba; }
  int num_tiles() const { return static_cast<int>(m_tiles.size()); }
  ParticleTile<DIM>& tile(int i) { return m_tiles[i]; }
  const ParticleTile<DIM>& tile(int i) const { return m_tiles[i]; }

  std::int64_t total_particles() const {
    std::int64_t n = 0;
    for (const auto& t : m_tiles) { n += static_cast<std::int64_t>(t.size()); }
    return n;
  }

  // Live SoA bytes over all tiles (see ParticleTile::byte_footprint).
  std::int64_t byte_footprint() const {
    std::int64_t n = 0;
    for (const auto& t : m_tiles) { n += t.byte_footprint(); }
    return n;
  }

  // Sum of macroparticle charge q*w [C].
  Real total_charge() const {
    Real s = 0;
    for (const auto& t : m_tiles) {
      for (Real wi : t.w) { s += wi; }
    }
    return s * m_species.charge;
  }

  // Total relativistic kinetic energy sum w (gamma-1) m c^2 [J].
  Real kinetic_energy() const;

  // Largest Lorentz factor of any particle (1 when the container is empty).
  Real max_gamma() const;

  // Add one particle; it is placed in the tile whose box contains its cell.
  // Returns false (dropping the particle) if the position is outside every
  // box of the level.
  bool add_particle(const mrpic::Geometry<DIM>& geom, const std::array<Real, DIM>& pos,
                    const std::array<Real, 3>& mom, Real weight);

  // Reassign particles to tiles by current position. Periodic directions
  // wrap positions; particles outside the domain otherwise are removed.
  // Returns the number of particles removed.
  std::int64_t redistribute(const mrpic::Geometry<DIM>& geom);

  // Remove all particles with position below `xmin` along direction d
  // (moving-window trailing edge). Returns number removed.
  std::int64_t remove_below(int d, Real xmin);

  // Replace the level BoxArray (regrid/load-balance): tiles are rebuilt via
  // redistribute.
  void regrid(const mrpic::Geometry<DIM>& geom, const mrpic::BoxArray<DIM>& ba);

private:
  int find_tile(const mrpic::Geometry<DIM>& geom, const std::array<Real, DIM>& pos) const;

  Species m_species;
  mrpic::BoxArray<DIM> m_ba;
  std::vector<ParticleTile<DIM>> m_tiles;
};

extern template class ParticleContainer<2>;
extern template class ParticleContainer<3>;
extern template struct ParticleTile<2>;
extern template struct ParticleTile<3>;

} // namespace mrpic::particles
