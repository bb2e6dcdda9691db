#pragma once

// Laser injection by a current-sheet antenna: an oscillating transverse
// current on a single plane of cells radiates the prescribed pulse in both
// directions (the backward half leaves through the boundary/PML). A surface
// current K [A/m] radiates |E| = K / (2 eps0 c) on each side, which fixes
// the antenna amplitude for a requested peak field E0 (or normalized
// amplitude a0).
//
// The profile is a (transversally) Gaussian beam with a Gaussian temporal
// envelope, optional propagation tilt (for the paper's 45-degree oblique
// incidence on the plasma mirror) and optional focusing curvature.

#include <array>
#include <cmath>

#include "src/amr/config.hpp"
#include "src/fields/field_set.hpp"

namespace mrpic::laser {

struct LaserConfig {
  Real wavelength = 0.8e-6;  // [m]
  Real a0 = 1.0;             // normalized vector potential at focus
  Real waist = 5e-6;         // focal waist w0 [m]
  Real duration = 20e-15;    // Gaussian field duration tau [s]: exp(-(t/tau)^2)
  Real t_peak = 40e-15;      // time of envelope peak at the antenna [s]
  Real x_antenna = 0;        // physical x of the emission plane [m]
  Real focal_distance = 0;   // distance from antenna to focus along x [m]
  std::array<Real, 2> center{}; // transverse center (y in 2D; y,z in 3D) [m]
  Real tilt = 0;             // propagation angle in the x-y plane [rad]
  int polarization = 2;      // field component driven: 1 = Ey, 2 = Ez

  // Peak electric field E0 [V/m] from a0: a0 = e E0 / (me omega c).
  Real peak_field() const {
    using namespace mrpic::constants;
    const Real omega = 2 * pi * c / wavelength;
    return a0 * m_e * omega * c / q_e;
  }
  Real omega() const {
    using namespace mrpic::constants;
    return 2 * pi * c / wavelength;
  }
};

template <int DIM>
class LaserAntenna {
public:
  explicit LaserAntenna(LaserConfig cfg) : m_cfg(cfg) {}

  const LaserConfig& config() const { return m_cfg; }

  // Transverse field profile (amplitude factor and phase) at transverse
  // offsets (ty, tz) and time t, evaluated at the antenna plane.
  Real field_at(Real ty, Real tz, Real t) const;

  // Add the antenna current for time t into f.J() (call once per step
  // before the E update; the antenna occupies one cell-plane in x).
  void deposit_current(fields::FieldSet<DIM>& f, Real t) const;

  // True while the envelope still carries non-negligible energy.
  bool active(Real t) const {
    return std::abs(t - m_cfg.t_peak) < 5 * m_cfg.duration;
  }
  // The time from which active() stays false: t_peak + 5 duration.
  Real off_time() const { return m_cfg.t_peak + 5 * m_cfg.duration; }

private:
  LaserConfig m_cfg;
};

extern template class LaserAntenna<2>;
extern template class LaserAntenna<3>;

} // namespace mrpic::laser
