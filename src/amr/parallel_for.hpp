#pragma once

// ParallelFor: the on-node performance-portability primitive. In WarpX/AMReX
// this dispatches to CUDA/HIP/SYCL/OpenMP at compile time; here the
// production backend is OpenMP threading over the outermost index, with a
// serial fallback. Kernels are written once against (i,j,k) signatures,
// mirroring the single-source model the paper describes.

#ifdef MRPIC_USE_OPENMP
#include <omp.h>
#endif

#include <cstdint>

#include "src/amr/box.hpp"

namespace mrpic {

// Iterate f(i) over [0, n).
template <typename F>
inline void parallel_for(std::int64_t n, F&& f) {
#ifdef MRPIC_USE_OPENMP
#pragma omp parallel for schedule(static)
#endif
  for (std::int64_t i = 0; i < n; ++i) { f(i); }
}

// Iterate f(i) over [0, n) handing out one index at a time: for a few work
// items of uneven cost (particle tiles), so that a thread that finishes
// early takes the next item. f must not depend on which thread runs it
// beyond thread_num()-indexed scratch.
template <typename F>
inline void parallel_for_dynamic(std::int64_t n, F&& f) {
#ifdef MRPIC_USE_OPENMP
#pragma omp parallel for schedule(dynamic, 1)
#endif
  for (std::int64_t i = 0; i < n; ++i) { f(i); }
}

// Iterate f(i, j) over a 2D box.
template <typename F>
inline void parallel_for(const Box<2>& bx, F&& f) {
  if (bx.empty()) { return; }
#ifdef MRPIC_USE_OPENMP
#pragma omp parallel for schedule(static)
#endif
  for (int j = bx.lo(1); j <= bx.hi(1); ++j) {
    for (int i = bx.lo(0); i <= bx.hi(0); ++i) { f(i, j); }
  }
}

// Iterate f(i, j, k) over a 3D box.
template <typename F>
inline void parallel_for(const Box<3>& bx, F&& f) {
  if (bx.empty()) { return; }
#ifdef MRPIC_USE_OPENMP
#pragma omp parallel for schedule(static) collapse(2)
#endif
  for (int k = bx.lo(2); k <= bx.hi(2); ++k) {
    for (int j = bx.lo(1); j <= bx.hi(1); ++j) {
      for (int i = bx.lo(0); i <= bx.hi(0); ++i) { f(i, j, k); }
    }
  }
}

// Serial variants (for use inside already-parallel regions).
template <typename F>
inline void serial_for(const Box<2>& bx, F&& f) {
  for (int j = bx.lo(1); j <= bx.hi(1); ++j) {
    for (int i = bx.lo(0); i <= bx.hi(0); ++i) { f(i, j); }
  }
}

template <typename F>
inline void serial_for(const Box<3>& bx, F&& f) {
  for (int k = bx.lo(2); k <= bx.hi(2); ++k) {
    for (int j = bx.lo(1); j <= bx.hi(1); ++j) {
      for (int i = bx.lo(0); i <= bx.hi(0); ++i) { f(i, j, k); }
    }
  }
}

inline int num_threads() {
#ifdef MRPIC_USE_OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

// Index of the calling thread in the innermost parallel region, in
// [0, num_threads()) (0 outside any region).
inline int thread_num() {
#ifdef MRPIC_USE_OPENMP
  return omp_get_thread_num();
#else
  return 0;
#endif
}

} // namespace mrpic
