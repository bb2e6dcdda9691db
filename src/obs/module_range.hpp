#pragma once

// ModuleRange: the one cadence rule of the code base (Pigeon's module
// scheduling shape). A module is due on step n when it is enabled, n has
// reached `start`, and (n - start) is a multiple of `every`; a disabled
// range (or every <= 0) is never due. Every periodic decision asks due(); a
// plain "every N steps" interval is ModuleRange::every_n(N).

#include <cstdint>

namespace mrpic {

struct ModuleRange {
  bool enabled = true;
  std::int64_t start = 0; // first step on which the module may fire
  std::int64_t every = 1; // period in steps (<= 0 disables)

  // Fires on steps 0, n, 2n, ... (n <= 0 = never).
  static constexpr ModuleRange every_n(std::int64_t n) { return {true, 0, n}; }

  constexpr bool due(std::int64_t step) const {
    return enabled && every > 0 && step >= start && (step - start) % every == 0;
  }
};

} // namespace mrpic
