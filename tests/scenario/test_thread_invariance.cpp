// Thread-count invariance: every registered scenario, stepped past its first
// particle sort at 1, 2 and 4 OpenMP threads in one process, must end in
// bit-identical fields (level-0 and MR patch E/B/J) and particles. The
// particle stage threads over tiles and each tile deposits only into its own
// fab in a fixed particle order, so no result may depend on the thread count.

#include <gtest/gtest.h>

#include "src/scenario/builder.hpp"
#include "src/scenario/registry.hpp"
#include "tests/support/sim_state.hpp"

namespace mrpic::scenario {
namespace {

// The sort runs when 20 steps are done; two more steps push sorted tiles.
constexpr int kSteps = 22;

TEST(ThreadInvariance, EveryRegisteredScenarioIsBitIdenticalAt1To4Threads) {
  auto& reg = ScenarioRegistry::instance();
  for (const auto& entry : reg.entries()) {
    SCOPED_TRACE(entry.name);
    const ScenarioSpec spec = reg.make(entry.name);
    std::vector<testing::StateArrays> states;
    for (const int threads : {1, 2, 4}) {
      testing::with_threads(threads, [&] {
        auto sim = build_simulation(spec);
        sim->run(kSteps);
        states.push_back(testing::state_of(*sim));
      });
    }
    EXPECT_EQ(testing::first_difference(states[0], states[1]), "") << "1 vs 2 threads";
    EXPECT_EQ(testing::first_difference(states[0], states[2]), "") << "1 vs 4 threads";
  }
}

} // namespace
} // namespace mrpic::scenario
