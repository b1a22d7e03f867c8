#include "scenario/cells.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/assert.hpp"

namespace ncc::scenario {

std::vector<ScenarioOutcome> run_cells(const std::vector<ScenarioSpec>& specs,
                                       const RunOptions& opts, uint32_t threads) {
  NCC_ASSERT(threads >= 1);
  std::vector<ScenarioOutcome> outs(specs.size());
  std::atomic<size_t> next{0};
  auto work = [&] {
    for (size_t i = next++; i < specs.size(); i = next++) outs[i] = run_scenario(specs[i], opts);
  };
  std::vector<std::thread> helpers;
  const size_t extra = std::min<size_t>(threads, specs.size());
  for (size_t t = 1; t < extra; ++t) helpers.emplace_back(work);
  work();
  for (std::thread& t : helpers) t.join();
  return outs;
}

}  // namespace ncc::scenario
