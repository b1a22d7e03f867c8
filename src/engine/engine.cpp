#include "engine/engine.hpp"

// det-lint: observational — wall-clock feeds the engine's timing profile only
#include <chrono>

#include "common/assert.hpp"

namespace ncc {

namespace {

uint64_t now_ns() {
  return static_cast<uint64_t>(
      // det-lint: observational — timing profile only, outside the
      // deterministic byte prefix
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          // det-lint: observational — same: timing profile only
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

Engine::Engine(Network& net, EngineConfig cfg) : net_(net), timing_(1), memory_(1) {
  NCC_ASSERT_MSG(cfg.threads == 1, "a round runs on one thread (EngineConfig::threads == 1)");
  NCC_ASSERT_MSG(Engine::of(net_) == nullptr, "network already has an engine attached");
  net_.attached().engine = this;
}

Engine::~Engine() { net_.attached().engine = nullptr; }

void engine_deliver(Engine& engine, FnRef<void()> deliver) {
  const uint64_t t0 = now_ns();
  deliver();
  EngineShardTiming& tm = engine.timing_[0];
  tm.deliver_ns += now_ns() - t0;
  ++tm.deliveries;
}

void engine_send_loop(Network& net, uint64_t count, FnRef<void(uint64_t, Network&)> step) {
  if (count == 0) return;
  Engine* eng = Engine::of(net);
  const uint64_t t0 = eng ? now_ns() : 0;
  for (uint64_t i = 0; i < count; ++i) step(i, net);
  if (eng) {
    EngineShardTiming& tm = eng->timing_[0];
    tm.stage_ns += now_ns() - t0;
    ++tm.loops;
  }
}

}  // namespace ncc
