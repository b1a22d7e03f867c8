// The round engine's observational side: a profile of where a run's round
// time goes. Every round of the NCC model runs sequentially on the caller
// thread — step callbacks send straight to the Network, and end_round()
// delivers in one pass — whether or not an Engine is attached. Attaching one
// only adds wall-clock timing of the send loops (engine_send_loop) and of
// end_round() delivery; it never changes which code runs, so no simulated
// byte depends on it.
//
// Parallelism lives one level up: independent scenario runs (sweep cells,
// catalog specs) run on separate threads, each on its own Network
// (scenario/cells.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "common/fn_ref.hpp"
#include "net/network.hpp"

namespace ncc {

/// Wall-clock profile of the engine's one shard, accumulated across the
/// engine's lifetime. Strictly observational: timing never feeds back into
/// the simulation and is kept out of every determinism-compared byte stream
/// — emitters gate it behind a timing flag (see the Perfetto exporter's
/// timing tracks).
struct EngineShardTiming {
  uint64_t stage_ns = 0;    // engine_send_loop step callbacks, sends included
  uint64_t merge_ns = 0;    // always 0: sends go straight to the network
  uint64_t deliver_ns = 0;  // end_round delivery (count, layout, placement)
  uint64_t loops = 0;       // engine_send_loop calls timed
  uint64_t deliveries = 0;  // non-empty deliveries timed
};

/// Staged-send memory of the engine's one shard. Nothing is staged (sends go
/// straight to the network's pending arena, counted in NetMemStats), so both
/// fields stay 0; the struct remains for callers that sum it into their
/// totals.
struct EngineShardMemory {
  uint64_t staged_bytes_peak = 0;
  uint64_t allocs = 0;
};

struct EngineConfig {
  /// Must be 1: a round runs on one thread.
  uint32_t threads = 1;
};

class Engine {
 public:
  /// Attaches to `net`; at most one engine per network at a time —
  /// attaching a second one aborts.
  explicit Engine(Network& net, EngineConfig cfg = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// The engine attached to `net`, or nullptr (a field read).
  static Engine* of(const Network& net) { return net.attached().engine; }

  /// The wall-clock profile: one entry (the caller thread).
  const std::vector<EngineShardTiming>& shard_timing() const { return timing_; }
  /// The staged-send memory profile: one entry, always zero.
  const std::vector<EngineShardMemory>& shard_memory() const { return memory_; }

 private:
  Network& net_;
  std::vector<EngineShardTiming> timing_;
  std::vector<EngineShardMemory> memory_;

  friend void engine_send_loop(Network& net, uint64_t count,
                               FnRef<void(uint64_t, Network&)> step);
  friend void engine_deliver(Engine& engine, FnRef<void()> deliver);
};

/// Runs step(0, net) .. step(count - 1, net) in order on the caller thread;
/// steps send straight to `net`. With an engine attached, the loop's wall
/// time lands in its stage_ns. The round stays open; the caller ends it with
/// net.end_round().
void engine_send_loop(Network& net, uint64_t count, FnRef<void(uint64_t, Network&)> step);

}  // namespace ncc
