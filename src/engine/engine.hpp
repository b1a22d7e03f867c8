// The sharded round engine: runs per-node (or per-column, per-packet)
// step callbacks of one synchronous round in parallel, staging their
// outgoing messages in per-shard buffers that are merged into the Network
// at the barrier.
//
// Determinism contract: every observable effect is independent of the
// thread count. Shards are contiguous index ranges processed in increasing
// order (ShardPlan), and staged sends are merged in (shard id, item id,
// send order) — which concatenates back to the plain sequential order — so
// for a fixed seed, threads=1 and threads=T produce bit-identical message
// streams, algorithm outputs, and NetStats. Randomness inside parallel
// loops must be forked per item (Rng::fork / mix64 of the item id), never
// drawn from a stream shared across items.
//
// Attaching an Engine to a Network also installs the network's execution
// hooks, which parallelize end_round() delivery across destination shards
// (see net/network.hpp); primitives and algorithms discover the engine via
// Engine::of(net) and fall back to sequential loops when none is attached.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <vector>

#include "common/fn_ref.hpp"
#include "engine/shard.hpp"
#include "engine/thread_pool.hpp"
#include "net/message.hpp"
#include "net/network.hpp"

namespace ncc {

/// Wall-clock profile of one shard, accumulated across the engine's
/// lifetime (or since reset_timing()). Strictly observational: timing never
/// feeds back into scheduling and is kept out of every determinism-compared
/// byte stream — emitters gate it behind a timing flag (see bench_engine and
/// the Perfetto exporter's timing tracks).
struct EngineShardTiming {
  uint64_t stage_ns = 0;    // send_loop step callbacks run on this shard
  uint64_t merge_ns = 0;    // handing this shard's staged arena to the network
                            // (header accounting scan, caller thread)
  uint64_t deliver_ns = 0;  // end_round delivery tasks on this shard: the
                            // scatter/count/placement passes, per-task wall
                            // (includes scheduler waits when cores are
                            // oversubscribed — see docs/ARCHITECTURE.md)
  uint64_t loops = 0;       // send_loop invocations that ran this shard
  uint64_t deliveries = 0;  // delivery tasks timed on this shard
};

/// Memory profile of one shard's staged send buffer, accumulated like
/// EngineShardTiming. Capacities and allocation counts depend on the shard
/// layout and buffer-reuse history, so — like wall-clock — they are strictly
/// observational and never reach determinism-compared bytes (emitters gate
/// them behind the memory flag, see obs::RoundLedger::write_memory_json).
struct EngineShardMemory {
  uint64_t staged_msgs_peak = 0;   // max messages staged in one send_loop
  uint64_t staged_bytes_peak = 0;  // peak capacity bytes of the staged arena
  uint64_t allocs = 0;             // staged-arena capacity-growth events
};

struct EngineConfig {
  /// Total parallelism including the calling thread; 0 = hardware threads.
  uint32_t threads = 1;
  /// Below this many items a parallel loop runs single-shard (waking workers
  /// costs more than the work). Purely a performance knob: results are
  /// shard-count independent. Tests force 1 to exercise the parallel
  /// machinery on small inputs.
  uint64_t loop_cutoff = 512;
  /// Same cutoff for end_round() delivery, in pending messages per round.
  uint64_t delivery_cutoff = 1024;
};

/// Message sink handed to step callbacks: stages into a shard buffer on the
/// engine path, forwards straight to the network on the sequential fallback.
/// Both paths produce the same global send order.
class MsgSink {
 public:
  virtual ~MsgSink() = default;
  virtual void send(const Message& msg) = 0;
  void send(NodeId src, NodeId dst, uint32_t tag, std::initializer_list<uint64_t> words) {
    send(Message(src, dst, tag, words));
  }
};

class Engine {
 public:
  /// Attaches to `net` (installing its exec hooks); at most one engine per
  /// network at a time — attaching a second one aborts.
  explicit Engine(Network& net, EngineConfig cfg = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Network& net() { return net_; }
  uint32_t threads() const { return pool_.threads(); }

  /// The engine attached to `net`, or nullptr (a field read).
  static Engine* of(const Network& net) { return net.exec_hooks().engine; }

  /// Run fn(0..shards-1) on the pool (shards <= threads()).
  void run_shards(uint32_t shards, FnRef<void(uint32_t)> fn);

  /// Shard [0, count) contiguously and hand each shard its range. `fn` runs
  /// concurrently across shards; per-shard accumulation indexed by `shard`
  /// (with a final merge in shard order) keeps results thread-count-free.
  void ranges(uint64_t count, FnRef<void(uint32_t shard, uint64_t begin, uint64_t end)> fn);

  /// Plain parallel loop over [0, count); fn(i) may only touch item-i state.
  void for_each(uint64_t count, FnRef<void(uint64_t)> fn);

  /// Parallel step loop with staged sends: step(i, sink) runs shard-parallel,
  /// sinks stage into per-shard arenas (acquired from the network's pool, so
  /// capacity is reused across rounds), and the arenas are handed over
  /// zero-copy in shard order before returning — the send order equals the
  /// sequential loop's. The round stays open; the caller ends it with
  /// net().end_round().
  void send_loop(uint64_t count, FnRef<void(uint64_t, MsgSink&)> step);

  /// Per-shard wall-clock profile (one entry per pool thread). Each shard's
  /// stage/deliver slots are only ever written by the worker running that
  /// shard, so reading between rounds is race-free.
  const std::vector<EngineShardTiming>& shard_timing() const { return timing_; }
  /// Per-shard staged-buffer memory profile; same write discipline (each
  /// slot only written by the worker running that shard).
  const std::vector<EngineShardMemory>& shard_memory() const { return memory_; }
  /// Clears both the timing and the memory profiles.
  void reset_timing();

 private:
  Network& net_;
  EngineConfig cfg_;
  ThreadPool pool_;
  std::vector<MsgArena> arenas_;           // one staged arena per shard
  std::vector<EngineShardTiming> timing_;  // one profile per shard
  std::vector<EngineShardMemory> memory_;  // one memory profile per shard

  // The network's delivery entry (net/network.hpp): runs the tasks on the
  // pool and times each into its shard's deliver_ns.
  friend void engine_deliver(Engine& engine, uint32_t tasks, FnRef<void(uint32_t)> fn);
};

/// Helpers for primitives/ and core/: route the loop through `net`'s
/// attached engine when present, run it sequentially otherwise. Either way
/// the observable effects are identical.
uint32_t engine_shards(const Network& net);
void engine_ranges(const Network& net, uint64_t count,
                   FnRef<void(uint32_t shard, uint64_t begin, uint64_t end)> fn);
void engine_for(const Network& net, uint64_t count, FnRef<void(uint64_t)> fn);
void engine_send_loop(Network& net, uint64_t count, FnRef<void(uint64_t, MsgSink&)> step);

}  // namespace ncc
