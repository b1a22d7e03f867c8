#include "engine/engine.hpp"

#include <algorithm>
// det-lint: observational — wall-clock feeds span timestamps on the obs side only
#include <chrono>

#include "common/assert.hpp"

namespace ncc {

namespace {

uint64_t now_ns() {
  return static_cast<uint64_t>(
      // det-lint: observational — timestamps land in Perfetto spans, outside the
      // deterministic byte prefix
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          // det-lint: observational — same: span timestamps only
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class ArenaSink final : public MsgSink {
 public:
  explicit ArenaSink(MsgArena* buf) : buf_(buf) {}
  void send(const Message& msg) override { buf_->push(msg); }

 private:
  MsgArena* buf_;
};

class DirectSink final : public MsgSink {
 public:
  explicit DirectSink(Network* net) : net_(net) {}
  void send(const Message& msg) override { net_->send(msg); }

 private:
  Network* net_;
};

}  // namespace

Engine::Engine(Network& net, EngineConfig cfg)
    : net_(net), cfg_(cfg), pool_(cfg.threads) {
  arenas_.resize(pool_.threads());
  timing_.resize(pool_.threads());
  memory_.resize(pool_.threads());
  NCC_ASSERT_MSG(Engine::of(net_) == nullptr, "network already has an engine attached");
  NetExecHooks hooks;
  hooks.engine = this;
  hooks.shards = pool_.threads();
  hooks.min_messages = cfg_.delivery_cutoff;
  net_.install_exec_hooks(hooks);
}

Engine::~Engine() { net_.clear_exec_hooks(); }

void engine_deliver(Engine& engine, uint32_t tasks, FnRef<void(uint32_t)> fn) {
  Engine* e = &engine;
  e->pool_.run(tasks, [e, fn](uint64_t t) {
    uint64_t t0 = now_ns();
    fn(static_cast<uint32_t>(t));
    EngineShardTiming& tm = e->timing_[t];
    tm.deliver_ns += now_ns() - t0;
    ++tm.deliveries;
  });
}

void Engine::run_shards(uint32_t shards, FnRef<void(uint32_t)> fn) {
  pool_.run(shards, [fn](uint64_t t) { fn(static_cast<uint32_t>(t)); });
}

void Engine::ranges(uint64_t count, FnRef<void(uint32_t, uint64_t, uint64_t)> fn) {
  uint32_t want = count >= cfg_.loop_cutoff ? pool_.threads() : 1;
  ShardPlan plan = ShardPlan::make(count, want);
  if (count == 0) return;
  run_shards(plan.shards,
             [&](uint32_t s) { fn(s, plan.begin(s), plan.end(s)); });
}

void Engine::for_each(uint64_t count, FnRef<void(uint64_t)> fn) {
  ranges(count, [fn](uint32_t, uint64_t b, uint64_t e) {
    for (uint64_t i = b; i < e; ++i) fn(i);
  });
}

void Engine::send_loop(uint64_t count, FnRef<void(uint64_t, MsgSink&)> step) {
  uint32_t want = count >= cfg_.loop_cutoff ? pool_.threads() : 1;
  ShardPlan plan = ShardPlan::make(count, want);
  if (count == 0) return;
  // Arenas come from the network's pool (caller thread, before the parallel
  // region), so capacity is reused across rounds and steady-state staging
  // allocates nothing.
  for (uint32_t s = 0; s < plan.shards; ++s) arenas_[s] = net_.acquire_arena();
  run_shards(plan.shards, [&](uint32_t s) {
    uint64_t t0 = now_ns();
    ArenaSink sink(&arenas_[s]);
    for (uint64_t i = plan.begin(s); i < plan.end(s); ++i) step(i, sink);
    EngineShardTiming& tm = timing_[s];
    tm.stage_ns += now_ns() - t0;
    ++tm.loops;
    EngineShardMemory& mm = memory_[s];
    mm.staged_msgs_peak = std::max<uint64_t>(mm.staged_msgs_peak, arenas_[s].size());
    mm.staged_bytes_peak =
        std::max<uint64_t>(mm.staged_bytes_peak, arenas_[s].capacity_bytes());
  });
  // Merge in shard order == global item order: stage_run keeps the strict
  // send accounting on the caller thread (a header-only scan) and takes each
  // shard's arena zero-copy as the next pending run. Capacity growth during
  // staging is drained into the shard's memory profile first, so the network
  // does not double count it.
  for (uint32_t s = 0; s < plan.shards; ++s) {
    uint64_t t0 = now_ns();
    memory_[s].allocs += arenas_[s].take_allocs();
    net_.stage_run(std::move(arenas_[s]));
    timing_[s].merge_ns += now_ns() - t0;
  }
}

void Engine::reset_timing() {
  timing_.assign(pool_.threads(), EngineShardTiming{});
  memory_.assign(pool_.threads(), EngineShardMemory{});
}

uint32_t engine_shards(const Network& net) {
  Engine* eng = Engine::of(net);
  return eng ? eng->threads() : 1;
}

void engine_ranges(const Network& net, uint64_t count,
                   FnRef<void(uint32_t, uint64_t, uint64_t)> fn) {
  if (count == 0) return;
  if (Engine* eng = Engine::of(net)) {
    eng->ranges(count, fn);
  } else {
    fn(0, 0, count);
  }
}

void engine_for(const Network& net, uint64_t count, FnRef<void(uint64_t)> fn) {
  if (Engine* eng = Engine::of(net)) {
    eng->for_each(count, fn);
  } else {
    for (uint64_t i = 0; i < count; ++i) fn(i);
  }
}

void engine_send_loop(Network& net, uint64_t count, FnRef<void(uint64_t, MsgSink&)> step) {
  if (Engine* eng = Engine::of(net)) {
    eng->send_loop(count, step);
  } else {
    DirectSink sink(&net);
    for (uint64_t i = 0; i < count; ++i) step(i, sink);
  }
}

}  // namespace ncc
