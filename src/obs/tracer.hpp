// Deterministic phase spans: the first layer of the observability subsystem.
//
// A Tracer attaches to a Network (at most one per network, discovered via
// Tracer::of like Engine::of) and records named, nested spans over the run's
// round timeline. A span captures the half-open round interval [begin_round,
// end_round) it covered plus the NetStats deltas accumulated inside it
// (messages sent, capacity drops, fault drops, corruptions, charged rounds).
// Everything a span records is derived from the round counter and NetStats,
// so the span stream of a run is a pure function of (spec, seed), under
// every fault model. Spans begin and end between rounds, which is where all
// the instrumented call sites live.
//
// Algorithms are instrumented with the RAII `Span` guard, which is a no-op
// when the network has no tracer attached: tracing a run costs nothing when
// nobody asked for it, and exception unwinding (round limits) closes open
// spans correctly.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/network.hpp"
#include "obs/json.hpp"

namespace ncc::obs {

struct SpanRecord {
  std::string name;
  uint32_t depth = 0;        // nesting depth; 0 = top level
  int64_t parent = -1;       // index of the enclosing span in spans(), -1
  uint64_t begin_round = 0;  // net.rounds() at span begin
  uint64_t end_round = 0;    // net.rounds() at span end (>= begin_round)
  uint64_t charged = 0;      // charged-round delta inside the span
  uint64_t messages = 0;     // messages sent inside the span
  uint64_t dropped = 0;      // capacity drops inside the span
  uint64_t fault_drops = 0;  // fault-hook drops inside the span
  uint64_t corrupted = 0;    // payload corruptions inside the span
};

class Tracer {
 public:
  /// Attaches to `net`; at most one tracer per network at a time. The cap
  /// bounds the recorded span count (long phase loops would otherwise grow
  /// the stream unboundedly); spans begun past it are counted, not stored,
  /// and `truncated()` reports the elision — never silently.
  explicit Tracer(Network& net, size_t max_spans = 8192);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The tracer attached to `net`, or nullptr (a field read).
  static Tracer* of(const Network& net) { return net.attached().tracer; }

  /// Open a span; returns a token for end(). Spans are recorded in begin
  /// order and must close in LIFO order (enforced); use the Span guard.
  uint64_t begin(std::string_view name);
  void end(uint64_t token);

  /// Closed + still-open spans, in begin order. Open spans (end() not yet
  /// called) have end_round/deltas frozen at their begin snapshot; callers
  /// serializing mid-run see them as zero-length.
  const std::vector<SpanRecord>& spans() const { return spans_; }
  bool truncated() const { return begun_ > spans_.size(); }
  uint64_t begun() const { return begun_; }
  size_t open_depth() const { return stack_.size(); }

  /// Emit the deterministic spans section: an object with the span array
  /// (name, depth, begin, end, rounds, messages, dropped, corrupted) and the
  /// truncation flag. A pure function of the recorded spans.
  void write_json(JsonWriter& w) const;

 private:
  struct Snapshot {
    uint64_t rounds, charged, messages, dropped, fault_drops, corrupted;
  };
  Snapshot snap() const;

  Network& net_;
  size_t max_spans_;
  uint64_t begun_ = 0;  // spans begun, including ones past the cap
  std::vector<SpanRecord> spans_;
  struct Open {
    int64_t index;  // into spans_, or -1 when past the cap
    Snapshot at_begin;
  };
  std::vector<Open> stack_;
};

/// RAII span guard: opens a span on the tracer attached to `net` (no-op when
/// there is none) and closes it on scope exit, including exception unwinds.
class Span {
 public:
  Span(Network& net, std::string_view name) : tracer_(Tracer::of(net)) {
    if (tracer_) token_ = tracer_->begin(name);
  }
  ~Span() {
    if (tracer_) tracer_->end(token_);
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  uint64_t token_ = 0;
};

}  // namespace ncc::obs
