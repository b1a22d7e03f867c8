// Messages of the Node-Capacitated Clique model.
//
// A message carries O(log n) bits. We materialize that as a small fixed
// budget of 64-bit words (configurable, default 4): enough for an edge
// identifier (2x32-bit node ids), a value, and a tag — the widest payload any
// algorithm in the paper sends — while keeping the "constant number of
// O(log n)-bit fields" discipline honest and allocation-free.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "common/assert.hpp"
#include "graph/graph.hpp"

namespace ncc {

inline constexpr uint8_t kMaxMessageWords = 4;

struct Message {
  NodeId src = 0;
  NodeId dst = 0;
  /// Protocol discriminator (which primitive / which phase a message belongs
  /// to); models the constant-size header real protocols carry.
  uint32_t tag = 0;
  uint8_t nwords = 0;
  std::array<uint64_t, kMaxMessageWords> words{};

  Message() = default;
  Message(NodeId s, NodeId d, uint32_t t, std::initializer_list<uint64_t> w)
      : src(s), dst(d), tag(t) {
    NCC_ASSERT_MSG(w.size() <= kMaxMessageWords, "message payload too large");
    nwords = static_cast<uint8_t>(w.size());
    uint8_t i = 0;
    for (uint64_t x : w) words[i++] = x;
  }

  uint64_t word(uint8_t i) const {
    NCC_ASSERT(i < nwords);
    return words[i];
  }
};

/// Flat wire header of one pending/delivered message. Node ids and the
/// tag are 32-bit (NodeId is uint32_t — a million-node run uses 20 of them);
/// the payload words live out of line in the owning MsgArena's word store, so
/// a header is 20 bytes against Message's 48 and a buffer of k messages costs
/// 20k + 8 * (payload words) instead of 48k.
struct MsgHdr {
  NodeId src = 0;
  NodeId dst = 0;
  uint32_t tag = 0;
  uint32_t off = 0;  // first payload word in the owning arena's word store
  uint8_t nwords = 0;
};

/// Struct-of-arrays message buffer: one contiguous header array plus one
/// contiguous payload-word array. This is the network's pending-send
/// representation; the buffer is reused across rounds (clear() keeps
/// capacity), so steady-state rounds allocate nothing. Capacity-growth
/// events are counted internally and drained by the accounting layer via
/// take_allocs() — exactly once per fill cycle.
class MsgArena {
 public:
  size_t size() const { return hdr_.size(); }
  bool empty() const { return hdr_.empty(); }
  void clear() {
    hdr_.clear();
    words_.clear();
  }

  void push(const Message& m) {
    NCC_ASSERT_MSG(words_.size() + m.nwords <= UINT32_MAX,
                   "arena payload-word store exceeds 32-bit offsets");
    if (hdr_.size() == hdr_.capacity()) ++allocs_;
    if (m.nwords != 0 && words_.size() + m.nwords > words_.capacity()) ++allocs_;
    MsgHdr h;
    h.src = m.src;
    h.dst = m.dst;
    h.tag = m.tag;
    h.off = static_cast<uint32_t>(words_.size());
    h.nwords = m.nwords;
    hdr_.push_back(h);
    words_.insert(words_.end(), m.words.begin(), m.words.begin() + m.nwords);
  }

  /// Materialize message i as the AoS value type (the public API currency).
  Message at(size_t i) const {
    const MsgHdr& h = hdr_[i];
    Message m;
    m.src = h.src;
    m.dst = h.dst;
    m.tag = h.tag;
    m.nwords = h.nwords;
    for (uint8_t w = 0; w < h.nwords; ++w) m.words[w] = words_[h.off + w];
    return m;
  }

  /// Write message i back after an in-flight mutation (byzantine corruption).
  /// The framing may change but the payload width may not: the word span was
  /// laid out at push time.
  void store(size_t i, const Message& m) {
    MsgHdr& h = hdr_[i];
    NCC_ASSERT_MSG(m.nwords == h.nwords, "fault hooks may not resize payloads");
    h.src = m.src;
    h.dst = m.dst;
    h.tag = m.tag;
    for (uint8_t w = 0; w < h.nwords; ++w) words_[h.off + w] = m.words[w];
  }

  /// Compaction support for the fault-drop pass: headers move down over
  /// dropped slots (word spans stay put — offsets remain valid), then the
  /// header array is truncated to the surviving count.
  void move_hdr(size_t from, size_t to) { hdr_[to] = hdr_[from]; }
  void truncate(size_t count) { hdr_.resize(count); }

  const MsgHdr* hdrs() const { return hdr_.data(); }
  const uint64_t* words() const { return words_.data(); }

  /// Capacity-growth events since the last take_allocs(); the network drains
  /// this into NetMemStats exactly once per round.
  uint64_t take_allocs() {
    uint64_t a = allocs_;
    allocs_ = 0;
    return a;
  }

  uint64_t capacity_bytes() const {
    return hdr_.capacity() * sizeof(MsgHdr) + words_.capacity() * sizeof(uint64_t);
  }

 private:
  std::vector<MsgHdr> hdr_;
  std::vector<uint64_t> words_;
  uint64_t allocs_ = 0;
};

}  // namespace ncc
