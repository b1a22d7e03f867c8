#include "net/network.hpp"

#include <algorithm>

#include "common/bits.hpp"

namespace ncc {

Network::Network(NetConfig config)
    : config_(config),
      cap_(config.capacity_factor * cap_log(config.n)),
      drop_seed_(mix64(config.seed ^ 0x6e65747730726bULL)) {
  NCC_ASSERT_MSG(config_.n >= 2, "the NCC model needs at least two nodes");
  const NodeId n = config_.n;
  send_count_.assign(n, 0);
  senders_.assign(n, 0);
  dst_touched_.assign(n, 0);
  inbox_off_.assign(n, 0);
  inbox_cnt_.assign(n, 0);
  recv_seen_.assign(n, 0);
  wsum_.assign(n, 0);
  word_off_.assign(n, 0);
}

void Network::send(const Message& msg) {
  NCC_ASSERT(msg.src < config_.n && msg.dst < config_.n);
  NCC_ASSERT_MSG(msg.src != msg.dst, "nodes do not message themselves");
  if (send_count_[msg.src] == 0) senders_[senders_cnt_++] = msg.src;
  ++send_count_[msg.src];
  if (send_count_[msg.src] > cap_) {
    if (config_.strict_send) {
      NCC_ASSERT_MSG(false, "send capacity exceeded (algorithm bug)");
    }
    ++stats_.send_violations;
  }
  ++stats_.messages_sent;
  pending_.push(msg);
}

void Network::end_round() {
  const uint64_t round = stats_.rounds;
  uint64_t total = pending_.size();

  // Live-message accounting at the pre-fault snapshot: what was sent this
  // round. Measured in logical (AoS) message bytes so the series is
  // layout-independent.
  if (total > mem_.live_msgs_peak) {
    mem_.live_msgs_peak = total;
    mem_.live_bytes_peak = total * sizeof(Message);
  }

  // Fault injection runs before delivery, in send order, so decisions keyed
  // on (round, index) are a pure function of the seed. Dropped headers are
  // compacted out in place; word spans stay put, so surviving offsets remain
  // valid.
  if (faults_.begin_round) faults_.begin_round(round);
  if ((faults_.drop || faults_.corrupt) && total != 0) {
    size_t kept = 0;
    for (size_t i = 0; i < total; ++i) {
      Message m = pending_.at(i);
      if (faults_.drop && faults_.drop(m, round, i)) {
        ++stats_.fault_drops;
        continue;
      }
      if (faults_.corrupt && faults_.corrupt(m, round, i)) {
        ++stats_.corrupted;
        pending_.store(i, m);
      }
      if (kept != i) pending_.move_hdr(i, kept);
      ++kept;
    }
    pending_.truncate(kept);
    total = kept;
  }
  uint32_t rcap = cap_;
  if (faults_.recv_cap) rcap = std::max<uint32_t>(1, faults_.recv_cap(round, cap_));

  // Send loads: only this round's senders have non-zero counts.
  for (uint32_t i = 0; i < senders_cnt_; ++i) {
    const NodeId u = senders_[i];
    stats_.max_send_load = std::max(stats_.max_send_load, send_count_[u]);
    send_count_[u] = 0;
  }
  senders_cnt_ = 0;

  // The previous round's inboxes expire now: zero exactly the counts it set.
  for (uint32_t i = 0; i < touched_cnt_; ++i) inbox_cnt_[dst_touched_[i]] = 0;
  touched_cnt_ = 0;

  uint32_t max_recv = 0;
  uint64_t dropped = 0;
  auto deliver = [&] {
    const MsgHdr* hdrs = pending_.hdrs();
    const uint64_t* words = pending_.words();

    // Count pass: per destination, the addressed (pre-drop) message count and
    // payload-word budget; a destination's first arrival appends it to the
    // touched list. Overloaded destinations (count > rcap) get fixed
    // rcap * kMaxMessageWords word slots instead of exact sums, so reservoir
    // replacement can overwrite any slot with any payload width.
    uint64_t hdr_total = 0, word_total = 0;
    for (size_t i = 0; i < total; ++i) {
      const MsgHdr& h = hdrs[i];
      if (recv_seen_[h.dst]++ == 0) dst_touched_[touched_cnt_++] = h.dst;
      wsum_[h.dst] += h.nwords;
    }
    for (uint32_t i = 0; i < touched_cnt_; ++i) {
      const NodeId u = dst_touched_[i];
      const uint32_t cnt = recv_seen_[u];
      max_recv = std::max(max_recv, cnt);
      if (cnt > rcap) {
        dropped += cnt - rcap;
        wsum_[u] = rcap * kMaxMessageWords;
        hdr_total += rcap;
      } else {
        hdr_total += cnt;
      }
      word_total += wsum_[u];
    }

    // Layout: the flat inbox arena only ever grows, so steady-state rounds
    // re-fill warm capacity.
    NCC_ASSERT_MSG(word_total <= UINT32_MAX,
                   "per-round inbox word store exceeds 32-bit offsets");
    if (hdr_total > inbox_hdr_.size()) {
      if (hdr_total > inbox_hdr_.capacity()) ++mem_.allocs;
      inbox_hdr_.resize(hdr_total);
    }
    if (word_total > inbox_words_.size()) {
      if (word_total > inbox_words_.capacity()) ++mem_.allocs;
      inbox_words_.resize(word_total);
    }

    // Placement pass: lay out each touched node's inbox span, then stream the
    // messages into their slots, then re-zero the touched nodes' scratch. The
    // drop RNG is forked per (round, destination), so the surviving subset of
    // an overloaded inbox does not depend on the traffic at other
    // destinations.
    uint64_t hcur = 0;
    uint64_t wcur = 0;
    for (uint32_t i = 0; i < touched_cnt_; ++i) {
      const NodeId u = dst_touched_[i];
      inbox_off_[u] = hcur;
      inbox_cnt_[u] = std::min(recv_seen_[u], rcap);
      word_off_[u] = wcur;
      hcur += inbox_cnt_[u];
      wcur += wsum_[u];
      wsum_[u] = 0;  // becomes the arrival counter below
    }
    MsgHdr* hout = inbox_hdr_.data();
    uint64_t* wout = inbox_words_.data();
    if (!drop_rng_.empty()) drop_rng_.clear();
    for (size_t i = 0; i < total; ++i) {
      const MsgHdr& h = hdrs[i];
      const NodeId dst = h.dst;
      const uint32_t k = wsum_[dst]++;
      const bool overloaded = recv_seen_[dst] > rcap;
      uint64_t slot, woff;
      if (k < rcap) {
        slot = inbox_off_[dst] + k;
        if (overloaded) {
          woff = word_off_[dst] + uint64_t{k} * kMaxMessageWords;
        } else {
          woff = word_off_[dst];
          word_off_[dst] += h.nwords;
        }
      } else {
        // Reservoir over arrival order: replace a random survivor with
        // probability rcap/(k+1).
        Rng* r = drop_rng_.find(dst);
        if (!r) r = drop_rng_.emplace(dst, Rng(mix64(mix64(drop_seed_ ^ round) ^ dst))).first;
        uint64_t j = r->next_below(k + 1);
        if (j >= rcap) continue;
        slot = inbox_off_[dst] + j;
        woff = word_off_[dst] + j * uint64_t{kMaxMessageWords};
      }
      MsgHdr out = h;
      out.off = static_cast<uint32_t>(woff);
      hout[slot] = out;
      for (uint8_t w = 0; w < h.nwords; ++w) wout[woff + w] = words[h.off + w];
    }
    for (uint32_t i = 0; i < touched_cnt_; ++i) {
      recv_seen_[dst_touched_[i]] = 0;
      wsum_[dst_touched_[i]] = 0;
    }
  };
  // An attached engine only times the delivery; the same code runs either way.
  if (total != 0) {
    if (attached_.engine) {
      engine_deliver(*attached_.engine, deliver);
    } else {
      deliver();
    }
  }
  stats_.max_recv_load = std::max(stats_.max_recv_load, max_recv);
  stats_.messages_dropped += dropped;

  uint64_t container_bytes = pending_.capacity_bytes();
  container_bytes += inbox_hdr_.capacity() * sizeof(MsgHdr);
  container_bytes += inbox_words_.capacity() * sizeof(uint64_t);
  container_bytes += (send_count_.capacity() + recv_seen_.capacity() +
                      wsum_.capacity() + inbox_cnt_.capacity()) *
                     sizeof(uint32_t);
  container_bytes += (senders_.capacity() + dst_touched_.capacity()) * sizeof(NodeId);
  container_bytes += (inbox_off_.capacity() + word_off_.capacity()) * sizeof(uint64_t);
  mem_.container_bytes_peak = std::max(mem_.container_bytes_peak, container_bytes);

  // Capacity survives for the next round's sends.
  mem_.allocs += pending_.take_allocs();
  pending_.clear();
  ++stats_.rounds;
  for (auto& sub : round_hooks_) sub.fn(stats_.rounds - 1, stats_);
}

Network::HookId Network::add_round_hook(RoundHook hook) {
  HookId id = next_hook_id_++;
  round_hooks_.push_back({id, std::move(hook)});
  return id;
}

void Network::remove_round_hook(HookId id) {
  std::erase_if(round_hooks_, [id](const auto& s) { return s.id == id; });
}

InboxView Network::inbox(NodeId u) const {
  NCC_ASSERT(u < config_.n);
  const uint32_t cnt = inbox_cnt_[u];
  if (cnt == 0) return InboxView{};
  return InboxView(inbox_hdr_.data() + inbox_off_[u], inbox_words_.data(), cnt);
}

void Network::for_each_delivered(FnRef<void(NodeId, uint32_t)> fn) const {
  for (uint32_t i = 0; i < touched_cnt_; ++i) fn(dst_touched_[i], inbox_cnt_[dst_touched_[i]]);
}

void Network::charge_rounds(uint64_t k) { stats_.charged_rounds += k; }

}  // namespace ncc
