#include "kmachine/kmachine.hpp"

#include <algorithm>

#include "baselines/congested_clique.hpp"
#include "common/assert.hpp"

namespace ncc {

KMachineTracker::KMachineTracker(Network& net, uint32_t k, uint64_t seed)
    : net_(net), k_(k) {
  NCC_ASSERT(k >= 2);
  Rng rng(mix64(seed ^ 0x6d61636833ULL));
  machine_.resize(net.n());
  for (NodeId u = 0; u < net.n(); ++u)
    machine_[u] = static_cast<uint32_t>(rng.next_below(k_));
  hook_id_ = net_.add_delivery_hook(
      [this](const Message& m, uint64_t round) { on_deliver(m, round); });
}

KMachineTracker::~KMachineTracker() { net_.remove_delivery_hook(hook_id_); }

uint64_t KMachineTracker::link_id(uint32_t a, uint32_t b) const {
  if (a > b) std::swap(a, b);
  return static_cast<uint64_t>(a) * k_ + b;
}

void KMachineTracker::on_deliver(const Message& m, uint64_t round) {
  if (round != current_round_) {
    // Close the previous round.
    if (current_round_ != UINT64_MAX) folded_rounds_ += current_max_;
    current_round_ = round;
    current_loads_.clear();
    current_max_ = 0;
  }
  uint32_t ms = machine_[m.src], md = machine_[m.dst];
  if (ms == md) {
    ++local_messages_;
    return;
  }
  ++remote_messages_;
  uint32_t& load = current_loads_[link_id(ms, md)];
  ++load;
  current_max_ = std::max(current_max_, load);
}

uint64_t KMachineTracker::kmachine_rounds() const {
  return folded_rounds_ + current_max_;
}

void KMachineTracker::reset() {
  current_round_ = UINT64_MAX;
  current_loads_.clear();
  current_max_ = 0;
  folded_rounds_ = 0;
  remote_messages_ = 0;
  local_messages_ = 0;
}

double kmachine_bound(NodeId n, uint64_t ncc_rounds, uint32_t k) {
  return static_cast<double>(n) * static_cast<double>(ncc_rounds) /
         (static_cast<double>(k) * k);
}

double kmachine_cc_bound(uint64_t total_messages, uint64_t cc_rounds,
                         uint32_t comm_degree, uint32_t k) {
  return static_cast<double>(total_messages) / (static_cast<double>(k) * k) +
         static_cast<double>(cc_rounds) * comm_degree / k;
}

KMachineCcTracker::KMachineCcTracker(CongestedClique& cc, NodeId n, uint32_t k,
                                     uint64_t seed)
    : k_(k) {
  NCC_ASSERT(k >= 2);
  Rng rng(mix64(seed ^ 0x6d61636863ULL));
  machine_.resize(n);
  for (NodeId u = 0; u < n; ++u) machine_[u] = static_cast<uint32_t>(rng.next_below(k_));
  cc.set_delivery_hook(
      [this](NodeId s, NodeId d, uint64_t round) { on_deliver(s, d, round); });
}

void KMachineCcTracker::on_deliver(NodeId src, NodeId dst, uint64_t round) {
  if (round != current_round_) {
    if (current_round_ != UINT64_MAX) folded_rounds_ += current_max_;
    current_round_ = round;
    current_loads_.clear();
    current_max_ = 0;
  }
  uint32_t ms = machine_[src], md = machine_[dst];
  if (ms == md) return;
  if (ms > md) std::swap(ms, md);
  uint32_t& load = current_loads_[static_cast<uint64_t>(ms) * k_ + md];
  ++load;
  current_max_ = std::max(current_max_, load);
}

uint64_t KMachineCcTracker::kmachine_rounds() const {
  return folded_rounds_ + current_max_;
}

}  // namespace ncc
