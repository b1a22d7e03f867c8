#include "kmachine/kmachine.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace ncc {

KMachineTracker::KMachineTracker(Network& net, uint32_t k, uint64_t seed)
    : net_(net), k_(k) {
  NCC_ASSERT(k >= 2);
  Rng rng(mix64(seed ^ 0x6d61636833ULL));
  machine_.resize(net.n());
  for (NodeId u = 0; u < net.n(); ++u)
    machine_[u] = static_cast<uint32_t>(rng.next_below(k_));
  hook_id_ = net_.add_round_hook([this](uint64_t, const NetStats&) { on_round(); });
}

KMachineTracker::~KMachineTracker() { net_.remove_round_hook(hook_id_); }

void KMachineTracker::on_round() {
  // Links are undirected: (a, b) and (b, a) share one load.
  uint32_t round_max = 0;
  loads_.clear();
  net_.for_each_delivered([&](NodeId dst, uint32_t) {
    const uint32_t md = machine_[dst];
    for (const Message& m : net_.inbox(dst)) {
      const uint32_t ms = machine_[m.src];
      if (ms == md) {
        ++local_messages_;
        continue;
      }
      ++remote_messages_;
      uint32_t& load = loads_[uint64_t{std::min(ms, md)} * k_ + std::max(ms, md)];
      round_max = std::max(round_max, ++load);
    }
  });
  kmachine_rounds_ += round_max;
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

}  // namespace ncc
