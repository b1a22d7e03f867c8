#include "obs/flow.hpp"

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace ncc::obs {

FlowSampler::FlowSampler(Network& net, uint64_t seed, uint32_t max_flows,
                         uint32_t max_hops)
    : net_(net), seed_(seed), max_flows_(max_flows), max_hops_(max_hops) {
  NCC_ASSERT_MSG(net_.attached().flow == nullptr,
                 "network already has a flow sampler attached");
  net_.attached().flow = this;
}

FlowSampler::~FlowSampler() { net_.attached().flow = nullptr; }

void FlowSampler::record_hop(uint64_t group, bool up, uint32_t level,
                             uint32_t edge, NodeId host, uint64_t round,
                             bool cache_hit) {
  auto& adm = admitted_[up ? 1 : 0];
  const int64_t* idx = adm.find(group);
  if (idx == nullptr) {
    bool take = false;
    if (flows_.size() < max_flows_) {
      // The first group each phase routes is always followed; the rest are
      // admitted by seeded hash, so the same groups are sampled on every
      // rerun of the spec.
      take = !phase_seen_[up ? 1 : 0] ||
             (mix64(seed_ ^ group ^ (up ? 0x7570ULL : 0x646eULL)) & 3) == 0;
    }
    if (!take) {
      adm.emplace(group, -1);
      return;
    }
    phase_seen_[up ? 1 : 0] = true;
    SampledFlow f;
    f.id = flows_.size() + 1;
    f.group = group;
    f.up = up;
    flows_.push_back(std::move(f));
    idx = adm.emplace(group, static_cast<int64_t>(flows_.size()) - 1).first;
  }
  if (*idx < 0) return;
  SampledFlow& f = flows_[static_cast<size_t>(*idx)];
  if (f.hops.size() >= max_hops_) {
    truncated_ = true;
    return;
  }
  f.hops.push_back(FlowHop{level, edge, host, round, cache_hit});
}

void FlowSampler::write_json(JsonWriter& w) const {
  w.begin_array();
  for (const SampledFlow& f : flows_) {
    w.begin_object();
    w.kv("id", f.id);
    w.kv("group", f.group);
    w.kv("phase", f.up ? "up" : "down");
    w.key("hops");
    w.begin_array();
    for (const FlowHop& h : f.hops) {
      w.begin_object();
      w.kv("level", static_cast<uint64_t>(h.level));
      w.kv("edge", static_cast<uint64_t>(h.edge));
      w.kv("host", static_cast<uint64_t>(h.host));
      w.kv("round", h.round);
      // Emitted only when set, so cache-off traces keep their exact bytes.
      if (h.cache_hit) w.kv("cache_hit", true);
      w.end_object();
    }
    w.end_array();
    w.kv("truncated", f.hops.size() >= max_hops_ && truncated_);
    w.end_object();
  }
  w.end_array();
}

}  // namespace ncc::obs
