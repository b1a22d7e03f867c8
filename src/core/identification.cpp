#include "core/identification.hpp"

#include <algorithm>
// det-lint: allow(unordered-container) — all uses audited at their declaration sites
#include <unordered_map>
// det-lint: allow(unordered-container) — all uses audited at their declaration sites
#include <unordered_set>

#include "common/assert.hpp"
#include "common/hash.hpp"
#include "obs/tracer.hpp"
#include "primitives/aggregate_broadcast.hpp"
#include "primitives/aggregation.hpp"

namespace ncc {

namespace {

// Group id encoding: (learning node id << kTrialBits) | trial.
constexpr uint32_t kTrialBits = 26;

/// Distinct trials an arc participates in under the family.
std::vector<uint32_t> arc_trials(const HashFamily& fam, uint64_t arc, uint32_t q) {
  std::vector<uint32_t> trials;
  trials.reserve(fam.size());
  for (uint32_t j = 0; j < fam.size(); ++j)
    trials.push_back(static_cast<uint32_t>(fam.fn(j).to_range(arc, q)));
  std::sort(trials.begin(), trials.end());
  trials.erase(std::unique(trials.begin(), trials.end()), trials.end());
  return trials;
}

}  // namespace

IdentificationResult run_identification(const Shared& shared, Network& net,
                                        const IdentificationInput& input,
                                        const IdentificationParams& params,
                                        uint64_t rng_tag) {
  NCC_ASSERT(input.candidates.size() == input.learning.size());
  NCC_ASSERT(input.potential.size() == input.playing.size());
  NCC_ASSERT_MSG(params.q < (1u << kTrialBits), "trial count exceeds group encoding");
  obs::Span span(net, "identification");
  uint64_t start_rounds = net.rounds();

  // Poisoned-schedule recovery: the trial count q scales the delivery
  // schedule (ell2_hat = q), so a byzantine-corrupted degree bound d* in the
  // caller's q = q_unit * d* stretches an otherwise-bounded run by thousands
  // of near-empty rounds. The certifiable ceiling for the *current* instance
  // is q_unit * (largest candidate set any learning node holds): red edges
  // are candidate edges, so that many trials are statistically sufficient
  // here even when the caller's q was scaled by a larger bound carried over
  // from earlier phases — a q beyond the ceiling is either poisoned or
  // harmlessly oversized. When the network can corrupt payloads and q
  // exceeds it, the degree aggregate is re-derived with a fresh
  // Aggregate-and-Broadcast — paying its real rounds — and q is clamped to
  // the re-derived bound (the re-run is itself clamped to the ceiling: a
  // second corruption must not re-poison the schedule; a corrupted-low
  // value merely degrades decoding, which the caller already detects via
  // `success`). Reliable networks always trust q unchanged.
  uint32_t q = params.q;
  if (params.q_unit > 0 && net.corruption_possible()) {
    uint32_t cand_max = 1;
    for (const auto& cand : input.candidates)
      cand_max = std::max<uint32_t>(cand_max, static_cast<uint32_t>(cand.size()));
    uint64_t ceiling = static_cast<uint64_t>(params.q_unit) * cand_max;
    if (q > ceiling) {
      const NodeId n = shared.topo().n();
      std::vector<std::optional<Val>> degrees(n);
      for (size_t li = 0; li < input.learning.size(); ++li)
        degrees[input.learning[li]] = Val{input.candidates[li].size(), 0};
      auto ab = aggregate_and_broadcast(shared.topo(), net, shared.barrier_workspace(),
                                        degrees, agg::max_by_first);
      uint64_t rederived =
          std::min<uint64_t>(ab.value ? (*ab.value)[0] : 1, cand_max);
      q = static_cast<uint32_t>(
          std::min<uint64_t>(q, params.q_unit * std::max<uint64_t>(rederived, 1)));
    }
  }

  // Shared hash functions h_1..h_s (their seeds cost a charged broadcast).
  HashFamily fam = shared.make_family(net, mix64(0x1de9f1 ^ rng_tag), params.s,
                                      2 * cap_log(shared.topo().n()));

  // Playing nodes contribute (XOR of arc id, count) per (neighbor, trial).
  AggregationProblem prob;
  prob.combine = agg::xor_count;
  prob.target = [](uint64_t g) { return static_cast<NodeId>(g >> kTrialBits); };
  prob.ell2_hat = q;
  for (size_t pi = 0; pi < input.playing.size(); ++pi) {
    NodeId v = input.playing[pi];
    for (NodeId w : input.potential[pi]) {
      uint64_t arc = arc_id(w, v);
      for (uint32_t t : arc_trials(fam, arc, q)) {
        uint64_t group = (static_cast<uint64_t>(w) << kTrialBits) | t;
        prob.items.push_back({v, group, Val{arc, 1}});
      }
    }
  }
  AggregationResult aggregated = run_aggregation(shared, net, prob, rng_tag);

  // Decode phase (pure local computation at each learning node).
  IdentificationResult res;
  res.red.resize(input.learning.size());
  res.success.assign(input.learning.size(), false);
  for (size_t li = 0; li < input.learning.size(); ++li) {
    NodeId u = input.learning[li];
    const auto& cand = input.candidates[li];

    // Local sketch over all candidate arcs.
    struct TrialState {
      uint64_t x_xor = 0;       // XOR of candidate arc ids in this trial
      uint32_t x_cnt = 0;       // number of candidate arcs in this trial
      uint64_t blue_xor = 0;    // aggregated XOR from playing neighbors
      uint32_t blue_cnt = 0;    // aggregated count from playing neighbors
    };
    // det-lint: allow(unordered-container) — traversal order is a pure function of the
    // deterministic per-node insertion sequence (integer keys, no ASLR), and the
    // peeling decode below is confluent: any peel order yields the same red set.
    std::unordered_map<uint32_t, TrialState> trials;
    // det-lint: allow(unordered-container) — point lookups by arc id only; never iterated
    std::unordered_map<uint64_t, std::vector<uint32_t>> arc_to_trials;
    // det-lint: allow(unordered-container) — membership guard for undecoded arcs; never iterated
    std::unordered_set<uint64_t> remaining;
    for (NodeId v : cand) {
      uint64_t arc = arc_id(u, v);
      auto ts = arc_trials(fam, arc, q);
      for (uint32_t t : ts) {
        auto& st = trials[t];
        st.x_xor ^= arc;
        st.x_cnt += 1;
      }
      arc_to_trials.emplace(arc, std::move(ts));
      remaining.insert(arc);
    }
    for (auto& [t, st] : trials) {
      uint64_t group = (static_cast<uint64_t>(u) << kTrialBits) | t;
      if (const Val* pv = aggregated.at_target.find(group)) {
        st.blue_xor = (*pv)[0];
        st.blue_cnt = static_cast<uint32_t>((*pv)[1]);
      }
    }

    // Peel trials holding exactly one red arc.
    bool corrupt = false;
    bool progress = true;
    while (progress && !corrupt) {
      progress = false;
      for (auto& [t, st] : trials) {
        if (st.x_cnt != st.blue_cnt + 1) continue;
        uint64_t arc = st.x_xor ^ st.blue_xor;
        auto ait = arc_to_trials.find(arc);
        if (ait == arc_to_trials.end() || !remaining.count(arc)) {
          // A hash collision pattern produced garbage (probability bounded by
          // Lemma 4.2); abort decoding and report failure.
          corrupt = true;
          break;
        }
        remaining.erase(arc);
        res.red[li].push_back(static_cast<NodeId>(arc & 0xffffffffu));
        for (uint32_t t2 : ait->second) {
          auto& st2 = trials[t2];
          st2.x_xor ^= arc;
          st2.x_cnt -= 1;
        }
        progress = true;
        break;  // restart scan: trial states changed
      }
    }

    if (!corrupt) {
      bool all_blue = true;
      for (const auto& [t, st] : trials) {
        if (st.x_cnt != st.blue_cnt) {
          all_blue = false;
          break;
        }
      }
      res.success[li] = all_blue;
    }
    std::sort(res.red[li].begin(), res.red[li].end());
  }

  res.rounds = net.rounds() - start_rounds;
  return res;
}

}  // namespace ncc
