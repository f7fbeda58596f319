#include "wrht/plan/schedule_planner.hpp"

#include <algorithm>

#include "wrht/collectives/ring_allreduce.hpp"
#include "wrht/common/error.hpp"
#include "wrht/core/planner.hpp"
#include "wrht/core/wrht_schedule.hpp"
#include "wrht/topo/ring.hpp"

namespace wrht::plan {

namespace {

/// One modelled round: its serialization time and whether its micro-ring
/// tuning differs from the previous round's.
struct RoundModel {
  double serialization = 0.0;
  bool retunes = true;
};

/// Prices modelled rounds through the engines' own net::RoundPricer and
/// fills the candidate's time, round and reconfiguration fields.
void price_rounds(const std::vector<RoundModel>& rounds,
                  const PlannerOptions& options, Candidate& c) {
  net::RoundPricer pricer(options.policy, options.mrr_reconfig_delay,
                          options.oeo_delay);
  Seconds time(0.0);
  for (const RoundModel& round : rounds) {
    time += pricer.price(Seconds(round.serialization), round.retunes).duration;
  }
  c.feasible = true;
  c.predicted_time = time;
  c.rounds = rounds.size();
  c.reconfig_charges = pricer.charges();
  c.overlap_hidden = pricer.hidden();
  c.charged_reconfig = pricer.charged_reconfig();
}

/// ceil(d/N) elements — the largest chunk, which governs every
/// reduce-scatter / all-gather round's serialization.
std::size_t max_chunk(std::size_t elements, std::uint32_t num_nodes) {
  return (elements + num_nodes - 1) / num_nodes;
}

/// Exact per-direction segment load of the flat all-to-all under
/// shortest-direction routing with antipodal ties alternating: odd N gives
/// (N^2-1)/8, even N gives ceil(N^2/8) (the paper's §4.1.2 bound).
std::uint64_t alltoall_wavelengths(std::uint32_t n) {
  const std::uint64_t nn = static_cast<std::uint64_t>(n) * n;
  return n % 2 == 0 ? (nn + 7) / 8 : (nn - 1) / 8;
}

Candidate predict_wrht(std::uint32_t num_nodes, std::size_t elements,
                       const PlannerOptions& options) {
  Candidate c;
  c.kind = CandidateKind::kWrht;
  core::WrhtPlan wrht;
  try {
    wrht = core::plan_wrht(num_nodes, options.wavelengths);
  } catch (const Error& e) {
    c.note = e.what();
    return c;
  }
  // Every WRHT step serializes the full vector in one round (the planner
  // keeps wavelengths_required <= w) and lights a fresh circuit set.
  const double ser = static_cast<double>(elements) *
                     options.bytes_per_element / options.bytes_per_second();
  const std::vector<RoundModel> rounds(wrht.steps.total_steps,
                                       RoundModel{ser, true});
  price_rounds(rounds, options, c);
  c.steps = wrht.steps.total_steps;
  return c;
}

Candidate predict_static_ring(std::uint32_t num_nodes, std::size_t elements,
                              const PlannerOptions& options) {
  Candidate c;
  c.kind = CandidateKind::kStaticRing;
  if (elements < num_nodes) {
    c.note = "ring needs at least one element per chunk";
    return c;
  }
  // 2(N-1) steps of one round each (neighbour circuits use one wavelength);
  // every step reuses the identical clockwise circuits, so only round 0
  // retunes.
  const double ser = static_cast<double>(max_chunk(elements, num_nodes)) *
                     options.bytes_per_element / options.bytes_per_second();
  std::vector<RoundModel> rounds(2ull * (num_nodes - 1),
                                 RoundModel{ser, false});
  rounds.front().retunes = true;
  price_rounds(rounds, options, c);
  c.steps = rounds.size();
  return c;
}

Candidate predict_flat_a2a(std::uint32_t num_nodes, std::size_t elements,
                           const PlannerOptions& options) {
  Candidate c;
  c.kind = CandidateKind::kFlatAllToAll;
  // Two steps, each split into R = ceil(load / w) RWA rounds. Both steps
  // light the identical circuit sets in the identical round partition, so
  // under retune-aware accounting the single-round case reuses step 1's
  // circuits for step 2 while the multi-round case retunes every round.
  const std::uint64_t rounds_per_step =
      (alltoall_wavelengths(num_nodes) + options.wavelengths - 1) /
      options.wavelengths;
  const double ser = static_cast<double>(max_chunk(elements, num_nodes)) *
                     options.bytes_per_element / options.bytes_per_second();
  std::vector<RoundModel> rounds(2 * rounds_per_step, RoundModel{ser, true});
  if (rounds_per_step == 1) rounds.back().retunes = false;
  price_rounds(rounds, options, c);
  c.steps = 2;
  return c;
}

}  // namespace

std::string to_string(CandidateKind kind) {
  switch (kind) {
    case CandidateKind::kWrht:
      return "wrht";
    case CandidateKind::kFlatAllToAll:
      return "flat_a2a";
    case CandidateKind::kStaticRing:
      return "static_ring";
  }
  return "unknown";
}

Candidate predict(CandidateKind kind, std::uint32_t num_nodes,
                  std::size_t elements, const PlannerOptions& options) {
  require(num_nodes >= 2, "plan::predict: need at least 2 nodes");
  require(elements >= 1, "plan::predict: need at least 1 element");
  require(options.wavelengths >= 1, "plan::predict: need >= 1 wavelength");
  switch (kind) {
    case CandidateKind::kWrht:
      return predict_wrht(num_nodes, elements, options);
    case CandidateKind::kFlatAllToAll:
      return predict_flat_a2a(num_nodes, elements, options);
    case CandidateKind::kStaticRing:
      return predict_static_ring(num_nodes, elements, options);
  }
  throw InvalidArgument("plan::predict: unknown candidate kind");
}

coll::Schedule build_candidate(CandidateKind kind, std::uint32_t num_nodes,
                               std::size_t elements,
                               const PlannerOptions& options) {
  switch (kind) {
    case CandidateKind::kWrht: {
      const core::WrhtPlan wrht =
          core::plan_wrht(num_nodes, options.wavelengths);
      core::WrhtOptions wrht_options;
      wrht_options.group_size = wrht.group_size;
      wrht_options.wavelengths = options.wavelengths;
      return core::wrht_allreduce(num_nodes, elements, wrht_options);
    }
    case CandidateKind::kFlatAllToAll:
      return flat_alltoall_allreduce(num_nodes, elements);
    case CandidateKind::kStaticRing:
      return coll::ring_allreduce(num_nodes, elements);
  }
  throw InvalidArgument("plan::build_candidate: unknown candidate kind");
}

PlanResult plan_allreduce(std::uint32_t num_nodes, std::size_t elements,
                          const PlannerOptions& options) {
  require(num_nodes >= 2, "plan_allreduce: need at least 2 nodes");
  PlanResult result{
      Candidate{}, {},
      coll::Schedule("unplanned", std::max(num_nodes, 1u), elements)};
  const CandidateKind kinds[] = {CandidateKind::kWrht,
                                 CandidateKind::kFlatAllToAll,
                                 CandidateKind::kStaticRing};
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t best = kNone;
  for (const CandidateKind kind : kinds) {
    result.candidates.push_back(predict(kind, num_nodes, elements, options));
    const Candidate& c = result.candidates.back();
    if (c.feasible &&
        (best == kNone ||
         c.predicted_time < result.candidates[best].predicted_time)) {
      best = result.candidates.size() - 1;
    }
  }
  require(best != kNone, "plan_allreduce: no feasible candidate");
  result.chosen = result.candidates[best];
  result.schedule =
      build_candidate(result.chosen.kind, num_nodes, elements, options);
  return result;
}

coll::Schedule flat_alltoall_allreduce(std::uint32_t num_nodes,
                                       std::size_t elements) {
  require(num_nodes >= 2, "flat_alltoall_allreduce: need at least 2 nodes");
  require(elements >= 1, "flat_alltoall_allreduce: need >= 1 element");
  coll::Schedule sched("flat-a2a", num_nodes, elements);
  const topo::Ring ring(num_nodes);

  // Shortest-direction hint per ordered pair, antipodal ties alternating —
  // the same assignment as WRHT's final all-to-all exchange, which keeps
  // the per-segment load within the ceil(N^2/8) bound. Both steps walk the
  // pairs in the identical order so they light identical circuits and the
  // RWA partitions them into identical rounds.
  std::vector<std::pair<coll::Transfer, coll::Transfer>> pairs;
  bool tie_clockwise = true;
  for (std::uint32_t i = 0; i < num_nodes; ++i) {
    for (std::uint32_t j = i + 1; j < num_nodes; ++j) {
      const std::uint32_t cw = ring.cw_distance(i, j);
      const std::uint32_t ccw = ring.ccw_distance(i, j);
      topo::Direction forward;   // direction of i -> j
      topo::Direction backward;  // direction of j -> i
      if (cw < ccw) {
        forward = topo::Direction::kClockwise;
        backward = topo::Direction::kCounterClockwise;
      } else if (ccw < cw) {
        forward = topo::Direction::kCounterClockwise;
        backward = topo::Direction::kClockwise;
      } else {
        forward = backward = tie_clockwise
                                 ? topo::Direction::kClockwise
                                 : topo::Direction::kCounterClockwise;
        tie_clockwise = !tie_clockwise;
      }
      coll::Transfer fwd{i, j, 0, 0, coll::TransferKind::kReduce, forward};
      coll::Transfer bwd{j, i, 0, 0, coll::TransferKind::kReduce, backward};
      pairs.emplace_back(fwd, bwd);
    }
  }

  // Reduce-scatter: every node sends its partial of chunk `dst` straight to
  // node `dst`, which accumulates; after the step node j owns the fully
  // reduced chunk j.
  coll::Step& scatter = sched.add_step("a2a reduce-scatter");
  for (const auto& [fwd, bwd] : pairs) {
    for (const coll::Transfer& proto : {fwd, bwd}) {
      const coll::ChunkRange r =
          coll::chunk_range(elements, num_nodes, proto.dst);
      if (r.count == 0) continue;
      coll::Transfer t = proto;
      t.offset = r.offset;
      t.count = r.count;
      scatter.transfers.push_back(t);
    }
  }

  // All-gather: node `src` returns its reduced chunk to everyone.
  coll::Step& gather = sched.add_step("a2a all-gather");
  for (const auto& [fwd, bwd] : pairs) {
    for (const coll::Transfer& proto : {fwd, bwd}) {
      const coll::ChunkRange r =
          coll::chunk_range(elements, num_nodes, proto.src);
      if (r.count == 0) continue;
      coll::Transfer t = proto;
      t.kind = coll::TransferKind::kCopy;
      t.offset = r.offset;
      t.count = r.count;
      gather.transfers.push_back(t);
    }
  }
  return sched;
}

}  // namespace wrht::plan
