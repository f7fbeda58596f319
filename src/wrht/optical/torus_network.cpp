#include "wrht/optical/torus_network.hpp"

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "wrht/common/error.hpp"
#include "wrht/optical/lane_rounds.hpp"
#include "wrht/optical/rwa.hpp"

namespace wrht::optics {

TorusNetwork::TorusNetwork(const topo::Torus& torus, OpticalConfig config)
    : torus_(torus),
      config_(config),
      row_ring_(torus.cols()),
      col_ring_(torus.rows()) {
  require(config.wavelengths >= 1, "TorusNetwork: need >= 1 wavelength");
  config.lease.validate(config.wavelengths);
}

OpticalRunResult TorusNetwork::execute(const coll::Schedule& schedule,
                                       Rng* rng) const {
  return execute(schedule, obs::Probe{}, rng);
}

OpticalRunResult TorusNetwork::execute(const coll::Schedule& schedule,
                                       const obs::Probe& probe,
                                       Rng* rng) const {
  require(schedule.num_nodes() <= torus_.size(),
          "TorusNetwork: schedule spans more nodes than the torus");
  schedule.validate();

  const RwaOptions options = config_.rwa_options();

  OpticalRunResult result;
  result.steps = schedule.num_steps();
  result.step_costs.reserve(schedule.num_steps());

  open_transfer_log(probe, "optical-torus", config_, schedule);
  const bool observed =
      probe.occupancy != nullptr || probe.transfers != nullptr;
  Seconds now(0.0);
  std::size_t step_index = 0;
  // kOverlapped: window the first round of a step can hide its retune in.
  // Steps are barriers, so every ring's retune for step k proceeds during
  // step k-1's transmissions; later rounds of a ring overlap their own
  // previous round. Step 0 has nothing to overlap with.
  Seconds step_window(0.0);
  for (const auto& step : schedule.steps()) {
    // Partition the step's transfers onto their row/column rings,
    // remapping node ids to ring-local positions.
    // Key: (true, row index) for rows, (false, column index) for columns.
    std::map<std::pair<bool, std::uint32_t>, RingShare> shares;
    for (std::size_t t_index = 0; t_index < step.transfers.size();
         ++t_index) {
      const coll::Transfer& t = step.transfers[t_index];
      coll::Transfer local = t;
      local.direction = std::nullopt;  // hints are flat-ring specific
      if (torus_.row_of(t.src) == torus_.row_of(t.dst)) {
        local.src = torus_.col_of(t.src);
        local.dst = torus_.col_of(t.dst);
        RingShare& share = shares[{true, torus_.row_of(t.src)}];
        share.transfers.push_back(local);
        share.source.push_back(t_index);
      } else if (torus_.col_of(t.src) == torus_.col_of(t.dst)) {
        local.src = torus_.row_of(t.src);
        local.dst = torus_.row_of(t.dst);
        RingShare& share = shares[{false, torus_.col_of(t.src)}];
        share.transfers.push_back(local);
        share.source.push_back(t_index);
      } else {
        throw InfeasibleSchedule(
            "TorusNetwork: transfer " + std::to_string(t.src) + "->" +
            std::to_string(t.dst) + " crosses both torus dimensions");
      }
    }

    // Per-ring RWA. The rings of a step are independent problems, so the
    // first-fit path batch-solves them (parallel when rwa_threads resolves
    // past 1) and the fold below consumes the results in the shares map's
    // deterministic key order; random-fit keeps the sequential Rng walk.
    std::vector<RoundsResult> ring_rounds;
    if (config_.rwa_policy == RwaPolicy::kFirstFit) {
      std::vector<RwaStep> problems;
      problems.reserve(shares.size());
      for (const auto& [key, share] : shares) {
        problems.push_back(RwaStep{key.first ? &row_ring_ : &col_ring_,
                                   share.transfers});
      }
      ring_rounds =
          assign_rounds_batch(problems, options, config_.rwa_threads);
    } else {
      ring_rounds.reserve(shares.size());
      for (const auto& [key, share] : shares) {
        const topo::Ring& ring = key.first ? row_ring_ : col_ring_;
        ring_rounds.push_back(
            assign_rounds(ring, share.transfers, options, rng));
      }
    }

    // Price every ring as one lane; a step lasts as long as its slowest
    // ring. Lanes are buffered so their records can be emitted once the
    // step's end is known.
    struct Lane {
      std::string name;  // "row3" / "col0"; set only when observed
      PricedPattern pattern;
      std::vector<net::RoundPricer::Round> rounds;
    };
    std::vector<Lane> lanes;
    lanes.reserve(shares.size());
    StepCost cost;
    cost.start = now;
    std::uint32_t max_rounds = 0;
    std::uint64_t max_charges = 0;
    Seconds slowest(0.0);
    Seconds slowest_serial(0.0);  // every-round pricing, for overlap_hidden
    std::size_t share_index = 0;
    for (const auto& [key, share] : shares) {
      Lane& lane = lanes.emplace_back();
      lane.pattern =
          price_pattern(share.transfers, ring_rounds[share_index++], config_);
      // Point the ring-local routes back at the step's transfers.
      for (PricedRound& round : lane.pattern.rounds) {
        for (TransferRoute& route : round.routes) {
          route.index = static_cast<std::uint32_t>(share.source[route.index]);
        }
      }
      if (observed) {
        lane.name = (key.first ? "row" : "col") + std::to_string(key.second);
      }
      // The torus control plane retunes every round, so kOnRetune prices
      // like kEveryRound here.
      net::RoundPricer pricer(config_.reconfig_policy,
                              config_.mrr_reconfig_delay, config_.oeo_delay);
      pricer.set_window(step_window);
      Seconds lane_time(0.0);
      for (const PricedRound& round : lane.pattern.rounds) {
        lane.rounds.push_back(pricer.price(round.serialization));
        lane_time += lane.rounds.back().duration;
      }
      result.longest_lightpath_hops =
          std::max(result.longest_lightpath_hops, lane.pattern.longest_hops);
      cost.wavelengths_used =
          std::max(cost.wavelengths_used, lane.pattern.wavelengths_used);
      cost.max_transfer_elements = std::max(
          cost.max_transfer_elements, lane.pattern.max_transfer_elements);
      max_rounds = std::max(
          max_rounds, static_cast<std::uint32_t>(lane.rounds.size()));
      // Critical-path reconfiguration charges: under kOverlapped only
      // rounds whose residual survived the overlap window count.
      max_charges = std::max(max_charges, pricer.charges());
      slowest = std::max(slowest, lane_time);
      slowest_serial = std::max(slowest_serial, lane_time + pricer.hidden());
    }

    const auto step_id = static_cast<std::uint32_t>(step_index);
    for (const Lane& lane : lanes) {
      emit_lane_rounds(probe, config_,
                       LaneSlot{step_id, lane.name, lane.name, cost.start,
                                cost.start + slowest},
                       lane.pattern, lane.rounds, step.transfers);
    }

    cost.label = step.label;
    cost.rounds = max_rounds;
    cost.duration = slowest;
    emit_step_trace(probe, step_id, step, cost);
    result.total_rounds += max_rounds;
    result.reconfigurations += max_charges;
    // The hidden time is the step's serial-vs-overlapped delta on the
    // slowest ring.
    result.overlap_hidden += slowest_serial - slowest;
    result.max_wavelengths_used =
        std::max(result.max_wavelengths_used, cost.wavelengths_used);
    result.step_costs.push_back(cost);

    probe.count("optical.steps");
    probe.count("optical.rounds", max_rounds);
    probe.count("optical.reconfig_charges", max_charges);
    if (max_rounds > 1) probe.count("optical.multi_round_steps");
    probe.count_max("optical.max_wavelengths_used", cost.wavelengths_used);
    if (probe.trace != nullptr) {
      obs::TraceSpan span;
      span.name = step.label.empty() ? "step " + std::to_string(step_index)
                                     : step.label;
      span.category = "torus-step";
      span.start = cost.start;
      span.duration = cost.duration;
      span.args = {{"rounds", std::to_string(cost.rounds)},
                   {"wavelengths", std::to_string(cost.wavelengths_used)},
                   {"rings", std::to_string(shares.size())}};
      probe.span(span);
      probe.counter_sample("wavelengths in use", cost.start,
                           static_cast<double>(cost.wavelengths_used));
    }
    now += slowest;
    step_window = slowest;
    ++step_index;
  }
  result.total_time = now;
  if (probe.trace != nullptr && result.total_rounds > 0) {
    probe.counter_sample("wavelengths in use", result.total_time, 0.0);
  }
  return result;
}

}  // namespace wrht::optics
