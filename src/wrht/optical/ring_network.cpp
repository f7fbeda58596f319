#include "wrht/optical/ring_network.hpp"

#include <algorithm>
#include <deque>
#include <unordered_set>

#include "wrht/common/error.hpp"
#include "wrht/net/pattern_key.hpp"

namespace wrht::optics {

RingNetwork::RingNetwork(std::uint32_t num_nodes, OpticalConfig config)
    : ring_(num_nodes), config_(config) {
  require(config.wavelengths >= 1, "RingNetwork: need >= 1 wavelength");
  require(config.bytes_per_element >= 1,
          "RingNetwork: bytes_per_element must be >= 1");
  require(config.wavelength_rate.count() > 0.0,
          "RingNetwork: wavelength rate must be positive");
  config.lease.validate(config.wavelengths);
}

Seconds RingNetwork::round_time(std::size_t elements) const {
  return config_.mrr_reconfig_delay + config_.oeo_delay +
         config_.serialization_time(elements);
}

Seconds RingNetwork::single_round_estimate(
    const coll::Schedule& schedule) const {
  Seconds total(0.0);
  for (std::size_t s = 0; s < schedule.num_steps(); ++s) {
    const coll::StepView view = schedule.step_view(s);
    if (view.empty()) continue;
    total += round_time(view.max_count());
  }
  return total;
}

RingNetwork::CachedPattern RingNetwork::make_pattern(
    const RoundsResult& rwa) const {
  CachedPattern out;
  out.lane = lane_pattern(rwa);
  out.tunings.reserve(rwa.paths.size());
  for (const std::vector<Lightpath>& paths : rwa.paths) {
    out.tunings.push_back(TuningState::from_lightpaths(paths));
    if (config_.validate_node_capacity) {
      out.tunings.back().check_capacity(config_.node_hardware);
    }
  }
  return out;
}

RingNetwork::CachedPattern RingNetwork::evaluate_step(
    const coll::StepView& view, std::span<const coll::Transfer> transfers,
    Rng* rng) const {
  const RwaOptions options = config_.rwa_options();
  if (config_.allow_multi_round_steps) {
    return make_pattern(assign_rounds(ring_, transfers, options, rng));
  }
  RwaResult rwa = assign_wavelengths(ring_, transfers, options, rng);
  if (!rwa.ok) {
    throw InfeasibleSchedule(
        "RingNetwork: step '" + view.label() + "' needs more than " +
        std::to_string(config_.lease.width(config_.wavelengths)) +
        " wavelengths (lease " + config_.lease.to_string() +
        ") and multi-round splitting is disabled");
  }
  RoundsResult single;
  single.wavelengths_used = rwa.wavelengths_used;
  single.paths.push_back(std::move(rwa.paths));
  single.rounds.emplace_back();
  for (std::size_t i = 0; i < transfers.size(); ++i) {
    single.rounds.back().push_back(i);
  }
  return make_pattern(single);
}

const RingNetwork::CachedPattern& RingNetwork::pattern_for(
    const coll::StepView& view, std::vector<coll::Transfer>& scratch,
    Rng* rng, CachedPattern& uncached) const {
  if (view.empty()) {
    uncached = CachedPattern{};
    return uncached;
  }
  // Random-fit assignments differ run to run; never cache them.
  if (config_.rwa_policy != RwaPolicy::kFirstFit) {
    uncached = evaluate_step(view, view.transfers(scratch), rng);
    return uncached;
  }
  // Direction hints participate in the key: pinned-direction variants of
  // the same (src, dst) pattern route differently.
  net::make_route_key(view, key_scratch_);
  const auto it = pattern_cache_.find(key_scratch_);
  if (it != pattern_cache_.end()) return it->second;
  return pattern_cache_
      .emplace(key_scratch_, evaluate_step(view, view.transfers(scratch), rng))
      .first->second;
}

OpticalRunResult RingNetwork::execute(const coll::Schedule& schedule,
                                      Rng* rng) const {
  return execute(schedule, obs::Probe{}, rng);
}

void RingNetwork::warm_pattern_cache(const coll::Schedule& schedule) const {
  if (config_.rwa_policy != RwaPolicy::kFirstFit) return;
  if (!config_.allow_multi_round_steps) return;
  const unsigned workers = resolve_rwa_threads(config_.rwa_threads);
  if (workers <= 1) return;

  // Distinct uncached patterns in first-occurrence order, so the batch's
  // lowest-index-failure rethrow matches what the sequential step loop
  // would have thrown first. A generated pattern's transfers are written
  // into storage of its own; a materialized one is read in place.
  std::vector<net::PatternKey> keys;
  std::vector<std::span<const coll::Transfer>> spans;
  std::deque<std::vector<coll::Transfer>> written;
  std::unordered_set<net::PatternKey, net::PatternKeyHash> seen;
  for (std::size_t s = 0; s < schedule.num_steps(); ++s) {
    const coll::StepView view = schedule.step_view(s);
    if (view.empty()) continue;
    net::make_route_key(view, key_scratch_);
    if (pattern_cache_.contains(key_scratch_) ||
        !seen.insert(key_scratch_).second) {
      continue;
    }
    keys.push_back(key_scratch_);
    spans.push_back(view.transfers(written.emplace_back()));
  }
  if (keys.size() <= 1) return;

  const std::vector<RoundsResult> rounds =
      assign_rounds_batch(ring_, spans, config_.rwa_options(), workers);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    pattern_cache_.emplace(std::move(keys[i]), make_pattern(rounds[i]));
  }
}

namespace {

/// The per-step "optical.*" counters of one run, added to the probe once.
/// A counter the per-step code never touched stays absent.
struct StepTally {
  std::uint64_t steps = 0;
  std::uint64_t rounds = 0;
  std::uint64_t multi_round_steps = 0;
  std::uint64_t reconfig_charges = 0;
  std::uint64_t retuned_mrrs = 0;
  std::uint32_t max_wavelengths_used = 0;

  void flush(const obs::Probe& probe) const {
    if (probe.counters == nullptr || steps == 0) return;
    probe.count("optical.reconfig_charges", reconfig_charges);
    probe.count("optical.steps", steps);
    probe.count("optical.rounds", rounds);
    if (multi_round_steps > 0) {
      probe.count("optical.multi_round_steps", multi_round_steps);
    }
    probe.count_max("optical.max_wavelengths_used", max_wavelengths_used);
    if (retuned_mrrs > 0) probe.count("optical.retuned_mrrs", retuned_mrrs);
  }
};

}  // namespace

OpticalRunResult RingNetwork::execute(const coll::Schedule& schedule,
                                      const obs::Probe& probe, Rng* rng,
                                      Seconds start) const {
  require(schedule.num_nodes() <= ring_.size(),
          "RingNetwork: schedule spans more nodes than the ring");
  schedule.validate();
  open_transfer_log(probe, "optical-ring", config_, schedule);
  warm_pattern_cache(schedule);

  OpticalRunResult result;
  result.steps = schedule.num_steps();
  result.step_costs.reserve(schedule.num_steps());

  // Steps run back to back: each starts when the previous one completes.
  Seconds now = start;
  net::RoundPricer pricer(config_.reconfig_policy, config_.mrr_reconfig_delay,
                          config_.oeo_delay);
  // The retune walk compares each round's MRR state with the previous
  // round's, carried across steps. It runs only when something reads it:
  // retune-aware pricing, or the TransferLog's per-round retune flags.
  const bool walk_retunes = pricer.retune_aware() || probe.transfers != nullptr;
  // Occupancy and TransferLog records name every transfer; nothing else
  // reads a generated step's transfers once its pattern is cached.
  const bool log_transfers =
      probe.occupancy != nullptr || probe.transfers != nullptr;
  // The previous round's state lives in its pattern; only a pattern in the
  // `uncached` slot, which the next step overwrites, is copied out.
  const TuningState initial_tuning;
  TuningState carried_tuning;
  const TuningState* previous_tuning = &initial_tuning;
  CachedPattern uncached;  // empty steps and random-fit patterns
  std::vector<coll::Transfer> scratch;
  std::vector<RoundLoad> loads;
  std::vector<net::RoundPricer::Round> rounds;
  StepTally tally;

  const auto run_step = [&](std::size_t step_index) {
    const coll::StepView view = schedule.step_view(step_index);

    const CachedPattern& pattern = pattern_for(view, scratch, rng, uncached);
    const LanePattern& lane = pattern.lane;
    // Round loads come from the step's own counts: in O(1) from the view
    // when one round carries every transfer, else one pass over them.
    std::span<const coll::Transfer> transfers;
    if (log_transfers || lane.rounds.size() > 1) {
      transfers = view.transfers(scratch);
    }
    if (lane.rounds.size() == 1) {
      loads.assign(1, round_load(view.max_count(), config_));
    } else {
      round_loads(lane, transfers, config_, loads);
    }

    rounds.clear();
    Seconds duration(0.0);
    const std::uint64_t charges_before = pricer.charges();
    for (std::size_t r = 0; r < lane.rounds.size(); ++r) {
      bool retune = true;
      if (walk_retunes) {
        const std::size_t retuned =
            previous_tuning->retune_count(pattern.tunings[r]);
        previous_tuning = &pattern.tunings[r];
        retune = retuned > 0;
        if (retune && pricer.retune_aware()) {
          result.retuned_mrrs += retuned;
          tally.retuned_mrrs += retuned;
        }
      }
      rounds.push_back(pricer.price(loads[r].serialization, retune));
      duration += rounds.back().duration;
    }
    if (walk_retunes && &pattern == &uncached && !pattern.tunings.empty()) {
      carried_tuning = pattern.tunings.back();
      previous_tuning = &carried_tuning;
    }
    tally.reconfig_charges += pricer.charges() - charges_before;

    StepCost& cost = result.step_costs.emplace_back();
    cost.label = view.label();
    cost.start = now;
    cost.duration = duration;
    cost.rounds = static_cast<std::uint32_t>(lane.rounds.size());
    cost.wavelengths_used = lane.wavelengths_used;
    for (const RoundLoad& load : loads) {
      cost.max_transfer_elements =
          std::max(cost.max_transfer_elements, load.max_elements);
    }
    result.total_rounds += cost.rounds;
    result.max_wavelengths_used =
        std::max(result.max_wavelengths_used, cost.wavelengths_used);
    result.longest_lightpath_hops =
        std::max(result.longest_lightpath_hops, lane.longest_hops);

    ++tally.steps;
    tally.rounds += cost.rounds;
    if (cost.rounds > 1) ++tally.multi_round_steps;
    tally.max_wavelengths_used =
        std::max(tally.max_wavelengths_used, cost.wavelengths_used);
    if (probe.trace != nullptr) {
      obs::TraceSpan span;
      span.name = cost.label.empty() ? "step " + std::to_string(step_index)
                                     : cost.label;
      span.category = "step";
      span.start = cost.start;
      span.duration = cost.duration;
      span.args = {
          {"rounds", std::to_string(cost.rounds)},
          {"wavelengths", std::to_string(cost.wavelengths_used)},
          {"max_transfer_elements",
           std::to_string(cost.max_transfer_elements)}};
      probe.span(span);
      Seconds cursor = cost.start;
      for (std::size_t r = 0; r < rounds.size(); ++r) {
        obs::TraceSpan round;
        round.name = "round " + std::to_string(r);
        round.category = "round";
        round.start = cursor;
        round.duration = rounds[r].duration;
        round.args = {
            {"serialization_us",
             std::to_string(loads[r].serialization.micros())},
            {"wavelengths", std::to_string(lane.rounds[r].wavelengths)}};
        probe.span(round);
        // Counter track: distinct wavelengths carrying traffic this round
        // (holds until the next round's sample).
        probe.counter_sample(
            "wavelengths in use", cursor,
            static_cast<double>(lane.rounds[r].distinct_wavelengths));
        cursor += rounds[r].duration;
      }
    }

    const auto step_id = static_cast<std::uint32_t>(step_index);
    emit_step_trace(probe, step_id, view.empty(), cost);
    emit_lane_rounds(probe, config_,
                     LaneSlot{step_id, "ring", "", cost.start, std::nullopt},
                     lane, loads, rounds, transfers);
    now += duration;
  };

  try {
    for (std::size_t s = 0; s < schedule.num_steps(); ++s) run_step(s);
  } catch (...) {
    tally.flush(probe);
    throw;
  }
  tally.flush(probe);

  // total_time is a duration, not an end timestamp — a job admitted at
  // start != 0 still reports how long it ran.
  result.total_time = now - start;
  // One completion event per step plus the start event: the count an
  // event-driven engine fires for the same chain of steps.
  result.events_fired = schedule.num_steps() + 1;
  probe.count("sim.events_fired", result.events_fired);
  result.reconfigurations = pricer.charges();
  result.overlap_hidden = pricer.hidden();
  // Close the counter track so the last round's value does not hold past
  // the end of the run in the viewer.
  if (probe.trace != nullptr && result.total_rounds > 0) {
    probe.counter_sample("wavelengths in use", now, 0.0);
  }
  return result;
}

RunReport OpticalRunResult::to_report() const {
  RunReport report;
  report.backend = "optical-ring";
  report.total_time = total_time;
  report.steps = steps;
  report.rounds = total_rounds;
  report.events_fired = events_fired;
  report.step_reports.reserve(step_costs.size());
  for (const StepCost& cost : step_costs) {
    StepReport step;
    step.label = cost.label;
    step.start = cost.start;
    step.duration = cost.duration;
    step.rounds = cost.rounds;
    step.wavelengths_used = cost.wavelengths_used;
    report.step_reports.push_back(std::move(step));
  }
  return report;
}

}  // namespace wrht::optics
