#include "wrht/optical/ring_network.hpp"

#include <algorithm>
#include <set>
#include <unordered_set>

#include "wrht/common/error.hpp"
#include "wrht/net/pattern_key.hpp"
#include "wrht/prof/prof.hpp"
#include "wrht/sim/simulator.hpp"

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
    if (schedule.steps()[s].transfers.empty()) continue;
    total += round_time(schedule.max_transfer_elements(s));
  }
  return total;
}

RingNetwork::CachedPattern RingNetwork::make_pattern(
    const coll::Step& step, const RoundsResult& rwa) const {
  CachedPattern out;
  out.priced = price_pattern(step.transfers, rwa, config_);
  out.tunings.reserve(rwa.paths.size());
  for (const std::vector<Lightpath>& paths : rwa.paths) {
    out.tunings.push_back(TuningState::from_lightpaths(paths));
    if (config_.validate_node_capacity) {
      out.tunings.back().check_capacity(config_.node_hardware);
    }
  }
  return out;
}

RingNetwork::CachedPattern RingNetwork::evaluate_step(const coll::Step& step,
                                                      Rng* rng) const {
  const RwaOptions options = config_.rwa_options();
  if (config_.allow_multi_round_steps) {
    return make_pattern(step,
                        assign_rounds(ring_, step.transfers, options, rng));
  }
  RwaResult rwa = assign_wavelengths(ring_, step.transfers, options, rng);
  if (!rwa.ok) {
    throw InfeasibleSchedule(
        "RingNetwork: step '" + step.label + "' needs more than " +
        std::to_string(config_.lease.width(config_.wavelengths)) +
        " wavelengths (lease " + config_.lease.to_string() +
        ") and multi-round splitting is disabled");
  }
  RoundsResult single;
  single.wavelengths_used = rwa.wavelengths_used;
  single.paths.push_back(std::move(rwa.paths));
  single.rounds.emplace_back();
  for (std::size_t i = 0; i < step.transfers.size(); ++i) {
    single.rounds.back().push_back(i);
  }
  return make_pattern(step, single);
}

const RingNetwork::CachedPattern& RingNetwork::pattern_for(
    const coll::Step& step, Rng* rng, CachedPattern& uncached) const {
  if (step.transfers.empty()) {
    uncached = CachedPattern{};
    return uncached;
  }
  // Random-fit assignments differ run to run; never cache them.
  if (config_.rwa_policy != RwaPolicy::kFirstFit) {
    uncached = evaluate_step(step, rng);
    return uncached;
  }
  // Direction hints participate in the key: pinned-direction variants of
  // the same (src, dst) pattern route differently.
  const std::uint64_t sig = net::step_signature(step, true);
  const auto it = pattern_cache_.find(sig);
  if (it != pattern_cache_.end()) return it->second;
  return pattern_cache_.emplace(sig, evaluate_step(step, rng)).first->second;
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
  // lowest-index-failure rethrow matches what the sequential DES loop
  // would have thrown first.
  std::vector<const coll::Step*> steps;
  std::vector<std::uint64_t> signatures;
  std::unordered_set<std::uint64_t> seen;
  for (const coll::Step& step : schedule.steps()) {
    if (step.transfers.empty()) continue;
    const std::uint64_t sig = net::step_signature(step, true);
    if (pattern_cache_.contains(sig) || !seen.insert(sig).second) continue;
    steps.push_back(&step);
    signatures.push_back(sig);
  }
  if (steps.size() <= 1) return;

  const RwaOptions options = config_.rwa_options();
  std::vector<std::span<const coll::Transfer>> spans;
  spans.reserve(steps.size());
  for (const coll::Step* step : steps) spans.emplace_back(step->transfers);
  const std::vector<RoundsResult> rounds =
      assign_rounds_batch(ring_, spans, options, workers);
  for (std::size_t s = 0; s < steps.size(); ++s) {
    pattern_cache_.emplace(signatures[s], make_pattern(*steps[s], rounds[s]));
  }
}

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

  // Drive the steps through the event kernel: each step-completion event
  // evaluates (or cache-hits) the next step and schedules its completion.
  sim::Simulator simulator(start);
  simulator.set_counters(probe.counters);
  std::size_t next_step = 0;
  net::RoundPricer pricer(config_.reconfig_policy, config_.mrr_reconfig_delay,
                          config_.oeo_delay);
  // The retune walk compares each round's MRR state with the previous
  // round's, carried across steps. It runs only when something reads it:
  // retune-aware pricing, or the TransferLog's per-round retune flags.
  const bool walk_retunes = pricer.retune_aware() || probe.transfers != nullptr;
  // The previous round's state lives in its pattern; only a pattern in the
  // `uncached` slot, which the next step overwrites, is copied out.
  const TuningState initial_tuning;
  TuningState carried_tuning;
  const TuningState* previous_tuning = &initial_tuning;
  CachedPattern uncached;  // empty steps and random-fit patterns
  std::vector<net::RoundPricer::Round> rounds;

  std::function<void()> launch = [&]() {
    if (next_step >= schedule.num_steps()) return;
    const coll::Step& step = schedule.steps()[next_step];
    const std::size_t step_index = next_step;
    ++next_step;

    const CachedPattern& pattern = pattern_for(step, rng, uncached);
    const PricedPattern& priced = pattern.priced;
    rounds.clear();
    Seconds duration(0.0);
    const std::uint64_t charges_before = pricer.charges();
    for (std::size_t r = 0; r < priced.rounds.size(); ++r) {
      bool retune = true;
      if (walk_retunes) {
        const std::size_t retuned =
            previous_tuning->retune_count(pattern.tunings[r]);
        previous_tuning = &pattern.tunings[r];
        retune = retuned > 0;
        if (retune && pricer.retune_aware()) {
          result.retuned_mrrs += retuned;
          probe.count("optical.retuned_mrrs", retuned);
        }
      }
      rounds.push_back(pricer.price(priced.rounds[r].serialization, retune));
      duration += rounds.back().duration;
    }
    if (walk_retunes && &pattern == &uncached && !pattern.tunings.empty()) {
      carried_tuning = pattern.tunings.back();
      previous_tuning = &carried_tuning;
    }
    probe.count("optical.reconfig_charges", pricer.charges() - charges_before);

    StepCost& cost = result.step_costs.emplace_back();
    cost.label = step.label;
    cost.start = simulator.now();
    cost.duration = duration;
    cost.rounds = static_cast<std::uint32_t>(priced.rounds.size());
    cost.wavelengths_used = priced.wavelengths_used;
    cost.max_transfer_elements = priced.max_transfer_elements;
    result.total_rounds += cost.rounds;
    result.max_wavelengths_used =
        std::max(result.max_wavelengths_used, cost.wavelengths_used);
    result.longest_lightpath_hops =
        std::max(result.longest_lightpath_hops, priced.longest_hops);

    probe.count("optical.steps");
    probe.count("optical.rounds", cost.rounds);
    if (cost.rounds > 1) probe.count("optical.multi_round_steps");
    probe.count_max("optical.max_wavelengths_used", cost.wavelengths_used);
    if (probe.trace != nullptr) {
      obs::TraceSpan span;
      span.name = step.label.empty() ? "step " + std::to_string(step_index)
                                     : step.label;
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
             std::to_string(priced.rounds[r].serialization.micros())},
            {"wavelengths", std::to_string(priced.rounds[r].wavelengths)}};
        probe.span(round);
        // Counter track: distinct wavelengths carrying traffic this round
        // (holds until the next round's sample).
        std::set<std::uint32_t> lambdas;
        for (const ChannelUse& use : priced.rounds[r].uses) {
          lambdas.insert(use.wavelength);
        }
        probe.counter_sample("wavelengths in use", cursor,
                             static_cast<double>(lambdas.size()));
        cursor += rounds[r].duration;
      }
    }

    const auto step_id = static_cast<std::uint32_t>(step_index);
    emit_step_trace(probe, step_id, step, cost);
    emit_lane_rounds(probe, config_,
                     LaneSlot{step_id, "ring", "", cost.start, std::nullopt},
                     priced, rounds, step.transfers);
    simulator.schedule_in(duration, launch);
  };

  simulator.schedule_in(Seconds(0.0), launch);
  {
    // Host-side phase accounting: the DES drain is where the optical model
    // spends its wall time (step evaluation runs inside launch callbacks).
    const prof::ScopedTimer timer("optical.des.run");
    simulator.run();
  }

  // total_time is a duration, not an end timestamp — a job admitted at
  // start != 0 still reports how long it ran.
  result.total_time = simulator.now() - start;
  result.events_fired = simulator.events_fired();
  result.reconfigurations = pricer.charges();
  result.overlap_hidden = pricer.hidden();
  // Close the counter track so the last round's value does not hold past
  // the end of the run in the viewer.
  if (probe.trace != nullptr && result.total_rounds > 0) {
    probe.counter_sample("wavelengths in use", simulator.now(), 0.0);
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
