#include "wrht/electrical/fat_tree_network.hpp"

#include <algorithm>

#include "wrht/common/error.hpp"
#include "wrht/net/backend.hpp"
#include "wrht/net/pattern_key.hpp"
#include "wrht/obs/transfer_log.hpp"

namespace wrht::elec {

namespace {

std::vector<double> link_capacities(const topo::FatTree& tree,
                                    const ElectricalConfig& config) {
  return std::vector<double>(tree.num_links(), config.bytes_per_second());
}

}  // namespace

LinkResources::LinkResources(obs::OccupancySampler* sampler,
                             std::size_t num_links)
    : sampler_(sampler) {
  if (sampler_ != nullptr) refs_.assign(num_links, UINT32_MAX);
}

obs::OccupancySampler::ResourceRef LinkResources::operator[](LinkId link) {
  obs::OccupancySampler::ResourceRef& ref = refs_[link];
  if (ref == UINT32_MAX) {
    ref = sampler_->resource("link" + std::to_string(link));
  }
  return ref;
}

void open_fabric_log(const obs::Probe& probe, const char* backend,
                     const coll::Schedule& schedule) {
  if (probe.transfers == nullptr) return;
  obs::TransferLog::Context context;
  context.backend = backend;
  context.reconfig_policy = "none";
  probe.transfers->set_context(std::move(context));
  probe.transfers->reserve_transfers(schedule.num_transfers());
}

void log_fabric_step(const obs::Probe& probe, std::uint32_t step_index,
                     const coll::Step& step, double start, double duration,
                     double processing, std::span<const double> done) {
  if (probe.transfers == nullptr) return;
  obs::StepTrace step_trace;
  step_trace.step = step_index;
  step_trace.label =
      step.label.empty() ? "step " + std::to_string(step_index) : step.label;
  step_trace.start = Seconds(start);
  step_trace.duration = Seconds(duration);
  probe.transfers->step(std::move(step_trace));

  obs::RoundTrace round;
  round.step = step_index;
  round.lane = "fabric";
  round.round = 0;
  round.start = Seconds(start);
  round.processing = Seconds(processing);
  round.serialization = Seconds(duration - processing);
  round.duration = Seconds(duration);
  round.retune = false;
  const std::uint32_t round_index = probe.transfers->round(std::move(round));

  for (std::size_t i = 0; i < step.transfers.size(); ++i) {
    const coll::Transfer& t = step.transfers[i];
    obs::TransferTrace trace;
    trace.round_index = round_index;
    trace.src = t.src;
    trace.dst = t.dst;
    trace.elements = t.count;
    trace.start = Seconds(start);
    trace.duration = Seconds(done[i]);
    probe.transfers->transfer(trace);
  }
}

FatTreeNetwork::FatTreeNetwork(std::uint32_t num_hosts,
                               ElectricalConfig config)
    : tree_(num_hosts, config.router_ports),
      config_(config),
      flow_sim_(link_capacities(tree_, config_)) {
  require(config.bytes_per_element >= 1,
          "FatTreeNetwork: bytes_per_element must be >= 1");
  require(config.lease.full() || config.lease_fabric_width > 0,
          "FatTreeNetwork: a sliced lease needs lease_fabric_width");
  config.lease.validate(config.lease_fabric_width);
}

FatTreeNetwork::CachedPattern FatTreeNetwork::route_step(
    const coll::Step& step) const {
  CachedPattern pattern;
  pattern.flows.reserve(step.transfers.size());
  pattern.link_load.assign(tree_.num_links(), 0);
  for (const auto& t : step.transfers) {
    const auto route = tree_.route(t.src, t.dst);
    FlowSpec flow;
    flow.links = route.links;
    flow.extra_latency = config_.router_delay.count() * route.routers;
    for (const LinkId l : flow.links) ++pattern.link_load[l];
    pattern.flows.push_back(std::move(flow));
  }
  for (const auto l : pattern.link_load) {
    pattern.max_link_load = std::max(pattern.max_link_load, l);
  }
  return pattern;
}

FatTreeNetwork::StepTiming FatTreeNetwork::evaluate_step(
    CachedPattern& pattern, const coll::Step& step) const {
  std::vector<FlowSpec>& flows = pattern.flows;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    flows[i].bytes =
        static_cast<double>(step.transfers[i].count) * config_.bytes_per_element;
  }
  FlowResult res = flow_sim_.run(flows);
  return StepTiming{res.makespan, res.bottleneck_links,
                    res.rate_recomputations, std::move(res.completion)};
}

std::size_t FatTreeNetwork::CountsHash::operator()(
    const std::vector<std::size_t>& counts) const {
  // Word-wise FNV-1a: the hash only picks a bucket.
  std::uint64_t h = 1469598103934665603ull;
  for (const std::size_t count : counts) {
    h = (h ^ count) * 1099511628211ull;
  }
  return static_cast<std::size_t>(h ^ (h >> 32));
}

ElectricalRunResult FatTreeNetwork::execute(
    const coll::Schedule& schedule) const {
  return execute(schedule, obs::Probe{});
}

ElectricalRunResult FatTreeNetwork::execute(const coll::Schedule& schedule,
                                            const obs::Probe& probe) const {
  require(schedule.num_nodes() <= tree_.num_hosts(),
          "FatTreeNetwork: schedule spans more nodes than hosts");
  schedule.validate();

  ElectricalRunResult result;
  result.steps = schedule.num_steps();
  result.step_times.reserve(schedule.num_steps());

  open_fabric_log(probe, "electrical-flow", schedule);
  LinkResources links(probe.occupancy, tree_.num_links());
  std::vector<double> busy;   // per link: its slowest flow's drain
  std::vector<double> chain;  // per link: its flows' last completion
  double now = 0.0;
  std::size_t step_index = 0;
  for (const auto& step : schedule.steps()) {
    probe.count("electrical.steps");
    if (step.transfers.empty()) {
      result.step_times.emplace_back(0.0);
      ++step_index;
      continue;
    }
    // Direction hints are optical-only; hint-variants of one (src, dst)
    // pattern share a cache entry here.
    net::make_pattern_key(step.transfers, false, key_scratch_);
    auto it = pattern_cache_.find(key_scratch_);
    if (it == pattern_cache_.end()) {
      it = pattern_cache_.emplace(key_scratch_, route_step(step)).first;
    }
    // Fair sharing depends on every count, so the timing is keyed by the
    // step's counts: one count when they are all equal.
    CachedPattern& pattern = it->second;
    const std::size_t first = step.transfers.front().count;
    counts_scratch_.assign(1, first);
    if (!std::all_of(
            step.transfers.begin(), step.transfers.end(),
            [first](const coll::Transfer& t) { return t.count == first; })) {
      counts_scratch_.clear();
      for (const coll::Transfer& t : step.transfers) {
        counts_scratch_.push_back(t.count);
      }
    }
    auto entry = pattern.timings.find(counts_scratch_);
    if (entry == pattern.timings.end()) {
      entry = pattern.timings
                  .emplace(counts_scratch_, evaluate_step(pattern, step))
                  .first;
    }
    const StepTiming& timing = entry->second;
    const std::uint32_t max_link_load = pattern.max_link_load;
    result.total_flows += step.transfers.size();
    result.max_link_load = std::max(result.max_link_load, max_link_load);
    result.step_times.emplace_back(timing.seconds);

    probe.count("electrical.flows", step.transfers.size());
    probe.count("electrical.rate_recomputations", timing.rate_recomputations);
    probe.count("electrical.bottleneck_links", timing.bottleneck_links);
    probe.count_max("electrical.max_link_load", max_link_load);
    if (probe.trace != nullptr) {
      obs::TraceSpan span;
      span.name = step.label.empty() ? "step " + std::to_string(step_index)
                                     : step.label;
      span.category = "flow-step";
      span.start = Seconds(now);
      span.duration = Seconds(timing.seconds);
      span.args = {{"flows", std::to_string(step.transfers.size())},
                   {"max_link_load", std::to_string(max_link_load)},
                   {"bottleneck_links",
                    std::to_string(timing.bottleneck_links)}};
      probe.span(span);
      probe.counter_sample("active flows", Seconds(now),
                           static_cast<double>(step.transfers.size()));
      probe.counter_sample("max link load", Seconds(now),
                           static_cast<double>(max_link_load));
    }
    // Blame timeline: the step's router processing is the bounding
    // flow's; the rest is transmission.
    if (probe.transfers != nullptr) {
      double processing = 0.0;
      double bounding = -1.0;
      for (std::size_t i = 0; i < timing.completion.size(); ++i) {
        if (timing.completion[i] > bounding) {
          bounding = timing.completion[i];
          processing = pattern.flows[i].extra_latency;
        }
      }
      log_fabric_step(probe, static_cast<std::uint32_t>(step_index), step,
                      now, timing.seconds, processing, timing.completion);
    }
    if (probe.occupancy != nullptr) {
      // A link transmits until its slowest flow drains, then its flows are
      // in router processing until their completions.
      busy.assign(tree_.num_links(), 0.0);
      chain.assign(tree_.num_links(), 0.0);
      for (std::size_t i = 0; i < pattern.flows.size(); ++i) {
        const double done = timing.completion[i];
        const double drain = done - pattern.flows[i].extra_latency;
        for (const LinkId l : pattern.flows[i].links) {
          busy[l] = std::max(busy[l], drain);
          chain[l] = std::max(chain[l], done);
        }
      }
      const auto step_id = static_cast<std::uint32_t>(step_index);
      for (LinkId l = 0; l < tree_.num_links(); ++l) {
        if (pattern.link_load[l] == 0) continue;
        const auto ref = links[l];
        probe.occupancy->record(ref, step_id, Seconds(now), Seconds(busy[l]),
                                obs::OccCategory::kTransmission,
                                pattern.link_load[l]);
        probe.occupancy->record(ref, step_id, Seconds(now + busy[l]),
                                Seconds(chain[l] - busy[l]),
                                obs::OccCategory::kProcessing);
        probe.occupancy->record(ref, step_id, Seconds(now + chain[l]),
                                Seconds(timing.seconds - chain[l]),
                                obs::OccCategory::kStragglerWait);
      }
    }
    now += timing.seconds;
    ++step_index;
  }
  result.total_time = Seconds(now);
  if (probe.trace != nullptr && result.total_flows > 0) {
    probe.counter_sample("active flows", result.total_time, 0.0);
    probe.counter_sample("max link load", result.total_time, 0.0);
  }
  return result;
}

RunReport ElectricalRunResult::to_report() const {
  RunReport report;
  report.backend = "electrical-flow";
  report.total_time = total_time;
  report.steps = steps;
  report.rounds = step_times.size();  // one fair-sharing round per step
  report.step_reports = net::uniform_step_reports(step_times);
  return report;
}

}  // namespace wrht::elec
