#include "wrht/optical/lane_rounds.hpp"

#include <algorithm>
#include <string>
#include <tuple>

#include "wrht/obs/occupancy.hpp"
#include "wrht/obs/transfer_log.hpp"
#include "wrht/optical/ring_network.hpp"

namespace wrht::optics {

namespace {

std::uint8_t direction_bit(topo::Direction direction) {
  return direction == topo::Direction::kClockwise ? 0 : 1;
}

/// Occupancy resource name for one WDM channel ("cw/w3", "row3/ccw/w0");
/// the fiber index only appears in multi-fiber configurations to keep the
/// common case short.
std::string channel_name(std::string_view prefix, const ChannelUse& use,
                         std::uint32_t num_fibers) {
  std::string name(prefix);
  if (!name.empty()) name += '/';
  name += use.direction == 0 ? "cw" : "ccw";
  if (num_fibers > 1) name += "/f" + std::to_string(use.fiber);
  name += "/w" + std::to_string(use.wavelength);
  return name;
}

}  // namespace

LanePattern lane_pattern(const RoundsResult& rwa) {
  LanePattern out;
  out.wavelengths_used = rwa.wavelengths_used;
  out.rounds.reserve(rwa.paths.size());
  using ChannelKey = std::tuple<std::uint8_t, std::uint32_t, std::uint32_t>;
  std::vector<ChannelKey> route_keys;
  std::vector<ChannelKey> channels;
  std::vector<std::uint32_t> lambdas;
  for (std::size_t r = 0; r < rwa.paths.size(); ++r) {
    LaneRound round;
    round.routes.reserve(rwa.paths[r].size());
    // Aggregate the round's lightpaths per WDM channel: spatial reuse puts
    // several paths on one (direction, fiber, wavelength) over disjoint
    // segments, and occupancy accounting needs the channel, not the path.
    // The sorted, deduplicated keys give the use list its order.
    route_keys.clear();
    for (std::size_t j = 0; j < rwa.paths[r].size(); ++j) {
      const Lightpath& path = rwa.paths[r][j];
      round.wavelengths = std::max(round.wavelengths, path.wavelength + 1);
      out.longest_hops = std::max(out.longest_hops, path.hops);
      const std::uint8_t dir = direction_bit(path.direction);
      route_keys.emplace_back(dir, path.fiber, path.wavelength);
      round.routes.push_back(
          TransferRoute{static_cast<std::uint32_t>(rwa.rounds[r][j]), dir,
                        path.wavelength, 0});
    }
    channels = route_keys;
    std::sort(channels.begin(), channels.end());
    channels.erase(std::unique(channels.begin(), channels.end()),
                   channels.end());
    round.uses.reserve(channels.size());
    lambdas.clear();
    for (const auto& [dir, fiber, wavelength] : channels) {
      round.uses.push_back(ChannelUse{dir, fiber, wavelength, 0});
      lambdas.push_back(wavelength);
    }
    for (std::size_t j = 0; j < round.routes.size(); ++j) {
      const auto use = static_cast<std::uint32_t>(
          std::lower_bound(channels.begin(), channels.end(), route_keys[j]) -
          channels.begin());
      round.routes[j].use = use;
      ++round.uses[use].concurrency;
    }
    std::sort(lambdas.begin(), lambdas.end());
    round.distinct_wavelengths = static_cast<std::uint32_t>(
        std::unique(lambdas.begin(), lambdas.end()) - lambdas.begin());
    out.rounds.push_back(std::move(round));
  }
  return out;
}

RoundLoad round_load(std::size_t max_elements, const OpticalConfig& config) {
  return RoundLoad{max_elements, config.serialization_time(max_elements)};
}

void round_loads(const LanePattern& pattern,
                 std::span<const coll::Transfer> transfers,
                 const OpticalConfig& config, std::vector<RoundLoad>& out) {
  out.clear();
  for (const LaneRound& round : pattern.rounds) {
    std::size_t max_elements = 0;
    for (const TransferRoute& route : round.routes) {
      max_elements = std::max(max_elements, transfers[route.index].count);
    }
    out.push_back(round_load(max_elements, config));
  }
}

void emit_lane_rounds(const obs::Probe& probe, const OpticalConfig& config,
                      const LaneSlot& slot, const LanePattern& pattern,
                      std::span<const RoundLoad> loads,
                      std::span<const net::RoundPricer::Round> rounds,
                      std::span<const coll::Transfer> transfers) {
  obs::OccupancySampler* occupancy = probe.occupancy;
  obs::TransferLog* log = probe.transfers;
  if (occupancy == nullptr && log == nullptr) return;

  // Channels this lane touched, for the wait until the step's end.
  std::vector<obs::OccupancySampler::ResourceRef> used;
  // Per channel of a round: its largest transfer.
  std::vector<std::size_t> use_elements;
  Seconds cursor = slot.start;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const LaneRound& priced = pattern.rounds[r];
    const net::RoundPricer::Round& round = rounds[r];
    const Seconds round_end = cursor + round.duration;
    if (occupancy != nullptr) {
      use_elements.assign(priced.uses.size(), 0);
      for (const TransferRoute& route : priced.routes) {
        use_elements[route.use] =
            std::max(use_elements[route.use], transfers[route.index].count);
      }
      // Only the charged reconfiguration lands here: under kOverlapped the
      // hidden portion happened during the previous round's (or step's)
      // transmissions and never occupies this round's interval.
      for (std::size_t u = 0; u < priced.uses.size(); ++u) {
        const ChannelUse& use = priced.uses[u];
        const Seconds serialization =
            config.serialization_time(use_elements[u]);
        const auto ref = occupancy->resource(channel_name(
            slot.channel_prefix, use, config.fibers_per_direction));
        Seconds at = cursor;
        occupancy->record(ref, slot.step, at, round.reconfig,
                          obs::OccCategory::kReconfiguration);
        at += round.reconfig;
        occupancy->record(ref, slot.step, at, config.oeo_delay,
                          obs::OccCategory::kConversion);
        at += config.oeo_delay;
        occupancy->record(ref, slot.step, at, serialization,
                          obs::OccCategory::kTransmission, use.concurrency);
        at += serialization;
        occupancy->record(ref, slot.step, at, round_end - at,
                          obs::OccCategory::kStragglerWait);
        if (slot.step_end &&
            std::find(used.begin(), used.end(), ref) == used.end()) {
          used.push_back(ref);
        }
      }
    }
    if (log != nullptr) {
      obs::RoundTrace trace;
      trace.step = slot.step;
      trace.lane = slot.name;
      trace.round = static_cast<std::uint32_t>(r);
      trace.start = cursor;
      trace.reconfig = round.reconfig;
      trace.full_reconfig = round.full_reconfig;
      trace.conversion = config.oeo_delay;
      trace.serialization = loads[r].serialization;
      trace.duration = round.duration;
      trace.retune = round.retune;
      const std::uint32_t round_index = log->round(std::move(trace));

      const Seconds payload_start = cursor + round.reconfig + config.oeo_delay;
      for (const TransferRoute& route : priced.routes) {
        const coll::Transfer& t = transfers[route.index];
        obs::TransferTrace transfer;
        transfer.round_index = round_index;
        transfer.src = t.src;
        transfer.dst = t.dst;
        transfer.elements = t.count;
        transfer.wavelength = route.wavelength;
        transfer.direction = route.direction;
        transfer.start = payload_start;
        transfer.duration = config.serialization_time(t.count);
        log->transfer(transfer);
      }
    }
    cursor = round_end;
  }
  for (const auto ref : used) {
    occupancy->record(ref, slot.step, cursor, *slot.step_end - cursor,
                      obs::OccCategory::kStragglerWait);
  }
}

void open_transfer_log(const obs::Probe& probe, const char* backend,
                       const OpticalConfig& config,
                       const coll::Schedule& schedule) {
  if (probe.transfers == nullptr) return;
  probe.transfers->reserve_transfers(schedule.num_transfers());
  obs::TransferLog::Context context;
  context.backend = backend;
  context.reconfig_policy = net::to_string(config.reconfig_policy);
  context.mrr_reconfig_delay = config.mrr_reconfig_delay;
  context.oeo_delay = config.oeo_delay;
  probe.transfers->set_context(std::move(context));
}

void emit_step_trace(const obs::Probe& probe, std::uint32_t step_index,
                     bool empty, const StepCost& cost) {
  if (probe.transfers == nullptr || empty) return;
  obs::StepTrace trace;
  trace.step = step_index;
  trace.label =
      cost.label.empty() ? "step " + std::to_string(step_index) : cost.label;
  trace.start = cost.start;
  trace.duration = cost.duration;
  probe.transfers->step(std::move(trace));
}

}  // namespace wrht::optics
