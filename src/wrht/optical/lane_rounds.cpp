#include "wrht/optical/lane_rounds.hpp"

#include <algorithm>
#include <map>
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

PricedPattern price_pattern(std::span<const coll::Transfer> transfers,
                            const RoundsResult& rwa,
                            const OpticalConfig& config) {
  PricedPattern out;
  out.wavelengths_used = rwa.wavelengths_used;
  out.rounds.reserve(rwa.paths.size());
  for (std::size_t r = 0; r < rwa.paths.size(); ++r) {
    PricedRound round;
    round.routes.reserve(rwa.paths[r].size());
    // Aggregate the round's lightpaths per WDM channel: spatial reuse puts
    // several paths on one (direction, fiber, wavelength) over disjoint
    // segments, and occupancy accounting needs the channel, not the path.
    // std::map keys keep the resulting use list deterministically ordered.
    std::map<std::tuple<std::uint8_t, std::uint32_t, std::uint32_t>,
             ChannelUse>
        uses;
    for (std::size_t j = 0; j < rwa.paths[r].size(); ++j) {
      const Lightpath& path = rwa.paths[r][j];
      const std::size_t index = rwa.rounds[r][j];
      const std::size_t count = transfers[index].count;
      round.max_elements = std::max(round.max_elements, count);
      round.wavelengths = std::max(round.wavelengths, path.wavelength + 1);
      out.longest_hops = std::max(out.longest_hops, path.hops);
      const std::uint8_t dir = direction_bit(path.direction);
      ChannelUse& use = uses[{dir, path.fiber, path.wavelength}];
      use.direction = dir;
      use.fiber = path.fiber;
      use.wavelength = path.wavelength;
      use.serialization =
          std::max(use.serialization, config.serialization_time(count));
      ++use.concurrency;
      round.routes.push_back(TransferRoute{static_cast<std::uint32_t>(index),
                                           dir, path.wavelength});
    }
    round.uses.reserve(uses.size());
    for (const auto& [key, use] : uses) round.uses.push_back(use);
    round.serialization = config.serialization_time(round.max_elements);
    out.max_transfer_elements =
        std::max(out.max_transfer_elements, round.max_elements);
    out.rounds.push_back(std::move(round));
  }
  return out;
}

void emit_lane_rounds(const obs::Probe& probe, const OpticalConfig& config,
                      const LaneSlot& slot, const PricedPattern& pattern,
                      std::span<const net::RoundPricer::Round> rounds,
                      std::span<const coll::Transfer> transfers) {
  obs::OccupancySampler* occupancy = probe.occupancy;
  obs::TransferLog* log = probe.transfers;
  if (occupancy == nullptr && log == nullptr) return;

  // Channels this lane touched, for the wait until the step's end.
  std::vector<obs::OccupancySampler::ResourceRef> used;
  Seconds cursor = slot.start;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const PricedRound& priced = pattern.rounds[r];
    const net::RoundPricer::Round& round = rounds[r];
    const Seconds round_end = cursor + round.duration;
    if (occupancy != nullptr) {
      // Only the charged reconfiguration lands here: under kOverlapped the
      // hidden portion happened during the previous round's (or step's)
      // transmissions and never occupies this round's interval.
      for (const ChannelUse& use : priced.uses) {
        const auto ref = occupancy->resource(channel_name(
            slot.channel_prefix, use, config.fibers_per_direction));
        Seconds at = cursor;
        occupancy->record(ref, slot.step, at, round.reconfig,
                          obs::OccCategory::kReconfiguration);
        at += round.reconfig;
        occupancy->record(ref, slot.step, at, config.oeo_delay,
                          obs::OccCategory::kConversion);
        at += config.oeo_delay;
        occupancy->record(ref, slot.step, at, use.serialization,
                          obs::OccCategory::kTransmission, use.concurrency);
        at += use.serialization;
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
      trace.serialization = priced.serialization;
      trace.duration = round.duration;
      trace.retune = round.retune;
      log->round(std::move(trace));

      const Seconds payload_start = cursor + round.reconfig + config.oeo_delay;
      for (const TransferRoute& route : priced.routes) {
        const coll::Transfer& t = transfers[route.index];
        obs::TransferTrace transfer;
        transfer.step = slot.step;
        transfer.lane = slot.name;
        transfer.round = static_cast<std::uint32_t>(r);
        transfer.src = t.src;
        transfer.dst = t.dst;
        transfer.elements = t.count;
        transfer.wavelength = route.wavelength;
        transfer.direction = route.direction;
        transfer.start = payload_start;
        transfer.duration = config.serialization_time(t.count);
        log->transfer(std::move(transfer));
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
                       const OpticalConfig& config) {
  if (probe.transfers == nullptr) return;
  obs::TransferLog::Context context;
  context.backend = backend;
  context.reconfig_policy = net::to_string(config.reconfig_policy);
  context.mrr_reconfig_delay = config.mrr_reconfig_delay;
  context.oeo_delay = config.oeo_delay;
  probe.transfers->set_context(std::move(context));
}

void emit_step_trace(const obs::Probe& probe, std::uint32_t step_index,
                     const coll::Step& step, const StepCost& cost) {
  if (probe.transfers == nullptr || step.transfers.empty()) return;
  obs::StepTrace trace;
  trace.step = step_index;
  trace.label =
      step.label.empty() ? "step " + std::to_string(step_index) : step.label;
  trace.start = cost.start;
  trace.duration = cost.duration;
  probe.transfers->step(std::move(trace));
}

}  // namespace wrht::optics
