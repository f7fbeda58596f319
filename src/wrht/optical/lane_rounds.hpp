// Per-lane round path shared by the optical engines.
//
// A lane is one WDM ring progressing through its RWA rounds within a step:
// the double ring is one lane, the torus one per participating row or
// column ring. Both engines turn a lane's RWA output into the same routing
// facts (lane_pattern) and count facts (round_loads), price its rounds
// through net::RoundPricer, and write the same occupancy and TransferLog
// records (emit_lane_rounds). Only the Chrome trace spans stay
// engine-specific.
//
// The split follows what each fact depends on. A LanePattern depends only
// on the lane's (src, dst, direction) sequence, so the ring engine caches
// it per structure; RoundLoads depend on the transfer counts and are
// re-derived for every step.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "wrht/collectives/schedule.hpp"
#include "wrht/common/units.hpp"
#include "wrht/net/reconfig_policy.hpp"
#include "wrht/obs/trace.hpp"
#include "wrht/optical/rwa.hpp"

namespace wrht::optics {

struct OpticalConfig;
struct StepCost;

/// One (direction, fiber, wavelength) channel's use within a round,
/// aggregated over the lightpaths sharing it on disjoint ring segments.
struct ChannelUse {
  std::uint8_t direction = 0;  ///< 0 = clockwise, 1 = counter-clockwise
  std::uint32_t fiber = 0;
  std::uint32_t wavelength = 0;
  std::uint32_t concurrency = 0;  ///< lightpaths sharing the channel
};

/// One transfer's routing assignment within a round. `index` points into
/// the transfer list the lane's records report (the step's transfers).
struct TransferRoute {
  std::uint32_t index = 0;
  std::uint8_t direction = 0;
  std::uint32_t wavelength = 0;
  std::uint32_t use = 0;  ///< its channel in the round's `uses`
};

struct LaneRound {
  std::uint32_t wavelengths = 0;  ///< wavelength high-water mark
  /// Distinct wavelengths carrying traffic, over every direction and fiber.
  std::uint32_t distinct_wavelengths = 0;
  /// Channel uses, sorted by (direction, fiber, wavelength).
  std::vector<ChannelUse> uses;
  std::vector<TransferRoute> routes;  ///< one per lightpath, in RWA order
};

/// The routing facts of one lane's RWA rounds; no transfer count enters.
struct LanePattern {
  std::uint32_t wavelengths_used = 0;
  std::uint32_t longest_hops = 0;
  std::vector<LaneRound> rounds;
};

/// The count facts of one round: its largest transfer and that
/// transfer's serialization time.
struct RoundLoad {
  std::size_t max_elements = 0;
  Seconds serialization{0.0};
};

/// Aggregates `rwa` per round. Route indices are RWA transfer indices.
[[nodiscard]] LanePattern lane_pattern(const RoundsResult& rwa);

/// The RoundLoad of one round carrying `max_elements` at most.
[[nodiscard]] RoundLoad round_load(std::size_t max_elements,
                                   const OpticalConfig& config);

/// One RoundLoad per round of `pattern`, in one pass over the counts of
/// `transfers` (what the route indices point into).
void round_loads(const LanePattern& pattern,
                 std::span<const coll::Transfer> transfers,
                 const OpticalConfig& config, std::vector<RoundLoad>& out);

/// Where one lane's rounds sit in a run.
struct LaneSlot {
  std::uint32_t step = 0;
  std::string_view name;            ///< TransferLog lane: "ring", "row3"
  std::string_view channel_prefix;  ///< occupancy channel prefix: "", "row3"
  Seconds start{0.0};               ///< the step's start
  /// The step's end when several lanes run in parallel: the channels of a
  /// lane that finishes early wait in straggler until then. None on a
  /// single-lane engine.
  std::optional<Seconds> step_end;
};

/// Writes one lane's records to the probe's occupancy sampler and
/// TransferLog (each when attached). Per round and channel: charged
/// reconfiguration, O/E/O conversion, transmission (until the channel's
/// slowest lightpath finishes), then straggler wait until the round ends;
/// per round one RoundTrace and one TransferTrace per route. `loads` and
/// `rounds` hold the round loads and priced rounds, parallel to
/// `pattern.rounds`; route indices point into `transfers`.
void emit_lane_rounds(const obs::Probe& probe, const OpticalConfig& config,
                      const LaneSlot& slot, const LanePattern& pattern,
                      std::span<const RoundLoad> loads,
                      std::span<const net::RoundPricer::Round> rounds,
                      std::span<const coll::Transfer> transfers);

/// Stamps the TransferLog (when attached) with the run's provenance and
/// reserves room for one TransferTrace per transfer of `schedule`.
void open_transfer_log(const obs::Probe& probe, const char* backend,
                       const OpticalConfig& config,
                       const coll::Schedule& schedule);

/// One StepTrace (when a TransferLog is attached) for a step whose cost
/// is `cost`; empty steps get none.
void emit_step_trace(const obs::Probe& probe, std::uint32_t step_index,
                     bool empty, const StepCost& cost);

}  // namespace wrht::optics
