// Packet-level electrical network simulation.
//
// A store-and-forward discrete-event model complementing the flow-level
// simulator: transfers are chopped into fixed-size packets (Table 2:
// 72 bytes) that queue FIFO at every directed link, serialize at the link
// rate, and pay the router processing delay at each router. Packet-level
// runs are the ground truth the fluid model approximates; the test suite
// cross-validates the two on small configurations.
//
// Events (one per packet per link) fire in global (time, sequence) order,
// drawn from per-link FIFO streams rather than one event heap: a link
// departs in non-decreasing time, so the arrivals each link schedules are
// already sorted, and a small heap over the busy links' heads merges them.
#pragma once

#include <cstdint>
#include <vector>

#include "wrht/collectives/schedule.hpp"
#include "wrht/common/units.hpp"
#include "wrht/electrical/fat_tree_network.hpp"
#include "wrht/obs/run_report.hpp"
#include "wrht/obs/trace.hpp"
#include "wrht/topo/fat_tree.hpp"

namespace wrht::elec {

struct PacketRunResult {
  Seconds total_time{0.0};
  std::size_t steps = 0;
  std::uint64_t total_packets = 0;
  std::uint64_t events_fired = 0;
  std::vector<Seconds> step_times;

  /// Backend-neutral view (RunReport) of this run.
  [[nodiscard]] RunReport to_report() const;
};

class PacketLevelNetwork {
 public:
  /// Uses the same topology and ElectricalConfig as FatTreeNetwork, so the
  /// two models are directly comparable.
  PacketLevelNetwork(std::uint32_t num_hosts, ElectricalConfig config);

  [[nodiscard]] const topo::FatTree& topology() const { return tree_; }

  /// Executes the schedule with per-step barriers. Packet counts grow with
  /// payload (bytes / packet_size); intended for validation-scale runs.
  [[nodiscard]] PacketRunResult execute(const coll::Schedule& schedule) const;

  /// Observed variant: one trace span per step plus "packet.*" counters.
  [[nodiscard]] PacketRunResult execute(const coll::Schedule& schedule,
                                        const obs::Probe& probe) const;

 private:
  /// `step_start`/`step_index` place this step's occupancy intervals on
  /// the run timeline (the internal event clock restarts at 0 per step).
  /// `transfer_done` (when non-null) receives each transfer's last-packet
  /// arrival time relative to the step start, for blame TransferTraces.
  [[nodiscard]] double simulate_step(const coll::Step& step,
                                     std::uint64_t& packets,
                                     std::uint64_t& events,
                                     const obs::Probe& probe,
                                     LinkResources& links,
                                     double step_start,
                                     std::uint32_t step_index,
                                     std::vector<double>* transfer_done) const;

  topo::FatTree tree_;
  ElectricalConfig config_;
};

}  // namespace wrht::elec
