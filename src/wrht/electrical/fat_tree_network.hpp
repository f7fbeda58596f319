// Electrical fat-tree interconnect simulator (the paper's SimGrid baseline).
//
// Executes a coll::Schedule with barrier semantics: all transfers of a step
// become simultaneous flows routed host-edge(-core-edge)-host; the step
// lasts until the slowest flow drains under max-min fair sharing, plus the
// per-router store-and-forward delay (Table 2: 40 Gb/s links, 25 us router
// delay, 32-port routers, shortest-path routing). Steps with the same
// (src, dst) sequence and the same counts hit a pattern cache.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "wrht/collectives/schedule.hpp"
#include "wrht/common/units.hpp"
#include "wrht/electrical/flow_sim.hpp"
#include "wrht/net/pattern_key.hpp"
#include "wrht/net/rate_convention.hpp"
#include "wrht/net/resource_lease.hpp"
#include "wrht/obs/occupancy.hpp"
#include "wrht/obs/run_report.hpp"
#include "wrht/obs/trace.hpp"
#include "wrht/topo/fat_tree.hpp"

namespace wrht::elec {

struct ElectricalConfig {
  BitsPerSecond link_rate{40e9};   ///< per directed link
  Seconds router_delay{25e-6};     ///< per traversed router
  Bytes packet_size{72};
  std::uint32_t bytes_per_element = 4;
  std::uint32_t router_ports = 32;

  /// The same net::RateConvention knob as optics::OpticalConfig — the
  /// paper's numerics drain d bytes against B = 40e9; keep both simulators
  /// on the same convention for a fair optical/electrical comparison.
  net::RateConvention convention = net::RateConvention::kPaperConvention;

  /// Multi-tenant link share (see net/resource_lease.hpp): the fabric has
  /// no wavelength notion, so a lease of k wavelengths out of a
  /// `lease_fabric_width`-wide fabric grants this job k/width of every
  /// link's bandwidth — the fair share a wavelength-proportional slicer
  /// converges to. The default full lease (or width 0) leaves every link
  /// at full rate, byte-identical to pre-lease runs.
  net::ResourceLease lease{};
  std::uint32_t lease_fabric_width = 0;

  [[nodiscard]] double bytes_per_second() const {
    return net::effective_bytes_per_second(link_rate.count(), convention) *
           lease.share(lease_fabric_width);
  }

  // Fluent builders mirroring optics::OpticalConfig; aggregate
  // initialization keeps working.
  ElectricalConfig& with_link_rate(BitsPerSecond v) {
    link_rate = v;
    return *this;
  }
  ElectricalConfig& with_router_delay(Seconds v) {
    router_delay = v;
    return *this;
  }
  ElectricalConfig& with_router_ports(std::uint32_t v) {
    router_ports = v;
    return *this;
  }
  ElectricalConfig& with_convention(net::RateConvention v) {
    convention = v;
    return *this;
  }
  ElectricalConfig& with_lease(net::ResourceLease v,
                               std::uint32_t fabric_width) {
    lease = v;
    lease_fabric_width = fabric_width;
    return *this;
  }
};

/// Occupancy handles of the fabric's directed links ("link<id>"), resolved
/// on first use so resources register in the order a run touches them.
class LinkResources {
 public:
  /// Resolves nothing while `sampler` is null.
  LinkResources(obs::OccupancySampler* sampler, std::size_t num_links);

  [[nodiscard]] obs::OccupancySampler::ResourceRef operator[](LinkId link);

 private:
  obs::OccupancySampler* sampler_;
  std::vector<obs::OccupancySampler::ResourceRef> refs_;
};

/// Stamps the TransferLog (when attached) with an electrical run's
/// provenance and reserves one TransferTrace per schedule transfer.
void open_fabric_log(const obs::Probe& probe, const char* backend,
                     const coll::Schedule& schedule);

/// Logs a non-empty step (when a TransferLog is attached) as one round on
/// a single "fabric" lane. With no reconfigurable optics the round never
/// retunes and splits into `processing` (the bounding flow's router
/// delay) and transmission. `done` holds each transfer's completion
/// relative to `start`, in transfer order.
void log_fabric_step(const obs::Probe& probe, std::uint32_t step_index,
                     const coll::Step& step, double start, double duration,
                     double processing, std::span<const double> done);

struct ElectricalRunResult {
  Seconds total_time{0.0};
  std::size_t steps = 0;
  std::uint64_t total_flows = 0;
  /// Largest number of concurrent flows sharing one link in any step.
  std::uint32_t max_link_load = 0;
  std::vector<Seconds> step_times;

  /// Backend-neutral view (RunReport) of this run.
  [[nodiscard]] RunReport to_report() const;
};

class FatTreeNetwork {
 public:
  FatTreeNetwork(std::uint32_t num_hosts, ElectricalConfig config);

  [[nodiscard]] const topo::FatTree& topology() const { return tree_; }
  [[nodiscard]] const ElectricalConfig& config() const { return config_; }

  [[nodiscard]] ElectricalRunResult execute(
      const coll::Schedule& schedule) const;

  /// Observed variant: one trace span per step plus "electrical.*"
  /// counters (flows, link load, fair-share bottlenecks, recomputations).
  [[nodiscard]] ElectricalRunResult execute(const coll::Schedule& schedule,
                                            const obs::Probe& probe) const;

 private:
  /// A step's fair-sharing result.
  struct StepTiming {
    double seconds = 0.0;
    std::uint32_t bottleneck_links = 0;
    std::uint64_t rate_recomputations = 0;
    /// Per-flow completion (drain + router latency), transfer order, for
    /// blame TransferTraces and per-link occupancy.
    std::vector<double> completion;
  };

  struct CountsHash {
    [[nodiscard]] std::size_t operator()(
        const std::vector<std::size_t>& counts) const;
  };

  /// The pattern cache's entry for one (src, dst) sequence: every flow's
  /// route and each link's load, plus the timing of every count vector
  /// run on it. A vector whose counts are all equal is keyed by that one
  /// count (the pattern fixes the transfer count, so this is exact).
  struct CachedPattern {
    /// One flow per transfer; `bytes` is rewritten for each evaluation.
    std::vector<FlowSpec> flows;
    std::vector<std::uint32_t> link_load;  ///< flows per link
    std::uint32_t max_link_load = 0;
    std::unordered_map<std::vector<std::size_t>, StepTiming, CountsHash>
        timings;
  };
  [[nodiscard]] CachedPattern route_step(const coll::Step& step) const;
  /// Fair-shares `pattern`'s flows carrying `step`'s counts.
  [[nodiscard]] StepTiming evaluate_step(CachedPattern& pattern,
                                         const coll::Step& step) const;

  topo::FatTree tree_;
  ElectricalConfig config_;
  FlowLevelSimulator flow_sim_;
  /// Entries by exact (src, dst) sequence.
  mutable std::unordered_map<net::PatternKey, CachedPattern,
                             net::PatternKeyHash>
      pattern_cache_;
  mutable net::PatternKey key_scratch_;
  mutable std::vector<std::size_t> counts_scratch_;
};

}  // namespace wrht::elec
