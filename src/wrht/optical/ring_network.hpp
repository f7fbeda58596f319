// Optical ring interconnect simulator (the paper's "in-house optical
// interconnect system simulator").
//
// Executes a coll::Schedule step by step on a WDM double ring:
//   * every step's transfers are routed and wavelength-assigned (RWA);
//   * a step that needs more wavelengths than the fiber carries is split
//     into sequential conflict-free rounds;
//   * each round costs (reconfiguration + O/E/O conversion) + serialization
//     of its largest transfer (circuit switching: all lightpaths of a round
//     progress concurrently at full lane rate). net::RoundPricer applies
//     the configured net::ReconfigPolicy to the reconfiguration share.
// Steps run back to back in one loop and are read through the
// schedule's step cursor. Steps with the same (src, dst, direction)
// sequence (e.g. the 2(N-1) Ring All-reduce steps) hit a pattern cache so
// large runs stay fast. A cache entry holds the routing facts of one step
// (optics::lane_pattern plus each round's MRR tuning); no transfer count
// enters it, so each step re-derives its round loads from its own counts.
// Observed and unobserved runs share entries and price identically.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "wrht/collectives/schedule.hpp"
#include "wrht/common/rng.hpp"
#include "wrht/common/units.hpp"
#include "wrht/net/pattern_key.hpp"
#include "wrht/net/rate_convention.hpp"
#include "wrht/net/reconfig_policy.hpp"
#include "wrht/net/resource_lease.hpp"
#include "wrht/obs/run_report.hpp"
#include "wrht/obs/trace.hpp"
#include "wrht/optical/lane_rounds.hpp"
#include "wrht/optical/node.hpp"
#include "wrht/optical/rwa.hpp"
#include "wrht/topo/ring.hpp"

namespace wrht::optics {

struct OpticalConfig {
  std::uint32_t wavelengths = 64;          ///< per fiber (Table 2)
  std::uint32_t fibers_per_direction = 1;  ///< wavelength-planning default
  BitsPerSecond wavelength_rate{40e9};     ///< nominal line rate per lambda
  Seconds mrr_reconfig_delay{25e-6};       ///< per communication step
  Seconds oeo_delay{497e-15};              ///< O/E/O conversion per packet
  Bytes packet_size{72};
  std::uint32_t bytes_per_element = 4;     ///< float32 gradients

  /// The Eq. (6) rate convention (see net/rate_convention.hpp); the alias
  /// keeps the historical OpticalConfig::RateConvention spelling working.
  using RateConvention = net::RateConvention;
  RateConvention convention = RateConvention::kPaperConvention;

  RwaPolicy rwa_policy = RwaPolicy::kFirstFit;
  /// Split wavelength-starved steps into sequential rounds instead of
  /// failing; each extra round pays the reconfiguration delay again.
  bool allow_multi_round_steps = true;

  /// Wavelength slice this job may touch (multi-tenant fabrics; see
  /// net/resource_lease.hpp). The default full lease is the historical
  /// exclusive-fabric behaviour, byte-identical to pre-lease runs. RWA is
  /// constrained to [lease.w_lo, lease.w_hi) on every fiber; a leased run
  /// prices exactly like a full run on a lease-width fiber.
  net::ResourceLease lease{};

  /// Workers for the batch RWA pre-pass over a schedule's distinct step
  /// patterns (0 = WRHT_RWA_THREADS / hardware concurrency; see
  /// optics::resolve_rwa_threads). First-fit only — random-fit always runs
  /// sequentially — and byte-identical results at any worker count.
  unsigned rwa_threads = 0;

  /// Per-node MRR hardware; with validate_node_capacity every round's
  /// lightpaths are checked against the transmit/receive MRR capacity per
  /// direction.
  NodeHardware node_hardware{};
  bool validate_node_capacity = true;

  /// How the MRR reconfiguration delay is charged (see
  /// net/reconfig_policy.hpp):
  ///   kEveryRound - every round pays it (the paper's Eq. 6 model);
  ///   kOnRetune   - only rounds whose tuning differs from the previous
  ///                 round's pay it (static circuits stay up for free —
  ///                 quantified by bench_ablation_reconfig);
  ///   kOverlapped - round k+1's retune proceeds during round k's
  ///                 transmission; only the residual delay is charged
  ///                 (bench_ablation_overlap).
  net::ReconfigPolicy reconfig_policy = net::ReconfigPolicy::kEveryRound;

  /// Effective serialization rate in bytes per second.
  [[nodiscard]] double bytes_per_second() const {
    return net::effective_bytes_per_second(wavelength_rate.count(),
                                           convention);
  }

  /// Serialization time of a transfer of `elements` elements.
  [[nodiscard]] Seconds serialization_time(std::size_t elements) const {
    return Seconds(static_cast<double>(elements) * bytes_per_element /
                   bytes_per_second());
  }

  // Fluent builders so call sites can assemble a config in one expression
  // (`OpticalConfig{}.with_wavelengths(8).with_rwa_policy(...)`).
  // Aggregate initialization keeps working — these are plain members.
  OpticalConfig& with_wavelengths(std::uint32_t v) {
    wavelengths = v;
    return *this;
  }
  OpticalConfig& with_fibers_per_direction(std::uint32_t v) {
    fibers_per_direction = v;
    return *this;
  }
  OpticalConfig& with_wavelength_rate(BitsPerSecond v) {
    wavelength_rate = v;
    return *this;
  }
  OpticalConfig& with_mrr_reconfig_delay(Seconds v) {
    mrr_reconfig_delay = v;
    return *this;
  }
  OpticalConfig& with_oeo_delay(Seconds v) {
    oeo_delay = v;
    return *this;
  }
  OpticalConfig& with_packet_size(Bytes v) {
    packet_size = v;
    return *this;
  }
  OpticalConfig& with_bytes_per_element(std::uint32_t v) {
    bytes_per_element = v;
    return *this;
  }
  OpticalConfig& with_convention(RateConvention v) {
    convention = v;
    return *this;
  }
  OpticalConfig& with_rwa_policy(RwaPolicy v) {
    rwa_policy = v;
    return *this;
  }
  OpticalConfig& with_rwa_threads(unsigned v) {
    rwa_threads = v;
    return *this;
  }
  OpticalConfig& with_multi_round_steps(bool v) {
    allow_multi_round_steps = v;
    return *this;
  }
  OpticalConfig& with_lease(net::ResourceLease v) {
    lease = v;
    return *this;
  }

  /// RWA options for this config: the scan window is the leased slice.
  [[nodiscard]] RwaOptions rwa_options() const {
    RwaOptions options;
    options.wavelengths = lease.clamp_hi(wavelengths);
    options.fibers_per_direction = fibers_per_direction;
    options.policy = rwa_policy;
    options.wavelength_lo = lease.full() ? 0 : lease.w_lo;
    return options;
  }
  OpticalConfig& with_node_hardware(NodeHardware v) {
    node_hardware = v;
    return *this;
  }
  OpticalConfig& with_validate_node_capacity(bool v) {
    validate_node_capacity = v;
    return *this;
  }
  OpticalConfig& with_reconfig_policy(net::ReconfigPolicy v) {
    reconfig_policy = v;
    return *this;
  }
};

struct StepCost {
  std::string label;   ///< the schedule step's label
  Seconds start{0.0};  ///< simulation time at which the step began
  Seconds duration{0.0};
  std::uint32_t rounds = 0;
  std::uint32_t wavelengths_used = 0;
  std::size_t max_transfer_elements = 0;
};

struct OpticalRunResult {
  Seconds total_time{0.0};
  std::size_t steps = 0;
  std::uint64_t total_rounds = 0;
  std::uint32_t max_wavelengths_used = 0;
  std::uint32_t longest_lightpath_hops = 0;
  std::uint64_t events_fired = 0;
  /// Rounds that paid the reconfiguration delay (== total_rounds under
  /// kEveryRound accounting).
  std::uint64_t reconfigurations = 0;
  /// Micro-rings retuned across the whole run (kOnRetune accounting only;
  /// 0 otherwise).
  std::uint64_t retuned_mrrs = 0;
  /// Reconfiguration time hidden behind prior transmissions (kOverlapped
  /// accounting only; 0 otherwise). Serial time == total_time +
  /// overlap_hidden whenever every round retunes.
  Seconds overlap_hidden{0.0};
  std::vector<StepCost> step_costs;

  /// Backend-neutral view (RunReport) of this run.
  [[nodiscard]] RunReport to_report() const;
};

class RingNetwork {
 public:
  RingNetwork(std::uint32_t num_nodes, OpticalConfig config);

  [[nodiscard]] const topo::Ring& ring() const { return ring_; }
  [[nodiscard]] const OpticalConfig& config() const { return config_; }

  /// Simulates the schedule; throws InfeasibleSchedule when a transfer
  /// cannot be carried at all (and multi-round splitting is disabled or
  /// cannot help). `rng` is required only for random-fit RWA.
  [[nodiscard]] OpticalRunResult execute(const coll::Schedule& schedule,
                                         Rng* rng = nullptr) const;

  /// Observed variant: emits one trace span per step with child spans per
  /// RWA round, and accumulates "optical.*" counters. An empty probe makes
  /// this identical to the unobserved overload.
  ///
  /// `start` offsets the internal clock: step starts (and trace spans) are
  /// absolute times >= start, while total_time stays the run's duration.
  /// The engine is time-invariant, so a shifted run prices identically —
  /// the offset exists so a long-lived fabric simulation (wrht::svc) can
  /// place a job's timeline at its admission time.
  [[nodiscard]] OpticalRunResult execute(const coll::Schedule& schedule,
                                         const obs::Probe& probe,
                                         Rng* rng = nullptr,
                                         Seconds start = Seconds(0.0)) const;

  /// Cost of one round carrying a largest transfer of `elements` elements:
  /// reconfiguration + O/E/O + serialization (Eq. 6 per-step term).
  [[nodiscard]] Seconds round_time(std::size_t elements) const;

  /// Closed-form Eq. (6) estimate assuming every step fits in one round:
  /// sum over steps of (a + max_payload/B). execute() returns exactly this
  /// whenever no step splits (asserted by the consistency tests).
  [[nodiscard]] Seconds single_round_estimate(
      const coll::Schedule& schedule) const;

 private:
  /// The pattern cache's entry for one step: its routing facts plus each
  /// round's MRR tuning, for the retune walk.
  struct CachedPattern {
    LanePattern lane;
    std::vector<TuningState> tunings;
  };

  /// Builds the cache entry from a step's RWA rounds; runs the MRR
  /// capacity check when validate_node_capacity is set.
  [[nodiscard]] CachedPattern make_pattern(const RoundsResult& rwa) const;

  /// RWA for one step (multi-round or single-round as configured).
  [[nodiscard]] CachedPattern evaluate_step(
      const coll::StepView& view, std::span<const coll::Transfer> transfers,
      Rng* rng) const;

  /// The step's entry: a cache hit, or a fresh evaluation (cached under
  /// first-fit; held in `uncached` otherwise and for empty steps). Keyed
  /// by net::make_route_key; a generated step writes its transfers into
  /// `scratch` only on a miss.
  const CachedPattern& pattern_for(const coll::StepView& view,
                                   std::vector<coll::Transfer>& scratch,
                                   Rng* rng, CachedPattern& uncached) const;

  /// First-fit only: batch-solves the schedule's distinct uncached step
  /// patterns with assign_rounds_batch and fills the pattern cache, so
  /// the step loop runs entirely on cache hits. No-op when the
  /// resolved worker count is 1 (the sequential path already does the
  /// same work lazily) or under random-fit.
  void warm_pattern_cache(const coll::Schedule& schedule) const;

  topo::Ring ring_;
  OpticalConfig config_;
  mutable std::unordered_map<net::PatternKey, CachedPattern,
                             net::PatternKeyHash>
      pattern_cache_;
  mutable net::PatternKey key_scratch_;
};

}  // namespace wrht::optics
