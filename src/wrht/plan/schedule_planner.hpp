// "Reconfigure or not" schedule planner.
//
// WRHT wins by trading bandwidth for rounds: theta = O(log N) steps, each
// serializing the FULL vector and retuning the micro-rings. A reconfig-free
// Ring All-reduce is the opposite corner: 2(N-1) steps of d/N-sized chunks
// over circuits that never change. A flat all-to-all is the "pay once,
// blast everything" corner: two steps whose wavelength demand (~N^2/8)
// splits into many rounds. Which corner wins depends on (message size, N,
// w) AND on how reconfiguration is charged (net::ReconfigPolicy).
//
// plan_allreduce() prices all three candidates with closed-form models —
// modelled rounds fed through the optical engines' own net::RoundPricer,
// O(steps) instead of a simulation — picks the fastest, and builds its
// schedule.
// bench_ablation_overlap sweeps the frontier; test_plan checks the
// predictions against the simulator differentially.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "wrht/collectives/schedule.hpp"
#include "wrht/common/units.hpp"
#include "wrht/net/rate_convention.hpp"
#include "wrht/net/reconfig_policy.hpp"

namespace wrht::plan {

/// The candidate schedules the planner chooses between.
enum class CandidateKind {
  kWrht,          ///< core::wrht_allreduce with the planned group size
  kFlatAllToAll,  ///< flat_alltoall_allreduce (2 steps, many rounds)
  kStaticRing,    ///< coll::ring_allreduce (reconfig-free circuits)
};

/// Stable lower-case name ("wrht", "flat_a2a", "static_ring") for CSV
/// columns and logs.
[[nodiscard]] std::string to_string(CandidateKind kind);

/// The optical cost parameters the closed-form models price against —
/// deliberately the same knobs (and defaults) as optics::OpticalConfig, so
/// a prediction can be checked against a RingNetwork run.
struct PlannerOptions {
  std::uint32_t wavelengths = 64;
  net::ReconfigPolicy policy = net::ReconfigPolicy::kEveryRound;
  Seconds mrr_reconfig_delay{25e-6};
  Seconds oeo_delay{497e-15};
  BitsPerSecond wavelength_rate{40e9};
  net::RateConvention convention = net::RateConvention::kPaperConvention;
  std::uint32_t bytes_per_element = 4;

  [[nodiscard]] double bytes_per_second() const {
    return net::effective_bytes_per_second(wavelength_rate.count(),
                                           convention);
  }

  PlannerOptions& with_wavelengths(std::uint32_t v) {
    wavelengths = v;
    return *this;
  }
  PlannerOptions& with_policy(net::ReconfigPolicy v) {
    policy = v;
    return *this;
  }
  PlannerOptions& with_convention(net::RateConvention v) {
    convention = v;
    return *this;
  }
};

/// One candidate's closed-form prediction.
struct Candidate {
  CandidateKind kind = CandidateKind::kWrht;
  bool feasible = false;
  std::string note;  ///< why infeasible ("" when feasible)
  Seconds predicted_time{0.0};
  std::uint64_t steps = 0;
  std::uint64_t rounds = 0;
  /// Rounds whose reconfiguration delay (or overlap residual) lands on the
  /// critical path under the options' policy.
  std::uint64_t reconfig_charges = 0;
  /// Reconfiguration time hidden behind transmissions (kOverlapped only).
  Seconds overlap_hidden{0.0};
  /// Reconfiguration time on the critical path
  /// (net::RoundPricer::charged_reconfig()).
  Seconds charged_reconfig{0.0};
};

struct PlanResult {
  Candidate chosen;
  /// All candidates in enum order, feasible or not.
  std::vector<Candidate> candidates;
  /// The winning schedule, built and ready to execute.
  coll::Schedule schedule;
};

/// Closed-form prediction for one candidate; `feasible == false` (with a
/// note) when the candidate cannot be built for this configuration.
[[nodiscard]] Candidate predict(CandidateKind kind, std::uint32_t num_nodes,
                                std::size_t elements,
                                const PlannerOptions& options);

/// Builds the candidate's schedule (throws InvalidArgument when predict()
/// would have reported it infeasible).
[[nodiscard]] coll::Schedule build_candidate(CandidateKind kind,
                                             std::uint32_t num_nodes,
                                             std::size_t elements,
                                             const PlannerOptions& options);

/// Prices every candidate, picks the fastest feasible one (ties go to the
/// earlier enum value) and builds its schedule. Throws InvalidArgument when
/// num_nodes < 2 or no candidate is feasible.
[[nodiscard]] PlanResult plan_allreduce(std::uint32_t num_nodes,
                                        std::size_t elements,
                                        const PlannerOptions& options = {});

/// Flat all-to-all All-reduce: one reduce-scatter step in which every node
/// sends chunk j straight to node j, then one all-gather step in which node
/// j returns the reduced chunk j to everyone. Transfers carry the same
/// shortest-direction hints (antipodal ties alternating) as WRHT's final
/// all-to-all exchange, so the per-segment load stays within the
/// ceil(N^2/8) wavelength bound.
[[nodiscard]] coll::Schedule flat_alltoall_allreduce(std::uint32_t num_nodes,
                                                     std::size_t elements);

}  // namespace wrht::plan
