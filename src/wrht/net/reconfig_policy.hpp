// How the MRR reconfiguration delay is charged, shared by every backend.
//
// The paper's Eq. (6) charges the full 25 us reconfiguration delay serially
// on every communication round. Two refinements from the literature relax
// that: a retune-aware control plane keeps static circuits up and charges
// only rounds whose micro-ring tuning actually changes (quantified by
// bench_ablation_reconfig), and a lookahead control plane overlaps the
// retune for round k+1 with round k's transmission (SWOT, Hammer et al.),
// so only the residual max(0, reconfig - prior transmission) is exposed on
// the critical path (bench_ablation_overlap).
//
// This knob used to be a bool in net::BackendConfig awkwardly mapped onto a
// nested enum in optics::OpticalConfig; like net::RateConvention it is now
// a single shared definition so the two layers cannot drift apart.
// RoundPricer below is the one implementation of the charging rule: both
// optical engines and the closed-form planner price every round through it.
#pragma once

#include <cstdint>
#include <string>

#include "wrht/common/units.hpp"

namespace wrht::net {

enum class ReconfigPolicy {
  /// Every round pays the full reconfiguration delay (the paper's Eq. 6).
  kEveryRound,
  /// Only rounds whose MRR tuning differs from the previous round's pay
  /// (static circuits stay up for free).
  kOnRetune,
  /// Every round retunes, but the retune for round k+1 proceeds during
  /// round k's transmission; only max(0, reconfig - prior transmission)
  /// residual delay is charged. Never slower than kEveryRound.
  kOverlapped,
};

/// Stable lower-case name ("every_round", "on_retune", "overlapped") for
/// CSV columns and CLI flags.
[[nodiscard]] inline std::string to_string(ReconfigPolicy policy) {
  switch (policy) {
    case ReconfigPolicy::kEveryRound:
      return "every_round";
    case ReconfigPolicy::kOnRetune:
      return "on_retune";
    case ReconfigPolicy::kOverlapped:
      return "overlapped";
  }
  return "unknown";
}

/// Prices a sequence of rounds under one policy: each round costs
/// (reconfiguration + t_OEO) + t_ser, where the reconfiguration share is
/// the full delay `a` (kEveryRound), `a` or nothing depending on the
/// round's retune flag (kOnRetune), or the residual max(0, a - window)
/// left after the previous round's O/E/O + serialization (kOverlapped).
/// The pricer carries that window from round to round and keeps running
/// totals of charged rounds and hidden time.
class RoundPricer {
 public:
  struct Round {
    Seconds reconfig{0.0};       ///< reconfiguration charged to the round
    Seconds full_reconfig{0.0};  ///< the full delay `a`
    Seconds duration{0.0};       ///< (reconfig + t_OEO) + t_ser
    bool retune = true;          ///< the flag the round was priced with
  };

  RoundPricer(ReconfigPolicy policy, Seconds reconfig_delay,
              Seconds oeo_delay);

  /// Prices the next round. `retune` says whether some micro-ring changes
  /// state relative to the previous round; only kOnRetune reads it.
  Round price(Seconds serialization, bool retune = true);

  /// Overrides the overlap window the next round's retune can hide in
  /// (zero before the first round). The torus starts every ring of a step
  /// with the previous step's length.
  void set_window(Seconds window) { window_ = window; }

  /// Whether price() reads the retune flag, i.e. whether callers need to
  /// walk the micro-ring tuning from round to round.
  [[nodiscard]] bool retune_aware() const {
    return policy_ == ReconfigPolicy::kOnRetune;
  }

  [[nodiscard]] std::uint64_t rounds() const { return rounds_; }
  /// Rounds that paid a reconfiguration: every round (kEveryRound), the
  /// retuning ones (kOnRetune), those left with a residual (kOverlapped).
  [[nodiscard]] std::uint64_t charges() const { return charges_; }
  /// Reconfiguration time hidden behind earlier transmissions
  /// (kOverlapped only).
  [[nodiscard]] Seconds hidden() const { return hidden_; }
  /// Total reconfiguration time charged so far: rounds x a - hidden under
  /// kOverlapped, charges x a otherwise.
  [[nodiscard]] Seconds charged_reconfig() const;

 private:
  ReconfigPolicy policy_;
  Seconds reconfig_delay_;
  Seconds oeo_delay_;
  Seconds window_{0.0};
  std::uint64_t rounds_ = 0;
  std::uint64_t charges_ = 0;
  Seconds hidden_{0.0};
};

}  // namespace wrht::net
