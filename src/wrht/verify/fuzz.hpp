// Differential fuzzing over the collective registry.
//
// Draws random (algorithm, N, elements, m, w, reconfig-policy,
// wavelength-lease) configurations from a seeded Rng, builds the schedule
// through
// coll::Registry — or through plan::build_candidate for the planner
// pseudo-algorithms "plan:wrht" / "plan:flat_a2a" / "plan:static_ring" —
// and subjects it to every applicable oracle: the data-level correctness
// proof, the structural and RWA invariants, the WRHT-specific
// hierarchy/step/wavelength checks, the simulator-vs-Eq.(6) differential,
// (for non-default policies) the reconfiguration-accounting monotonicity
// and overlap-consistency checks, and (for leased draws) the
// slice-equivalence invariant — a run confined to [w_lo, w_hi) of a
// shared fabric prices exactly like a full run on a dedicated
// (w_hi - w_lo)-wavelength one — and the pattern-cache exactness check:
// the schedule and two random count placements of it run back to back on
// one optical-ring and one electrical-flow backend, and each must price
// exactly as on a fresh backend. Failures are collected
// (never thrown) and the first failing configuration is greedily shrunk
// toward a minimal reproducer so the report names the smallest broken
// case, not a 96-node haystack.
//
// Everything is deterministic in the seed: the same FuzzOptions always
// explores the same configurations in the same order. Shrunk reproducers
// serialize to one-line strings (FuzzCase::serialize/parse) so they can be
// checked into tests/corpus/fuzz_regressions.txt and replayed in tier-1.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "wrht/net/reconfig_policy.hpp"
#include "wrht/verify/report.hpp"

namespace wrht::verify {

struct FuzzOptions {
  std::uint64_t seed = 0xf1ed'f055'0001ull;
  std::size_t iterations = 500;
  std::uint32_t max_nodes = 96;
  std::size_t max_elements = 512;
  /// Algorithms to draw from; empty means every registered algorithm
  /// (WRHT is registered before sampling) plus — see below — the planner
  /// pseudo-algorithms.
  std::vector<std::string> algorithms;
  /// Mix the planner candidates ("plan:wrht", "plan:flat_a2a",
  /// "plan:static_ring", built via plan::build_candidate and cross-checked
  /// against plan::predict feasibility) into an empty `algorithms` draw.
  bool draw_planner_candidates = true;
  /// Draw a net::ReconfigPolicy per case instead of pinning kEveryRound.
  bool draw_reconfig_policy = true;
  /// Draw leased wavelength slices (about a third of cases): the run is
  /// confined to [w_lo, w_hi) of a w_hi-wavelength fabric and must price
  /// identically to a full run on a (w_hi - w_lo)-wavelength fabric.
  bool draw_leases = true;
  /// Greedily shrink the first failure toward a minimal reproducer.
  bool shrink = true;
};

/// One sampled configuration.
struct FuzzCase {
  /// coll::Registry name, or a "plan:<candidate>" pseudo-algorithm.
  std::string algorithm;
  std::uint32_t num_nodes = 2;
  std::size_t elements = 1;
  std::uint32_t group_size = 2;
  std::uint32_t wavelengths = 64;
  /// Reconfiguration accounting the pricing checks run under. The Eq. (6)
  /// differential always prices kEveryRound (its analytical side assumes
  /// it); non-default policies add monotonicity and, for kOverlapped, the
  /// overlap-consistency invariants on top.
  net::ReconfigPolicy reconfig_policy = net::ReconfigPolicy::kEveryRound;
  /// Leased wavelength slice [w_lo, w_hi) on a w_hi-wavelength fabric;
  /// w_lo == w_hi == 0 (the ResourceLease sentinel) means no lease draw.
  /// When set, check_case adds the slice-equivalence invariant: the leased
  /// run must match a full-fabric run on a (w_hi - w_lo)-wavelength fiber
  /// exactly (time, steps, rounds; wavelengths_used offset by w_lo).
  std::uint32_t w_lo = 0;
  std::uint32_t w_hi = 0;

  [[nodiscard]] bool leased() const { return w_lo != 0 || w_hi != 0; }

  [[nodiscard]] std::string to_string() const;

  /// One-line corpus form: "algorithm N elements m w policy" for unleased
  /// cases, with " w_lo w_hi" appended for leased ones. Round-trips
  /// through parse(); used by tests/corpus/fuzz_regressions.txt.
  [[nodiscard]] std::string serialize() const;
  /// Parses serialize() output (leading/trailing spaces tolerated). Throws
  /// InvalidArgument on malformed lines.
  static FuzzCase parse(const std::string& line);
};

struct FuzzFailure {
  FuzzCase config;
  CheckResult result;
};

struct FuzzReport {
  std::size_t iterations_run = 0;
  std::map<std::string, std::size_t> cases_per_algorithm;
  std::vector<FuzzFailure> failures;
  /// The first failure shrunk to the smallest configuration that still
  /// fails (present only when shrinking was enabled and something failed).
  std::optional<FuzzFailure> minimal_failure;

  [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// Runs every applicable checker against one configuration.
[[nodiscard]] CheckResult check_case(const FuzzCase& c);

/// Samples and checks `options.iterations` configurations.
[[nodiscard]] FuzzReport run_fuzz(const FuzzOptions& options = {});

}  // namespace wrht::verify
