// Runtime registry of execution backends, mirroring coll::Registry.
//
// Sweeps and verification tools look backends up by name and construct
// them from the portable BackendConfig, so "price this schedule on every
// registered backend" is table-driven. Concrete modules register their
// factories (optics::register_optical_backends, elec::register_electrical_
// backends); register_builtin_backends() wires up everything this library
// ships. The registry itself is thread-safe: exp::SweepRunner workers
// create backends concurrently.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "wrht/net/backend.hpp"
#include "wrht/net/rate_convention.hpp"
#include "wrht/net/reconfig_policy.hpp"
#include "wrht/net/resource_lease.hpp"

namespace wrht::net {

/// The portable subset of backend configuration a sweep can vary. Factories
/// map these onto their engine's native config (OpticalConfig,
/// ElectricalConfig) and leave everything else at the engine's defaults;
/// callers needing full control construct the concrete backend class
/// directly or register a custom factory closing over a native config.
struct BackendConfig {
  std::uint32_t num_nodes = 0;   ///< required (> 0)
  std::uint32_t wavelengths = 64;
  RateConvention convention = RateConvention::kPaperConvention;
  /// Optical: enforce the per-node MRR budget (benches disable it — the
  /// paper's sweeps "assume there is no constraint of optical
  /// communication", §5.4).
  bool validate_node_capacity = true;
  /// Optical: how the MRR reconfiguration delay is charged — serially on
  /// every round (the paper's Eq. 6 default), only on actual retunes, or
  /// overlapped with the previous round's transmission. Shared with
  /// OpticalConfig (same enum), mirroring the RateConvention unification.
  ReconfigPolicy reconfig_policy = ReconfigPolicy::kEveryRound;
  /// Optical: random-fit RWA instead of first-fit, seeded by rng_seed so
  /// parallel sweeps stay deterministic.
  bool random_fit_rwa = false;
  /// Optical: workers for the batched first-fit RWA over a schedule's
  /// distinct step patterns (0 = WRHT_RWA_THREADS / hardware concurrency).
  /// Byte-identical results at any worker count.
  unsigned rwa_threads = 0;
  std::uint64_t rng_seed = 2023;
  /// Optical torus: grid shape; both 0 picks the most even rows x cols
  /// factorization of num_nodes.
  std::uint32_t torus_rows = 0;
  std::uint32_t torus_cols = 0;
  /// Sample per-resource occupancy during execute() and fill the report's
  /// breakdown/utilization fields (backends whose capabilities() report
  /// reports_utilization). Off by default: unobserved runs stay free.
  bool collect_utilization = false;
  /// Fabric slice this job may touch (multi-tenant runs; see
  /// net/resource_lease.hpp). Optical backends constrain RWA to
  /// [lease.w_lo, lease.w_hi); electrical backends scale every link to
  /// the lease's share of `wavelengths`. The default full lease keeps
  /// every backend byte-identical to pre-lease behaviour.
  ResourceLease lease{};

  BackendConfig& with_lease(ResourceLease v) {
    lease = v;
    return *this;
  }
};

using BackendFactory =
    std::function<std::unique_ptr<Backend>(const BackendConfig&)>;

class BackendRegistry {
 public:
  /// Global registry. Starts empty; call register_builtin_backends() (or a
  /// module's register_* function) before looking anything up.
  static BackendRegistry& instance();

  /// Registers or replaces a factory under `name`.
  void register_backend(const std::string& name, std::string description,
                        BackendFactory factory);

  [[nodiscard]] bool contains(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> names() const;
  /// One-line description recorded at registration ("" for unknown names).
  [[nodiscard]] std::string describe(const std::string& name) const;

  /// Constructs a backend. Throws InvalidArgument for unknown names (the
  /// message lists every registered backend) and for config.num_nodes == 0.
  [[nodiscard]] std::unique_ptr<Backend> create(
      const std::string& name, const BackendConfig& config) const;

 private:
  BackendRegistry() = default;

  struct Entry {
    std::string description;
    BackendFactory factory;
  };

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
};

/// Registers every backend this library ships — "optical-ring",
/// "optical-torus", "electrical-flow", "electrical-packet" and
/// "schedule-only" — in BackendRegistry::instance(). Idempotent and
/// thread-safe; the sweep engine calls it once per process.
void register_builtin_backends();

}  // namespace wrht::net
