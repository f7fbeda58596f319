// Pluggable admission policies for the shared-fabric service.
//
// Whenever a wavelength slice frees up (or a job arrives), the service
// asks its policy which queued job to admit next. The policy sees the
// queue in arrival order plus the fabric's widest free contiguous slice
// (so whether a job of a given width fits right now) and an oracle for
// how much weighted fabric time each tenant has consumed. Returning kNone
// blocks admission until the next event.
//
//   * fifo          — strict arrival order; a head job too wide to place
//                     blocks everyone behind it.
//   * priority      — highest Job::priority first (FIFO among equals);
//                     still head-of-line blocking within that order.
//   * backfill      — first job in arrival order that fits; narrow jobs
//                     slip past a blocked wide head.
//   * weighted-fair — among fitting jobs, the one whose tenant has the
//                     least wavelength-seconds per unit weight.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "wrht/svc/job.hpp"

namespace wrht::svc {

enum class PolicyKind { kFifo, kPriority, kBackfill, kWeightedFair };

/// Stable lower-case names ("fifo", "priority", "backfill",
/// "weighted-fair") for CSV columns and CLI flags.
[[nodiscard]] std::string to_string(PolicyKind kind);
/// Inverse of to_string(); throws InvalidArgument for unknown names.
[[nodiscard]] PolicyKind policy_from_string(const std::string& name);
/// Every policy, in enum order (the bake-off bench sweeps this).
[[nodiscard]] std::vector<PolicyKind> all_policies();

/// What a policy may ask the service while selecting.
struct AdmissionContext {
  /// Widest free contiguous slice right now (0 on a fully busy fabric).
  std::uint32_t largest_free = 0;
  /// Can a contiguous slice of `width` wavelengths be allocated now? Exact
  /// for a first-fit contiguous allocator: a slice fits iff some free
  /// interval is at least that wide.
  [[nodiscard]] bool fits(std::uint32_t width) const {
    return width <= largest_free;
  }
  /// Wavelength-seconds granted to `tenant` so far, divided by the
  /// tenant's weight. Monotone within a run.
  std::function<double(std::uint32_t tenant)> weighted_consumption;
};

class AdmissionPolicy {
 public:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  virtual ~AdmissionPolicy();

  [[nodiscard]] virtual PolicyKind kind() const = 0;
  [[nodiscard]] std::string name() const { return to_string(kind()); }

  /// Index into `queue` (arrival order) of the job to admit next, or
  /// kNone to block until the next arrival/completion event.
  [[nodiscard]] virtual std::size_t select(
      const std::vector<const Job*>& queue,
      const AdmissionContext& ctx) const = 0;
};

[[nodiscard]] std::unique_ptr<AdmissionPolicy> make_policy(PolicyKind kind);

}  // namespace wrht::svc
