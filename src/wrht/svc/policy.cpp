#include "wrht/svc/policy.hpp"

#include "wrht/common/error.hpp"

namespace wrht::svc {

AdmissionPolicy::~AdmissionPolicy() = default;

std::string to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kFifo:
      return "fifo";
    case PolicyKind::kPriority:
      return "priority";
    case PolicyKind::kBackfill:
      return "backfill";
    case PolicyKind::kWeightedFair:
      return "weighted-fair";
  }
  throw InvalidArgument("unknown PolicyKind");
}

PolicyKind policy_from_string(const std::string& name) {
  for (const PolicyKind kind : all_policies()) {
    if (to_string(kind) == name) return kind;
  }
  throw InvalidArgument("unknown admission policy '" + name +
                        "' (expected fifo, priority, backfill or "
                        "weighted-fair)");
}

std::vector<PolicyKind> all_policies() {
  return {PolicyKind::kFifo, PolicyKind::kPriority, PolicyKind::kBackfill,
          PolicyKind::kWeightedFair};
}

namespace {

class FifoPolicy final : public AdmissionPolicy {
 public:
  [[nodiscard]] PolicyKind kind() const override { return PolicyKind::kFifo; }
  [[nodiscard]] std::size_t select(
      const std::vector<const Job*>& queue,
      const AdmissionContext& ctx) const override {
    if (queue.empty() || !ctx.fits(queue.front()->width)) return kNone;
    return 0;
  }
};

class PriorityPolicy final : public AdmissionPolicy {
 public:
  [[nodiscard]] PolicyKind kind() const override {
    return PolicyKind::kPriority;
  }
  [[nodiscard]] std::size_t select(
      const std::vector<const Job*>& queue,
      const AdmissionContext& ctx) const override {
    if (queue.empty()) return kNone;
    std::size_t best = 0;
    for (std::size_t i = 1; i < queue.size(); ++i) {
      // Strictly greater keeps FIFO order among equal priorities.
      if (queue[i]->priority > queue[best]->priority) best = i;
    }
    // Strict like FIFO: the chosen job blocks until it fits.
    return ctx.fits(queue[best]->width) ? best : kNone;
  }
};

class BackfillPolicy final : public AdmissionPolicy {
 public:
  [[nodiscard]] PolicyKind kind() const override {
    return PolicyKind::kBackfill;
  }
  [[nodiscard]] std::size_t select(
      const std::vector<const Job*>& queue,
      const AdmissionContext& ctx) const override {
    for (std::size_t i = 0; i < queue.size(); ++i) {
      if (ctx.fits(queue[i]->width)) return i;
    }
    return kNone;
  }
};

class WeightedFairPolicy final : public AdmissionPolicy {
 public:
  [[nodiscard]] PolicyKind kind() const override {
    return PolicyKind::kWeightedFair;
  }
  [[nodiscard]] std::size_t select(
      const std::vector<const Job*>& queue,
      const AdmissionContext& ctx) const override {
    std::size_t best = kNone;
    double best_consumed = 0.0;
    for (std::size_t i = 0; i < queue.size(); ++i) {
      if (!ctx.fits(queue[i]->width)) continue;
      const double consumed = ctx.weighted_consumption(queue[i]->tenant);
      // Strictly less keeps FIFO order within a tenant and among tenants
      // at equal consumption.
      if (best == kNone || consumed < best_consumed) {
        best = i;
        best_consumed = consumed;
      }
    }
    return best;
  }
};

}  // namespace

std::unique_ptr<AdmissionPolicy> make_policy(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kFifo:
      return std::make_unique<FifoPolicy>();
    case PolicyKind::kPriority:
      return std::make_unique<PriorityPolicy>();
    case PolicyKind::kBackfill:
      return std::make_unique<BackfillPolicy>();
    case PolicyKind::kWeightedFair:
      return std::make_unique<WeightedFairPolicy>();
  }
  throw InvalidArgument("unknown PolicyKind");
}

}  // namespace wrht::svc
