#include "wrht/electrical/flow_sim.hpp"

#include <algorithm>
#include <limits>

#include "wrht/common/error.hpp"

namespace wrht::elec {

FlowLevelSimulator::FlowLevelSimulator(std::vector<double> link_capacity)
    : capacity_(std::move(link_capacity)) {
  for (const double c : capacity_) {
    require(c > 0.0, "FlowLevelSimulator: link capacity must be positive");
  }
}

namespace {

/// Working state of fill_rates, kept across one run's recomputations so
/// each one allocates nothing and visits only the links active flows load.
/// `load` is zero outside a fill_rates call.
struct FillScratch {
  explicit FillScratch(std::size_t num_links)
      : cap_left(num_links), load(num_links, 0) {}
  std::vector<double> rates;
  std::vector<double> cap_left;
  std::vector<std::uint32_t> load;
  std::vector<std::uint8_t> fixed;
  std::vector<LinkId> loaded;  // links with load > 0 at the start
};

/// Progressive filling over the subset of flows marked active.
/// scratch.rates[i] is written for every active flow i (0 otherwise).
void fill_rates(const std::vector<double>& capacity,
                const std::vector<FlowSpec>& flows,
                const std::vector<std::uint8_t>& active,
                FillScratch& scratch) {
  std::vector<double>& rates = scratch.rates;
  std::vector<double>& cap_left = scratch.cap_left;
  std::vector<std::uint32_t>& load = scratch.load;
  std::vector<std::uint8_t>& fixed = scratch.fixed;
  rates.assign(flows.size(), 0.0);
  fixed.assign(flows.size(), 0);
  scratch.loaded.clear();

  std::size_t unfixed = 0;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (!active[i]) continue;
    ++unfixed;
    for (const LinkId l : flows[i].links) {
      if (load[l]++ > 0) continue;
      scratch.loaded.push_back(l);
      cap_left[l] = capacity[l];
    }
  }

  while (unfixed > 0) {
    // Bottleneck link: smallest fair share among loaded links.
    double best_share = std::numeric_limits<double>::infinity();
    for (const LinkId l : scratch.loaded) {
      if (load[l] == 0) continue;
      best_share = std::min(best_share, cap_left[l] / load[l]);
    }
    require(best_share < std::numeric_limits<double>::infinity(),
            "fill_rates: active flow without links");

    // Freeze every unfixed flow crossing a bottleneck at best_share.
    for (std::size_t i = 0; i < flows.size(); ++i) {
      if (!active[i] || fixed[i]) continue;
      bool bottlenecked = false;
      for (const LinkId l : flows[i].links) {
        if (cap_left[l] / load[l] <= best_share * (1.0 + 1e-12)) {
          bottlenecked = true;
          break;
        }
      }
      if (!bottlenecked) continue;
      rates[i] = best_share;
      fixed[i] = 1;
      --unfixed;
      for (const LinkId l : flows[i].links) {
        cap_left[l] -= best_share;
        if (cap_left[l] < 0.0) cap_left[l] = 0.0;
        --load[l];
      }
    }
  }
}

}  // namespace

std::vector<double> FlowLevelSimulator::max_min_rates(
    const std::vector<FlowSpec>& flows) const {
  for (const auto& f : flows) {
    for (const LinkId l : f.links) {
      require(l < capacity_.size(), "max_min_rates: link id out of range");
    }
  }
  std::vector<std::uint8_t> active(flows.size(), 1);
  FillScratch scratch(capacity_.size());
  fill_rates(capacity_, flows, active, scratch);
  return std::move(scratch.rates);
}

FlowResult FlowLevelSimulator::run(const std::vector<FlowSpec>& flows) const {
  for (const auto& f : flows) {
    require(f.bytes > 0.0, "FlowLevelSimulator: flow without payload");
    require(!f.links.empty(), "FlowLevelSimulator: flow without route");
    for (const LinkId l : f.links) {
      require(l < capacity_.size(), "FlowLevelSimulator: link out of range");
    }
  }

  FlowResult result;
  result.completion.assign(flows.size(), 0.0);

  std::vector<double> remaining(flows.size());
  std::vector<std::uint8_t> active(flows.size(), 1);
  std::size_t live = flows.size();
  for (std::size_t i = 0; i < flows.size(); ++i) remaining[i] = flows[i].bytes;

  FillScratch scratch(capacity_.size());
  const std::vector<double>& rates = scratch.rates;
  double now = 0.0;
  while (live > 0) {
    fill_rates(capacity_, flows, active, scratch);
    ++result.rate_recomputations;
    if (result.rate_recomputations == 1) {
      // Count the initial fair-share bottlenecks: links whose capacity the
      // first allocation fully consumes. Only loaded links carry any rate.
      std::vector<double> used(capacity_.size(), 0.0);
      for (std::size_t i = 0; i < flows.size(); ++i) {
        for (const LinkId l : flows[i].links) used[l] += rates[i];
      }
      for (const LinkId l : scratch.loaded) {
        if (used[l] >= capacity_[l] * (1.0 - 1e-9)) ++result.bottleneck_links;
      }
    }

    // Time until the next flow drains completely.
    double dt = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < flows.size(); ++i) {
      if (!active[i]) continue;
      require(rates[i] > 0.0, "FlowLevelSimulator: starved flow");
      dt = std::min(dt, remaining[i] / rates[i]);
    }

    now += dt;
    for (std::size_t i = 0; i < flows.size(); ++i) {
      if (!active[i]) continue;
      remaining[i] -= rates[i] * dt;
      if (remaining[i] <= flows[i].bytes * 1e-12 + 1e-9) {
        active[i] = 0;
        --live;
        result.completion[i] = now + flows[i].extra_latency;
        result.makespan = std::max(result.makespan, result.completion[i]);
      }
    }
  }
  return result;
}

}  // namespace wrht::elec
