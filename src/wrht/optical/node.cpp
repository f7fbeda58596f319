#include "wrht/optical/node.hpp"

#include <algorithm>
#include <optional>
#include <string>

#include "wrht/common/error.hpp"

namespace wrht::optics {

TuningState TuningState::from_lightpaths(const std::vector<Lightpath>& paths) {
  TuningState state;
  state.tunings_.reserve(2 * paths.size());
  for (const Lightpath& p : paths) {
    state.tunings_.push_back(
        Tuning{p.src, p.direction, p.fiber, p.wavelength, true});
    state.tunings_.push_back(
        Tuning{p.dst, p.direction, p.fiber, p.wavelength, false});
  }
  std::sort(state.tunings_.begin(), state.tunings_.end());
  state.tunings_.erase(
      std::unique(state.tunings_.begin(), state.tunings_.end()),
      state.tunings_.end());
  return state;
}

void TuningState::check_capacity(const NodeHardware& hardware) const {
  // The sorted tunings hold each (node, direction) as one contiguous run,
  // runs in (node, direction) order: count each run's MRR usage, throw at
  // the first transmit violation, and report the first receive violation
  // only when no transmit violation follows it.
  std::optional<std::string> rx_violation;
  for (auto run = tunings_.begin(); run != tunings_.end();) {
    std::uint64_t tx_load = 0;
    std::uint64_t rx_load = 0;
    auto it = run;
    for (; it != tunings_.end() && it->node == run->node &&
           it->direction == run->direction;
         ++it) {
      ++(it->tx ? tx_load : rx_load);
    }
    if (tx_load > hardware.tx_capacity()) {
      throw InfeasibleSchedule(
          "TuningState: node " + std::to_string(run->node) + " needs " +
          std::to_string(tx_load) + " transmit MRRs per direction but has " +
          std::to_string(hardware.tx_capacity()));
    }
    if (!rx_violation && rx_load > hardware.rx_capacity()) {
      rx_violation = "TuningState: node " + std::to_string(run->node) +
                     " needs " + std::to_string(rx_load) +
                     " receive MRRs per direction but has " +
                     std::to_string(hardware.rx_capacity());
    }
    run = it;
  }
  if (rx_violation) throw InfeasibleSchedule(*rx_violation);
}

std::size_t TuningState::retune_count(const TuningState& next) const {
  // Identical objects hold identical tunings: the ring engine compares a
  // cached pattern's round with itself whenever consecutive steps reuse it.
  if (this == &next) return 0;
  std::size_t differing = 0;
  auto it_a = tunings_.begin();
  auto it_b = next.tunings_.begin();
  while (it_a != tunings_.end() && it_b != next.tunings_.end()) {
    if (*it_a < *it_b) {
      ++differing;
      ++it_a;
    } else if (*it_b < *it_a) {
      ++differing;
      ++it_b;
    } else {
      ++it_a;
      ++it_b;
    }
  }
  differing += static_cast<std::size_t>(tunings_.end() - it_a);
  differing += static_cast<std::size_t>(next.tunings_.end() - it_b);
  return differing;
}

}  // namespace wrht::optics
