#include "wrht/optical/node.hpp"

#include <algorithm>
#include <map>
#include <string>

#include "wrht/common/error.hpp"

namespace wrht::optics {

TuningState TuningState::from_lightpaths(const std::vector<Lightpath>& paths) {
  TuningState state;
  for (const Lightpath& p : paths) {
    state.tunings_.insert(
        Tuning{p.src, p.direction, p.fiber, p.wavelength, true});
    state.tunings_.insert(
        Tuning{p.dst, p.direction, p.fiber, p.wavelength, false});
  }
  return state;
}

void TuningState::check_capacity(const NodeHardware& hardware) const {
  // Per (node, direction) MRR usage.
  std::map<std::pair<topo::NodeId, topo::Direction>, std::uint64_t> tx_load;
  std::map<std::pair<topo::NodeId, topo::Direction>, std::uint64_t> rx_load;
  for (const Tuning& t : tunings_) {
    ++(t.tx ? tx_load : rx_load)[{t.node, t.direction}];
  }

  for (const auto& [key, load] : tx_load) {
    if (load > hardware.tx_capacity()) {
      throw InfeasibleSchedule(
          "TuningState: node " + std::to_string(key.first) + " needs " +
          std::to_string(load) + " transmit MRRs per direction but has " +
          std::to_string(hardware.tx_capacity()));
    }
  }
  for (const auto& [key, load] : rx_load) {
    if (load > hardware.rx_capacity()) {
      throw InfeasibleSchedule(
          "TuningState: node " + std::to_string(key.first) + " needs " +
          std::to_string(load) + " receive MRRs per direction but has " +
          std::to_string(hardware.rx_capacity()));
    }
  }
}

std::size_t TuningState::retune_count(const TuningState& next) const {
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
  differing += std::distance(it_a, tunings_.end());
  differing += std::distance(it_b, next.tunings_.end());
  return differing;
}

}  // namespace wrht::optics
