#include "wrht/optical/node.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "wrht/common/error.hpp"

namespace wrht::optics {
namespace {

Lightpath lp(topo::NodeId src, topo::NodeId dst, std::uint32_t lambda,
             topo::Direction dir = topo::Direction::kClockwise) {
  return Lightpath{src, dst, dir, 0, lambda, src, 1};
}

TEST(TuningState, DerivesTxAndRxPerLightpath) {
  const auto state = TuningState::from_lightpaths({lp(0, 1, 3)});
  ASSERT_EQ(state.size(), 2u);
  const Tuning tx{0, topo::Direction::kClockwise, 0, 3, true};
  const Tuning rx{1, topo::Direction::kClockwise, 0, 3, false};
  const std::vector<Tuning>& tunings = state.tunings();
  EXPECT_TRUE(std::binary_search(tunings.begin(), tunings.end(), tx));
  EXPECT_TRUE(std::binary_search(tunings.begin(), tunings.end(), rx));
  EXPECT_FALSE(std::binary_search(
      tunings.begin(), tunings.end(),
      Tuning{0, topo::Direction::kClockwise, 0, 3, false}));
}

TEST(TuningState, TuningsAreSortedAndDeduplicated) {
  // The same lightpath twice, and two paths sharing a receiver tuning.
  const auto state = TuningState::from_lightpaths(
      {lp(5, 6, 1), lp(0, 6, 1), lp(5, 6, 1), lp(2, 3, 0)});
  const std::vector<Tuning> expected = {
      {0, topo::Direction::kClockwise, 0, 1, true},
      {2, topo::Direction::kClockwise, 0, 0, true},
      {3, topo::Direction::kClockwise, 0, 0, false},
      {5, topo::Direction::kClockwise, 0, 1, true},
      {6, topo::Direction::kClockwise, 0, 1, false}};
  EXPECT_EQ(state.tunings(), expected);
  EXPECT_EQ(state.size(), 5u);
}

TEST(TuningState, SharedWavelengthCountedOnce) {
  // A node transmitting the same lambda to two different receivers cannot
  // exist conflict-free, but re-tuning bookkeeping must still dedupe.
  const auto state = TuningState::from_lightpaths({lp(0, 1, 3), lp(0, 2, 3)});
  EXPECT_EQ(state.size(), 3u);  // tx(0,3), rx(1,3), rx(2,3)
}

TEST(TuningState, RetuneCountIsSymmetricDifference) {
  const auto a = TuningState::from_lightpaths({lp(0, 1, 0), lp(2, 3, 1)});
  const auto b = TuningState::from_lightpaths({lp(0, 1, 0), lp(2, 3, 2)});
  // lp(2,3) moved from lambda 1 to lambda 2: 2 old tunings out, 2 new in.
  EXPECT_EQ(a.retune_count(b), 4u);
  EXPECT_EQ(b.retune_count(a), 4u);
}

TEST(TuningState, IdenticalRoundsNeedNoRetune) {
  const auto a = TuningState::from_lightpaths({lp(0, 1, 0), lp(4, 2, 7)});
  const auto b = TuningState::from_lightpaths({lp(4, 2, 7), lp(0, 1, 0)});
  EXPECT_EQ(a.retune_count(b), 0u);
}

TEST(TuningState, StateComparedWithItselfNeedsNoRetune) {
  const auto a = TuningState::from_lightpaths({lp(0, 1, 0), lp(2, 3, 1)});
  EXPECT_EQ(a.retune_count(a), 0u);
  const TuningState empty;
  EXPECT_EQ(empty.retune_count(empty), 0u);
}

TEST(TuningState, EmptyToLoadedRetunesEverything) {
  const TuningState empty;
  const auto loaded = TuningState::from_lightpaths({lp(0, 1, 0), lp(2, 3, 1)});
  EXPECT_EQ(empty.retune_count(loaded), 4u);
  EXPECT_EQ(loaded.retune_count(empty), 4u);
}

TEST(TuningState, DirectionsAreIndependent) {
  const auto state = TuningState::from_lightpaths(
      {lp(0, 1, 5, topo::Direction::kClockwise),
       lp(0, 3, 5, topo::Direction::kCounterClockwise)});
  EXPECT_EQ(state.size(), 4u);
}

TEST(TuningState, CapacityEnforced) {
  NodeHardware tiny;
  tiny.interfaces_per_direction = 1;
  tiny.mrrs_per_interface = 2;
  // Node 9 receives 3 distinct wavelengths in one direction: exceeds 2.
  std::vector<Lightpath> paths = {lp(0, 9, 0), lp(1, 9, 1), lp(2, 9, 2)};
  EXPECT_THROW(TuningState::from_lightpaths(paths).check_capacity(tiny),
               InfeasibleSchedule);
  // Two wavelengths fit.
  paths.pop_back();
  EXPECT_NO_THROW(TuningState::from_lightpaths(paths).check_capacity(tiny));
}

TEST(TuningState, TxCapacityEnforcedIndependently) {
  NodeHardware tiny;
  tiny.interfaces_per_direction = 1;
  tiny.mrrs_per_interface = 2;
  std::vector<Lightpath> paths = {lp(9, 0, 0), lp(9, 1, 1), lp(9, 2, 2)};
  EXPECT_THROW(TuningState::from_lightpaths(paths).check_capacity(tiny),
               InfeasibleSchedule);
}

std::string capacity_message(const TuningState& state,
                             const NodeHardware& hardware) {
  try {
    state.check_capacity(hardware);
  } catch (const InfeasibleSchedule& e) {
    return e.what();
  }
  return "";
}

TEST(TuningState, TxViolationIsReportedBeforeAnyRxViolation) {
  NodeHardware tiny;
  tiny.interfaces_per_direction = 1;
  tiny.mrrs_per_interface = 2;
  // Node 1 receives 3 wavelengths (rx violation, lower node) and node 9
  // transmits 3 (tx violation, higher node): the transmit message wins.
  const auto state = TuningState::from_lightpaths(
      {lp(0, 1, 0), lp(2, 1, 1), lp(3, 1, 2), lp(9, 4, 0), lp(9, 5, 1),
       lp(9, 6, 2)});
  EXPECT_EQ(capacity_message(state, tiny),
            "TuningState: node 9 needs 3 transmit MRRs per direction but "
            "has 2");
}

TEST(TuningState, FirstViolationInNodeDirectionOrderIsReported) {
  NodeHardware tiny;
  tiny.interfaces_per_direction = 1;
  tiny.mrrs_per_interface = 1;
  const topo::Direction cw = topo::Direction::kClockwise;
  const topo::Direction ccw = topo::Direction::kCounterClockwise;
  // Node 7 receives 2 wavelengths counter-clockwise and 3 clockwise, node
  // 8 receives 4 clockwise: the lowest (node, direction) run is reported.
  const auto rx_only = TuningState::from_lightpaths(
      {lp(10, 7, 0, ccw), lp(11, 7, 1, ccw), lp(12, 7, 0, cw),
       lp(13, 7, 1, cw), lp(14, 7, 2, cw), lp(15, 8, 3, cw), lp(16, 8, 4, cw),
       lp(17, 8, 5, cw), lp(18, 8, 6, cw)});
  EXPECT_EQ(capacity_message(rx_only, tiny),
            "TuningState: node 7 needs 3 receive MRRs per direction but has 1");
  // Both kinds violated on one node and direction: transmit first.
  const auto both = TuningState::from_lightpaths(
      {lp(3, 4, 0), lp(3, 5, 1), lp(6, 3, 2), lp(7, 3, 3)});
  EXPECT_EQ(capacity_message(both, tiny),
            "TuningState: node 3 needs 2 transmit MRRs per direction but "
            "has 1");
  EXPECT_EQ(capacity_message(both, NodeHardware{}), "");
}

TEST(NodeHardware, TeraRackDefaults) {
  const NodeHardware hw;
  EXPECT_EQ(hw.tx_capacity(), 128u);  // 2 interfaces x 64 MRRs
  EXPECT_EQ(hw.rx_capacity(), 128u);
}

}  // namespace
}  // namespace wrht::optics
