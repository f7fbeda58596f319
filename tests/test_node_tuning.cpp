#include "wrht/optical/node.hpp"

#include <gtest/gtest.h>

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
  EXPECT_TRUE(state.tunings().count(tx));
  EXPECT_TRUE(state.tunings().count(rx));
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

TEST(NodeHardware, TeraRackDefaults) {
  const NodeHardware hw;
  EXPECT_EQ(hw.tx_capacity(), 128u);  // 2 interfaces x 64 MRRs
  EXPECT_EQ(hw.rx_capacity(), 128u);
}

}  // namespace
}  // namespace wrht::optics
