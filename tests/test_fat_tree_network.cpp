#include "wrht/electrical/fat_tree_network.hpp"

#include <gtest/gtest.h>

#include "wrht/collectives/recursive_doubling.hpp"
#include "wrht/collectives/ring_allreduce.hpp"
#include "wrht/common/error.hpp"

namespace wrht::elec {
namespace {

using coll::Schedule;
using coll::Step;
using coll::Transfer;
using coll::TransferKind;

ElectricalConfig test_config() {
  ElectricalConfig c;
  c.link_rate = BitsPerSecond(40e9);
  c.router_delay = Seconds(25e-6);
  return c;
}

Schedule one_transfer(std::uint32_t n, topo::NodeId src, topo::NodeId dst,
                      std::size_t elements) {
  Schedule s("manual", n, elements);
  s.add_step().transfers.push_back(
      Transfer{src, dst, 0, elements, TransferKind::kReduce, {}});
  return s;
}

TEST(FatTreeNetwork, IntraRackTransferTime) {
  const FatTreeNetwork net(64, test_config());
  // 1M elements * 4 B at the paper-convention 40e9 B/s + one router delay.
  const auto res = net.execute(one_transfer(64, 0, 1, 1'000'000));
  EXPECT_NEAR(res.total_time.count(), 4e6 / 40e9 + 25e-6, 1e-12);
}

TEST(FatTreeNetwork, InterRackPaysThreeRouterDelays) {
  const FatTreeNetwork net(64, test_config());
  const auto res = net.execute(one_transfer(64, 0, 40, 1'000'000));
  EXPECT_NEAR(res.total_time.count(), 4e6 / 40e9 + 3 * 25e-6, 1e-12);
}

TEST(FatTreeNetwork, StrictBitsConventionIsEightTimesSlower) {
  const ElectricalConfig strict =
      test_config().with_convention(net::RateConvention::kStrictBits);
  const FatTreeNetwork paper(64, test_config());
  const FatTreeNetwork bits(64, strict);
  const Schedule s = one_transfer(64, 0, 1, 10'000'000);
  const double serialization_paper =
      paper.execute(s).total_time.count() - 25e-6;
  const double serialization_bits =
      bits.execute(s).total_time.count() - 25e-6;
  EXPECT_NEAR(serialization_bits / serialization_paper, 8.0, 1e-6);
}

TEST(FatTreeNetwork, UplinkContentionSlowsFanIn) {
  // 15 hosts of rack 0 all send to the same host in rack 1: the receiver's
  // edge->host link is shared 15 ways.
  const FatTreeNetwork net(64, test_config());
  Schedule s("fan-in", 64, 1'000'000);
  Step& step = s.add_step();
  for (topo::NodeId src = 1; src < 16; ++src) {
    step.transfers.push_back(
        Transfer{src, 20, 0, 1'000'000, TransferKind::kReduce, {}});
  }
  const auto res = net.execute(s);
  EXPECT_EQ(res.max_link_load, 15u);
  // Serialization is ~15x a lone transfer's.
  EXPECT_GT(res.total_time.count(), 15.0 * 4e6 / 40e9);
}

TEST(FatTreeNetwork, ParallelDisjointPairsDontContend) {
  const FatTreeNetwork net(64, test_config());
  Schedule s("pairs", 64, 1'000'000);
  Step& step = s.add_step();
  for (topo::NodeId i = 0; i < 8; ++i) {
    step.transfers.push_back(Transfer{static_cast<topo::NodeId>(2 * i),
                                      static_cast<topo::NodeId>(2 * i + 1), 0,
                                      1'000'000, TransferKind::kReduce, {}});
  }
  const auto res = net.execute(s);
  EXPECT_EQ(res.max_link_load, 1u);
  EXPECT_NEAR(res.total_time.count(), 4e6 / 40e9 + 25e-6, 1e-12);
}

TEST(FatTreeNetwork, StepsAccumulateSequentially) {
  const FatTreeNetwork net(64, test_config());
  Schedule s("two-steps", 64, 1000);
  s.add_step().transfers.push_back(
      Transfer{0, 1, 0, 1000, TransferKind::kReduce, {}});
  s.add_step().transfers.push_back(
      Transfer{1, 0, 0, 1000, TransferKind::kCopy, {}});
  const auto res = net.execute(s);
  ASSERT_EQ(res.step_times.size(), 2u);
  EXPECT_NEAR(res.total_time.count(),
              res.step_times[0].count() + res.step_times[1].count(), 1e-15);
}

TEST(FatTreeNetwork, RingAllreduceRunsAndCountsFlows) {
  const FatTreeNetwork net(32, test_config());
  const Schedule s = coll::ring_allreduce(32, 64);
  const auto res = net.execute(s);
  EXPECT_EQ(res.steps, 62u);
  EXPECT_EQ(res.total_flows, 62u * 32u);
  EXPECT_GT(res.total_time.count(), 0.0);
}

TEST(FatTreeNetwork, RecursiveDoublingFasterThanRingForSmallPayloads) {
  // Latency-bound regime: RD's log2(N) steps beat Ring's 2(N-1).
  const FatTreeNetwork net(64, test_config());
  const auto ring = net.execute(coll::ring_allreduce(64, 64));
  const auto rd = net.execute(coll::recursive_doubling_allreduce(64, 64));
  EXPECT_LT(rd.total_time.count(), ring.total_time.count());
}

TEST(FatTreeNetwork, EmptyStepCostsNothing) {
  const FatTreeNetwork net(16, test_config());
  Schedule s("empty", 16, 10);
  s.add_step();
  const auto res = net.execute(s);
  EXPECT_DOUBLE_EQ(res.total_time.count(), 0.0);
}

TEST(FatTreeNetwork, RejectsOversizedSchedules) {
  const FatTreeNetwork net(16, test_config());
  EXPECT_THROW(net.execute(one_transfer(32, 0, 20, 100)), InvalidArgument);
}

/// One step of 64 hosts: 0->1 (one edge switch) and 2->40 (through the
/// core) carrying `a` and `b` elements.
Schedule two_flows(std::size_t a, std::size_t b) {
  Schedule s("manual", 64, 1'000'000);
  Step& step = s.add_step();
  step.transfers.push_back(Transfer{0, 1, 0, a, TransferKind::kReduce, {}});
  step.transfers.push_back(Transfer{2, 40, 0, b, TransferKind::kReduce, {}});
  return s;
}

// The two steps share their endpoints and their largest count. A cache
// keyed on those alone returns the first step's 125 us for the second;
// its own time is the 10^6-element flow through three routers: 175 us.
TEST(FatTreeNetwork, PatternCacheKeysOnEveryCount) {
  const FatTreeNetwork shared(64, test_config());
  EXPECT_NEAR(shared.execute(two_flows(1'000'000, 1)).total_time.count(),
              125e-6, 1e-9);
  const Seconds cached = shared.execute(two_flows(1, 1'000'000)).total_time;
  const Seconds fresh =
      FatTreeNetwork(64, test_config()).execute(two_flows(1, 1'000'000))
          .total_time;
  EXPECT_NEAR(fresh.count(), 175e-6, 1e-9);
  EXPECT_EQ(cached, fresh);
}

// Steps whose counts are all equal take the short key; they must still
// tell different counts apart.
TEST(FatTreeNetwork, UniformCountsKeyOnTheirCount) {
  const FatTreeNetwork shared(64, test_config());
  const Seconds small = shared.execute(two_flows(1000, 1000)).total_time;
  const Seconds large = shared.execute(two_flows(2000, 2000)).total_time;
  EXPECT_EQ(small,
            FatTreeNetwork(64, test_config()).execute(two_flows(1000, 1000))
                .total_time);
  EXPECT_EQ(large,
            FatTreeNetwork(64, test_config()).execute(two_flows(2000, 2000))
                .total_time);
  EXPECT_LT(small, large);
}

}  // namespace
}  // namespace wrht::elec
