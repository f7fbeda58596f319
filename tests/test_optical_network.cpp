#include "wrht/optical/ring_network.hpp"

#include <gtest/gtest.h>

#include <initializer_list>
#include <utility>

#include "wrht/collectives/btree_allreduce.hpp"
#include "wrht/collectives/hring_allreduce.hpp"
#include "wrht/collectives/ring_allreduce.hpp"
#include "wrht/common/error.hpp"
#include "wrht/core/analysis.hpp"
#include "wrht/core/wrht_schedule.hpp"
#include "wrht/obs/counters.hpp"

namespace wrht::optics {
namespace {

OpticalConfig paper_config() { return OpticalConfig{}; }

TEST(OpticalConfig, RateConventions) {
  OpticalConfig c;
  EXPECT_DOUBLE_EQ(c.bytes_per_second(), 40e9);  // paper convention
  c.convention = OpticalConfig::RateConvention::kStrictBits;
  EXPECT_DOUBLE_EQ(c.bytes_per_second(), 5e9);
}

TEST(RingNetwork, RoundTimeIsEq6PerStepTerm) {
  const RingNetwork net(16, paper_config());
  // a + d/B with a = 25 us + 497 fs and d = 4e6 bytes.
  const Seconds t = net.round_time(1'000'000);
  EXPECT_NEAR(t.count(), 25e-6 + 497e-15 + 4e6 / 40e9, 1e-15);
}

TEST(RingNetwork, RingAllreduceUsesOneWavelength) {
  const RingNetwork net(16, paper_config());
  const auto res = net.execute(coll::ring_allreduce(16, 32));
  EXPECT_EQ(res.max_wavelengths_used, 1u);
  EXPECT_EQ(res.total_rounds, res.steps);  // never split
  EXPECT_EQ(res.steps, 30u);
}

TEST(RingNetwork, BtreeUsesOneWavelength) {
  const RingNetwork net(16, paper_config());
  const auto res = net.execute(coll::btree_allreduce(16, 8));
  EXPECT_EQ(res.max_wavelengths_used, 1u);
  EXPECT_EQ(res.total_rounds, res.steps);
}

TEST(RingNetwork, WrhtWavelengthUsageMatchesRequirement) {
  // m=129 on 1024 nodes needs exactly floor(129/2) = 64 wavelengths.
  OpticalConfig cfg = paper_config();
  const RingNetwork net(1024, cfg);
  const auto sched = core::wrht_allreduce(1024, 64, core::WrhtOptions{129, 64});
  const auto res = net.execute(sched);
  EXPECT_EQ(res.max_wavelengths_used, 64u);
  EXPECT_EQ(res.total_rounds, res.steps);  // fits the budget, no splitting
}

TEST(RingNetwork, WrhtTimeMatchesClosedForm) {
  // Simulated time must equal Eq. (6) exactly for WRHT (single-round steps,
  // constant payload d).
  OpticalConfig cfg = paper_config();
  const std::size_t elements = 1'000'000;
  const RingNetwork net(1024, cfg);
  const auto sched =
      core::wrht_allreduce(1024, elements, core::WrhtOptions{129, 64});
  const auto res = net.execute(sched);

  core::TimeModel model;
  model.per_step_overhead = cfg.mrr_reconfig_delay + cfg.oeo_delay;
  model.bytes_per_second = cfg.bytes_per_second();
  const Seconds expected = core::comm_time(
      res.steps, Bytes(elements * cfg.bytes_per_element), model);
  EXPECT_NEAR(res.total_time.count(), expected.count(), 1e-12);
}

TEST(RingNetwork, RingTimeMatchesClosedForm) {
  OpticalConfig cfg = paper_config();
  const std::uint32_t n = 64;
  const std::size_t elements = 64 * 1000;
  const RingNetwork net(n, cfg);
  const auto res = net.execute(coll::ring_allreduce(n, elements));
  // 2(n-1) steps, each a + (d/n)/B.
  const double per_step = cfg.mrr_reconfig_delay.count() +
                          cfg.oeo_delay.count() +
                          (elements / n * 4.0) / cfg.bytes_per_second();
  EXPECT_NEAR(res.total_time.count(), 2.0 * (n - 1) * per_step, 1e-9);
}

TEST(RingNetwork, StarvedStepsSplitIntoRounds) {
  // A WRHT group step with floor(m/2) = 4 required wavelengths on a 2-lambda
  // fiber must split into 2 rounds, doubling the per-step overhead.
  OpticalConfig cfg = paper_config();
  cfg.wavelengths = 2;
  const RingNetwork net(27, cfg);
  const auto sched = core::wrht_allreduce(27, 8, core::WrhtOptions{9, 2});
  const auto res = net.execute(sched);
  EXPECT_GT(res.total_rounds, res.steps);
  EXPECT_LE(res.max_wavelengths_used, 2u);
}

TEST(RingNetwork, SplittingDisabledThrows) {
  OpticalConfig cfg = paper_config();
  cfg.wavelengths = 2;
  cfg.allow_multi_round_steps = false;
  const RingNetwork net(27, cfg);
  const auto sched = core::wrht_allreduce(27, 8, core::WrhtOptions{9, 2});
  EXPECT_THROW(net.execute(sched), InfeasibleSchedule);

  // Only a completed run reports its events.
  obs::Counters counters;
  obs::Probe probe;
  probe.counters = &counters;
  EXPECT_THROW(net.execute(sched, probe), InfeasibleSchedule);
  EXPECT_FALSE(counters.contains("sim.events_fired"));
}

TEST(RingNetwork, StrictBitsSlowsSerializationOnly) {
  OpticalConfig paper = paper_config();
  OpticalConfig strict = paper_config();
  strict.convention = OpticalConfig::RateConvention::kStrictBits;
  const std::size_t elements = 10'000'000;
  const auto sched = core::wrht_allreduce(16, elements, core::WrhtOptions{5, 8});
  const RingNetwork net_p(16, paper);
  const RingNetwork net_s(16, strict);
  const double tp = net_p.execute(sched).total_time.count();
  const double ts = net_s.execute(sched).total_time.count();
  const double overhead = static_cast<double>(sched.num_steps()) *
                          (paper.mrr_reconfig_delay.count() +
                           paper.oeo_delay.count());
  EXPECT_NEAR((ts - overhead) / (tp - overhead), 8.0, 1e-6);
}

TEST(RingNetwork, LongestLightpathReported) {
  const RingNetwork net(15, paper_config());
  const auto sched = core::wrht_allreduce(15, 4, core::WrhtOptions{5, 2});
  const auto res = net.execute(sched);
  // Group members are <= 2 hops from the rep; the all-to-all between reps
  // 2, 7, 12 travels 5 hops.
  EXPECT_EQ(res.longest_lightpath_hops, 5u);
}

TEST(RingNetwork, PatternCacheDoesNotChangeResults) {
  // Execute twice; cached second run must agree exactly.
  const RingNetwork net(32, paper_config());
  const auto sched = coll::ring_allreduce(32, 320);
  const auto a = net.execute(sched);
  const auto b = net.execute(sched);
  EXPECT_DOUBLE_EQ(a.total_time.count(), b.total_time.count());
  EXPECT_EQ(a.max_wavelengths_used, b.max_wavelengths_used);
}

// First-fit RWA assigns wavelengths in transfer order, so the same pairs
// in another order are a different pattern: B must not be served from A's
// cache entry (it needs 4 wavelengths priced fresh, A's entry says 3).
TEST(RingNetwork, PatternCacheKeysOnTransferOrder) {
  using Pair = std::pair<coll::NodeId, coll::NodeId>;
  const auto add_step = [](coll::Schedule& sched,
                           std::initializer_list<Pair> pairs) {
    coll::Step& step = sched.add_step();
    for (const auto& [src, dst] : pairs) {
      coll::Transfer t;
      t.src = src;
      t.dst = dst;
      t.count = 5;
      t.direction = topo::Direction::kClockwise;
      step.transfers.push_back(t);
    }
  };
  const std::initializer_list<Pair> a = {{6, 10}, {5, 8}, {9, 1},
                                         {8, 10}, {3, 7}, {2, 6}};
  const std::initializer_list<Pair> b = {{8, 10}, {2, 6}, {9, 1},
                                         {3, 7}, {6, 10}, {5, 8}};
  coll::Schedule both("order", 12, 5);
  add_step(both, a);
  add_step(both, b);
  coll::Schedule only_b("order", 12, 5);
  add_step(only_b, b);

  const RingNetwork net(12, OpticalConfig{}.with_wavelengths(64));
  const auto cached = net.execute(both);
  const auto fresh =
      RingNetwork(12, OpticalConfig{}.with_wavelengths(64)).execute(only_b);
  EXPECT_EQ(fresh.step_costs[0].wavelengths_used, 4u);
  EXPECT_EQ(cached.step_costs[1].wavelengths_used,
            fresh.step_costs[0].wavelengths_used);
  EXPECT_EQ(cached.step_costs[1].duration, fresh.step_costs[0].duration);
}

TEST(RingNetwork, CountsOneEventPerStepPlusStart) {
  const RingNetwork net(16, paper_config());
  const auto res = net.execute(coll::btree_allreduce(16, 8));
  // The event-driven count: one completion per step plus the start.
  EXPECT_EQ(res.events_fired, res.steps + 1);
}

TEST(RingNetwork, HringRunsWithinBudget) {
  const RingNetwork net(20, paper_config());
  const auto res = net.execute(coll::hring_allreduce(20, 40, 5));
  EXPECT_LE(res.max_wavelengths_used, 4u);
  EXPECT_EQ(res.steps, coll::hring_builder_steps(20, 5));
}

TEST(RingNetwork, Validation) {
  OpticalConfig cfg;
  cfg.wavelengths = 0;
  EXPECT_THROW(RingNetwork(8, cfg), InvalidArgument);
  const RingNetwork net(8, paper_config());
  EXPECT_THROW(net.execute(coll::ring_allreduce(16, 32)), InvalidArgument);
}

/// Four clockwise two-hop transfers on an 8-node ring. With one
/// wavelength, 0->2 and 4->6 share round 0 and 1->3 and 5->7 round 1.
coll::Schedule two_rounds(std::size_t a, std::size_t b, std::size_t c,
                          std::size_t d) {
  coll::Schedule s("manual", 8, 1'000'000);
  coll::Step& step = s.add_step();
  std::size_t src = 0;
  for (const std::size_t count : {a, b, c, d}) {
    const auto node = static_cast<coll::NodeId>(src);
    step.transfers.push_back(coll::Transfer{
        node, node + 2, 0, count, coll::TransferKind::kReduce,
        topo::Direction::kClockwise});
    src += src % 2 == 0 ? 1 : 3;  // 0, 1, 4, 5
  }
  return s;
}

// Same endpoints, same largest count, but the 10^6-element transfers move
// from one round into both. A cache keyed on endpoints plus the largest
// count returns the first step's 125 + 25 us; the step's own price is two
// 125 us rounds.
TEST(RingNetwork, PatternCacheRederivesRoundLoadsFromCounts) {
  const OpticalConfig config = paper_config().with_wavelengths(1);
  const RingNetwork shared(8, config);
  const OpticalRunResult first = shared.execute(two_rounds(1'000'000, 1, 1, 1));
  ASSERT_EQ(first.total_rounds, 2u);
  EXPECT_NEAR(first.total_time.count(), 150e-6, 1e-9);
  const OpticalRunResult cached =
      shared.execute(two_rounds(1, 1'000'000, 1'000'000, 1));
  const OpticalRunResult fresh =
      RingNetwork(8, config).execute(two_rounds(1, 1'000'000, 1'000'000, 1));
  EXPECT_NEAR(fresh.total_time.count(), 250e-6, 1e-9);
  EXPECT_EQ(cached.total_time, fresh.total_time);
  EXPECT_EQ(cached.step_costs[0].max_transfer_elements, 1'000'000u);
}

}  // namespace
}  // namespace wrht::optics
