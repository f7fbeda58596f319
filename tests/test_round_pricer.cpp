// net::RoundPricer: the single implementation of how a ReconfigPolicy
// charges a round. Each case feeds a round sequence and checks the charged
// reconfiguration of every round, the charge count and the running totals.
#include "wrht/net/reconfig_policy.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace wrht::net {
namespace {

constexpr double kA = 25e-6;     // MRR reconfiguration delay
constexpr double kOeo = 1e-9;    // O/E/O conversion

struct RoundIn {
  double serialization = 0.0;
  bool retune = true;
};

struct Case {
  std::string name;
  ReconfigPolicy policy = ReconfigPolicy::kEveryRound;
  double initial_window = 0.0;  // set_window() before the first round
  std::vector<RoundIn> rounds;
  std::vector<double> charged;  // expected reconfiguration per round
  std::uint64_t charges = 0;
};

std::vector<Case> cases() {
  return {
      {"every_round_ignores_retune_flag",
       ReconfigPolicy::kEveryRound,
       0.0,
       {{1e-6, true}, {30e-6, false}, {2e-6, false}},
       {kA, kA, kA},
       3},
      {"on_retune_skips_static_rounds",
       ReconfigPolicy::kOnRetune,
       0.0,
       {{1e-6, true}, {1e-6, false}, {5e-6, true}, {5e-6, false}},
       {kA, 0.0, kA, 0.0},
       2},
      {"overlapped_charges_residual_after_previous_round",
       ReconfigPolicy::kOverlapped,
       0.0,
       {{1e-6, false}, {30e-6, true}, {2e-6, true}},
       // Round 0 has no window; round 1 hides behind round 0's O/E/O +
       // serialization; round 2's window (30 us) covers the whole delay.
       {kA, kA - (kOeo + 1e-6), 0.0},
       2},
      {"overlapped_window_carries_in_from_set_window",
       ReconfigPolicy::kOverlapped,
       10e-6,
       {{4e-6, true}, {4e-6, true}},
       {kA - 10e-6, kA - (kOeo + 4e-6)},
       2},
      {"overlapped_full_window_charges_nothing",
       ReconfigPolicy::kOverlapped,
       100e-6,
       {{50e-6, true}, {50e-6, true}},
       {0.0, 0.0},
       0},
  };
}

class RoundPricerCases : public ::testing::TestWithParam<Case> {};

TEST_P(RoundPricerCases, ChargesEachRoundAsThePolicySays) {
  const Case& c = GetParam();
  RoundPricer pricer(c.policy, Seconds(kA), Seconds(kOeo));
  pricer.set_window(Seconds(c.initial_window));
  ASSERT_EQ(c.rounds.size(), c.charged.size());
  double charged_total = 0.0;
  for (std::size_t r = 0; r < c.rounds.size(); ++r) {
    const RoundPricer::Round round = pricer.price(
        Seconds(c.rounds[r].serialization), c.rounds[r].retune);
    EXPECT_DOUBLE_EQ(round.reconfig.count(), c.charged[r]) << "round " << r;
    EXPECT_EQ(round.full_reconfig.count(), kA);
    EXPECT_EQ(round.retune, c.rounds[r].retune);
    // One summation order everywhere: (reconfig + t_OEO) + t_ser.
    EXPECT_EQ(round.duration.count(),
              (round.reconfig.count() + kOeo) + c.rounds[r].serialization);
    charged_total += round.reconfig.count();
  }
  EXPECT_EQ(pricer.rounds(), c.rounds.size());
  EXPECT_EQ(pricer.charges(), c.charges);
  EXPECT_NEAR(pricer.charged_reconfig().count(), charged_total, 1e-18);
  if (c.policy != ReconfigPolicy::kOverlapped) {
    EXPECT_EQ(pricer.hidden().count(), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, RoundPricerCases, ::testing::ValuesIn(cases()),
    [](const ::testing::TestParamInfo<Case>& param) {
      return param.param.name;
    });

// Hiding never changes what the rounds would cost serially:
// T_overlapped + hidden == T_every_round.
TEST(RoundPricer, OverlappedPlusHiddenEqualsEveryRound) {
  const std::vector<double> sers = {1e-6, 40e-6, 3e-6, 3e-6, 0.5e-6, 80e-6};
  RoundPricer every(ReconfigPolicy::kEveryRound, Seconds(kA), Seconds(kOeo));
  RoundPricer overlapped(ReconfigPolicy::kOverlapped, Seconds(kA),
                         Seconds(kOeo));
  Seconds t_every(0.0);
  Seconds t_overlapped(0.0);
  for (const double ser : sers) {
    t_every += every.price(Seconds(ser)).duration;
    t_overlapped += overlapped.price(Seconds(ser)).duration;
  }
  EXPECT_GT(overlapped.hidden().count(), 0.0);
  EXPECT_LT(overlapped.charges(), every.charges());
  EXPECT_NEAR((t_overlapped + overlapped.hidden()).count(), t_every.count(),
              1e-15 * t_every.count());
  // charged_reconfig() is the reconfiguration share of the total.
  EXPECT_NEAR(overlapped.charged_reconfig().count(),
              every.charged_reconfig().count() - overlapped.hidden().count(),
              1e-18);
}

TEST(RoundPricer, OnlyOnRetuneReadsTheRetuneFlag) {
  EXPECT_FALSE(RoundPricer(ReconfigPolicy::kEveryRound, Seconds(kA),
                           Seconds(kOeo))
                   .retune_aware());
  EXPECT_TRUE(RoundPricer(ReconfigPolicy::kOnRetune, Seconds(kA),
                          Seconds(kOeo))
                  .retune_aware());
  EXPECT_FALSE(RoundPricer(ReconfigPolicy::kOverlapped, Seconds(kA),
                           Seconds(kOeo))
                   .retune_aware());
}

}  // namespace
}  // namespace wrht::net
