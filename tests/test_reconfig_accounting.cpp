#include <gtest/gtest.h>

#include "wrht/collectives/btree_allreduce.hpp"
#include "wrht/collectives/ring_allreduce.hpp"
#include "wrht/core/wrht_schedule.hpp"
#include "wrht/obs/transfer_log.hpp"
#include "wrht/optical/ring_network.hpp"

namespace wrht::optics {
namespace {

OpticalConfig retune_cfg(std::uint32_t w = 64) {
  OpticalConfig cfg;
  cfg.wavelengths = w;
  cfg.reconfig_policy = net::ReconfigPolicy::kOnRetune;
  return cfg;
}

TEST(ReconfigAccounting, RingPaysReconfigurationOnce) {
  // Every Ring All-reduce step reuses the identical neighbour circuits, so
  // retune-aware accounting charges a single reconfiguration.
  const std::uint32_t n = 32;
  const RingNetwork net(n, retune_cfg());
  const auto res = net.execute(coll::ring_allreduce(n, 64));
  EXPECT_EQ(res.reconfigurations, 1u);
  EXPECT_GT(res.retuned_mrrs, 0u);
}

TEST(ReconfigAccounting, EveryRoundModeCountsAllRounds) {
  const std::uint32_t n = 32;
  OpticalConfig cfg;  // default kEveryRound
  const RingNetwork net(n, cfg);
  const auto res = net.execute(coll::ring_allreduce(n, 64));
  EXPECT_EQ(res.reconfigurations, res.total_rounds);
  EXPECT_EQ(res.retuned_mrrs, 0u);  // not tracked in Eq.6 mode
}

TEST(ReconfigAccounting, RetuneModeNeverSlower) {
  const std::uint32_t n = 30;
  for (const auto& sched :
       {coll::ring_allreduce(n, 60), coll::btree_allreduce(n, 60),
        core::wrht_allreduce(n, 60, core::WrhtOptions{5, 8})}) {
    OpticalConfig cfg;
    cfg.wavelengths = 8;
    const RingNetwork every(n, cfg);
    const RingNetwork retune(n, retune_cfg(8));
    EXPECT_LE(retune.execute(sched).total_time.count(),
              every.execute(sched).total_time.count() + 1e-15)
        << sched.algorithm();
  }
}

TEST(ReconfigAccounting, RingGainsMoreThanWrht) {
  // WRHT's steps all differ (group fold, exchange, broadcast), so it keeps
  // paying; Ring collapses to one reconfiguration.
  const std::uint32_t n = 64;
  const std::size_t elements = 64;  // latency-dominated payload
  OpticalConfig cfg;
  cfg.wavelengths = 8;
  const RingNetwork every(n, cfg);
  const RingNetwork retune(n, retune_cfg(8));

  const auto ring = coll::ring_allreduce(n, elements);
  const auto wrht = core::wrht_allreduce(n, elements, core::WrhtOptions{9, 8});

  const double ring_gain = every.execute(ring).total_time.count() /
                           retune.execute(ring).total_time.count();
  const double wrht_gain = every.execute(wrht).total_time.count() /
                           retune.execute(wrht).total_time.count();
  EXPECT_GT(ring_gain, 10.0);
  EXPECT_LT(wrht_gain, 2.0);
}

TEST(ReconfigAccounting, WrhtStillPaysPerStep) {
  const std::uint32_t n = 27;
  const RingNetwork net(n, retune_cfg(8));
  const auto sched = core::wrht_allreduce(n, 32, core::WrhtOptions{3, 8});
  const auto res = net.execute(sched);
  // Each WRHT step retunes (different lightpath sets).
  EXPECT_EQ(res.reconfigurations, res.total_rounds);
}

TEST(ReconfigAccounting, NodeCapacityValidatedInBothModes) {
  OpticalConfig cfg;
  cfg.wavelengths = 64;
  cfg.node_hardware.interfaces_per_direction = 1;
  cfg.node_hardware.mrrs_per_interface = 2;
  const RingNetwork net(16, cfg);
  // A rep collecting from 3 members on one side needs 3 RX rings.
  const auto sched = core::wrht_allreduce(16, 8, core::WrhtOptions{8, 64});
  EXPECT_THROW(net.execute(sched), InfeasibleSchedule);
}

TEST(ReconfigAccounting, CapacityCheckCanBeDisabled) {
  OpticalConfig cfg;
  cfg.wavelengths = 64;
  cfg.node_hardware.interfaces_per_direction = 1;
  cfg.node_hardware.mrrs_per_interface = 2;
  cfg.validate_node_capacity = false;
  const RingNetwork net(16, cfg);
  const auto sched = core::wrht_allreduce(16, 8, core::WrhtOptions{8, 64});
  EXPECT_NO_THROW(net.execute(sched));
}

// The capacity flag governs every path that builds MRR tunings: an
// observed run (TransferLog attached) and kOnRetune pricing must honour it
// exactly like the plain every-round run.
TEST(ReconfigAccounting, CapacityFlagHoldsUnderObservationAndRetune) {
  // Node 0 sends to 1..200 clockwise: 200 transmit MRRs on one direction,
  // beyond the default 2 x 64.
  coll::Schedule sched("fan-out", 300, 8);
  coll::Step& step = sched.add_step();
  for (coll::NodeId dst = 1; dst <= 200; ++dst) {
    coll::Transfer t;
    t.dst = dst;
    t.count = 8;
    t.direction = topo::Direction::kClockwise;
    step.transfers.push_back(t);
  }
  for (const bool validate : {false, true}) {
    OpticalConfig cfg;
    cfg.wavelengths = 256;
    cfg.validate_node_capacity = validate;
    OpticalConfig retune = cfg;
    retune.reconfig_policy = net::ReconfigPolicy::kOnRetune;
    obs::TransferLog log;
    obs::Probe probe;
    probe.transfers = &log;
    const auto plain = [&] { return RingNetwork(300, cfg).execute(sched); };
    const auto observed = [&] {
      return RingNetwork(300, cfg).execute(sched, probe);
    };
    const auto retuned = [&] {
      return RingNetwork(300, retune).execute(sched);
    };
    if (validate) {
      EXPECT_THROW((void)plain(), InfeasibleSchedule);
      EXPECT_THROW((void)observed(), InfeasibleSchedule);
      EXPECT_THROW((void)retuned(), InfeasibleSchedule);
    } else {
      const Seconds expected = plain().total_time;
      EXPECT_EQ(observed().total_time, expected);
      EXPECT_EQ(retuned().total_time, expected);
    }
  }
}

}  // namespace
}  // namespace wrht::optics
