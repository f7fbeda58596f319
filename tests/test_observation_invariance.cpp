// Observation must not change what the optical engines compute: a run
// with every probe sink attached prices exactly like an unobserved one,
// and the ring's pattern cache serves observed and unobserved runs from
// the same entries (warming it unobserved first yields the same
// TransferLog as a fresh observed run).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "wrht/collectives/ring_allreduce.hpp"
#include "wrht/core/torus_wrht.hpp"
#include "wrht/core/wrht_schedule.hpp"
#include "wrht/obs/counters.hpp"
#include "wrht/obs/occupancy.hpp"
#include "wrht/obs/trace.hpp"
#include "wrht/obs/transfer_log.hpp"
#include "wrht/optical/ring_network.hpp"
#include "wrht/optical/torus_network.hpp"

namespace wrht::optics {
namespace {

const net::ReconfigPolicy kPolicies[] = {net::ReconfigPolicy::kEveryRound,
                                         net::ReconfigPolicy::kOnRetune,
                                         net::ReconfigPolicy::kOverlapped};

OpticalConfig config(net::ReconfigPolicy policy) {
  OpticalConfig cfg;
  cfg.wavelengths = 2;  // starve WRHT so steps split into several rounds
  cfg.reconfig_policy = policy;
  return cfg;
}

/// Every sink attached.
struct FullProbe {
  obs::MemoryTraceSink trace;
  obs::Counters counters;
  obs::OccupancySampler occupancy;
  obs::TransferLog log;
  obs::Probe probe;
  FullProbe() {
    probe.trace = &trace;
    probe.counters = &counters;
    probe.occupancy = &occupancy;
    probe.transfers = &log;
  }
};

void expect_same_run(const OpticalRunResult& a, const OpticalRunResult& b,
                     const std::string& what) {
  EXPECT_EQ(a.total_time, b.total_time) << what;
  EXPECT_EQ(a.total_rounds, b.total_rounds) << what;
  EXPECT_EQ(a.max_wavelengths_used, b.max_wavelengths_used) << what;
  EXPECT_EQ(a.longest_lightpath_hops, b.longest_lightpath_hops) << what;
  EXPECT_EQ(a.events_fired, b.events_fired) << what;
  EXPECT_EQ(a.reconfigurations, b.reconfigurations) << what;
  EXPECT_EQ(a.retuned_mrrs, b.retuned_mrrs) << what;
  EXPECT_EQ(a.overlap_hidden, b.overlap_hidden) << what;
  ASSERT_EQ(a.step_costs.size(), b.step_costs.size()) << what;
  for (std::size_t s = 0; s < a.step_costs.size(); ++s) {
    EXPECT_EQ(a.step_costs[s].start, b.step_costs[s].start) << what;
    EXPECT_EQ(a.step_costs[s].duration, b.step_costs[s].duration) << what;
    EXPECT_EQ(a.step_costs[s].rounds, b.step_costs[s].rounds) << what;
  }
}

void expect_same_log(const obs::TransferLog& a, const obs::TransferLog& b,
                     const std::string& what) {
  ASSERT_EQ(a.steps().size(), b.steps().size()) << what;
  ASSERT_EQ(a.rounds().size(), b.rounds().size()) << what;
  ASSERT_EQ(a.transfers().size(), b.transfers().size()) << what;
  for (std::size_t i = 0; i < a.rounds().size(); ++i) {
    const obs::RoundTrace& x = a.rounds()[i];
    const obs::RoundTrace& y = b.rounds()[i];
    EXPECT_EQ(x.lane, y.lane) << what;
    EXPECT_EQ(x.start, y.start) << what;
    EXPECT_EQ(x.reconfig, y.reconfig) << what;
    EXPECT_EQ(x.duration, y.duration) << what;
    EXPECT_EQ(x.retune, y.retune) << what;
  }
  for (std::size_t i = 0; i < a.transfers().size(); ++i) {
    const obs::TransferTrace& x = a.transfers()[i];
    const obs::TransferTrace& y = b.transfers()[i];
    EXPECT_EQ(x.src, y.src) << what;
    EXPECT_EQ(x.dst, y.dst) << what;
    EXPECT_EQ(x.wavelength, y.wavelength) << what;
    EXPECT_EQ(x.direction, y.direction) << what;
    EXPECT_EQ(x.start, y.start) << what;
  }
}

TEST(ObservationInvariance, RingPricesTheSameObservedOrNot) {
  const std::uint32_t n = 32;
  const std::vector<coll::Schedule> schedules = {
      core::wrht_allreduce(n, 4096, core::WrhtOptions{9, 2}),
      coll::ring_allreduce(n, 64)};
  for (const auto policy : kPolicies) {
    for (const coll::Schedule& sched : schedules) {
      const std::string what =
          sched.algorithm() + "/" + net::to_string(policy);
      const OpticalRunResult plain =
          RingNetwork(n, config(policy)).execute(sched);
      FullProbe fresh;
      const OpticalRunResult observed =
          RingNetwork(n, config(policy)).execute(sched, fresh.probe);
      expect_same_run(plain, observed, what);
      EXPECT_FALSE(fresh.log.rounds().empty()) << what;

      // Same network: unobserved first (filling the pattern cache), then
      // observed from cache hits only.
      const RingNetwork warm(n, config(policy));
      (void)warm.execute(sched);
      FullProbe cached;
      expect_same_run(warm.execute(sched, cached.probe), observed, what);
      expect_same_log(cached.log, fresh.log, what);
    }
  }
}

TEST(ObservationInvariance, TorusPricesTheSameObservedOrNot) {
  const topo::Torus torus(4, 8);
  const coll::Schedule sched =
      core::torus_wrht_allreduce(torus, 1000, core::WrhtOptions{3, 2});
  for (const auto policy : kPolicies) {
    const std::string what = net::to_string(policy);
    const TorusNetwork net(torus, config(policy));
    const OpticalRunResult plain = net.execute(sched);
    FullProbe fresh;
    const OpticalRunResult observed = net.execute(sched, fresh.probe);
    expect_same_run(plain, observed, what);
    EXPECT_FALSE(fresh.log.rounds().empty()) << what;
    FullProbe again;
    expect_same_run(net.execute(sched, again.probe), observed, what);
    expect_same_log(again.log, fresh.log, what);
  }
}

}  // namespace
}  // namespace wrht::optics
