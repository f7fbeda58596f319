// Observation must not change what the engines compute: a run with every
// probe sink attached prices exactly like an unobserved one, and pattern
// caches serve observed and unobserved runs from the same entries
// (warming a cache first yields the same TransferLog as a fresh observed
// run). Every engine's TransferLog states each transfer's round, and so
// its step and lane, by index.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "wrht/collectives/recursive_doubling.hpp"
#include "wrht/collectives/ring_allreduce.hpp"
#include "wrht/core/torus_wrht.hpp"
#include "wrht/core/wrht_schedule.hpp"
#include "wrht/electrical/fat_tree_network.hpp"
#include "wrht/electrical/packet_sim.hpp"
#include "wrht/obs/counters.hpp"
#include "wrht/obs/occupancy.hpp"
#include "wrht/obs/trace.hpp"
#include "wrht/obs/transfer_log.hpp"
#include "wrht/optical/node.hpp"
#include "wrht/optical/ring_network.hpp"
#include "wrht/optical/rwa.hpp"
#include "wrht/optical/torus_network.hpp"

namespace wrht::optics {
namespace {

// A transfer record is a fixed-size plain value: the log copies it with
// memcpy and holds millions of them on Ring-sized runs.
static_assert(std::is_trivially_copyable_v<obs::TransferTrace>);
static_assert(sizeof(obs::TransferTrace) <= 48);

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
  EXPECT_EQ(a.context().backend, b.context().backend) << what;
  ASSERT_EQ(a.steps().size(), b.steps().size()) << what;
  ASSERT_EQ(a.rounds().size(), b.rounds().size()) << what;
  ASSERT_EQ(a.transfers().size(), b.transfers().size()) << what;
  for (std::size_t i = 0; i < a.steps().size(); ++i) {
    const obs::StepTrace& x = a.steps()[i];
    const obs::StepTrace& y = b.steps()[i];
    EXPECT_EQ(x.step, y.step) << what;
    EXPECT_EQ(x.label, y.label) << what;
    EXPECT_EQ(x.start, y.start) << what;
    EXPECT_EQ(x.duration, y.duration) << what;
  }
  for (std::size_t i = 0; i < a.rounds().size(); ++i) {
    const obs::RoundTrace& x = a.rounds()[i];
    const obs::RoundTrace& y = b.rounds()[i];
    EXPECT_EQ(x.step, y.step) << what;
    EXPECT_EQ(x.lane, y.lane) << what;
    EXPECT_EQ(x.round, y.round) << what;
    EXPECT_EQ(x.start, y.start) << what;
    EXPECT_EQ(x.reconfig, y.reconfig) << what;
    EXPECT_EQ(x.full_reconfig, y.full_reconfig) << what;
    EXPECT_EQ(x.conversion, y.conversion) << what;
    EXPECT_EQ(x.serialization, y.serialization) << what;
    EXPECT_EQ(x.processing, y.processing) << what;
    EXPECT_EQ(x.duration, y.duration) << what;
    EXPECT_EQ(x.retune, y.retune) << what;
  }
  for (std::size_t i = 0; i < a.transfers().size(); ++i) {
    const obs::TransferTrace& x = a.transfers()[i];
    const obs::TransferTrace& y = b.transfers()[i];
    EXPECT_EQ(x.round_index, y.round_index) << what;
    EXPECT_EQ(x.src, y.src) << what;
    EXPECT_EQ(x.dst, y.dst) << what;
    EXPECT_EQ(x.elements, y.elements) << what;
    EXPECT_EQ(x.wavelength, y.wavelength) << what;
    EXPECT_EQ(x.direction, y.direction) << what;
    EXPECT_EQ(x.start, y.start) << what;
    EXPECT_EQ(x.duration, y.duration) << what;
  }
}

void expect_same_occupancy(const obs::OccupancySampler& a,
                           const obs::OccupancySampler& b,
                           const std::string& what) {
  ASSERT_EQ(a.num_resources(), b.num_resources()) << what;
  for (std::uint32_t r = 0; r < a.num_resources(); ++r) {
    EXPECT_EQ(a.name(r), b.name(r)) << what;
    const auto& x = a.intervals(r);
    const auto& y = b.intervals(r);
    ASSERT_EQ(x.size(), y.size()) << what << " " << a.name(r);
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(x[i].start, y[i].start) << what;
      EXPECT_EQ(x[i].duration, y[i].duration) << what;
      EXPECT_EQ(x[i].category, y[i].category) << what;
      EXPECT_EQ(x[i].step, y[i].step) << what;
      EXPECT_EQ(x[i].concurrency, y[i].concurrency) << what;
    }
  }
}

/// Each non-empty step logs one TransferTrace per transfer, in step order,
/// and every record's round_index names a round of that same step.
void expect_rounds_name_their_step(const obs::TransferLog& log,
                                   const coll::Schedule& schedule,
                                   const std::string& what) {
  std::size_t next = 0;
  for (std::size_t s = 0; s < schedule.num_steps(); ++s) {
    const coll::Step& step = schedule.steps()[s];
    std::vector<std::pair<std::uint32_t, std::uint32_t>> want;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> got;
    for (const coll::Transfer& t : step.transfers) {
      want.emplace_back(t.src, t.dst);
      ASSERT_LT(next, log.transfers().size()) << what << " step " << s;
      const obs::TransferTrace& trace = log.transfers()[next++];
      ASSERT_LT(trace.round_index, log.rounds().size()) << what;
      EXPECT_EQ(log.rounds()[trace.round_index].step, s) << what;
      got.emplace_back(trace.src, trace.dst);
    }
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want) << what << " step " << s;
  }
  EXPECT_EQ(next, log.transfers().size()) << what;
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
      expect_rounds_name_their_step(fresh.log, sched, what);

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

TEST(ObservationInvariance, RingRetuneWalkMatchesAnIndependentWalk) {
  // The engine keeps a pointer to the previous round's tuning state and
  // copies it only out of the uncached slot (random-fit patterns), which
  // the next step overwrites. Re-derive the walk here from the same RWA
  // draws and check the retuned MRR total and every round's retune flag.
  const std::uint32_t n = 32;
  const std::vector<coll::Schedule> schedules = {
      core::wrht_allreduce(n, 4096, core::WrhtOptions{9, 2}),
      core::wrht_allreduce(n, 4096, core::WrhtOptions{3, 2}),
      coll::recursive_doubling_allreduce(n, 64),
      coll::ring_allreduce(n, 64)};
  for (const RwaPolicy rwa : {RwaPolicy::kFirstFit, RwaPolicy::kRandomFit}) {
    for (const coll::Schedule& sched : schedules) {
      const std::string what = sched.algorithm() + "/" +
                               (rwa == RwaPolicy::kFirstFit ? "first" : "random");
      OpticalConfig cfg = config(net::ReconfigPolicy::kOnRetune);
      cfg.rwa_policy = rwa;
      const RingNetwork net(n, cfg);
      Rng engine_rng(7);
      FullProbe probe;
      const OpticalRunResult result = net.execute(sched, probe.probe, &engine_rng);

      Rng walk_rng(7);
      TuningState previous;
      std::uint64_t retuned = 0;
      std::vector<bool> flags;
      for (const coll::Step& step : sched.steps()) {
        if (step.transfers.empty()) continue;
        const RoundsResult rounds = assign_rounds(
            topo::Ring(n), step.transfers, cfg.rwa_options(), &walk_rng);
        for (const std::vector<Lightpath>& paths : rounds.paths) {
          const TuningState next = TuningState::from_lightpaths(paths);
          const std::size_t count = previous.retune_count(next);
          retuned += count;
          flags.push_back(count > 0);
          previous = next;
        }
      }
      EXPECT_GT(retuned, 0u) << what;
      EXPECT_EQ(result.retuned_mrrs, retuned) << what;
      ASSERT_EQ(probe.log.rounds().size(), flags.size()) << what;
      for (std::size_t r = 0; r < flags.size(); ++r) {
        EXPECT_EQ(probe.log.rounds()[r].retune, flags[r]) << what << " " << r;
      }
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
    expect_rounds_name_their_step(fresh.log, sched, what);
    FullProbe again;
    expect_same_run(net.execute(sched, again.probe), observed, what);
    expect_same_log(again.log, fresh.log, what);
  }
}

TEST(ObservationInvariance, FlowPricesTheSameObservedOrNot) {
  const std::uint32_t n = 32;
  const coll::Schedule sched = coll::ring_allreduce(n, 64 * n);
  const elec::FatTreeNetwork plain_net(n, elec::ElectricalConfig{});
  const elec::ElectricalRunResult plain = plain_net.execute(sched);

  // One backend, observed twice: the second run is all pattern-cache hits.
  const elec::FatTreeNetwork net(n, elec::ElectricalConfig{});
  FullProbe fresh;
  const elec::ElectricalRunResult observed = net.execute(sched, fresh.probe);
  FullProbe again;
  const elec::ElectricalRunResult cached = net.execute(sched, again.probe);
  for (const elec::ElectricalRunResult* run : {&observed, &cached}) {
    EXPECT_EQ(run->total_time, plain.total_time);
    EXPECT_EQ(run->step_times, plain.step_times);
    EXPECT_EQ(run->total_flows, plain.total_flows);
    EXPECT_EQ(run->max_link_load, plain.max_link_load);
  }
  EXPECT_FALSE(fresh.log.rounds().empty());
  expect_rounds_name_their_step(fresh.log, sched, "flow");
  expect_same_log(again.log, fresh.log, "flow");
  expect_same_occupancy(again.occupancy, fresh.occupancy, "flow");
}

TEST(ObservationInvariance, PacketPricesTheSameObservedOrNot) {
  const std::uint32_t n = 16;
  const std::vector<coll::Schedule> schedules = {
      coll::recursive_doubling_allreduce(n, 1000),
      coll::ring_allreduce(n, 100 * n)};
  for (const coll::Schedule& sched : schedules) {
    const std::string what = sched.algorithm();
    const elec::PacketLevelNetwork net(n, elec::ElectricalConfig{});
    const elec::PacketRunResult plain = net.execute(sched);
    FullProbe fresh;
    const elec::PacketRunResult observed = net.execute(sched, fresh.probe);
    FullProbe again;
    const elec::PacketRunResult repeat = net.execute(sched, again.probe);
    for (const elec::PacketRunResult* run : {&observed, &repeat}) {
      EXPECT_EQ(run->total_time, plain.total_time) << what;
      EXPECT_EQ(run->step_times, plain.step_times) << what;
      EXPECT_EQ(run->total_packets, plain.total_packets) << what;
      EXPECT_EQ(run->events_fired, plain.events_fired) << what;
    }
    EXPECT_EQ(fresh.counters.value("sim.events_fired"), plain.events_fired)
        << what;
    EXPECT_FALSE(fresh.log.rounds().empty()) << what;
    expect_rounds_name_their_step(fresh.log, sched, what);
    expect_same_log(again.log, fresh.log, what);
    expect_same_occupancy(again.occupancy, fresh.occupancy, what);
  }
}

}  // namespace
}  // namespace wrht::optics
