// Invariants of the occupancy sampler and of what the four engines record
// into it: per-resource timelines never overlap, busy time never exceeds
// the run's wall clock, and the derived per-step breakdown tiles each
// step's duration exactly. The thread-count test pins the determinism
// contract: utilization analytics through exp::SweepRunner are identical
// regardless of WRHT_SWEEP_THREADS.
#include "wrht/obs/occupancy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "wrht/collectives/ring_allreduce.hpp"
#include "wrht/core/planner.hpp"
#include "wrht/core/torus_wrht.hpp"
#include "wrht/core/wrht_schedule.hpp"
#include "wrht/electrical/fat_tree_network.hpp"
#include "wrht/electrical/packet_sim.hpp"
#include "wrht/exp/sweep.hpp"
#include "wrht/obs/analysis.hpp"
#include "wrht/obs/run_report.hpp"
#include "wrht/obs/trace.hpp"
#include "wrht/optical/ring_network.hpp"
#include "wrht/optical/torus_network.hpp"

namespace wrht::obs {
namespace {

constexpr OccCategory kTx = OccCategory::kTransmission;
constexpr OccCategory kRetune = OccCategory::kReconfiguration;

// ------------------------------------------------------- sampler basics

TEST(OccupancySampler, ResourceHandlesAreDenseAndDeduplicated) {
  OccupancySampler s;
  const auto a = s.resource("cw/w0");
  const auto b = s.resource("ccw/w0");
  EXPECT_EQ(s.resource("cw/w0"), a);
  EXPECT_NE(a, b);
  EXPECT_EQ(s.num_resources(), 2u);
  EXPECT_EQ(s.name(a), "cw/w0");
  EXPECT_EQ(s.name(b), "ccw/w0");
}

TEST(OccupancySampler, DropsNonPositiveDurations) {
  OccupancySampler s;
  const auto r = s.resource("r");
  s.record(r, 0, Seconds(1.0), Seconds(0.0), kTx);
  s.record(r, 0, Seconds(1.0), Seconds(-1e-9), kTx);
  EXPECT_TRUE(s.intervals(r).empty());
}

TEST(OccupancySampler, CoalescesBackToBackSlices) {
  OccupancySampler s;
  const auto r = s.resource("r");
  // Back-to-back same step/category/concurrency: one interval.
  s.record(r, 0, Seconds(0.0), Seconds(1e-6), kTx);
  s.record(r, 0, Seconds(1e-6), Seconds(2e-6), kTx);
  ASSERT_EQ(s.intervals(r).size(), 1u);
  EXPECT_DOUBLE_EQ(s.intervals(r)[0].duration.count(), 3e-6);
  // Category change breaks the merge even when contiguous.
  s.record(r, 0, Seconds(3e-6), Seconds(1e-6), kRetune);
  EXPECT_EQ(s.intervals(r).size(), 2u);
  // A gap breaks it too.
  s.record(r, 0, Seconds(5e-6), Seconds(1e-6), kRetune);
  EXPECT_EQ(s.intervals(r).size(), 3u);
}

TEST(OccupancySampler, RecordedSumsPerCategory) {
  OccupancySampler s;
  const auto r = s.resource("r");
  s.record(r, 0, Seconds(0.0), Seconds(1e-6), kTx);
  s.record(r, 1, Seconds(2e-6), Seconds(3e-6), kRetune);
  EXPECT_DOUBLE_EQ(s.recorded(r, kTx).count(), 1e-6);
  EXPECT_DOUBLE_EQ(s.recorded(r, kRetune).count(), 3e-6);
  EXPECT_DOUBLE_EQ(s.recorded(r).count(), 4e-6);
  s.clear();
  EXPECT_EQ(s.num_resources(), 0u);
}

// ------------------------------------------- engine-recorded invariants

/// Sorted-by-start intervals of `ref` must tile without overlap, and the
/// busy total cannot exceed the run's wall clock (a resource is one
/// physical channel; spatial reuse raises `concurrency`, not busy time).
void expect_valid_timelines(const OccupancySampler& sampler,
                            double total_time) {
  ASSERT_GT(sampler.num_resources(), 0u);
  const double eps = 1e-12 * (1.0 + total_time);
  for (OccupancySampler::ResourceRef ref = 0; ref < sampler.num_resources();
       ++ref) {
    std::vector<OccInterval> sorted = sampler.intervals(ref);
    std::sort(sorted.begin(), sorted.end(),
              [](const OccInterval& a, const OccInterval& b) {
                return a.start.count() < b.start.count();
              });
    double cursor = 0.0;
    double busy = 0.0;
    for (const OccInterval& iv : sorted) {
      EXPECT_GE(iv.start.count(), cursor - eps)
          << sampler.name(ref) << ": overlapping intervals";
      EXPECT_GT(iv.duration.count(), 0.0);
      EXPECT_GE(iv.concurrency, 1u);
      cursor = iv.start.count() + iv.duration.count();
      busy += iv.duration.count();
    }
    EXPECT_LE(cursor, total_time + eps) << sampler.name(ref);
    EXPECT_LE(busy, total_time + eps)
        << sampler.name(ref) << ": busier than the wall clock";
  }
}

/// The analysis identities: every step's breakdown sums to the step's
/// duration, the run breakdown sums to total_time, and the critical path
/// tiles the run.
void expect_accounting_identities(const RunReport& report,
                                  const UtilizationAnalysis& analysis) {
  const double eps = 1e-9;
  for (const StepReport& step : report.step_reports) {
    EXPECT_NEAR(step.breakdown.total().count(), step.duration.count(), eps)
        << step.label;
  }
  EXPECT_NEAR(report.breakdown.total().count(), report.total_time.count(),
              eps);
  EXPECT_NEAR(analysis.critical_path_length.count(),
              report.total_time.count(), eps);
  EXPECT_GE(report.utilization, 0.0);
  EXPECT_LE(report.utilization, 1.0);
  EXPECT_EQ(report.resources_observed, analysis.resources.size());
}

TEST(EngineOccupancy, OpticalRingRecordsValidTimelines) {
  const coll::Schedule sched = coll::ring_allreduce(8, 800);
  const optics::RingNetwork net(8,
                                optics::OpticalConfig{}.with_wavelengths(8));
  OccupancySampler sampler;
  Probe probe;
  probe.occupancy = &sampler;
  RunReport report = net.execute(sched, probe).to_report();
  expect_valid_timelines(sampler, report.total_time.count());
  expect_accounting_identities(report, attach_utilization(report, sampler));
}

TEST(EngineOccupancy, OpticalRingMultiRoundWrht) {
  // Few wavelengths force multi-round splitting, so the sampler sees
  // reconfiguration, O/E/O and straggler intervals, not just payload.
  const auto plan = core::plan_wrht(32, 4);
  const coll::Schedule sched =
      core::wrht_allreduce(32, 6400, core::WrhtOptions{plan.group_size, 4});
  const optics::RingNetwork net(
      32, optics::OpticalConfig{}.with_wavelengths(4).with_validate_node_capacity(
              false));
  OccupancySampler sampler;
  Probe probe;
  probe.occupancy = &sampler;
  RunReport report = net.execute(sched, probe).to_report();
  expect_valid_timelines(sampler, report.total_time.count());
  expect_accounting_identities(report, attach_utilization(report, sampler));
}

TEST(EngineOccupancy, OpticalTorusRecordsValidTimelines) {
  const topo::Torus torus(4, 8);
  const auto sched =
      core::torus_wrht_allreduce(torus, 1000, core::WrhtOptions{3, 8});
  const optics::TorusNetwork net(torus,
                                 optics::OpticalConfig{}.with_wavelengths(8));
  OccupancySampler sampler;
  Probe probe;
  probe.occupancy = &sampler;
  RunReport report = net.execute(sched, probe).to_report();
  expect_valid_timelines(sampler, report.total_time.count());
  expect_accounting_identities(report, attach_utilization(report, sampler));
}

TEST(EngineOccupancy, ElectricalFlowRecordsValidTimelines) {
  const coll::Schedule sched = coll::ring_allreduce(8, 800);
  const elec::FatTreeNetwork net(8, elec::ElectricalConfig{});
  OccupancySampler sampler;
  Probe probe;
  probe.occupancy = &sampler;
  RunReport report = net.execute(sched, probe).to_report();
  expect_valid_timelines(sampler, report.total_time.count());
  expect_accounting_identities(report, attach_utilization(report, sampler));
}

TEST(EngineOccupancy, ElectricalPacketRecordsValidTimelines) {
  const coll::Schedule sched = coll::ring_allreduce(8, 800);
  const elec::PacketLevelNetwork net(8, elec::ElectricalConfig{});
  OccupancySampler sampler;
  Probe probe;
  probe.occupancy = &sampler;
  RunReport report = net.execute(sched, probe).to_report();
  expect_valid_timelines(sampler, report.total_time.count());
  expect_accounting_identities(report, attach_utilization(report, sampler));
}

// --------------------------------------------- sweep-level determinism

TEST(EngineOccupancy, UtilizationIdenticalAcrossSweepThreadCounts) {
  exp::SweepSpec spec;
  spec.workloads = {exp::Workload{"tiny", 4096}};
  spec.nodes = {16};
  spec.wavelengths = {4};
  spec.series = {exp::Series{.name = "ring", .algorithm = "ring"},
                 exp::Series{.name = "wrht", .algorithm = "wrht"},
                 exp::Series{.name = "flow", .algorithm = "ring",
                             .backend = "electrical-flow"}};
  spec.config.validate_node_capacity = false;
  spec.config.collect_utilization = true;

  const auto serial = exp::SweepRunner(1).run(spec);
  const auto parallel = exp::SweepRunner(4).run(spec);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const RunReport& a = serial[i].report;
    const RunReport& b = parallel[i].report;
    EXPECT_GT(a.resources_observed, 0u) << serial[i].point.series;
    EXPECT_EQ(a.utilization, b.utilization) << serial[i].point.series;
    EXPECT_EQ(a.resources_observed, b.resources_observed);
    EXPECT_EQ(a.breakdown.transmission.count(),
              b.breakdown.transmission.count());
    EXPECT_EQ(a.breakdown.reconfiguration.count(),
              b.breakdown.reconfiguration.count());
    EXPECT_EQ(a.breakdown.idle.count(), b.breakdown.idle.count());
  }
}

// ------------------------------------ analysis against the matrix oracle

/// The per-step mean and critical resource as a steps x resources matrix
/// computed them: the same sums, which analyze_utilization now folds one
/// resource at a time.
struct MatrixOracle {
  std::vector<std::array<double, kOccCategoryCount>> mean;
  std::vector<std::size_t> critical;
  std::vector<double> critical_transmission;
};

MatrixOracle matrix_oracle(std::size_t num_steps,
                           const OccupancySampler& sampler) {
  using Times = std::array<double, kOccCategoryCount>;
  const std::size_t num_res = sampler.num_resources();
  std::vector<Times> acc(num_steps * num_res, Times{});
  for (std::size_t r = 0; r < num_res; ++r) {
    for (const OccInterval& i :
         sampler.intervals(static_cast<std::uint32_t>(r))) {
      if (i.step >= num_steps) continue;
      acc[i.step * num_res + r][static_cast<std::size_t>(i.category)] +=
          i.duration.count();
    }
  }
  MatrixOracle out;
  for (std::size_t s = 0; s < num_steps; ++s) {
    Times mean{};
    std::size_t critical = num_res;
    double critical_accounted = -1.0;
    for (std::size_t r = 0; r < num_res; ++r) {
      const Times& t = acc[s * num_res + r];
      double accounted = 0.0;
      for (std::size_t c = 0; c < kOccCategoryCount; ++c) {
        mean[c] += t[c];
        accounted += t[c];
      }
      if (accounted > critical_accounted) {
        critical_accounted = accounted;
        critical = r;
      }
    }
    if (num_res > 0) {
      for (double& c : mean) c /= static_cast<double>(num_res);
    }
    out.mean.push_back(mean);
    out.critical.push_back(critical);
    out.critical_transmission.push_back(
        critical < num_res
            ? acc[s * num_res + critical]
                 [static_cast<std::size_t>(OccCategory::kTransmission)]
            : 0.0);
  }
  return out;
}

void expect_matches_matrix(const RunReport& report,
                           const OccupancySampler& sampler,
                           const std::string& what) {
  const UtilizationAnalysis got = analyze_utilization(report, sampler);
  const MatrixOracle want =
      matrix_oracle(report.step_reports.size(), sampler);
  ASSERT_EQ(got.step_breakdowns.size(), want.mean.size()) << what;
  for (std::size_t s = 0; s < want.mean.size(); ++s) {
    const TimeBreakdown& b = got.step_breakdowns[s];
    const auto& m = want.mean[s];
    EXPECT_EQ(b.transmission.count(),
              m[static_cast<std::size_t>(OccCategory::kTransmission)])
        << what << " step " << s;
    EXPECT_EQ(b.reconfiguration.count(),
              m[static_cast<std::size_t>(OccCategory::kReconfiguration)])
        << what;
    EXPECT_EQ(b.conversion.count(),
              m[static_cast<std::size_t>(OccCategory::kConversion)])
        << what;
    EXPECT_EQ(b.processing.count(),
              m[static_cast<std::size_t>(OccCategory::kProcessing)])
        << what;
    EXPECT_EQ(b.straggler_wait.count(),
              m[static_cast<std::size_t>(OccCategory::kStragglerWait)])
        << what;
    const CriticalPathEntry& edge = got.critical_path[s];
    EXPECT_EQ(edge.resource,
              want.critical[s] < sampler.num_resources()
                  ? sampler.name(static_cast<std::uint32_t>(want.critical[s]))
                  : std::string("(unobserved)"))
        << what << " step " << s;
    EXPECT_EQ(edge.transmission.count(), want.critical_transmission[s])
        << what;
  }
}

TEST(UtilizationAnalysis, MatchesTheStepsByResourcesMatrix) {
  const coll::Schedule ring = coll::ring_allreduce(8, 800);
  {
    const elec::FatTreeNetwork net(8, elec::ElectricalConfig{});
    OccupancySampler sampler;
    Probe probe;
    probe.occupancy = &sampler;
    expect_matches_matrix(net.execute(ring, probe).to_report(), sampler,
                          "flow");
  }
  {
    const elec::PacketLevelNetwork net(8, elec::ElectricalConfig{});
    OccupancySampler sampler;
    Probe probe;
    probe.occupancy = &sampler;
    expect_matches_matrix(net.execute(ring, probe).to_report(), sampler,
                          "packet");
  }
  {
    optics::OpticalConfig cfg;
    cfg.wavelengths = 2;
    const optics::RingNetwork net(16, cfg);
    OccupancySampler sampler;
    Probe probe;
    probe.occupancy = &sampler;
    expect_matches_matrix(
        net.execute(core::wrht_allreduce(16, 4096, core::WrhtOptions{3, 2}),
                    probe)
            .to_report(),
        sampler, "optical ring");
  }
}

TEST(UtilizationAnalysis, CriticalResourceTiesGoToTheFirstRegistered) {
  // Step 0: "b" and "c" tie above "a"; step 1: nothing recorded, so the
  // first resource wins at zero; step 2: "a" leads; an interval tagged
  // past the last step counts only toward its resource's run totals.
  OccupancySampler sampler;
  const auto a = sampler.resource("a");
  const auto b = sampler.resource("b");
  const auto c = sampler.resource("c");
  sampler.record(a, 0, Seconds(0.0), Seconds(1.0), kTx);
  sampler.record(b, 0, Seconds(0.0), Seconds(2.0), kTx);
  sampler.record(c, 0, Seconds(0.0), Seconds(1.5), kTx);
  sampler.record(c, 0, Seconds(1.5), Seconds(0.5), kRetune);
  sampler.record(a, 2, Seconds(3.0), Seconds(1.0), kTx);
  sampler.record(c, 5, Seconds(4.0), Seconds(1.0), kTx);
  RunReport report;
  report.total_time = Seconds(4.0);
  for (const double d : {2.0, 1.0, 1.0}) {
    StepReport step;
    step.duration = Seconds(d);
    report.step_reports.push_back(step);
  }
  const UtilizationAnalysis analysis = analyze_utilization(report, sampler);
  ASSERT_EQ(analysis.critical_path.size(), 3u);
  EXPECT_EQ(analysis.critical_path[0].resource, "b");
  EXPECT_EQ(analysis.critical_path[0].transmission.count(), 2.0);
  EXPECT_EQ(analysis.critical_path[1].resource, "a");
  EXPECT_EQ(analysis.critical_path[1].transmission.count(), 0.0);
  EXPECT_EQ(analysis.critical_path[2].resource, "a");
  EXPECT_EQ(analysis.resources[2].breakdown.transmission.count(), 2.5);
  expect_matches_matrix(report, sampler, "hand-built");
}

}  // namespace
}  // namespace wrht::obs
