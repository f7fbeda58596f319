// Large-scale smoke tests (ctest label `large`, excluded from tier-1):
// build WRHT schedules at the N = 10^5 / 256x256-torus scale the arena
// work targets, verify them with the cheap oracles (structural
// invariants plus a sampled data-level proof on a 1-element vector — WRHT
// schedules are full-vector, so the element axis is structure-free and one
// element proves the same linear combination), sweep the Ring series at
// full Fig. 6 size, and hold each run under a hard peak-RSS budget read
// from prof::peak_rss_bytes.
//
// These run as their own single-shard Release CI job: they are memory- and
// minutes-scale, not unit-test-scale.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "wrht/collectives/ring_allreduce.hpp"
#include "wrht/collectives/schedule.hpp"
#include "wrht/core/planner.hpp"
#include "wrht/core/torus_wrht.hpp"
#include "wrht/core/wrht_schedule.hpp"
#include "wrht/dnn/zoo.hpp"
#include "wrht/exp/sweep.hpp"
#include "wrht/prof/prof.hpp"
#include "wrht/topo/torus.hpp"
#include "wrht/verify/invariants.hpp"
#include "wrht/verify/oracle.hpp"

namespace wrht {
namespace {

constexpr std::uint32_t kRingNodes = 100000;
constexpr std::uint32_t kTorusSide = 256;
constexpr std::uint32_t kWavelengths = 64;

/// Hard budget for the whole binary (both schedules and their verifiers):
/// the N = 10^5 ring schedule holds ~10^5-scale transfer lists on its
/// arena, the 256x256 torus one is of comparable size, and the sampled
/// oracle keeps one double per node. Measured peak is ~38 MB; the
/// headroom absorbs allocator and libc variance across runners without
/// letting an accidental O(N^2) path slip through.
constexpr std::size_t kPeakRssBudgetBytes = 256ull * 1024 * 1024;

TEST(ScaleSmoke, Ring100kWrhtScheduleBuildsAndVerifies) {
  const core::WrhtPlan plan = core::plan_wrht(kRingNodes, kWavelengths);
  core::WrhtOptions options;
  options.group_size = plan.group_size;
  options.wavelengths = kWavelengths;

  // Element axis sampled at 1: every WRHT transfer carries the whole
  // vector, so the structure is element-independent and verifying at 1
  // element verifies them all.
  const coll::Schedule schedule =
      core::wrht_allreduce(kRingNodes, 1, options);
  EXPECT_EQ(schedule.storage(), coll::ScheduleStorage::kArena);
  ASSERT_NE(schedule.arena(), nullptr);
  // The arena must hold the transfer payload in O(few) chunks, not one
  // malloc per transfer list.
  EXPECT_LE(schedule.arena()->chunks(),
            schedule.arena()->bytes_allocated() / (64 * 1024) + 8);

  const verify::CheckResult structure =
      verify::check_schedule_structure(schedule);
  EXPECT_TRUE(structure.ok()) << structure.summary();

  const verify::CheckResult steps = verify::check_wrht_step_count(
      schedule, kRingNodes, plan.group_size, kWavelengths);
  EXPECT_TRUE(steps.ok()) << steps.summary();

  const verify::OracleReport oracle = verify::check_allreduce(schedule);
  EXPECT_TRUE(oracle.ok()) << oracle.result.summary();
  // N^2 cells puts the exact provenance proof far over its cap; the
  // numeric proof is the sampled oracle here.
  EXPECT_FALSE(oracle.provenance_checked);

  EXPECT_LE(prof::peak_rss_bytes(), kPeakRssBudgetBytes);
}

TEST(ScaleSmoke, Torus256x256WrhtScheduleBuildsAndVerifies) {
  const topo::Torus torus(kTorusSide, kTorusSide);
  core::WrhtOptions options;
  options.group_size = core::plan_wrht(kTorusSide, kWavelengths).group_size;
  options.wavelengths = kWavelengths;

  const coll::Schedule schedule =
      core::torus_wrht_allreduce(torus, 1, options);
  EXPECT_EQ(schedule.storage(), coll::ScheduleStorage::kArena);
  EXPECT_EQ(schedule.num_nodes(), kTorusSide * kTorusSide);

  const verify::CheckResult structure =
      verify::check_schedule_structure(schedule);
  EXPECT_TRUE(structure.ok()) << structure.summary();

  const verify::OracleReport oracle = verify::check_allreduce(schedule);
  EXPECT_TRUE(oracle.ok()) << oracle.result.summary();

  EXPECT_LE(prof::peak_rss_bytes(), kPeakRssBudgetBytes);
}

/// The paper's four DNN workloads as sweep workloads.
std::vector<exp::Workload> paper_workloads() {
  std::vector<exp::Workload> workloads;
  for (const auto& model : dnn::paper_workloads()) {
    workloads.push_back(exp::Workload{model.name(), model.parameter_count()});
  }
  return workloads;
}

/// Budget for a chunked sweep: one materialized Ring schedule at N = 2048
/// holds 2 * 2047 * 2048 transfers (320 MiB of 40-byte Transfers). The
/// runner frees each schedule when its point finishes, so one worker
/// holds one such schedule at a time (measured peak 328 MiB); a runner
/// that kept every workload's build alive peaks at ~2.5 GiB. The
/// series' builder materializes its steps, since a generated Ring is too
/// small to show a leak.
constexpr std::size_t kChunkedSweepBudgetBytes = 700ull * 1024 * 1024;

TEST(ScaleSmoke, ChunkedRingSweepFreesEachScheduleAfterItsPoint) {
  exp::SweepSpec spec;
  spec.workloads = paper_workloads();
  spec.nodes = {2048};
  spec.wavelengths = {kWavelengths};
  spec.series = {exp::Series{
      .name = "ring", .builder = [](const exp::SweepPoint& point) {
        coll::Schedule schedule =
            coll::ring_allreduce(point.nodes, point.workload.elements);
        (void)schedule.steps();
        return schedule;
      }}};
  const auto rows = exp::SweepRunner(1).run(spec);
  ASSERT_EQ(rows.size(), 4u);
  for (const exp::SweepRow& row : rows) {
    EXPECT_EQ(row.report.steps, 2u * 2047);
  }
  EXPECT_LE(prof::peak_rss_bytes(), kChunkedSweepBudgetBytes);
}

/// Full-size Fig. 6's Ring series on four sweep workers: a generated Ring
/// schedule is O(N), so the N = 4096 points fit the `large` budget that a
/// materialized one (1.34 GB each) would exceed five times over.
TEST(ScaleSmoke, Fig6RingSeriesOnFourWorkersStaysInBudget) {
  exp::SweepSpec spec;
  spec.workloads = paper_workloads();
  spec.nodes = {3072, 4096};
  spec.wavelengths = {kWavelengths};
  spec.series = {exp::Series{.name = "ring", .algorithm = "ring"}};
  const auto rows = exp::SweepRunner(4).run(spec);
  ASSERT_EQ(rows.size(), 8u);
  for (const exp::SweepRow& row : rows) {
    EXPECT_EQ(row.report.steps, 2u * (row.point.nodes - 1));
    EXPECT_EQ(row.report.rounds, row.report.steps);
  }
  EXPECT_LE(prof::peak_rss_bytes(), kPeakRssBudgetBytes);
}

}  // namespace
}  // namespace wrht
