// Service layer: wavelength allocator, admission policies, workload
// generation, and end-to-end FabricService runs on crafted job sets where
// the policy rankings are known by construction.
#include "wrht/svc/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "wrht/common/error.hpp"
#include "wrht/common/rng.hpp"
#include "wrht/obs/counters.hpp"
#include "wrht/svc/workload.hpp"

namespace wrht::svc {
namespace {

TEST(WavelengthAllocator, FirstFitAndCoalescing) {
  WavelengthAllocator alloc(16);
  EXPECT_EQ(alloc.free_width(), 16u);
  const auto a = alloc.allocate(4);
  const auto b = alloc.allocate(8);
  const auto c = alloc.allocate(4);
  ASSERT_TRUE(a && b && c);
  EXPECT_EQ(*a, 0u);
  EXPECT_EQ(*b, 4u);
  EXPECT_EQ(*c, 12u);
  EXPECT_EQ(alloc.free_width(), 0u);
  EXPECT_FALSE(alloc.allocate(1).has_value());

  // Free the middle: 8 contiguous wavelengths fit again, at the hole.
  alloc.release(4, 8);
  EXPECT_TRUE(alloc.fits(8));
  EXPECT_FALSE(alloc.fits(9));
  // Free the front; the two holes coalesce into [0, 12).
  alloc.release(0, 4);
  EXPECT_TRUE(alloc.fits(12));
  const auto d = alloc.allocate(12);
  ASSERT_TRUE(d);
  EXPECT_EQ(*d, 0u);
}

TEST(WavelengthAllocator, ReleaseValidation) {
  WavelengthAllocator alloc(8);
  const auto a = alloc.allocate(4);
  ASSERT_TRUE(a);
  EXPECT_THROW(alloc.release(6, 4), InvalidArgument);   // outside fabric
  alloc.release(*a, 4);
  EXPECT_THROW(alloc.release(*a, 4), InvalidArgument);  // double free
  EXPECT_THROW(alloc.release(2, 2), InvalidArgument);   // inside free space
}

TEST(WavelengthAllocator, ReleaseRejectsWrappingSlice) {
  WavelengthAllocator alloc(8);
  ASSERT_TRUE(alloc.allocate(8));
  // 0xFFFFFFFF + 2 wraps to 1 in 32-bit arithmetic: still outside.
  try {
    alloc.release(0xFFFFFFFFu, 2);
    ADD_FAILURE() << "wrapping release was accepted";
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(), "WavelengthAllocator: release outside the fabric");
  }
  EXPECT_THROW(alloc.release(0, 9), InvalidArgument);  // wider than fabric
  EXPECT_EQ(alloc.free_width(), 0u);
  EXPECT_EQ(alloc.largest_free(), 0u);
}

TEST(WavelengthAllocator, FitsIffLargestFreeSliceIsWideEnough) {
  // AdmissionContext::fits(w) is `w <= largest_free`; that is exact only
  // if the allocator agrees at every reachable state.
  constexpr std::uint32_t kFabric = 24;
  WavelengthAllocator alloc(kFabric);
  Rng rng(17);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> held;  // (lo, width)
  for (int step = 0; step < 2000; ++step) {
    if (held.empty() || rng.uniform_int(0, 2) > 0) {
      const auto width = static_cast<std::uint32_t>(rng.uniform_int(1, 9));
      if (const auto lo = alloc.allocate(width)) held.emplace_back(*lo, width);
    } else {
      const std::size_t i = rng.uniform_int(0, held.size() - 1);
      alloc.release(held[i].first, held[i].second);
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
    }
    for (std::uint32_t w = 1; w <= kFabric + 1; ++w) {
      ASSERT_EQ(alloc.fits(w), w <= alloc.largest_free())
          << "step " << step << ", width " << w;
    }
  }
}

AdmissionContext context_fitting_up_to(std::uint32_t max_width) {
  AdmissionContext ctx;
  ctx.largest_free = max_width;
  ctx.weighted_consumption = [](std::uint32_t) { return 0.0; };
  return ctx;
}

/// The admission queue the service hands a policy: pointers into `jobs`.
std::vector<const Job*> queue_of(const std::vector<Job>& jobs) {
  std::vector<const Job*> queue;
  for (const Job& job : jobs) queue.push_back(&job);
  return queue;
}

Job job_of(std::uint64_t id, std::uint32_t width, std::uint32_t priority = 0,
           std::uint32_t tenant = 0) {
  Job job;
  job.id = id;
  job.width = width;
  job.priority = priority;
  job.tenant = tenant;
  job.num_nodes = 8;
  job.elements = 4096;
  return job;
}

TEST(AdmissionPolicy, FifoBlocksBehindWideHead) {
  const auto policy = make_policy(PolicyKind::kFifo);
  const std::vector<Job> jobs = {job_of(0, 8), job_of(1, 2)};
  const std::vector<const Job*> queue = queue_of(jobs);
  // Head fits: picked. Head too wide: everyone blocks.
  EXPECT_EQ(policy->select(queue, context_fitting_up_to(8)), 0u);
  EXPECT_EQ(policy->select(queue, context_fitting_up_to(4)),
            AdmissionPolicy::kNone);
  EXPECT_EQ(policy->select({}, context_fitting_up_to(8)),
            AdmissionPolicy::kNone);
}

TEST(AdmissionPolicy, BackfillSkipsBlockedHead) {
  const auto policy = make_policy(PolicyKind::kBackfill);
  const std::vector<Job> jobs = {job_of(0, 8), job_of(1, 2), job_of(2, 1)};
  const std::vector<const Job*> queue = queue_of(jobs);
  EXPECT_EQ(policy->select(queue, context_fitting_up_to(4)), 1u);
  EXPECT_EQ(policy->select(queue, context_fitting_up_to(1)), 2u);
  EXPECT_EQ(policy->select(queue, context_fitting_up_to(0)),
            AdmissionPolicy::kNone);
}

TEST(AdmissionPolicy, PriorityPicksHighestThenFifo) {
  const auto policy = make_policy(PolicyKind::kPriority);
  const std::vector<Job> jobs = {job_of(0, 2, 1), job_of(1, 2, 3),
                                 job_of(2, 2, 3)};
  // Highest priority wins; FIFO among equals (index 1, not 2).
  EXPECT_EQ(policy->select(queue_of(jobs), context_fitting_up_to(8)), 1u);
  // Strict: if the chosen job does not fit, nobody runs.
  const std::vector<Job> blocked = {job_of(0, 2, 1), job_of(1, 8, 3)};
  EXPECT_EQ(policy->select(queue_of(blocked), context_fitting_up_to(4)),
            AdmissionPolicy::kNone);
}

TEST(AdmissionPolicy, WeightedFairPrefersStarvedTenant) {
  const auto policy = make_policy(PolicyKind::kWeightedFair);
  const std::vector<Job> jobs = {job_of(0, 2, 0, /*tenant=*/0),
                                 job_of(1, 2, 0, /*tenant=*/1)};
  AdmissionContext ctx = context_fitting_up_to(8);
  ctx.weighted_consumption = [](std::uint32_t tenant) {
    return tenant == 0 ? 100.0 : 1.0;  // tenant 0 has hogged the fabric
  };
  EXPECT_EQ(policy->select(queue_of(jobs), ctx), 1u);
  // Among fitting jobs only: the starved tenant's too-wide job is skipped
  // once only 4 wavelengths remain free.
  const std::vector<Job> mixed = {job_of(0, 2, 0, 0), job_of(1, 8, 0, 1)};
  AdmissionContext tight = context_fitting_up_to(4);
  tight.weighted_consumption = ctx.weighted_consumption;
  EXPECT_EQ(policy->select(queue_of(mixed), tight), 0u);
}

TEST(AdmissionPolicy, NamesRoundTrip) {
  for (const PolicyKind kind : all_policies()) {
    EXPECT_EQ(policy_from_string(to_string(kind)), kind);
  }
  EXPECT_THROW((void)policy_from_string("lifo"), InvalidArgument);
}

TEST(Workload, DeterministicAndWellFormed) {
  WorkloadConfig config;
  config.num_jobs = 40;
  config.burstiness = 0.3;
  const std::vector<Job> a = generate_workload(config);
  const std::vector<Job> b = generate_workload(config);
  ASSERT_EQ(a.size(), 40u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].width, b[i].width);
    EXPECT_EQ(a[i].tenant, b[i].tenant);
    EXPECT_EQ(a[i].model, b[i].model);
    if (i > 0) {
      EXPECT_GE(a[i].arrival.count(), a[i - 1].arrival.count());
    }
    EXPECT_LT(a[i].tenant, config.num_tenants);
    EXPECT_GE(a[i].width, config.fabric_wavelengths / 8);
    EXPECT_LE(a[i].width, config.fabric_wavelengths);
    EXPECT_GT(a[i].elements, 0u);
    EXPECT_GE(a[i].iterations, config.min_iterations);
    EXPECT_LE(a[i].iterations, config.max_iterations);
  }
  // A different seed moves the arrivals.
  config.seed = 7;
  const std::vector<Job> c = generate_workload(config);
  EXPECT_NE(a.back().arrival, c.back().arrival);
}

ServiceConfig fabric8(PolicyKind policy) {
  ServiceConfig config;
  config.fabric_wavelengths = 8;
  config.policy = policy;
  return config;
}

/// Head-of-line construction: a narrow long job holds half the fabric, a
/// full-width job queues behind it, and a narrow short job arrives last.
std::vector<Job> head_blocking_jobs() {
  std::vector<Job> jobs;
  jobs.push_back(job_of(0, 4));             // admitted at t=0, runs a while
  jobs[0].iterations = 8;
  Job wide = job_of(1, 8);                  // cannot start until 0 finishes
  wide.arrival = Seconds(1e-6);
  jobs.push_back(wide);
  Job narrow = job_of(2, 2);                // fits beside job 0 right now
  narrow.arrival = Seconds(2e-6);
  jobs.push_back(narrow);
  return jobs;
}

const JobRecord& record_of(const ServiceReport& report, std::uint64_t id) {
  const auto it =
      std::find_if(report.records.begin(), report.records.end(),
                   [id](const JobRecord& r) { return r.job.id == id; });
  EXPECT_NE(it, report.records.end());
  return *it;
}

TEST(FabricService, BackfillBeatsFifoUnderHeadBlocking) {
  FabricService fifo(fabric8(PolicyKind::kFifo));
  FabricService backfill(fabric8(PolicyKind::kBackfill));
  const std::vector<Job> jobs = head_blocking_jobs();
  const ServiceReport a = fifo.run(jobs);
  const ServiceReport b = backfill.run(jobs);
  ASSERT_EQ(a.records.size(), 3u);
  ASSERT_EQ(b.records.size(), 3u);

  // FIFO: the narrow job waits for the wide head; backfill slips it past.
  EXPECT_GT(record_of(a, 2).queue_wait().count(), 0.0);
  EXPECT_DOUBLE_EQ(record_of(b, 2).queue_wait().count(), 0.0);
  EXPECT_LT(record_of(b, 2).jct().count(), record_of(a, 2).jct().count());
  // The wide job is never worse off under backfill here (same grant time).
  EXPECT_EQ(record_of(b, 1).grant, record_of(a, 1).grant);
}

TEST(FabricService, RecordsAreConsistent) {
  FabricService service(fabric8(PolicyKind::kBackfill));
  const ServiceReport report = service.run(head_blocking_jobs());
  for (const JobRecord& r : report.records) {
    EXPECT_GE(r.grant.count(), r.job.arrival.count());
    EXPECT_GT(r.service_time().count(), 0.0);
    EXPECT_NEAR(r.jct().count(),
                r.queue_wait().count() + r.service_time().count(), 1e-12);
    EXPECT_EQ(r.lease.width(report.fabric_wavelengths), r.job.width);
    EXPECT_LE(r.lease.clamp_hi(report.fabric_wavelengths),
              report.fabric_wavelengths);
    EXPECT_LE(r.completion.count(), report.makespan.count());
  }
  EXPECT_GT(report.utilization, 0.0);
  EXPECT_LE(report.utilization, 1.0);
  EXPECT_FALSE(report.to_string().empty());
  EXPECT_EQ(report.tenants.size(), 1u);
  EXPECT_EQ(report.tenants[0].jobs, 3u);
}

TEST(FabricService, WeightedFairFavoursHighWeightTenant) {
  // Tenant 0 floods the queue; tenant 1 has 8x the weight, so once both
  // are waiting, tenant 1's jobs go first.
  ServiceConfig config = fabric8(PolicyKind::kWeightedFair);
  config.tenant_weights[1] = 8.0;
  FabricService fair(config);
  FabricService fifo(fabric8(PolicyKind::kFifo));

  std::vector<Job> jobs;
  for (std::uint64_t i = 0; i < 6; ++i) {
    Job j = job_of(i, 8, 0, /*tenant=*/0);
    j.iterations = 4;
    jobs.push_back(j);
  }
  Job vip = job_of(6, 8, 0, /*tenant=*/1);
  vip.arrival = Seconds(1e-6);
  jobs.push_back(vip);

  const ServiceReport a = fair.run(jobs);
  const ServiceReport b = fifo.run(jobs);
  EXPECT_LT(record_of(a, 6).jct().count(), record_of(b, 6).jct().count());
}

TEST(FabricService, LongLivedSimulatorResetsBetweenRuns) {
  FabricService service(fabric8(PolicyKind::kFifo));
  const std::vector<Job> jobs = head_blocking_jobs();
  const ServiceReport first = service.run(jobs);
  const std::uint64_t fired_once = service.simulator().events_fired();
  const ServiceReport second = service.run(jobs);
  // Identical reports run-to-run: the reset()-based reuse leaks nothing.
  ASSERT_EQ(first.records.size(), second.records.size());
  for (std::size_t i = 0; i < first.records.size(); ++i) {
    EXPECT_EQ(first.records[i].job.id, second.records[i].job.id);
    EXPECT_EQ(first.records[i].grant, second.records[i].grant);
    EXPECT_EQ(first.records[i].completion, second.records[i].completion);
  }
  // The lifetime event counter kept counting across the reset.
  EXPECT_EQ(service.simulator().events_fired(), 2 * fired_once);
}

TEST(FabricService, PricesEveryJobShapeWithTheFastestFeasibleCandidate) {
  // Shapes chosen so a price memo keyed on less than (num_nodes,
  // elements, width) would hand some job another shape's price.
  std::vector<Job> jobs;
  const auto add = [&jobs](std::uint32_t nodes, std::size_t elements,
                           std::uint32_t width, std::uint32_t iterations) {
    Job job = job_of(jobs.size(), width);
    job.num_nodes = nodes;
    job.elements = elements;
    job.iterations = iterations;
    jobs.push_back(job);
  };
  add(8, 4096, 4, 1);
  add(16, 4096, 4, 2);       // same (elements, width), other num_nodes
  add(8, 1 << 20, 4, 3);     // same (num_nodes, width), other elements
  add(8, 4096, 8, 1);        // same (num_nodes, elements), other width
  add(8, 4096, 4, 5);        // repeats the first shape
  add(32, 25'000'000, 16, 2);

  ServiceConfig config;
  config.fabric_wavelengths = 64;  // all fit at t=0, so grant == 0
  FabricService service(config);
  const ServiceReport first = service.run(jobs);
  ASSERT_EQ(first.records.size(), jobs.size());

  for (const JobRecord& r : first.records) {
    plan::PlannerOptions options = config.planner;
    options.wavelengths = r.job.width;
    std::optional<std::pair<Seconds, plan::CandidateKind>> best;
    for (const plan::CandidateKind kind :
         {plan::CandidateKind::kWrht, plan::CandidateKind::kFlatAllToAll,
          plan::CandidateKind::kStaticRing}) {
      const plan::Candidate c =
          plan::predict(kind, r.job.num_nodes, r.job.elements, options);
      if (c.feasible && (!best || c.predicted_time < best->first)) {
        best = {c.predicted_time, kind};
      }
    }
    ASSERT_TRUE(best.has_value());
    EXPECT_EQ(r.grant.count(), 0.0);
    EXPECT_EQ(r.service_time().count(),
              best->first.count() * r.job.iterations)
        << "job " << r.job.id;
    EXPECT_EQ(r.algorithm, best->second) << "job " << r.job.id;
  }

  // A second run on the same service reports the same, bit for bit.
  const ServiceReport second = service.run(jobs);
  EXPECT_EQ(second.to_string(), first.to_string());
  ASSERT_EQ(second.records.size(), first.records.size());
  for (std::size_t i = 0; i < first.records.size(); ++i) {
    const JobRecord& a = first.records[i];
    const JobRecord& b = second.records[i];
    EXPECT_EQ(a.job.id, b.job.id);
    EXPECT_EQ(a.lease, b.lease);
    EXPECT_EQ(a.algorithm, b.algorithm);
    EXPECT_EQ(a.grant.count(), b.grant.count());
    EXPECT_EQ(a.completion.count(), b.completion.count());
  }
  EXPECT_EQ(first.utilization, second.utilization);
  EXPECT_EQ(first.mean_queue_wait.count(), second.mean_queue_wait.count());
}

TEST(FabricService, CountersAndValidation) {
  obs::Counters counters;
  ServiceConfig config = fabric8(PolicyKind::kFifo);
  config.counters = &counters;
  FabricService service(config);
  (void)service.run(head_blocking_jobs());
  EXPECT_EQ(counters.value("svc.arrivals"), 3u);
  EXPECT_EQ(counters.value("svc.grants"), 3u);
  EXPECT_EQ(counters.value("svc.completions"), 3u);
  EXPECT_GT(counters.value("sim.events_fired"), 0u);

  Job too_wide = job_of(0, 16);  // 16 > the 8-wavelength fabric
  EXPECT_THROW((void)service.run({too_wide}), InvalidArgument);
}

TEST(FabricService, EndToEndGeneratedWorkload) {
  WorkloadConfig workload;
  workload.num_jobs = 32;
  workload.num_nodes = 16;
  workload.fabric_wavelengths = 16;
  workload.burstiness = 0.25;
  workload.mean_interarrival = Seconds(0.01);
  const std::vector<Job> jobs = generate_workload(workload);

  for (const PolicyKind kind : all_policies()) {
    ServiceConfig config;
    config.fabric_wavelengths = 16;
    config.policy = kind;
    FabricService service(config);
    const ServiceReport report = service.run(jobs);
    ASSERT_EQ(report.records.size(), jobs.size()) << to_string(kind);
    EXPECT_GT(report.p99_jct.count(), 0.0);
    EXPECT_GE(report.p99_jct.count(), report.p50_jct.count());
    std::uint64_t tenant_jobs = 0;
    for (const TenantStats& t : report.tenants) tenant_jobs += t.jobs;
    EXPECT_EQ(tenant_jobs, jobs.size());
  }
}

}  // namespace
}  // namespace wrht::svc
