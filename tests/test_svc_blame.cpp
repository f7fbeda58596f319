// Per-tenant JCT blame tests: the accounting identity on a bursty
// multi-tenant workload, the queueing/fragmentation wait split, the
// event-log replay path, "service"-kind wrht-blame-1 serialization,
// cross-policy diffing, and byte equality with a brute-force oracle that
// scans the whole allocation timeline for every job.
#include "wrht/diag/svc_blame.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "wrht/diag/blame_json.hpp"
#include "wrht/net/resource_lease.hpp"
#include "wrht/plan/schedule_planner.hpp"
#include "wrht/svc/replay.hpp"
#include "wrht/svc/service.hpp"
#include "wrht/svc/workload.hpp"
#include "wrht/verify/blame.hpp"

namespace wrht::diag {
namespace {

std::vector<svc::Job> bursty_jobs(std::uint64_t seed,
                                  std::uint32_t num_jobs = 32) {
  svc::WorkloadConfig workload;
  workload.num_jobs = num_jobs;
  workload.num_nodes = 8;
  workload.fabric_wavelengths = 8;
  workload.mean_interarrival = Seconds(0.005);  // oversubscribed: real queue
  workload.burstiness = 0.5;
  workload.seed = seed;
  return svc::generate_workload(workload);
}

svc::ServiceConfig service_config(svc::PolicyKind policy) {
  svc::ServiceConfig config;
  config.fabric_wavelengths = 8;
  config.policy = policy;
  return config;
}

TEST(SvcBlame, IdentityHoldsOnBurstyWorkloadAcrossPolicies) {
  const std::vector<svc::Job> jobs = bursty_jobs(11);
  for (const svc::PolicyKind policy : svc::all_policies()) {
    const svc::ServiceConfig config = service_config(policy);
    svc::FabricService service(config);
    const svc::ServiceReport report = service.run(jobs);
    const ServiceBlame blame = build_service_blame(
        report, config.planner, config.fabric_wavelengths);
    const verify::CheckResult check = verify::check_blame_identity(blame);
    EXPECT_TRUE(check.ok())
        << svc::to_string(policy) << ": " << check.summary();
    EXPECT_EQ(blame.jobs, report.records.size());

    // The blame total is the sum of JCTs, computed independently here.
    double jct_sum = 0.0;
    double wait_sum = 0.0;
    for (const svc::JobRecord& r : report.records) {
      jct_sum += r.jct().count();
      wait_sum += r.queue_wait().count();
    }
    EXPECT_NEAR(blame.total_jct.count(), jct_sum, 1e-9 * jct_sum + 1e-12);
    // Queueing + fragmentation partition exactly the time spent waiting.
    EXPECT_NEAR(blame.categories[BlameCategory::kQueueing] +
                    blame.categories[BlameCategory::kFragmentation],
                wait_sum, 1e-9 * jct_sum + 1e-12)
        << svc::to_string(policy);
  }
}

TEST(SvcBlame, TenantsPartitionTheTotal) {
  const svc::ServiceConfig config = service_config(svc::PolicyKind::kFifo);
  svc::FabricService service(config);
  const svc::ServiceReport report = service.run(bursty_jobs(3));
  const ServiceBlame blame = build_service_blame(
      report, config.planner, config.fabric_wavelengths);
  ASSERT_GT(blame.tenants.size(), 1u);
  BlameTotals from_tenants;
  double jct = 0.0;
  for (const TenantBlame& tenant : blame.tenants) {
    from_tenants += tenant.totals;
    jct += tenant.jct.count();
  }
  EXPECT_NEAR(jct, blame.total_jct.count(), 1e-9 * jct);
  for (const BlameCategory category : all_blame_categories()) {
    EXPECT_NEAR(from_tenants[category], blame.categories[category],
                1e-9 * blame.total_jct.count() + 1e-12)
        << to_string(category);
  }
  // Tenant order is the deterministic part of the JSON surface.
  for (std::size_t i = 1; i < blame.tenants.size(); ++i) {
    EXPECT_LT(blame.tenants[i - 1].tenant, blame.tenants[i].tenant);
  }
}

TEST(SvcBlame, ReplayedEventLogKeepsTheIdentity) {
  svc::ServiceConfig config = service_config(svc::PolicyKind::kBackfill);
  config.telemetry.events = true;
  svc::FabricService service(config);
  const svc::ServiceReport live = service.run(bursty_jobs(5));
  ASSERT_NE(service.event_log(), nullptr);

  std::istringstream round_trip(service.event_log()->to_jsonl());
  const obs::EventLog log = obs::EventLog::read_jsonl(round_trip);
  const svc::ReplaySummary replay = svc::replay_events(log);

  const ServiceBlame from_replay = build_service_blame(
      replay.report, config.planner, config.fabric_wavelengths);
  const verify::CheckResult check = verify::check_blame_identity(from_replay);
  EXPECT_TRUE(check.ok()) << check.summary();

  // The wait split depends only on the grant/release timeline, which the
  // log reproduces exactly — so it matches the live attribution.
  const ServiceBlame from_live = build_service_blame(
      live, config.planner, config.fabric_wavelengths);
  EXPECT_NEAR(from_replay.categories[BlameCategory::kQueueing],
              from_live.categories[BlameCategory::kQueueing],
              1e-9 * from_live.total_jct.count() + 1e-12);
  EXPECT_NEAR(from_replay.categories[BlameCategory::kFragmentation],
              from_live.categories[BlameCategory::kFragmentation],
              1e-9 * from_live.total_jct.count() + 1e-12);
  EXPECT_NEAR(from_replay.total_jct.count(), from_live.total_jct.count(),
              1e-9 * from_live.total_jct.count() + 1e-12);
}

TEST(SvcBlame, JsonIsByteDeterministicAndServiceKind) {
  const svc::ServiceConfig config = service_config(svc::PolicyKind::kFifo);
  const std::vector<svc::Job> jobs = bursty_jobs(9);
  std::string first;
  std::string second;
  for (std::string* out : {&first, &second}) {
    svc::FabricService service(config);
    const ServiceBlame blame = build_service_blame(
        service.run(jobs), config.planner, config.fabric_wavelengths);
    std::ostringstream stream;
    write_service_blame_json(blame, stream);
    *out = stream.str();
  }
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);

  std::istringstream in(first);
  const ParsedBlame parsed = read_blame_json(in);
  EXPECT_EQ(parsed.kind, "service");
  EXPECT_EQ(parsed.source, "fifo");
  EXPECT_FALSE(parsed.tenants.empty());
  EXPECT_EQ(parsed.categories.size(), kNumBlameCategories);
  EXPECT_NEAR(parsed.attributed_time, parsed.total_time,
              1e-9 * parsed.total_time);
}

TEST(SvcBlame, PolicyWithSpecialCharactersIsEscapedAndRoundTrips) {
  const svc::ServiceConfig config = service_config(svc::PolicyKind::kFifo);
  svc::FabricService service(config);
  ServiceBlame blame = build_service_blame(
      service.run(bursty_jobs(9)), config.planner, config.fabric_wavelengths);
  blame.policy = "fi\"fo\\\r";
  std::ostringstream stream;
  write_service_blame_json(blame, stream);
  const std::string json = stream.str();
  EXPECT_NE(json.find("  \"policy\": \"fi\\\"fo\\\\\\r\",\n"),
            std::string::npos)
      << json;
  EXPECT_EQ(json.find('\r'), std::string::npos);  // no raw control byte
  std::istringstream in(json);
  const ParsedBlame parsed = read_blame_json(in);
  EXPECT_EQ(parsed.kind, "service");
  EXPECT_EQ(parsed.source, blame.policy);
  EXPECT_EQ(parsed.tenants.size(), blame.tenants.size());
}

TEST(SvcBlame, DifferLocalizesPolicyChangesToTenants) {
  const std::vector<svc::Job> jobs = bursty_jobs(13);
  const auto to_parsed = [&](svc::PolicyKind policy) {
    const svc::ServiceConfig config = service_config(policy);
    svc::FabricService service(config);
    const ServiceBlame blame = build_service_blame(
        service.run(jobs), config.planner, config.fabric_wavelengths);
    std::ostringstream stream;
    write_service_blame_json(blame, stream);
    std::istringstream in(stream.str());
    return read_blame_json(in);
  };

  const ParsedBlame fifo = to_parsed(svc::PolicyKind::kFifo);
  const BlameDiff same = diff_blame(fifo, to_parsed(svc::PolicyKind::kFifo));
  EXPECT_TRUE(same.clean()) << same.to_string();

  // A different admission order moves per-tenant JCT; when anything moves
  // beyond threshold the differ must say where.
  const BlameDiff diff =
      diff_blame(fifo, to_parsed(svc::PolicyKind::kPriority));
  if (!diff.clean()) {
    EXPECT_FALSE(diff.categories.empty() && diff.tenants.empty() &&
                 diff.lanes.empty())
        << diff.to_string();
  }
}

// ---------------------------------------------------------------------------
// Brute-force oracle: the service blame as first written, which replays
// the allocator into a segment timeline and scans every segment for every
// job (O(jobs x segments)), pricing each record with its own
// plan::predict call. build_service_blame must serialize byte for byte
// like it.

struct OracleSegment {
  double t0 = 0.0;
  double t1 = 0.0;
  std::uint32_t free_width = 0;
  std::uint32_t largest_free = 0;
};

std::vector<OracleSegment> oracle_segments(const svc::ServiceReport& report,
                                           std::uint32_t fabric) {
  struct AllocEvent {
    double time = 0.0;
    bool grant = false;
    std::uint32_t w_lo = 0;
    std::uint32_t width = 0;
  };
  std::vector<AllocEvent> events;
  for (const svc::JobRecord& r : report.records) {
    events.push_back(AllocEvent{r.grant.count(), true, r.lease.w_lo,
                                r.job.width});
    events.push_back(AllocEvent{r.completion.count(), false, r.lease.w_lo,
                                r.job.width});
  }
  std::sort(events.begin(), events.end(),
            [](const AllocEvent& a, const AllocEvent& b) {
              if (a.time != b.time) return a.time < b.time;
              return a.grant < b.grant;
            });
  std::vector<bool> occupied(fabric, false);
  std::vector<OracleSegment> segments;
  double cursor = 0.0;
  std::size_t i = 0;
  while (i < events.size()) {
    const double t = events[i].time;
    if (t > cursor) {
      OracleSegment segment{cursor, t, 0, 0};
      std::uint32_t run = 0;
      for (std::uint32_t w = 0; w < fabric; ++w) {
        if (occupied[w]) {
          run = 0;
          continue;
        }
        ++segment.free_width;
        segment.largest_free = std::max(segment.largest_free, ++run);
      }
      segments.push_back(segment);
    }
    while (i < events.size() && events[i].time == t) {
      for (std::uint32_t w = events[i].w_lo;
           w < events[i].w_lo + events[i].width; ++w) {
        occupied[w] = events[i].grant;
      }
      ++i;
    }
    cursor = t;
  }
  return segments;
}

double oracle_fragmented_wait(const std::vector<OracleSegment>& segments,
                              double t0, double t1, std::uint32_t width) {
  double fragmented = 0.0;
  for (const OracleSegment& segment : segments) {
    const double lo = std::max(t0, segment.t0);
    const double hi = std::min(t1, segment.t1);
    if (hi <= lo) continue;
    if (segment.free_width >= width && segment.largest_free < width) {
      fragmented += hi - lo;
    }
  }
  return fragmented;
}

ServiceBlame oracle_service_blame(const svc::ServiceReport& report,
                                  const plan::PlannerOptions& planner,
                                  std::uint32_t fabric) {
  ServiceBlame blame;
  blame.policy = svc::to_string(report.policy);
  blame.fabric_wavelengths = fabric;
  blame.jobs = report.records.size();
  const std::vector<OracleSegment> segments = oracle_segments(report, fabric);
  std::map<std::uint32_t, TenantBlame> tenants;
  for (const svc::JobRecord& record : report.records) {
    const svc::Job& job = record.job;
    const double wait = record.queue_wait().count();
    const double fragmented = oracle_fragmented_wait(
        segments, job.arrival.count(), record.grant.count(), job.width);
    const double service = record.service_time().count();
    double reconfig = 0.0;
    double conversion = 0.0;
    if (job.num_nodes >= 2 && job.elements > 0) {
      plan::PlannerOptions options = planner;
      options.wavelengths = job.width;
      const plan::Candidate candidate = plan::predict(
          record.algorithm, job.num_nodes, job.elements, options);
      if (candidate.feasible) {
        const double iterations = static_cast<double>(job.iterations);
        reconfig = candidate.charged_reconfig.count() * iterations;
        conversion = static_cast<double>(candidate.rounds) *
                     options.oeo_delay.count() * iterations;
        if (reconfig + conversion > service) {
          reconfig = 0.0;
          conversion = 0.0;
        }
      }
    }
    BlameTotals job_totals;
    job_totals[BlameCategory::kQueueing] = wait - fragmented;
    job_totals[BlameCategory::kFragmentation] = fragmented;
    job_totals[BlameCategory::kReconfiguration] = reconfig;
    job_totals[BlameCategory::kConversion] = conversion;
    job_totals[BlameCategory::kTransmission] = service - reconfig - conversion;
    blame.categories += job_totals;
    blame.total_jct += record.jct();
    TenantBlame& tenant = tenants[job.tenant];
    tenant.tenant = job.tenant;
    ++tenant.jobs;
    tenant.jct += record.jct();
    tenant.totals += job_totals;
  }
  for (auto& [id, tenant] : tenants) blame.tenants.push_back(tenant);
  return blame;
}

std::string blame_json(const ServiceBlame& blame) {
  std::ostringstream out;
  write_service_blame_json(blame, out);
  return out.str();
}

TEST(SvcBlame, MatchesBruteForceOracleOnSaturatedTraceAcrossPolicies) {
  svc::WorkloadConfig workload;
  workload.num_jobs = 2400;
  workload.num_nodes = 16;
  workload.fabric_wavelengths = 16;
  workload.mean_interarrival = Seconds(0.002);
  workload.burstiness = 0.5;
  workload.seed = 41;
  const std::vector<svc::Job> jobs = svc::generate_workload(workload);

  for (const svc::PolicyKind policy : svc::all_policies()) {
    svc::ServiceConfig config;
    config.fabric_wavelengths = workload.fabric_wavelengths;
    config.policy = policy;
    config.telemetry.events = true;
    svc::FabricService service(config);
    const svc::ServiceReport live = service.run(jobs);
    const svc::ServiceReport replayed =
        svc::replay_events(*service.event_log()).report;

    for (const svc::ServiceReport* report : {&live, &replayed}) {
      const ServiceBlame oracle = oracle_service_blame(
          *report, config.planner, config.fabric_wavelengths);
      EXPECT_EQ(blame_json(build_service_blame(*report, config.planner,
                                               config.fabric_wavelengths)),
                blame_json(oracle))
          << svc::to_string(policy)
          << (report == &live ? " live" : " replayed");
      EXPECT_GT(oracle.categories[BlameCategory::kFragmentation], 0.0)
          << svc::to_string(policy);
    }

    // The trace must exercise long waits: some job waits across many
    // segments of the allocation timeline.
    const std::vector<OracleSegment> segments =
        oracle_segments(live, config.fabric_wavelengths);
    std::size_t widest_span = 0;
    for (const svc::JobRecord& r : live.records) {
      std::size_t spanned = 0;
      for (const OracleSegment& segment : segments) {
        if (segment.t1 > r.job.arrival.count() &&
            segment.t0 < r.grant.count()) {
          ++spanned;
        }
      }
      widest_span = std::max(widest_span, spanned);
    }
    EXPECT_GE(widest_span, 100u) << svc::to_string(policy);
  }
}

svc::JobRecord hand_record(std::uint64_t id, std::uint32_t tenant,
                           std::uint32_t w_lo, std::uint32_t width,
                           double arrival, double grant, double completion) {
  svc::JobRecord r;
  r.job.id = id;
  r.job.tenant = tenant;
  r.job.width = width;
  r.job.arrival = Seconds(arrival);
  r.lease = net::slice_lease(w_lo, width, tenant);
  r.grant = Seconds(grant);
  r.completion = Seconds(completion);
  return r;  // no num_nodes/elements: the service span stays transmission
}

TEST(SvcBlame, WaitsStartingInsideFragmentedSegments) {
  // Four wavelengths. Timeline for width 2 (F = fragmented: >= 2 free,
  // no free pair):
  //   [0, 2) {1,3} free F | [2, 4) {1,3} F | [4, 6) {3} | [6, 8) {0,3} F
  //   [8, 9) {2,3} | [9, 10) none free
  // X waits [0.5, 4): starts inside F, ends at its own grant after two F
  // segments (3.5 s). Y waits [5, 8): 1 s queued, then 2 s F. Z (the
  // whole fabric) is never fragmented: free width 4 means one free run
  // of 4, so its 8.75 s wait is all queueing.
  svc::ServiceReport report;
  report.policy = svc::PolicyKind::kFifo;
  report.records = {
      hand_record(1, 0, 2, 1, 0.0, 0.0, 2.0),    // B
      hand_record(2, 0, 2, 1, 2.0, 2.0, 4.0),    // C
      hand_record(0, 0, 0, 1, 0.0, 0.0, 6.0),    // A
      hand_record(3, 1, 1, 2, 0.5, 4.0, 8.0),    // X
      hand_record(4, 1, 0, 2, 5.0, 8.0, 9.0),    // Y
      hand_record(5, 2, 0, 4, 0.25, 9.0, 10.0),  // Z
  };
  const plan::PlannerOptions planner;
  const ServiceBlame blame = build_service_blame(report, planner, 4);
  EXPECT_EQ(blame.categories[BlameCategory::kFragmentation], 5.5);
  EXPECT_EQ(blame.categories[BlameCategory::kQueueing], 9.75);
  ASSERT_EQ(blame.tenants.size(), 3u);
  EXPECT_EQ(blame.tenants[1].totals[BlameCategory::kFragmentation], 5.5);
  EXPECT_EQ(blame.tenants[1].totals[BlameCategory::kQueueing], 1.0);
  EXPECT_EQ(blame.tenants[2].totals[BlameCategory::kFragmentation], 0.0);
  EXPECT_EQ(blame.tenants[2].totals[BlameCategory::kQueueing], 8.75);
  EXPECT_EQ(blame_json(blame),
            blame_json(oracle_service_blame(report, planner, 4)));
}

}  // namespace
}  // namespace wrht::diag
