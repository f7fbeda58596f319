#include "wrht/diag/svc_blame.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>

#include "wrht/common/error.hpp"
#include "wrht/diag/blame_json.hpp"
#include "wrht/svc/policy.hpp"

namespace wrht::diag {

namespace {

using blame_detail::num17;

/// One allocation-state change on the fabric timeline. Releases sort
/// before grants at the same instant, matching the service's
/// release-then-readmit event ordering.
struct AllocEvent {
  double time = 0.0;
  bool grant = false;  ///< false = release
  std::uint32_t w_lo = 0;
  std::uint32_t width = 0;
};

/// Fabric allocation state over one constant interval [t0, t1).
struct Segment {
  double t0 = 0.0;
  double t1 = 0.0;
  std::uint32_t free_width = 0;
  std::uint32_t largest_free = 0;
};

/// Replays the run's grant/release history into a piecewise-constant
/// timeline of (free width, largest contiguous free slice).
std::vector<Segment> replay_allocator(const svc::ServiceReport& report,
                                      std::uint32_t fabric) {
  std::vector<AllocEvent> events;
  events.reserve(report.records.size() * 2);
  for (const svc::JobRecord& r : report.records) {
    events.push_back(AllocEvent{r.grant.count(), true, r.lease.w_lo,
                                r.job.width});
    events.push_back(AllocEvent{r.completion.count(), false, r.lease.w_lo,
                                r.job.width});
  }
  std::sort(events.begin(), events.end(),
            [](const AllocEvent& a, const AllocEvent& b) {
              if (a.time != b.time) return a.time < b.time;
              return a.grant < b.grant;  // releases first
            });

  std::vector<bool> occupied(fabric, false);
  const auto measure = [&](Segment* segment) {
    std::uint32_t free = 0;
    std::uint32_t largest = 0;
    std::uint32_t run = 0;
    for (std::uint32_t w = 0; w < fabric; ++w) {
      if (occupied[w]) {
        run = 0;
        continue;
      }
      ++free;
      ++run;
      largest = std::max(largest, run);
    }
    segment->free_width = free;
    segment->largest_free = largest;
  };

  std::vector<Segment> segments;
  double cursor = 0.0;
  std::size_t i = 0;
  while (i < events.size()) {
    const double t = events[i].time;
    if (t > cursor) {
      Segment segment;
      segment.t0 = cursor;
      segment.t1 = t;
      measure(&segment);
      segments.push_back(segment);
    }
    while (i < events.size() && events[i].time == t) {
      const AllocEvent& e = events[i];
      for (std::uint32_t w = e.w_lo; w < e.w_lo + e.width; ++w) {
        occupied[w] = e.grant;
      }
      ++i;
    }
    cursor = t;
  }
  return segments;
}

/// Seconds of [t0, t1) during which the fabric was fragmented for a job of
/// `width`: enough free width in total, no contiguous slice wide enough.
double fragmented_wait(const std::vector<Segment>& segments, double t0,
                       double t1, std::uint32_t width) {
  double fragmented = 0.0;
  for (const Segment& segment : segments) {
    const double lo = std::max(t0, segment.t0);
    const double hi = std::min(t1, segment.t1);
    if (hi <= lo) continue;
    if (segment.free_width >= width && segment.largest_free < width) {
      fragmented += hi - lo;
    }
  }
  return fragmented;
}

}  // namespace

ServiceBlame build_service_blame(const svc::ServiceReport& report,
                                 const plan::PlannerOptions& planner,
                                 std::uint32_t fabric_wavelengths) {
  require(fabric_wavelengths >= 1,
          "build_service_blame: fabric_wavelengths must be >= 1");
  ServiceBlame blame;
  blame.policy = svc::to_string(report.policy);
  blame.fabric_wavelengths = fabric_wavelengths;
  blame.jobs = report.records.size();

  const std::vector<Segment> segments =
      replay_allocator(report, fabric_wavelengths);

  std::map<std::uint32_t, TenantBlame> tenants;
  for (const svc::JobRecord& record : report.records) {
    const svc::Job& job = record.job;

    // Wait split: fragmentation vs queueing.
    const double wait = record.queue_wait().count();
    const double fragmented = fragmented_wait(
        segments, job.arrival.count(), record.grant.count(), job.width);
    const double queueing = wait - fragmented;

    // Service split: re-price the granted algorithm at the granted width
    // (exactly what the service billed — service_time == predicted x
    // iterations) and pull out the closed-form reconfiguration and
    // conversion shares; the remainder is transmission. Records rebuilt
    // from an event log (svc::replay_events) carry no job sizing, so when
    // the closed forms cannot reproduce the billed time the whole service
    // span stays transmission — the identity never bends.
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
          // The log's timings disagree with this cost model (different
          // planner knobs at record time); don't fabricate a negative
          // transmission share.
          reconfig = 0.0;
          conversion = 0.0;
        }
      }
    }
    const double transmission = service - reconfig - conversion;

    BlameTotals job_totals;
    job_totals[BlameCategory::kQueueing] = queueing;
    job_totals[BlameCategory::kFragmentation] = fragmented;
    job_totals[BlameCategory::kReconfiguration] = reconfig;
    job_totals[BlameCategory::kConversion] = conversion;
    job_totals[BlameCategory::kTransmission] = transmission;

    blame.categories += job_totals;
    blame.total_jct += record.jct();

    TenantBlame& tenant = tenants[job.tenant];
    tenant.tenant = job.tenant;
    ++tenant.jobs;
    tenant.jct += record.jct();
    tenant.totals += job_totals;
  }

  blame.tenants.reserve(tenants.size());
  for (auto& [id, tenant] : tenants) {
    blame.tenants.push_back(std::move(tenant));
  }
  return blame;
}

std::string ServiceBlame::to_string() const {
  std::string out = "service blame [policy " + policy + ", " +
                    std::to_string(fabric_wavelengths) + " lambdas, " +
                    std::to_string(jobs) + " jobs]\n";
  char line[192];
  std::snprintf(line, sizeof(line), "  %-16s %12.6e s\n", "total JCT",
                total_jct.count());
  out += line;
  const double denom = total_jct.count() > 0.0 ? total_jct.count() : 1.0;
  for (const BlameCategory category : all_blame_categories()) {
    const double s = categories[category];
    if (s == 0.0) continue;
    std::snprintf(line, sizeof(line), "  %-16s %12.6e s  (%5.1f%%)\n",
                  diag::to_string(category).c_str(), s, 100.0 * s / denom);
    out += line;
  }
  for (const TenantBlame& tenant : tenants) {
    const double tdenom = tenant.jct.count() > 0.0 ? tenant.jct.count() : 1.0;
    std::snprintf(line, sizeof(line),
                  "  tenant %-3u %4llu jobs  jct %10.4e s  queue %5.1f%%  "
                  "frag %5.1f%%  service %5.1f%%\n",
                  tenant.tenant,
                  static_cast<unsigned long long>(tenant.jobs),
                  tenant.jct.count(),
                  100.0 * tenant.totals[BlameCategory::kQueueing] / tdenom,
                  100.0 * tenant.totals[BlameCategory::kFragmentation] /
                      tdenom,
                  100.0 *
                      (tenant.totals[BlameCategory::kReconfiguration] +
                       tenant.totals[BlameCategory::kConversion] +
                       tenant.totals[BlameCategory::kTransmission]) /
                      tdenom);
    out += line;
  }
  return out;
}

void write_service_blame_json(const ServiceBlame& blame, std::ostream& out) {
  out << "{\n";
  out << "  \"schema\": \"" << kBlameSchema << "\",\n";
  out << "  \"kind\": \"service\",\n";
  out << "  \"policy\": \"" << blame.policy << "\",\n";
  out << "  \"fabric_wavelengths\": " << blame.fabric_wavelengths << ",\n";
  out << "  \"jobs\": " << blame.jobs << ",\n";
  out << "  \"total_time\": " << num17(blame.total_jct.count()) << ",\n";
  out << "  \"attributed_time\": " << num17(blame.attributed()) << ",\n";
  out << "  \"categories\": {\n";
  bool first = true;
  for (const BlameCategory category : all_blame_categories()) {
    if (!first) out << ",\n";
    first = false;
    out << "    \"" << to_string(category)
        << "\": " << num17(blame.categories[category]);
  }
  out << "\n  },\n";
  out << "  \"tenants\": [\n";
  for (std::size_t i = 0; i < blame.tenants.size(); ++i) {
    const TenantBlame& tenant = blame.tenants[i];
    out << "    {\"tenant\": " << tenant.tenant
        << ", \"jobs\": " << tenant.jobs
        << ", \"jct\": " << num17(tenant.jct.count());
    for (const BlameCategory category : all_blame_categories()) {
      out << ", \"" << to_string(category)
          << "\": " << num17(tenant.totals[category]);
    }
    out << "}" << (i + 1 < blame.tenants.size() ? ",\n" : "\n");
  }
  out << "  ]\n";
  out << "}\n";
}

void write_service_blame_file(const ServiceBlame& blame,
                              const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw Error("write_service_blame_file: cannot open '" + path + "'");
  }
  write_service_blame_json(blame, out);
}

}  // namespace wrht::diag
