// svc_saturated: one bursty, saturated multi-tenant trace run through the
// shared-fabric service under every admission policy with metrics and
// event telemetry on, then attributed by diag service blame and rebuilt
// from its event log. No schedule is built and no engine runs: this is
// the svc / plan / diag path alone.
//
// --seed picks one of kTraces stored traces (seed mod kTraces), so every
// seed has a reference to check each policy's report against.
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "e2e.hpp"
#include "wrht/diag/svc_blame.hpp"
#include "wrht/obs/counters.hpp"
#include "wrht/obs/event_log.hpp"
#include "wrht/plan/schedule_planner.hpp"
#include "wrht/svc/replay.hpp"
#include "wrht/svc/service.hpp"
#include "wrht/svc/workload.hpp"
#include "wrht/verify/blame.hpp"

namespace e2e {
namespace {

using namespace wrht;

constexpr std::uint64_t kTraces = 32;
constexpr std::uint32_t kFabric = 64;

/// The service trace with index `trace` (0 .. kTraces-1).
svc::WorkloadConfig trace_config(std::uint64_t trace) {
  svc::WorkloadConfig config;
  config.num_jobs = 10'000;
  config.num_nodes = 64;
  config.fabric_wavelengths = kFabric;
  config.mean_interarrival = Seconds(0.008);
  config.burstiness = 0.5;
  config.seed = 1000 + trace;
  return config;
}

/// FNV-1a over the bytes of every value fed in.
struct Digest {
  std::uint64_t h = 1469598103934665603ULL;
  template <typename T>
  void add(const T& v) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (const unsigned char b : bytes) {
      h = (h ^ b) * 1099511628211ULL;
    }
  }
};

/// One line of ref/svc_reference.csv: trace,policy,jobs,makespan_s,
/// p99_jct_s,digest. The digest covers every record's placement and
/// timeline and every tenant's statistics.
std::string reference_line(std::uint64_t trace,
                           const svc::ServiceReport& report) {
  Digest d;
  for (const svc::JobRecord& r : report.records) {
    d.add(r.job.id);
    d.add(r.job.tenant);
    d.add(r.job.width);
    d.add(r.job.arrival.count());
    d.add(r.lease.w_lo);
    d.add(r.lease.w_hi);
    d.add(static_cast<int>(r.algorithm));
    d.add(r.grant.count());
    d.add(r.completion.count());
  }
  for (const svc::TenantStats& t : report.tenants) {
    d.add(t.tenant);
    d.add(t.jobs);
    d.add(t.p50_jct.count());
    d.add(t.p99_jct.count());
    d.add(t.mean_queue_wait.count());
    d.add(t.mean_service_time.count());
    d.add(t.wavelength_seconds);
  }
  d.add(report.utilization);
  d.add(report.mean_queue_wait.count());
  char line[256];
  std::snprintf(line, sizeof(line),
                "%" PRIu64 ",%s,%zu,%.17g,%.17g,%016" PRIx64, trace,
                svc::to_string(report.policy).c_str(), report.records.size(),
                report.makespan.count(), report.p99_jct.count(), d.h);
  return line;
}

bool same_timeline(const svc::JobRecord& a, const svc::JobRecord& b) {
  return a.job.id == b.job.id && a.job.tenant == b.job.tenant &&
         a.job.width == b.job.width &&
         a.job.arrival.count() == b.job.arrival.count() &&
         a.lease.w_lo == b.lease.w_lo && a.lease.w_hi == b.lease.w_hi &&
         a.grant.count() == b.grant.count() &&
         a.completion.count() == b.completion.count();
}

/// Runs the trace under one policy, then service blame, its identity and
/// the event-log replay; checks them and counts failed jobs.
void run_policy(svc::PolicyKind kind, const std::vector<svc::Job>& jobs,
                std::uint64_t trace, const std::string* reference,
                const Options& options, obs::Counters& counters,
                Tracer& tracer, Result& result) {
  const std::string policy = svc::to_string(kind);
  auto& layers = result.layers;
  result.attempted += jobs.size();
  svc::ServiceConfig config;
  config.fabric_wavelengths = kFabric;
  config.policy = kind;
  config.counters = &counters;
  config.telemetry.metrics = true;
  config.telemetry.events = true;
  config.telemetry.seed = trace_config(trace).seed;
  svc::FabricService service(config);
  svc::ServiceReport report;
  {
    const Tracer::Span span(tracer, "svc", "run " + policy);
    report = service.run(jobs);
    layers["svc.run_s." + policy] = span.elapsed_s();
  }
  diag::ServiceBlame blame;
  {
    const Tracer::Span span(tracer, "diag", "service blame " + policy);
    blame = diag::build_service_blame(report, config.planner, kFabric);
    layers["diag.svc_blame_s"] += span.elapsed_s();
  }
  verify::CheckResult identity;
  {
    const Tracer::Span span(tracer, "verify", "blame identity " + policy);
    identity = verify::check_blame_identity(blame);
    layers["verify.blame_identity_s"] += span.elapsed_s();
  }
  svc::ReplaySummary replay;
  {
    const Tracer::Span span(tracer, "svc", "replay " + policy);
    replay = svc::replay_events(*service.event_log());
    layers["svc.replay_s"] += span.elapsed_s();
  }
  layers["svc.jobs"] += static_cast<double>(report.records.size());
  layers["svc.events"] += static_cast<double>(service.event_log()->size());

  const Tracer::Span span(tracer, "bench", "check " + policy);
  const std::string line = reference_line(trace, report);
  if (options.emit_reference) std::printf("%s\n", line.c_str());
  const bool matches_reference = reference != nullptr && *reference == line;
  if (!matches_reference || !identity.ok() ||
      report.records.size() != jobs.size() ||
      replay.report.records.size() != report.records.size()) {
    result.fail(policy + (matches_reference ? "" : " reference mismatch") +
                    (identity.ok() ? "" : " blame identity: " +
                                              identity.summary()),
                jobs.size());
    return;
  }
  std::uint64_t replay_mismatches = 0;
  for (std::size_t i = 0; i < report.records.size(); ++i) {
    if (!same_timeline(report.records[i], replay.report.records[i])) {
      ++replay_mismatches;
    }
  }
  if (replay_mismatches > 0) {
    result.fail(policy + " replay differs from live run", replay_mismatches);
  }
}

}  // namespace

Result run_svc_saturated(const Options& options, Tracer& tracer) {
  Result result;
  const std::uint64_t trace = options.seed % kTraces;
  std::vector<svc::Job> jobs;
  std::vector<std::string> reference;
  {
    const Tracer::Span span(tracer, "bench", "setup");
    jobs = svc::generate_workload(trace_config(trace));
    const std::string prefix = std::to_string(trace) + ",";
    for (const std::string& line :
         read_lines(options.ref_dir + "/svc_reference.csv")) {
      if (line.rfind(prefix, 0) == 0) reference.push_back(line);
    }
    result.setup_s = span.elapsed_s();
  }

  obs::Counters counters;
  const double cpu0 = process_cpu_s();
  {
    const Tracer::Span op(tracer, "bench", "operation");
    const auto policies = svc::all_policies();
    for (std::size_t p = 0; p < policies.size(); ++p) {
      try {
        run_policy(policies[p], jobs, trace,
                   p < reference.size() ? &reference[p] : nullptr, options,
                   counters, tracer, result);
      } catch (const std::exception& e) {
        result.fail(svc::to_string(policies[p]) + " threw: " + e.what(),
                    jobs.size());
      }
    }
    result.wall_s = op.elapsed_s();
  }
  result.cpu_s = process_cpu_s() - cpu0;
  if (!tracer.enabled()) return result;

  result.layers["sim.events_fired"] =
      static_cast<double>(counters.value("sim.events_fired"));
  // The closed forms the service prices every grant with, timed alone
  // over the trace's job mix.
  const Tracer::Span span(tracer, "plan", "predict job mix");
  for (const svc::Job& job : jobs) {
    plan::PlannerOptions planner;
    planner.wavelengths = job.width;
    for (const plan::CandidateKind kind :
         {plan::CandidateKind::kWrht, plan::CandidateKind::kFlatAllToAll,
          plan::CandidateKind::kStaticRing}) {
      (void)plan::predict(kind, job.num_nodes, job.elements, planner);
    }
  }
  result.layers["plan.predict_s"] = span.elapsed_s();
  return result;
}

}  // namespace e2e
