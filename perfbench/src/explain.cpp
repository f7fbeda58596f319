// explain: the "why does this run cost what it does" path. Each case runs
// once on a fresh backend with a full obs::Probe (counters, occupancy,
// TransferLog), then goes through utilization analysis, critical-path
// blame, the blame identity check, the on-retune what-if and the
// RunReport / blame JSON writers. It is the only workload that runs the
// electrical engines and the packet-level DES.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <sstream>

#include "e2e.hpp"
#include "wrht/collectives/registry.hpp"
#include "wrht/core/planner.hpp"
#include "wrht/core/torus_wrht.hpp"
#include "wrht/diag/blame.hpp"
#include "wrht/diag/blame_json.hpp"
#include "wrht/dnn/zoo.hpp"
#include "wrht/exp/sweep.hpp"
#include "wrht/net/registry.hpp"
#include "wrht/obs/analysis.hpp"
#include "wrht/obs/counters.hpp"
#include "wrht/obs/occupancy.hpp"
#include "wrht/obs/transfer_log.hpp"
#include "wrht/topo/torus.hpp"
#include "wrht/verify/blame.hpp"

namespace e2e {
namespace {

using namespace wrht;

constexpr std::uint32_t kWavelengths = 64;

struct Case {
  std::string name;
  std::string algorithm;
  std::string backend;
  /// Layer metric the case's execute time adds to.
  std::string execute_metric;
  std::uint32_t nodes = 0;
  std::size_t elements = 0;
  std::uint32_t torus_side = 0;  ///< nonzero: WRHT on a side x side torus
};

std::vector<Case> cases() {
  const std::size_t resnet = dnn::paper_workloads().back().parameter_count();
  return {
      {"wrht_ring_65536", "wrht", "optical-ring", "optical.ring_execute_s",
       65536, resnet, 0},
      {"ring_ring_1024", "ring", "optical-ring", "optical.ring_execute_s",
       1024, resnet, 0},
      {"wrht_torus_128x128", "wrht", "optical-torus",
       "optical.torus_execute_s", 128 * 128, resnet, 128},
      {"ring_flow_512", "ring", "electrical-flow",
       "electrical.flow_execute_s", 512, resnet, 0},
      {"rd_packet_64", "recursive_doubling", "electrical-packet",
       "electrical.packet_execute_s", 64, 50'000, 0},
      {"ring_packet_32", "ring", "electrical-packet",
       "electrical.packet_execute_s", 32, 50'000, 0},
  };
}

coll::Schedule build(const Case& c) {
  if (c.torus_side > 0) {
    const topo::Torus torus(c.torus_side, c.torus_side);
    return core::torus_wrht_allreduce(
        torus, c.elements,
        core::WrhtOptions{std::min(2 * kWavelengths + 1, c.torus_side),
                          kWavelengths});
  }
  coll::AllreduceParams params;
  params.num_nodes = c.nodes;
  params.elements = c.elements;
  params.wavelengths = kWavelengths;
  if (c.algorithm == "wrht") {
    params.group_size = core::plan_wrht(c.nodes, kWavelengths).group_size;
  }
  return coll::Registry::instance().build(c.algorithm, params);
}

std::unique_ptr<net::Backend> make_backend(const Case& c,
                                           const Options& options) {
  net::BackendConfig config;
  config.num_nodes = c.nodes;
  config.wavelengths = kWavelengths;
  config.validate_node_capacity = false;
  config.rwa_threads = options.rwa_threads;
  config.rng_seed = options.seed;
  config.torus_rows = c.torus_side;
  config.torus_cols = c.torus_side;
  return net::BackendRegistry::instance().create(c.backend, config);
}

std::string module_of(const Case& c) {
  return c.backend.rfind("optical", 0) == 0 ? "optical" : "electrical";
}

}  // namespace

Result run_explain(const Options& options, Tracer& tracer) {
  Result result;
  auto& layers = result.layers;
  std::vector<Case> all;
  std::vector<coll::Schedule> schedules;
  std::vector<std::string> reference;
  {
    // Set-up builds every case's schedule: the inputs the observed runs
    // price.
    const Tracer::Span span(tracer, "bench", "setup");
    exp::ensure_initialized();
    all = cases();
    reference = read_lines(options.ref_dir + "/explain_reference.csv");
    for (const Case& c : all) {
      const Tracer::Span build_span(tracer, "collectives", "build " + c.name);
      schedules.push_back(build(c));
      layers["collectives.build_s"] += build_span.elapsed_s();
      layers["collectives.builds"] += 1.0;
      for (const coll::Step& step : schedules.back().steps()) {
        layers["collectives.transfers"] +=
            static_cast<double>(step.transfers.size());
      }
      if (schedules.back().arena() != nullptr) {
        layers["collectives.arena_mb"] +=
            static_cast<double>(schedules.back().arena()->bytes_reserved()) /
            (1024.0 * 1024.0);
      }
    }
    result.setup_s = span.elapsed_s();
  }

  obs::Counters counters;
  double packet_events = 0.0;
  // Traced runs also execute each case unobserved; that time is kept out
  // of wall_s so traced and untraced wall_s measure the same work.
  double standalone_s = 0.0;
  const double cpu0 = process_cpu_s();
  {
    const Tracer::Span op(tracer, "bench", "operation");
    for (std::size_t i = 0; i < all.size(); ++i) {
      const Case& c = all[i];
      const coll::Schedule& schedule = schedules[i];
      ++result.attempted;
      try {
        obs::Counters local;
        obs::OccupancySampler sampler;
        obs::TransferLog log;
        obs::Probe probe;
        probe.counters = &local;
        probe.occupancy = &sampler;
        probe.transfers = &log;
        RunReport report;
        double observed_s = 0.0;
        {
          const Tracer::Span span(tracer, module_of(c).c_str(),
                                  "execute " + c.name);
          report = make_backend(c, options)->execute(schedule, probe);
          observed_s = span.elapsed_s();
          layers[c.execute_metric] += observed_s;
        }
        {
          const Tracer::Span span(tracer, "obs", "utilization " + c.name);
          obs::attach_utilization(report, sampler);
          layers["obs.analyze_s"] += span.elapsed_s();
        }
        diag::BlameReport blame;
        {
          const Tracer::Span span(tracer, "diag", "blame " + c.name);
          blame = diag::build_blame(log);
          layers["diag.blame_s"] += span.elapsed_s();
        }
        verify::CheckResult identity;
        {
          const Tracer::Span span(tracer, "verify", "identity " + c.name);
          identity = verify::check_blame_identity(blame);
          layers["verify.blame_identity_s"] += span.elapsed_s();
        }
        std::vector<std::pair<std::string, double>> what_if;
        {
          const Tracer::Span span(tracer, "diag", "what-if " + c.name);
          what_if.emplace_back("policy_on_retune",
                               diag::what_if_on_retune(log).count());
          layers["diag.what_if_s"] += span.elapsed_s();
        }
        {
          const Tracer::Span span(tracer, "obs", "json " + c.name);
          std::ostringstream json;
          report.write_json(json);
          diag::write_blame_json(blame, what_if, json);
          layers["obs.json_s"] += span.elapsed_s();
        }
        layers["obs.transfer_log_records"] += static_cast<double>(
            log.steps().size() + log.rounds().size() + log.transfers().size());
        if (c.backend == "electrical-packet") {
          packet_events += static_cast<double>(local.value("sim.events_fired"));
        }
        counters.merge(local);

        const Tracer::Span span(tracer, "bench", "check " + c.name);
        char line[128];
        std::snprintf(line, sizeof(line), "%s,%.17g", c.name.c_str(),
                      report.total_time.count());
        if (options.emit_reference) std::printf("%s\n", line);
        const double total = report.total_time.count();
        if (!identity.ok()) {
          result.fail(c.name + " blame identity: " + identity.summary());
        } else if (std::fabs(blame.total_time.count() - total) >
                   1e-9 * std::max(1.0, total)) {
          result.fail(c.name + " blame total != total_time");
        } else if (std::find(reference.begin(), reference.end(), line) ==
                   reference.end()) {
          result.fail(std::string("unexpected result ") + line);
        }

        if (tracer.enabled()) {
          // The same case unobserved, for the cost of observation.
          const Tracer::Span unobserved(tracer, module_of(c).c_str(),
                                        "execute unobserved " + c.name);
          (void)make_backend(c, options)->execute(schedule);
          const double unobserved_s = unobserved.elapsed_s();
          layers["obs.observe_s"] += observed_s - unobserved_s;
          standalone_s += unobserved_s;
        }
      } catch (const std::exception& e) {
        result.fail(c.name + " threw: " + e.what());
      }
    }
    result.wall_s = op.elapsed_s() - standalone_s;
  }
  result.cpu_s = process_cpu_s() - cpu0;
  if (!tracer.enabled()) return result;

  for (const char* name :
       {"optical.rounds", "optical.reconfig_charges", "net.executions",
        "net.steps", "net.traffic_elements", "sim.events_fired"}) {
    layers[name] = static_cast<double>(counters.value(name));
  }
  layers["sim.host_us_per_event"] =
      packet_events > 0.0
          ? layers["electrical.packet_execute_s"] * 1e6 / packet_events
          : 0.0;
  return result;
}

}  // namespace e2e
