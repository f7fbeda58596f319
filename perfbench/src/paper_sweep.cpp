// paper_sweep: regenerates the paper's Fig. 5 grid and the N <= 2048
// columns of Fig. 6 through exp::SweepRunner, exactly as the figure
// benches do, and checks every grid point's CSV row against the stored
// reference. Larger Fig. 6 columns are out until Ring schedules stop
// materializing O(N^2) transfers.
#include <cstdio>
#include <optional>
#include <span>
#include <tuple>
#include <unordered_set>

#include "e2e.hpp"
#include "wrht/collectives/registry.hpp"
#include "wrht/common/table.hpp"
#include "wrht/core/planner.hpp"
#include "wrht/dnn/zoo.hpp"
#include "wrht/exp/sweep.hpp"
#include "wrht/net/pattern_key.hpp"
#include "wrht/obs/counters.hpp"
#include "wrht/optical/rwa.hpp"
#include "wrht/prof/prof.hpp"
#include "wrht/topo/ring.hpp"

namespace e2e {
namespace {

using namespace wrht;

exp::SweepSpec paper_spec(std::vector<std::uint32_t> nodes,
                          std::vector<std::uint32_t> wavelengths,
                          const Options& options, obs::Counters& counters) {
  exp::SweepSpec spec;
  for (const auto& model : dnn::paper_workloads()) {
    spec.workloads.push_back(
        exp::Workload{model.name(), model.parameter_count()});
  }
  spec.nodes = std::move(nodes);
  spec.wavelengths = std::move(wavelengths);
  spec.series = {exp::Series{.name = "ring", .algorithm = "ring"},
                 exp::Series{.name = "hring", .algorithm = "hring",
                             .group_size = 5},
                 exp::Series{.name = "btree", .algorithm = "btree"},
                 exp::Series{.name = "wrht", .algorithm = "wrht"}};
  spec.config.validate_node_capacity = false;
  spec.config.rwa_threads = options.rwa_threads;
  spec.config.rng_seed = options.seed;
  spec.counters = &counters;
  return spec;
}

double row_time(const std::vector<exp::SweepRow>& rows,
                const std::string& workload, std::uint32_t nodes,
                std::uint32_t wavelengths, const std::string& series) {
  for (const exp::SweepRow& row : rows) {
    if (row.point.workload.name == workload && row.point.nodes == nodes &&
        row.point.wavelengths == wavelengths && row.point.series == series) {
      return row.report.total_time.count();
    }
  }
  return -1.0;
}

/// The figure bench's CSV lines: header, then one row per grid point in
/// sweep order, normalized by WRHT on the last workload (ResNet50) at the
/// grid's first N and last w.
std::vector<std::string> csv_lines(const exp::SweepSpec& spec,
                                   const std::vector<exp::SweepRow>& rows,
                                   bool by_nodes) {
  const double base =
      row_time(rows, spec.workloads.back().name, spec.nodes.front(),
               spec.wavelengths.back(), "wrht");
  std::vector<std::string> lines{
      by_nodes ? "workload,nodes,algorithm,time_s,normalized"
               : "workload,wavelengths,algorithm,time_s,normalized"};
  for (const exp::SweepRow& row : rows) {
    const double t = row.report.total_time.count();
    lines.push_back(row.point.workload.name + "," +
                    std::to_string(by_nodes ? row.point.nodes
                                            : row.point.wavelengths) +
                    "," + row.point.series + "," + Table::num(t, 6) + "," +
                    Table::num(t / base, 4));
  }
  return lines;
}

/// Counts every grid point whose row differs from (or is missing in) the
/// reference; `rows` is empty when the sweep threw.
void check_rows(const std::vector<std::string>& got,
                const std::vector<std::string>& want, std::size_t points,
                const char* figure, Result& result) {
  result.attempted += points;
  for (std::size_t i = 1; i <= points; ++i) {
    const std::string have = i < got.size() ? got[i] : "<missing>";
    const std::string expect = i < want.size() ? want[i] : "<missing>";
    if (have != expect || got.empty() || got[0] != want[0]) {
      result.fail(std::string(figure) + " row " + std::to_string(i) + ": " +
                  have + " != " + expect);
    }
  }
}

/// Traced runs only: builds the largest grid column (N = 2048, w = 64,
/// ResNet50) outside the sweep to measure schedule size, then times RWA
/// over those schedules' distinct step patterns.
void standalone_column(const Options& options, Tracer& tracer,
                       Result& result) {
  constexpr std::uint32_t kNodes = 2048;
  constexpr std::uint32_t kWavelengths = 64;
  const std::size_t resnet = dnn::paper_workloads().back().parameter_count();
  std::vector<coll::Schedule> schedules;
  double transfers = 0.0;
  double arena_bytes = 0.0;
  for (const auto& [algorithm, m] :
       std::vector<std::pair<std::string, std::uint32_t>>{
           {"ring", 0}, {"hring", 5}, {"btree", 0}, {"wrht", 0}}) {
    coll::AllreduceParams params;
    params.num_nodes = kNodes;
    params.elements = resnet;
    params.group_size = m;
    params.wavelengths = kWavelengths;
    const Tracer::Span span(tracer, "collectives", "build " + algorithm);
    schedules.push_back(coll::Registry::instance().build(algorithm, params));
    for (const coll::Step& step : schedules.back().steps()) {
      transfers += static_cast<double>(step.transfers.size());
    }
    if (schedules.back().arena() != nullptr) {
      arena_bytes +=
          static_cast<double>(schedules.back().arena()->bytes_reserved());
    }
  }
  result.layers["collectives.transfers"] = transfers;
  result.layers["collectives.arena_mb"] = arena_bytes / (1024.0 * 1024.0);

  const topo::Ring ring(kNodes);
  optics::RwaOptions rwa;
  rwa.wavelengths = kWavelengths;
  double rwa_s = 0.0;
  for (const coll::Schedule& schedule : schedules) {
    // One RWA problem per distinct step pattern, as the ring engine solves.
    std::vector<std::span<const coll::Transfer>> steps;
    std::unordered_set<std::uint64_t> seen;
    for (const coll::Step& step : schedule.steps()) {
      if (seen.insert(net::step_signature(step, true)).second) {
        steps.emplace_back(step.transfers.data(), step.transfers.size());
      }
    }
    const Tracer::Span span(tracer, "optical", "rwa " + schedule.algorithm());
    const auto solved =
        optics::assign_rounds_batch(ring, steps, rwa, options.rwa_threads);
    rwa_s += span.elapsed_s();
    if (solved.size() != steps.size()) {
      result.fail("standalone RWA dropped steps of " + schedule.algorithm());
    }
  }
  result.layers["optical.rwa_s"] = rwa_s;
}

}  // namespace

Result run_paper_sweep(const Options& options, Tracer& tracer) {
  Result result;
  obs::Counters counters;
  exp::SweepSpec fig5;
  exp::SweepSpec fig6;
  std::vector<std::string> fig5_ref;
  std::vector<std::string> fig6_ref;
  {
    const Tracer::Span span(tracer, "bench", "setup");
    exp::ensure_initialized();
    fig5 = paper_spec({1024}, {4, 16, 64, 256}, options, counters);
    fig6 = paper_spec({1024, 2048}, {64}, options, counters);
    fig5_ref = read_lines(options.ref_dir + "/fig5_wavelengths.csv");
    fig6_ref = read_lines(options.ref_dir + "/fig6_scaling.csv");
    result.setup_s = span.elapsed_s();
  }

  prof::ProfRegistry registry;
  std::vector<std::string> fig5_rows;
  std::vector<std::string> fig6_rows;
  const double cpu0 = process_cpu_s();
  {
    const Tracer::Span op(tracer, "bench", "operation");
    const exp::SweepRunner runner(options.sweep_threads);
    for (auto [spec, out, by_nodes] :
         {std::tuple{&fig5, &fig5_rows, false},
          std::tuple{&fig6, &fig6_rows, true}}) {
      try {
        std::vector<exp::SweepRow> rows;
        {
          const Tracer::Span span(tracer, "exp", "sweep");
          // The library's own phase timers see inside the worker pool;
          // they only run when a registry is installed.
          std::optional<prof::ScopedProfiling> profiling;
          if (tracer.enabled()) profiling.emplace(registry);
          rows = runner.run(*spec);
          result.layers["exp.sweep_s"] += span.elapsed_s();
        }
        const Tracer::Span span(tracer, "bench", "format rows");
        *out = csv_lines(*spec, rows, by_nodes);
      } catch (const std::exception& e) {
        result.fail(std::string("sweep threw: ") + e.what());
      }
    }
    {
      const Tracer::Span span(tracer, "bench", "check");
      check_rows(fig5_rows, fig5_ref, 64, "fig5", result);
      check_rows(fig6_rows, fig6_ref, 32, "fig6", result);
    }
    result.wall_s = op.elapsed_s();
  }
  result.cpu_s = process_cpu_s() - cpu0;

  if (options.emit_reference) {
    for (const auto& line : fig5_rows) std::printf("fig5 %s\n", line.c_str());
    for (const auto& line : fig6_rows) std::printf("fig6 %s\n", line.c_str());
  }
  if (!tracer.enabled()) return result;

  const auto phases = registry.phase_totals();
  const auto phase_s = [&](const char* name) {
    const auto it = phases.find(name);
    return it == phases.end() ? 0.0 : it->second.seconds;
  };
  const auto count = [&](const char* name) {
    return static_cast<double>(counters.value(name));
  };
  // Busy seconds summed over the sweep workers.
  result.layers["collectives.build_s"] =
      phase_s("sweep.schedule.build") + phase_s("sweep.schedule.patch");
  result.layers["optical.ring_execute_s"] =
      phase_s("backend.optical-ring.execute");
  const double builds = count("sweep.schedule.builds");
  const double patches = count("sweep.schedule.patches");
  const double hits = count("sweep.schedule.hits");
  result.layers["collectives.builds"] = builds;
  result.layers["exp.schedule_builds"] = builds;
  result.layers["exp.schedule_patches"] = patches;
  result.layers["exp.schedule_hits"] = hits;
  result.layers["exp.cache_reuse_ratio"] =
      builds + patches + hits > 0.0
          ? (patches + hits) / (builds + patches + hits)
          : 0.0;
  for (const char* name :
       {"optical.rounds", "optical.reconfig_charges", "net.executions",
        "net.steps", "net.traffic_elements", "sim.events_fired"}) {
    result.layers[name] = count(name);
  }
  standalone_column(options, tracer, result);
  return result;
}

}  // namespace e2e
