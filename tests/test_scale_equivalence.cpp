// Differential equivalence harness for the scale work: every fast-path
// introduced for the 10^5..10^6-node regime (arena-backed Schedule storage,
// batched parallel RWA, flat step-signature keys, generated Ring steps,
// pooled DES inner loops, parallel sweep workers) must change *nothing* but
// speed. The reference path is pinned as: heap schedule storage
// (ScheduleStorageScope), rwa_threads = 1, single sweep worker. The new
// path enables everything at once. Reports
// are compared as serialized JSON — byte-for-byte — and sweeps as rendered
// figure-style CSV text, across all four executing backends.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "ring_oracle.hpp"
#include "wrht/collectives/btree_allreduce.hpp"
#include "wrht/collectives/registry.hpp"
#include "wrht/collectives/ring_allreduce.hpp"
#include "wrht/collectives/schedule.hpp"
#include "wrht/common/error.hpp"
#include "wrht/common/table.hpp"
#include "wrht/core/planner.hpp"
#include "wrht/core/torus_wrht.hpp"
#include "wrht/core/wrht_schedule.hpp"
#include "wrht/diag/blame.hpp"
#include "wrht/diag/blame_json.hpp"
#include "wrht/exp/sweep.hpp"
#include "wrht/net/registry.hpp"
#include "wrht/obs/counters.hpp"
#include "wrht/obs/occupancy.hpp"
#include "wrht/obs/run_report.hpp"
#include "wrht/obs/transfer_log.hpp"
#include "wrht/topo/torus.hpp"

namespace wrht {
namespace {

std::string report_json(const RunReport& report) {
  std::ostringstream out;
  report.write_json(out);
  return out.str();
}

/// Figure-bench style CSV rendering of a sweep (same cell formatting the
/// bench_fig* binaries use), so "CSV rows identical" means the text a
/// paper figure is plotted from, not some looser numeric comparison.
std::string sweep_csv(const std::vector<exp::SweepRow>& rows) {
  std::ostringstream out;
  out << "workload,nodes,wavelengths,series,time_s,rounds,wavelengths_used\n";
  for (const exp::SweepRow& row : rows) {
    out << row.point.workload.name << ',' << row.point.nodes << ','
        << row.point.wavelengths << ',' << row.point.series << ','
        << Table::num(row.report.total_time.count(), 6) << ','
        << row.report.rounds << ',' << row.report.max_wavelengths_used()
        << '\n';
  }
  return out.str();
}

/// Mirror of the optical-torus factory's default factorization, so the
/// torus series' builder and backend agree on the grid shape.
std::pair<std::uint32_t, std::uint32_t> near_square(std::uint32_t n) {
  std::uint32_t rows = 1;
  for (std::uint32_t r = 1; static_cast<std::uint64_t>(r) * r <= n; ++r) {
    if (n % r == 0) rows = r;
  }
  return {rows, n / rows};
}

void expect_transfers_equal(const coll::TransferList& a,
                            const coll::TransferList& b,
                            const std::string& where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].src, b[i].src) << where << " transfer " << i;
    EXPECT_EQ(a[i].dst, b[i].dst) << where << " transfer " << i;
    EXPECT_EQ(a[i].offset, b[i].offset) << where << " transfer " << i;
    EXPECT_EQ(a[i].count, b[i].count) << where << " transfer " << i;
    EXPECT_EQ(a[i].kind, b[i].kind) << where << " transfer " << i;
    EXPECT_EQ(a[i].direction, b[i].direction) << where << " transfer " << i;
  }
}

void expect_schedules_equal(const coll::Schedule& a, const coll::Schedule& b,
                            const std::string& where) {
  EXPECT_EQ(a.algorithm(), b.algorithm()) << where;
  EXPECT_EQ(a.num_nodes(), b.num_nodes()) << where;
  EXPECT_EQ(a.elements(), b.elements()) << where;
  ASSERT_EQ(a.num_steps(), b.num_steps()) << where;
  for (std::size_t s = 0; s < a.num_steps(); ++s) {
    EXPECT_EQ(a.steps()[s].label, b.steps()[s].label) << where << " step "
                                                      << s;
    expect_transfers_equal(a.steps()[s].transfers, b.steps()[s].transfers,
                           where + " step " + std::to_string(s));
  }
}

void expect_deltas_equal(const coll::Schedule& a, const coll::Schedule& b,
                         const std::string& where) {
  EXPECT_EQ(coll::is_reconfig_free(a), coll::is_reconfig_free(b)) << where;
  const auto da = coll::reconfig_deltas(a);
  const auto db = coll::reconfig_deltas(b);
  ASSERT_EQ(da.size(), db.size()) << where;
  for (std::size_t s = 0; s < da.size(); ++s) {
    EXPECT_TRUE(da[s].added == db[s].added) << where << " step " << s;
    EXPECT_TRUE(da[s].removed == db[s].removed) << where << " step " << s;
    EXPECT_EQ(da[s].kept, db[s].kept) << where << " step " << s;
  }
}

/// The seeded grid every old-vs-new comparison runs over: three element
/// sizes, two node counts, two wavelength budgets, and six series
/// spanning all four executing backends plus random-fit RWA.
exp::SweepSpec grid_spec() {
  exp::ensure_initialized();
  exp::SweepSpec spec;
  spec.workloads = {exp::Workload{"w1", 1024}, exp::Workload{"w2", 2048},
                    exp::Workload{"w3", 3072}};
  spec.nodes = {8, 16};
  spec.wavelengths = {4, 8};
  spec.series = {
      // Full-vector schedules on the optical ring.
      exp::Series{.name = "wrht", .algorithm = "wrht"},
      exp::Series{.name = "btree", .algorithm = "btree"},
      // Chunked schedule on the flow engine.
      exp::Series{.name = "ring_flow", .algorithm = "ring",
                  .backend = "electrical-flow"},
      exp::Series{.name = "wrht_packet", .algorithm = "wrht",
                  .backend = "electrical-packet"},
      // Random-fit RWA: the per-transfer Fisher-Yates rng draw sequence
      // must survive the first-fit fast-path split untouched.
      exp::Series{.name = "wrht_rf", .algorithm = "wrht",
                  .configure = [](const exp::SweepPoint&,
                                  net::BackendConfig& c) {
                    c.random_fit_rwa = true;
                  }},
      // Dimension-local torus WRHT through a custom builder.
      exp::Series{.name = "torus_wrht", .backend = "optical-torus",
                  .builder = [](const exp::SweepPoint& point) {
                    const auto [rows, cols] = near_square(point.nodes);
                    core::WrhtOptions options;
                    options.wavelengths = point.wavelengths;
                    options.group_size =
                        core::plan_wrht(rows, point.wavelengths).group_size;
                    return core::torus_wrht_allreduce(
                        topo::Torus(rows, cols), point.workload.elements,
                        options);
                  }},
  };
  spec.config.validate_node_capacity = false;
  return spec;
}

/// The tentpole gate: reference path (heap storage, one RWA worker, one
/// sweep worker) versus everything-on (arena storage, forced 4-way RWA
/// batch, 3 sweep workers) across the seeded grid — every RunReport must serialize to byte-identical JSON and
/// the figure CSV text must match exactly.
TEST(ScaleEquivalence, OldPathAndNewPathAreByteIdentical) {
  std::vector<exp::SweepRow> reference;
  {
    coll::ScheduleStorageScope heap(coll::ScheduleStorage::kHeap);
    exp::SweepSpec spec = grid_spec();
    spec.config.rwa_threads = 1;
    reference = exp::SweepRunner(1).run(spec);
  }

  obs::Counters counters;
  exp::SweepSpec spec = grid_spec();
  spec.config.rwa_threads = 4;
  spec.counters = &counters;
  const auto fast = exp::SweepRunner(3).run(spec);

  ASSERT_EQ(reference.size(), fast.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(report_json(reference[i].report), report_json(fast[i].report))
        << reference[i].point.series << " @ workload "
        << reference[i].point.workload.name << " N "
        << reference[i].point.nodes << " w " << reference[i].point.wavelengths;
  }
  EXPECT_EQ(sweep_csv(reference), sweep_csv(fast));
  EXPECT_EQ(counters.value("sweep.schedule.builds"), reference.size());
}

/// A chunked grid where several points ask for the same schedule: `ring`
/// and `ring_flow` differ only in backend and `b_alias` repeats `b`'s
/// element count, so each of those builds is made up to four times, on
/// whichever workers run the points. WRHT rides along as a full-vector
/// series.
exp::SweepSpec chunked_spec() {
  exp::ensure_initialized();
  exp::SweepSpec spec;
  spec.workloads = {exp::Workload{"a", 1000}, exp::Workload{"b", 2000},
                    exp::Workload{"b_alias", 2000}, exp::Workload{"c", 3000}};
  spec.nodes = {16, 24};
  spec.wavelengths = {4, 8};
  spec.series = {
      exp::Series{.name = "ring", .algorithm = "ring"},
      exp::Series{.name = "ring_flow", .algorithm = "ring",
                  .backend = "electrical-flow"},
      exp::Series{.name = "hring", .algorithm = "hring", .group_size = 5},
      exp::Series{.name = "wrht", .algorithm = "wrht"},
  };
  spec.config.validate_node_capacity = false;
  return spec;
}

struct ChunkedRun {
  std::string csv;
  std::vector<std::string> reports;
  std::uint64_t builds = 0;
};

ChunkedRun run_chunked(unsigned threads) {
  obs::Counters counters;
  exp::SweepSpec spec = chunked_spec();
  spec.counters = &counters;
  const auto rows = exp::SweepRunner(threads).run(spec);
  ChunkedRun run;
  run.csv = sweep_csv(rows);
  for (const exp::SweepRow& row : rows) {
    run.reports.push_back(report_json(row.report));
  }
  run.builds = counters.value("sweep.schedule.builds");
  return run;
}

/// 4 workers reproduce the single-worker reference on the chunked grid,
/// and every one of the 64 points builds its own schedule.
TEST(ScaleEquivalence, ChunkedGridWorkerCountsAgreeAndBuildEveryPoint) {
  const ChunkedRun reference = run_chunked(1);
  ASSERT_EQ(reference.reports.size(), 64u);
  EXPECT_EQ(reference.builds, 64u);

  const ChunkedRun run = run_chunked(4);
  EXPECT_EQ(run.csv, reference.csv);
  EXPECT_EQ(run.reports, reference.reports);
  EXPECT_EQ(run.builds, 64u);
}

/// Calls per element count of the `test_flaky` algorithm: a registry
/// algorithm (btree) whose build fails at kFlakyElements.
constexpr std::size_t kFlakyElements = 7;
struct FlakyLog {
  std::mutex mutex;
  std::map<std::size_t, int> calls;
};
FlakyLog& flaky_log() {
  static FlakyLog log;
  return log;
}

void register_flaky_algorithm() {
  coll::Registry::instance().register_algorithm(
      "test_flaky", [](const coll::AllreduceParams& p) {
        {
          FlakyLog& log = flaky_log();
          const std::lock_guard<std::mutex> lock(log.mutex);
          ++log.calls[p.elements];
        }
        if (p.elements == kFlakyElements) {
          throw InvalidArgument("test_flaky: cannot build 7 elements");
        }
        return coll::btree_allreduce(p.num_nodes, p.elements);
      });
}

/// A build that throws fails the sweep with its own error once the pool
/// has run every point. Every point builds for itself, so the point
/// repeating the failing element count builds (and fails) again, and the
/// point with another element count still builds once.
TEST(ScaleEquivalence, FailingBuildRethrowsAndEachPointBuildsItself) {
  exp::ensure_initialized();
  register_flaky_algorithm();
  exp::SweepSpec spec;
  spec.workloads = {exp::Workload{"bad", kFlakyElements},
                    exp::Workload{"bad_alias", kFlakyElements},
                    exp::Workload{"ok", 64}};
  spec.nodes = {8};
  spec.wavelengths = {4};
  spec.series = {exp::Series{.name = "flaky", .algorithm = "test_flaky"}};

  std::string error;
  try {
    (void)exp::SweepRunner(2).run(spec);
  } catch (const InvalidArgument& e) {
    error = e.what();
  }
  EXPECT_EQ(error, "test_flaky: cannot build 7 elements");
  const std::lock_guard<std::mutex> lock(flaky_log().mutex);
  EXPECT_EQ(flaky_log().calls[kFlakyElements], 2);
  EXPECT_EQ(flaky_log().calls[64], 1);
}

/// Batched first-fit RWA is a pure function of its input: any worker count
/// (including the sequential w=1 path) must produce byte-identical reports
/// on both optical engines.
TEST(ScaleEquivalence, RwaWorkerCountNeverChangesReports) {
  exp::ensure_initialized();
  const auto& registry = net::BackendRegistry::instance();

  core::WrhtOptions options;
  options.wavelengths = 8;
  options.group_size = core::plan_wrht(64, 8).group_size;
  const coll::Schedule ring_sched = core::wrht_allreduce(64, 4096, options);
  core::WrhtOptions row_options = options;
  row_options.group_size = core::plan_wrht(8, 8).group_size;
  const coll::Schedule torus_sched =
      core::torus_wrht_allreduce(topo::Torus(8, 8), 4096, row_options);

  for (const char* backend : {"optical-ring", "optical-torus"}) {
    const coll::Schedule& sched =
        backend == std::string("optical-ring") ? ring_sched : torus_sched;
    std::string baseline;
    for (const unsigned threads : {1u, 2u, 8u}) {
      net::BackendConfig config;
      config.num_nodes = 64;
      config.wavelengths = 8;
      config.validate_node_capacity = false;
      config.rwa_threads = threads;
      const std::string json =
          report_json(registry.create(backend, config)->execute(sched));
      if (baseline.empty()) {
        baseline = json;
      } else {
        EXPECT_EQ(baseline, json) << backend << " threads=" << threads;
      }
    }
  }
}

/// Satellite property test: arena-backed and heap-backed builds are value
/// identical — steps, labels, transfers, reconfig deltas and
/// is_reconfig_free — across 200 seeded configurations of every registered
/// algorithm. Infeasible configurations must fail identically on both
/// paths.
TEST(ScaleEquivalence, ArenaAndHeapSchedulesMatchAcross200Configs) {
  exp::ensure_initialized();
  const std::vector<std::string> algorithms = {
      "ring", "hring", "btree", "recursive_doubling", "halving_doubling",
      "wrht"};
  const std::vector<std::uint32_t> node_choices = {2,  3,  4,  6,  8, 12,
                                                   16, 17, 24, 32, 33, 64};

  std::mt19937 rng(20230707);
  int built = 0;
  for (int config_index = 0; config_index < 200; ++config_index) {
    coll::AllreduceParams params;
    params.num_nodes = node_choices[rng() % node_choices.size()];
    params.elements = 1 + rng() % 4096;
    params.wavelengths = 1u << static_cast<unsigned>(1 + rng() % 5);
    const std::string& algorithm = algorithms[rng() % algorithms.size()];
    if (algorithm == "hring" || algorithm == "wrht") {
      // Draw m in [2, N]; builders reject infeasible combinations and the
      // rejection itself must be storage-independent.
      params.group_size =
          2 + static_cast<std::uint32_t>(rng() % params.num_nodes);
    }
    const std::string where = algorithm + " N=" +
                              std::to_string(params.num_nodes) + " m=" +
                              std::to_string(params.group_size) + " w=" +
                              std::to_string(params.wavelengths);

    std::optional<coll::Schedule> heap_sched;
    std::string heap_error;
    try {
      coll::ScheduleStorageScope scope(coll::ScheduleStorage::kHeap);
      heap_sched = coll::Registry::instance().build(algorithm, params);
    } catch (const std::exception& e) {
      heap_error = e.what();
    }

    std::optional<coll::Schedule> arena_sched;
    std::string arena_error;
    try {
      coll::ScheduleStorageScope scope(coll::ScheduleStorage::kArena);
      arena_sched = coll::Registry::instance().build(algorithm, params);
    } catch (const std::exception& e) {
      arena_error = e.what();
    }

    ASSERT_EQ(heap_sched.has_value(), arena_sched.has_value())
        << where << " heap error: " << heap_error
        << " arena error: " << arena_error;
    if (!heap_sched) {
      EXPECT_EQ(heap_error, arena_error) << where;
      continue;
    }
    ++built;
    EXPECT_EQ(heap_sched->storage(), coll::ScheduleStorage::kHeap) << where;
    EXPECT_EQ(arena_sched->storage(), coll::ScheduleStorage::kArena) << where;
    expect_schedules_equal(*heap_sched, *arena_sched, where);
    expect_deltas_equal(*heap_sched, *arena_sched, where);
  }
  // The draw must not degenerate into rejections only.
  EXPECT_GE(built, 100) << "seeded draw produced too few feasible configs";
}

/// Everything one run on a fresh backend produces: its RunReport JSON with
/// counters attached, then (observed runs) the trace spans' names and the
/// blame JSON built from its TransferLog; or the error it threw.
std::string run_artifacts(const std::string& backend,
                          const net::BackendConfig& config,
                          const coll::Schedule& schedule, bool observed) {
  const auto engine = net::BackendRegistry::instance().create(backend, config);
  obs::Counters counters;
  obs::MemoryTraceSink trace;
  obs::OccupancySampler occupancy;
  obs::TransferLog log;
  obs::Probe probe;
  probe.counters = &counters;
  if (observed) {
    probe.trace = &trace;
    probe.occupancy = &occupancy;
    probe.transfers = &log;
  }
  std::ostringstream out;
  try {
    RunReport report = engine->execute(schedule, probe);
    report.add_counters(counters);
    report.write_json(out);
  } catch (const Error& e) {
    return std::string("error: ") + e.what();
  }
  if (observed) {
    for (const obs::TraceSpan& span : trace.spans()) out << span.name << '\n';
    for (obs::OccupancySampler::ResourceRef ref = 0;
         ref < occupancy.num_resources(); ++ref) {
      out << occupancy.name(ref) << ':';
      for (const obs::OccInterval& interval : occupancy.intervals(ref)) {
        out << ' ' << interval.step << '/'
            << static_cast<int>(interval.category) << '/'
            << interval.concurrency << '@' << interval.start.count() << '+'
            << interval.duration.count();
      }
      out << '\n';
    }
    diag::write_blame_json(diag::build_blame(log), {}, out);
  }
  return out.str();
}

/// A generated Ring schedule and its materialized twin (the oracle
/// builder's) are the same input to every engine: RunReport, counters,
/// trace and blame JSON are byte-identical, observed or not, for element
/// counts divisible and not divisible by N. Ring does not fit a torus
/// beyond N = 2, so larger torus cases compare the error.
TEST(ScaleEquivalence, GeneratedAndMaterializedRingAreByteIdentical) {
  exp::ensure_initialized();
  struct Case {
    const char* backend;
    std::uint32_t nodes;
    net::ReconfigPolicy policy;
  };
  for (const Case& c :
       {Case{"optical-ring", 16, net::ReconfigPolicy::kEveryRound},
        Case{"optical-ring", 33, net::ReconfigPolicy::kOnRetune},
        Case{"optical-ring", 12, net::ReconfigPolicy::kOverlapped},
        Case{"electrical-flow", 24, net::ReconfigPolicy::kEveryRound},
        Case{"electrical-packet", 8, net::ReconfigPolicy::kEveryRound},
        Case{"optical-torus", 2, net::ReconfigPolicy::kEveryRound},
        Case{"optical-torus", 8, net::ReconfigPolicy::kEveryRound}}) {
    net::BackendConfig config;
    config.num_nodes = c.nodes < 4 ? 4 : c.nodes;
    config.wavelengths = 4;
    config.validate_node_capacity = false;
    config.reconfig_policy = c.policy;
    config.rwa_threads = 1;
    for (const std::size_t elements : {std::size_t{c.nodes} * 40,
                                       std::size_t{c.nodes} * 40 + 7}) {
      const coll::Schedule generated = coll::ring_allreduce(c.nodes, elements);
      const coll::Schedule materialized =
          test::ring_allreduce_oracle(c.nodes, elements);
      for (const bool observed : {false, true}) {
        const std::string where = std::string(c.backend) + " N=" +
                                  std::to_string(c.nodes) + " elements=" +
                                  std::to_string(elements) +
                                  (observed ? " observed" : "");
        const std::string want =
            run_artifacts(c.backend, config, materialized, observed);
        EXPECT_EQ(run_artifacts(c.backend, config, generated, observed), want)
            << where;
        EXPECT_EQ(want.rfind("error", 0) == 0,
                  std::string(c.backend) == "optical-torus" && c.nodes > 2)
            << where << ": " << want.substr(0, 200);
      }
    }
  }
}

}  // namespace
}  // namespace wrht
