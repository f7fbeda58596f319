// Tests for the declarative sweep engine (exp::SweepSpec / SweepRunner):
// grid expansion order, thread-count-independent results, one schedule
// build per point, per-series knobs, error handling and counter merging.
#include "wrht/exp/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "wrht/collectives/registry.hpp"
#include "wrht/collectives/ring_allreduce.hpp"
#include "wrht/common/error.hpp"
#include "wrht/obs/counters.hpp"
#include "wrht/obs/trace_json.hpp"

namespace wrht {
namespace {

/// Two workloads x two node counts x one budget x two series = 8 points,
/// small enough that even the threaded runs stay fast.
exp::SweepSpec small_spec() {
  exp::SweepSpec spec;
  spec.workloads = {exp::Workload{"a", 256}, exp::Workload{"b", 512}};
  spec.nodes = {4, 8};
  spec.wavelengths = {4};
  spec.series = {exp::Series{.name = "ring", .algorithm = "ring"},
                 exp::Series{.name = "btree", .algorithm = "btree"}};
  return spec;
}

TEST(Sweep, RowsComeBackInGridOrder) {
  const exp::SweepSpec spec = small_spec();
  const auto rows = exp::SweepRunner(1).run(spec);
  ASSERT_EQ(rows.size(), 8u);

  // workloads (outer) x nodes x wavelengths x series (inner).
  std::size_t i = 0;
  for (const exp::Workload& workload : spec.workloads) {
    for (const std::uint32_t nodes : spec.nodes) {
      for (const exp::Series& series : spec.series) {
        const exp::SweepPoint& point = rows[i].point;
        EXPECT_EQ(point.workload.name, workload.name) << i;
        EXPECT_EQ(point.nodes, nodes) << i;
        EXPECT_EQ(point.wavelengths, 4u) << i;
        EXPECT_EQ(point.series, series.name) << i;
        EXPECT_EQ(rows[i].report.backend, "optical-ring") << i;
        ++i;
      }
    }
  }
}

TEST(Sweep, ThreadCountDoesNotChangeResults) {
  exp::SweepSpec spec = small_spec();
  // Random-fit RWA makes the comparison sensitive to seed handling: the
  // per-point seeds must not depend on which worker runs a point.
  spec.series.push_back(exp::Series{
      .name = "ring_rf", .algorithm = "ring",
      .configure = [](const exp::SweepPoint&, net::BackendConfig& c) {
        c.random_fit_rwa = true;
      }});

  const auto serial = exp::SweepRunner(1).run(spec);
  const auto threaded = exp::SweepRunner(4).run(spec);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].point.series, threaded[i].point.series) << i;
    EXPECT_EQ(serial[i].point.nodes, threaded[i].point.nodes) << i;
    EXPECT_EQ(serial[i].report.total_time.count(),
              threaded[i].report.total_time.count())
        << i;
    EXPECT_EQ(serial[i].report.rounds, threaded[i].report.rounds) << i;
    EXPECT_EQ(serial[i].report.counters, threaded[i].report.counters) << i;
  }
}

TEST(Sweep, EveryPointBuildsItsOwnSchedule) {
  // Two series share one registry algorithm and a third has a builder:
  // no point reuses another's schedule, so the registry runs once per
  // point of its two series and the builder once per point of its own.
  std::atomic<int> registry_builds{0};
  coll::Registry::instance().register_algorithm(
      "test-counting-ring",
      [&registry_builds](const coll::AllreduceParams& p) {
        registry_builds.fetch_add(1);
        return coll::ring_allreduce(p.num_nodes, p.elements);
      });
  std::mutex mutex;
  std::map<std::string, int> builder_calls;  // per point

  obs::Counters counters;
  exp::SweepSpec spec;
  spec.workloads = {exp::Workload{"a", 256}, exp::Workload{"b", 256}};
  spec.nodes = {4, 8};
  spec.wavelengths = {2, 4};
  spec.counters = &counters;
  spec.series = {
      exp::Series{.name = "paper", .algorithm = "test-counting-ring"},
      exp::Series{.name = "strict", .algorithm = "test-counting-ring",
                  .configure =
                      [](const exp::SweepPoint&, net::BackendConfig& c) {
                        c.convention = net::RateConvention::kStrictBits;
                      }},
      exp::Series{.name = "built",
                  .builder = [&](const exp::SweepPoint& p) {
                    {
                      const std::lock_guard<std::mutex> lock(mutex);
                      ++builder_calls[p.workload.name + " " +
                                      std::to_string(p.nodes) + " " +
                                      std::to_string(p.wavelengths)];
                    }
                    return coll::ring_allreduce(p.nodes, p.workload.elements);
                  }}};

  const auto rows = exp::SweepRunner(3).run(spec);
  ASSERT_EQ(rows.size(), 24u);
  EXPECT_EQ(counters.value("sweep.schedule.builds"), rows.size());
  EXPECT_EQ(registry_builds.load(), 16);
  EXPECT_EQ(builder_calls.size(), 8u);
  for (const auto& [point, calls] : builder_calls) {
    EXPECT_EQ(calls, 1) << point;
  }

  // The configure hook really did run per series: strict prices slower.
  EXPECT_GT(rows[1].report.total_time.count(),
            rows[0].report.total_time.count());
}

TEST(Sweep, GroupSizeFnOverridesStaticGroupSize) {
  exp::SweepSpec spec;
  spec.workloads = {exp::Workload{"a", 256}};
  spec.nodes = {4, 8};
  spec.wavelengths = {4};
  spec.series = {exp::Series{
      .name = "hring", .algorithm = "hring", .group_size = 99,
      .group_size_fn = [](const exp::SweepPoint& p) { return p.nodes / 2; }}};

  const auto rows = exp::SweepRunner(1).run(spec);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].point.group_size, 2u);
  EXPECT_EQ(rows[1].point.group_size, 4u);
}

TEST(Sweep, BuilderSeriesBypassesAlgorithmRegistry) {
  exp::SweepSpec spec;
  spec.workloads = {exp::Workload{"a", 64}};
  spec.nodes = {4};
  spec.wavelengths = {4};
  spec.series = {exp::Series{
      .name = "custom", .backend = "schedule-only",
      .builder = [](const exp::SweepPoint& p) {
        coll::Schedule sched("custom", p.nodes, p.workload.elements);
        coll::Step& step = sched.add_step("only step");
        coll::Transfer t;
        t.src = 0;
        t.dst = 1;
        t.count = p.workload.elements;
        step.transfers.push_back(t);
        return sched;
      }}};

  const auto rows = exp::SweepRunner(1).run(spec);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].report.backend, "schedule-only");
  EXPECT_EQ(rows[0].report.steps, 1u);
  EXPECT_EQ(rows[0].report.step_reports.at(0).label, "only step");
}

TEST(Sweep, EmptyAxesAreRejected) {
  const exp::SweepRunner runner(1);
  exp::SweepSpec spec = small_spec();
  spec.workloads.clear();
  EXPECT_THROW(static_cast<void>(runner.run(spec)), InvalidArgument);

  spec = small_spec();
  spec.nodes.clear();
  EXPECT_THROW(static_cast<void>(runner.run(spec)), InvalidArgument);

  spec = small_spec();
  spec.wavelengths.clear();
  EXPECT_THROW(static_cast<void>(runner.run(spec)), InvalidArgument);

  spec = small_spec();
  spec.series.clear();
  EXPECT_THROW(static_cast<void>(runner.run(spec)), InvalidArgument);
}

TEST(Sweep, WorkerExceptionsPropagate) {
  exp::SweepSpec spec = small_spec();
  spec.series = {exp::Series{
      .name = "boom", .builder = [](const exp::SweepPoint&) -> coll::Schedule {
        throw InvalidArgument("schedule construction failed on purpose");
      }}};
  EXPECT_THROW(static_cast<void>(exp::SweepRunner(1).run(spec)),
               InvalidArgument);
  EXPECT_THROW(static_cast<void>(exp::SweepRunner(4).run(spec)),
               InvalidArgument);
}

TEST(Sweep, UnknownBackendOrAlgorithmPropagates) {
  exp::SweepSpec spec = small_spec();
  spec.series[0].backend = "no-such-backend";
  EXPECT_THROW(static_cast<void>(exp::SweepRunner(2).run(spec)),
               InvalidArgument);

  spec = small_spec();
  spec.series[0].algorithm = "no-such-algorithm";
  EXPECT_THROW(static_cast<void>(exp::SweepRunner(2).run(spec)),
               InvalidArgument);
}

TEST(Sweep, CountersAttachToRowsAndMergeIntoSpec) {
  obs::Counters merged;
  exp::SweepSpec spec = small_spec();
  spec.counters = &merged;

  const auto rows = exp::SweepRunner(2).run(spec);
  std::uint64_t row_executions = 0;
  for (const exp::SweepRow& row : rows) {
    // Every row carries its own run's counters...
    EXPECT_EQ(row.report.counters.at("net.executions"), 1u);
    EXPECT_EQ(row.report.counters.at("optical.steps"), row.report.steps);
    row_executions += row.report.counters.at("net.executions");
  }
  // ...and the shared registry saw the additive sum of all of them.
  EXPECT_EQ(merged.value("net.executions"), row_executions);
  EXPECT_EQ(merged.value("net.executions"), rows.size());
}

TEST(Sweep, ExplicitThreadsWinOverEnvironment) {
  EXPECT_EQ(exp::SweepRunner(3).threads(), 3u);
  EXPECT_GE(exp::SweepRunner(0).threads(), 1u);
}

/// Sets WRHT_SWEEP_THREADS for one scope and restores the prior state.
class ScopedSweepThreadsEnv {
 public:
  explicit ScopedSweepThreadsEnv(const char* value) {
    const char* prev = std::getenv("WRHT_SWEEP_THREADS");
    if (prev != nullptr) previous_ = prev;
    had_previous_ = prev != nullptr;
    ::setenv("WRHT_SWEEP_THREADS", value, 1);
  }
  ~ScopedSweepThreadsEnv() {
    if (had_previous_) {
      ::setenv("WRHT_SWEEP_THREADS", previous_.c_str(), 1);
    } else {
      ::unsetenv("WRHT_SWEEP_THREADS");
    }
  }

 private:
  std::string previous_;
  bool had_previous_ = false;
};

TEST(Sweep, ValidThreadsEnvIsHonoured) {
  const ScopedSweepThreadsEnv env("7");
  EXPECT_EQ(exp::SweepRunner(0).threads(), 7u);
}

// Hardening: zero, negative, non-numeric, trailing-garbage and absurd
// values must not poison the pool (0 would deadlock it; a negative cast
// to unsigned would ask for billions of threads). All fall back to
// hardware concurrency, which this host reports as >= 1.
TEST(Sweep, MalformedThreadsEnvFallsBackToHardwareConcurrency) {
  ::unsetenv("WRHT_SWEEP_THREADS");
  const unsigned fallback = exp::SweepRunner(0).threads();
  for (const char* bad : {"0", "-3", "abc", "8x", "", "1e3", "999999999"}) {
    const ScopedSweepThreadsEnv env(bad);
    EXPECT_EQ(exp::SweepRunner(0).threads(), fallback)
        << "WRHT_SWEEP_THREADS='" << bad << "'";
  }
}

// The spec's trace sink receives every run's spans, and worker tracks are
// labelled "sweep-worker-<k>" when the sink is a ChromeTraceSink.
TEST(Sweep, TraceSinkCollectsSpansWithLabelledWorkerTracks) {
  obs::ChromeTraceSink sink;
  exp::SweepSpec spec = small_spec();
  spec.trace = &sink;

  const auto rows = exp::SweepRunner(2).run(spec);
  EXPECT_EQ(rows.size(), 8u);
  EXPECT_GT(sink.size(), 0u);

  std::ostringstream out;
  sink.write(out);
  EXPECT_NE(out.str().find("thread_name"), std::string::npos);
  EXPECT_NE(out.str().find("sweep-worker-0"), std::string::npos);
}

}  // namespace
}  // namespace wrht
