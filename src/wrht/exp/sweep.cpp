#include "wrht/exp/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "wrht/collectives/registry.hpp"
#include "wrht/common/env.hpp"
#include "wrht/common/error.hpp"
#include "wrht/core/wrht_schedule.hpp"
#include "wrht/obs/trace.hpp"
#include "wrht/obs/trace_json.hpp"
#include "wrht/prof/prof.hpp"

namespace wrht::exp {

namespace {

std::uint64_t fnv_mix(std::uint64_t hash, std::uint64_t value) {
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xffU;
    hash *= kPrime;
  }
  return hash;
}

std::uint64_t fnv_mix(std::uint64_t hash, const std::string& value) {
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  for (const char c : value) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kPrime;
  }
  return hash;
}

/// Deterministic per-point seed: a pure function of the point's
/// coordinates and the spec's base seed, so random-fit RWA draws the same
/// wavelengths no matter which worker runs the point or in what order.
std::uint64_t point_seed(std::uint64_t base, const SweepPoint& point) {
  std::uint64_t hash = fnv_mix(14695981039346656037ULL, base);
  hash = fnv_mix(hash, point.workload.name);
  hash = fnv_mix(hash, point.workload.elements);
  hash = fnv_mix(hash, point.nodes);
  hash = fnv_mix(hash, point.wavelengths);
  hash = fnv_mix(hash, point.series);
  hash = fnv_mix(hash, point.series_index);
  return hash;
}

coll::Schedule build_schedule(const Series& series, const SweepPoint& point) {
  const prof::ScopedTimer timer("sweep.schedule.build");
  if (series.builder) return series.builder(point);
  coll::AllreduceParams params;
  params.num_nodes = point.nodes;
  params.elements = point.workload.elements;
  params.group_size = point.group_size;
  params.wavelengths = point.wavelengths;
  return coll::Registry::instance().build(series.algorithm, params);
}

unsigned resolve_threads(unsigned requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return thread_count_from_env("WRHT_SWEEP_THREADS", hw);
}

std::vector<SweepPoint> expand_grid(const SweepSpec& spec) {
  std::vector<SweepPoint> points;
  points.reserve(spec.workloads.size() * spec.nodes.size() *
                 spec.wavelengths.size() * spec.series.size());
  for (const Workload& workload : spec.workloads) {
    for (const std::uint32_t nodes : spec.nodes) {
      for (const std::uint32_t wavelengths : spec.wavelengths) {
        for (std::size_t s = 0; s < spec.series.size(); ++s) {
          const Series& series = spec.series[s];
          SweepPoint point;
          point.workload = workload;
          point.nodes = nodes;
          point.wavelengths = wavelengths;
          point.series_index = s;
          point.series = series.name;
          point.group_size = series.group_size_fn ? series.group_size_fn(point)
                                                  : series.group_size;
          points.push_back(std::move(point));
        }
      }
    }
  }
  return points;
}

/// Serializes concurrent workers' span/counter emission into one shared
/// downstream sink (TraceSink implementations are single-threaded).
class LockedTraceSink final : public obs::TraceSink {
 public:
  explicit LockedTraceSink(obs::TraceSink& sink) : sink_(sink) {}
  void span(const obs::TraceSpan& s) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    sink_.span(s);
  }
  void counter(const obs::CounterSample& s) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    sink_.counter(s);
  }

 private:
  std::mutex mutex_;
  obs::TraceSink& sink_;
};

/// Builds the point's schedule, runs it and drops it: no two points share
/// a schedule, so at most one per worker is alive at a time.
SweepRow run_point(const SweepSpec& spec, const SweepPoint& point,
                   obs::TraceSink* trace, std::uint32_t track) {
  const Series& series = spec.series[point.series_index];
  const coll::Schedule schedule = build_schedule(series, point);

  net::BackendConfig config = spec.config;
  config.num_nodes = point.nodes;
  config.wavelengths = point.wavelengths;
  config.rng_seed = point_seed(spec.config.rng_seed, point);
  if (series.configure) series.configure(point, config);

  const std::unique_ptr<net::Backend> backend =
      net::BackendRegistry::instance().create(series.backend, config);

  obs::Counters local;
  obs::Probe probe;
  probe.counters = &local;
  probe.trace = trace;
  probe.track = track;
  SweepRow row;
  row.point = point;
  row.report = backend->execute(schedule, probe);
  row.report.add_counters(local);
  if (spec.counters != nullptr) spec.counters->merge(local);
  return row;
}

/// One schedule build per point; reported only for sweeps that finish.
void add_build_count(obs::Counters* counters, std::size_t points) {
  if (counters != nullptr) counters->add("sweep.schedule.builds", points);
}

/// Labels the worker tracks 0..count-1 "sweep-worker-<k>" when the
/// spec's sink is a ChromeTraceSink, so the exported trace names its
/// lanes after the pool instead of raw tids.
void name_worker_tracks(obs::TraceSink* sink, unsigned count) {
  auto* chrome = dynamic_cast<obs::ChromeTraceSink*>(sink);
  if (chrome == nullptr) return;
  for (unsigned k = 0; k < count; ++k) {
    chrome->set_track_name(k, "sweep-worker-" + std::to_string(k));
  }
}

}  // namespace

void ensure_initialized() {
  static std::once_flag once;
  std::call_once(once, [] {
    core::register_wrht_algorithm();
    net::register_builtin_backends();
  });
}

SweepRunner::SweepRunner(unsigned threads)
    : threads_(resolve_threads(threads)) {}

std::vector<SweepRow> SweepRunner::run(const SweepSpec& spec) const {
  ensure_initialized();
  require(!spec.workloads.empty(), "SweepRunner: no workloads");
  require(!spec.nodes.empty(), "SweepRunner: no node counts");
  require(!spec.wavelengths.empty(), "SweepRunner: no wavelength budgets");
  require(!spec.series.empty(), "SweepRunner: no series");

  const std::vector<SweepPoint> points = expand_grid(spec);
  std::vector<SweepRow> rows(points.size());

  std::optional<LockedTraceSink> locked;
  if (spec.trace != nullptr) locked.emplace(*spec.trace);
  obs::TraceSink* trace = locked ? &*locked : nullptr;

  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(threads_, points.size()));
  if (workers <= 1) {
    // Same phase accounting as the pooled path so thread-efficiency
    // figures exist (and read ~1) for single-threaded runs.
    const prof::ScopedTimer wall("sweep.worker.wall");
    for (std::size_t i = 0; i < points.size(); ++i) {
      const prof::ScopedTimer busy("sweep.worker.busy");
      rows[i] = run_point(spec, points[i], trace, 0);
    }
    add_build_count(spec.counters, points.size());
    name_worker_tracks(spec.trace, 1);
    return rows;
  }

  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  auto worker = [&](unsigned id) {
    // wall covers the worker's whole life, busy only run_point: the merged
    // busy/wall ratio is the pool efficiency WRHT_SWEEP_THREADS bought.
    prof::set_thread_label("sweep-worker-" + std::to_string(id));
    const prof::ScopedTimer wall("sweep.worker.wall");
    while (true) {
      const std::size_t i = next.fetch_add(1);
      if (i >= points.size()) return;
      try {
        const prof::ScopedTimer busy("sweep.worker.busy");
        rows[i] = run_point(spec, points[i], trace, id);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned t = 0; t < workers; ++t) pool.emplace_back(worker, t);
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
  add_build_count(spec.counters, points.size());
  name_worker_tracks(spec.trace, workers);
  return rows;
}

}  // namespace wrht::exp
