// Shared types of the end-to-end benchmark program (wrht_e2e).
//
// One process runs one iteration of one workload: set-up, the measured
// operation, and the output checks. It prints a single JSON line that
// perfbench/run.py aggregates across iterations. With tracing on, the
// program also records spans around each call it makes into a library
// module and reports per-layer metrics; the library itself is not
// instrumented beyond what its public API already offers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

/// Spans recorded by the benchmark's own code, kept in memory and written
/// once at the end. Disabled tracers record nothing and read no clock.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span for `module` ("exp", "optical", ...) named `name`; it
  /// closes when the returned guard dies. Spans must nest (the benchmark is
  /// single-threaded); the parent is the innermost open span.
  class Span {
   public:
    Span(Tracer& tracer, const char* module, std::string name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    /// Seconds since the span opened (works with tracing off too).
    [[nodiscard]] double elapsed_s() const;

   private:
    Tracer& tracer_;
    std::size_t index_ = 0;
    std::chrono::steady_clock::time_point start_;
  };

  /// Self time per module (span duration minus its children), the root
  /// span's own remainder as "unattributed", and the root's duration.
  struct SelfTimes {
    std::map<std::string, double> self_s;
    double unattributed_s = 0.0;
    double wall_s = 0.0;
    /// |sum(self) + unattributed - wall|, from an independent interval
    /// sweep; nonzero only if spans overlap or escape their parent.
    double identity_error_s = 0.0;
  };
  [[nodiscard]] SelfTimes self_times() const;

  /// Writes every span as a Chrome trace (one complete event per span).
  void write_chrome_trace(const std::string& path) const;

 private:
  struct Record {
    std::string module;
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
    std::int64_t parent = -1;
  };
  std::int64_t now_ns() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Record> records_;
  std::vector<std::size_t> open_;
};

/// What every workload returns to main().
struct Result {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// First few failure descriptions, for the log.
  std::vector<std::string> failures;
  /// Per-layer metrics (filled in traced runs).
  std::map<std::string, double> layers;

  /// Counts `operations` failed ops, described by `what`.
  void fail(std::string what, std::uint64_t operations = 1);
};

/// Concurrency and inputs a workload runs with, resolved by main().
struct Options {
  std::uint64_t seed = 1;
  unsigned sweep_threads = 1;
  unsigned rwa_threads = 1;
  /// Directory holding the reference outputs (perfbench/ref).
  std::string ref_dir;
  /// Print the outputs that ref/ stores instead of checking them.
  bool emit_reference = false;
};

/// Process CPU seconds (user + system, all threads) so far.
[[nodiscard]] double process_cpu_s();

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Reads a text file into lines (no trailing newline); throws when the
/// file cannot be opened.
[[nodiscard]] std::vector<std::string> read_lines(const std::string& path);

Result run_paper_sweep(const Options& options, Tracer& tracer);
Result run_svc_saturated(const Options& options, Tracer& tracer);
Result run_explain(const Options& options, Tracer& tracer);

}  // namespace e2e
