// wrht_e2e: one iteration of one end-to-end benchmark workload.
//
//   wrht_e2e --workload paper_sweep|svc_saturated|explain --seed N
//            --ref-dir DIR --sweep-threads T --rwa-threads R
//            [--trace-out PATH] [--emit-reference]
//   wrht_e2e --provenance
//
// Prints one JSON line: set-up, wall and CPU seconds of the measured
// operation, operations attempted and failed, and with --trace-out the
// per-layer metrics and per-module self times of the traced run (whose
// spans are written to PATH as a Chrome trace). perfbench/run.py drives
// it; see perfbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "e2e.hpp"

#ifndef WRHT_E2E_BUILD_TYPE
#define WRHT_E2E_BUILD_TYPE "unknown"
#endif
#ifndef WRHT_E2E_COMPILER
#define WRHT_E2E_COMPILER "unknown"
#endif

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: wrht_e2e --workload NAME --seed N --ref-dir DIR "
               "--sweep-threads T --rwa-threads R [--trace-out PATH] "
               "[--emit-reference] | --provenance\n");
  return 2;
}

/// JSON string literal (the values here are names and short messages).
std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

unsigned parse_count(const char* s) {
  const long v = std::strtol(s, nullptr, 10);
  return v > 0 && v < 1024 ? static_cast<unsigned>(v) : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool release = std::strcmp(WRHT_E2E_BUILD_TYPE, "Release") == 0;
#ifndef NDEBUG
  constexpr bool kAssertsOff = false;
#else
  constexpr bool kAssertsOff = true;
#endif
  if (argc == 2 && std::strcmp(argv[1], "--provenance") == 0) {
    std::printf("{\"build_type\":%s,\"compiler\":%s}\n",
                quote(WRHT_E2E_BUILD_TYPE).c_str(),
                quote(WRHT_E2E_COMPILER).c_str());
    return 0;
  }
  if (!release || !kAssertsOff) {
    std::fprintf(stderr, "wrht_e2e: refusing to measure a %s build\n",
                 WRHT_E2E_BUILD_TYPE);
    return 3;
  }

  std::string workload;
  std::string trace_out;
  e2e::Options options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--emit-reference") {
      options.emit_reference = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (arg == "--ref-dir") {
      options.ref_dir = value;
    } else if (arg == "--sweep-threads") {
      options.sweep_threads = parse_count(value);
    } else if (arg == "--rwa-threads") {
      options.rwa_threads = parse_count(value);
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else {
      return usage();
    }
  }
  if (!have_seed || options.ref_dir.empty() || options.sweep_threads == 0 ||
      options.rwa_threads == 0) {
    return usage();
  }

  e2e::Result (*run)(const e2e::Options&, e2e::Tracer&) = nullptr;
  if (workload == "paper_sweep") run = e2e::run_paper_sweep;
  if (workload == "svc_saturated") run = e2e::run_svc_saturated;
  if (workload == "explain") run = e2e::run_explain;
  if (run == nullptr) {
    std::fprintf(stderr, "wrht_e2e: unknown workload '%s'\n",
                 workload.c_str());
    return usage();
  }

  e2e::Tracer tracer(!trace_out.empty());
  e2e::Result result;
  try {
    const e2e::Tracer::Span root(tracer, "bench", workload);
    result = run(options, tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wrht_e2e: %s\n", e.what());
    return 1;
  }

  std::string out = "{\"workload\":" + quote(workload) +
                    ",\"setup_s\":" + number(result.setup_s) +
                    ",\"wall_s\":" + number(result.wall_s) +
                    ",\"cpu_s\":" + number(result.cpu_s) +
                    ",\"peak_rss_mb\":" + number(e2e::peak_rss_mb()) +
                    ",\"attempted\":" + std::to_string(result.attempted) +
                    ",\"failed\":" + std::to_string(result.failed) +
                    ",\"failures\":[";
  for (std::size_t i = 0; i < result.failures.size(); ++i) {
    out += (i ? "," : "") + quote(result.failures[i]);
  }
  out += "]";
  if (tracer.enabled()) {
    const e2e::Tracer::SelfTimes self = tracer.self_times();
    tracer.write_chrome_trace(trace_out);
    out += ",\"layers\":{";
    bool first = true;
    for (const auto& [name, value] : result.layers) {
      out += (first ? "" : ",") + quote(name) + ":" + number(value);
      first = false;
    }
    out += "},\"self_s\":{";
    first = true;
    for (const auto& [module, seconds] : self.self_s) {
      out += (first ? "" : ",") + quote(module) + ":" + number(seconds);
      first = false;
    }
    out += "},\"unattributed_s\":" + number(self.unattributed_s) +
           ",\"traced_wall_s\":" + number(self.wall_s) +
           ",\"identity_error_s\":" + number(self.identity_error_s);
  }
  out += "}";
  std::printf("%s\n", out.c_str());
  return 0;
}
