#include "wrht/prof/baseline.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "wrht/common/error.hpp"
#include "wrht/common/json.hpp"

namespace wrht::prof {

namespace {

constexpr const char* kHeader = "metric,value,max_rel_drift,direction";

using json::num9;

}  // namespace

Direction infer_direction(const std::string& metric_name,
                          const std::string& unit) {
  if (unit == "/s") return Direction::kHigherIsBetter;
  if (metric_name.find("efficiency") != std::string::npos ||
      metric_name.find("per_s") != std::string::npos) {
    return Direction::kHigherIsBetter;
  }
  return Direction::kLowerIsBetter;
}

Baseline Baseline::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("Baseline: cannot open '" + path + "'");
  Baseline out;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    if (line == kHeader) continue;
    std::vector<std::string> fields;
    std::stringstream row(line);
    std::string field;
    while (std::getline(row, field, ',')) fields.push_back(field);
    try {
      require(fields.size() == 4,
              "expected 4 fields, got " + std::to_string(fields.size()));
      BaselineEntry entry;
      entry.metric = fields[0];
      entry.value = json::parse_f64(fields[1]);
      entry.max_rel_drift = json::parse_f64(fields[2]);
      require(entry.max_rel_drift >= 0.0, "max_rel_drift must be >= 0");
      require(fields[3] == "lower" || fields[3] == "higher",
              "direction must be 'lower' or 'higher', got '" + fields[3] +
                  "'");
      entry.direction = fields[3] == "lower" ? Direction::kLowerIsBetter
                                             : Direction::kHigherIsBetter;
      out.entries.push_back(std::move(entry));
    } catch (const InvalidArgument& e) {
      throw Error("Baseline: '" + path + "' line " + std::to_string(line_no) +
                  ": " + e.what());
    }
  }
  return out;
}

Baseline Baseline::from_report(const PerfReport& report,
                               double max_rel_drift) {
  Baseline out;
  for (const PerfMetric& m : report.metrics) {
    BaselineEntry entry;
    entry.metric = m.name;
    entry.value = m.value;
    entry.direction = infer_direction(m.name, m.unit);
    // Same allowed slowdown factor F = 1 + drift both ways: a lower-is-
    // better metric may grow to value * F, a higher-is-better one may fall
    // to value / F (relative drift of drift / (1 + drift) < 1).
    entry.max_rel_drift = entry.direction == Direction::kLowerIsBetter
                              ? max_rel_drift
                              : max_rel_drift / (1.0 + max_rel_drift);
    out.entries.push_back(std::move(entry));
  }
  return out;
}

void Baseline::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw Error("Baseline: cannot open '" + path + "' for writing");
  out << "# wrht perf baseline — refresh with `wrht_perf --write-baseline` "
         "(see EXPERIMENTS.md)\n";
  out << kHeader << "\n";
  for (const BaselineEntry& entry : entries) {
    out << entry.metric << "," << num9(entry.value) << ","
        << num9(entry.max_rel_drift) << ","
        << (entry.direction == Direction::kLowerIsBetter ? "lower" : "higher")
        << "\n";
  }
}

bool CompareReport::ok() const {
  for (const DriftResult& r : results) {
    if (r.regressed) return false;
  }
  return true;
}

void CompareReport::print(std::ostream& out) const {
  char buf[256];
  for (const DriftResult& r : results) {
    if (r.missing) {
      std::snprintf(buf, sizeof(buf),
                    "  REGRESSED %-28s missing from report (baseline %s)\n",
                    r.metric.c_str(), num9(r.baseline).c_str());
      out << buf;
      continue;
    }
    std::snprintf(
        buf, sizeof(buf), "  %-9s %-28s %12s vs %12s  drift %+7.2f%% (max %s%.0f%%)\n",
        r.regressed ? "REGRESSED" : "ok", r.metric.c_str(),
        num9(r.value).c_str(), num9(r.baseline).c_str(),
        r.rel_drift * 100.0,
        r.direction == Direction::kLowerIsBetter ? "+" : "-",
        r.threshold * 100.0);
    out << buf;
  }
}

CompareReport compare(const PerfReport& report, const Baseline& baseline) {
  CompareReport out;
  for (const BaselineEntry& entry : baseline.entries) {
    DriftResult result;
    result.metric = entry.metric;
    result.baseline = entry.value;
    result.threshold = entry.max_rel_drift;
    result.direction = entry.direction;
    const PerfMetric* metric = report.find_metric(entry.metric);
    if (metric == nullptr) {
      result.missing = true;
      result.regressed = true;
      out.results.push_back(std::move(result));
      continue;
    }
    result.value = metric->value;
    if (entry.value != 0.0) {
      result.rel_drift = (metric->value - entry.value) / entry.value;
    } else {
      // A zero baseline cannot express relative drift; any nonzero value
      // in the regressing direction counts as infinite drift.
      result.rel_drift = metric->value == 0.0
                             ? 0.0
                             : std::copysign(HUGE_VAL, metric->value);
    }
    result.regressed = entry.direction == Direction::kLowerIsBetter
                           ? result.rel_drift > entry.max_rel_drift
                           : -result.rel_drift > entry.max_rel_drift;
    out.results.push_back(std::move(result));
  }
  return out;
}

}  // namespace wrht::prof
