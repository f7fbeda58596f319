#include "wrht/obs/run_report.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>

#include "wrht/common/csv.hpp"
#include "wrht/common/error.hpp"
#include "wrht/common/json.hpp"
#include "wrht/prof/prof.hpp"

namespace wrht {

namespace {

using json::escape;

std::string format_seconds(Seconds s) { return json::num9(s.count()); }

void write_breakdown_json(std::ostream& out, const TimeBreakdown& b) {
  out << "{\"transmission_s\":" << format_seconds(b.transmission)
      << ",\"reconfiguration_s\":" << format_seconds(b.reconfiguration)
      << ",\"conversion_s\":" << format_seconds(b.conversion)
      << ",\"processing_s\":" << format_seconds(b.processing)
      << ",\"straggler_wait_s\":" << format_seconds(b.straggler_wait)
      << ",\"idle_s\":" << format_seconds(b.idle) << "}";
}

}  // namespace

TimeBreakdown& TimeBreakdown::operator+=(const TimeBreakdown& o) {
  transmission += o.transmission;
  reconfiguration += o.reconfiguration;
  conversion += o.conversion;
  processing += o.processing;
  straggler_wait += o.straggler_wait;
  idle += o.idle;
  return *this;
}

Seconds RunReport::max_step_duration() const {
  Seconds out{0.0};
  for (const auto& s : step_reports) out = std::max(out, s.duration);
  return out;
}

std::uint32_t RunReport::max_wavelengths_used() const {
  std::uint32_t out = 0;
  for (const auto& s : step_reports) {
    out = std::max(out, s.wavelengths_used);
  }
  return out;
}

void RunReport::add_counters(const obs::Counters& from) {
  for (const auto& [name, value] : from.snapshot()) counters[name] += value;
}

void RunReport::write_step_csv(const std::string& path) const {
  CsvWriter csv(path, {"step", "label", "start_s", "duration_s", "rounds",
                       "wavelengths_used"});
  for (std::size_t i = 0; i < step_reports.size(); ++i) {
    const StepReport& s = step_reports[i];
    csv.add_row({std::to_string(i), s.label, format_seconds(s.start),
                 format_seconds(s.duration), std::to_string(s.rounds),
                 std::to_string(s.wavelengths_used)});
  }
}

void RunReport::write_json(std::ostream& out) const {
  out << "{\n";
  out << "  \"backend\": \"" << escape(backend) << "\",\n";
  out << "  \"total_time_s\": " << format_seconds(total_time) << ",\n";
  out << "  \"steps\": " << steps << ",\n";
  out << "  \"rounds\": " << rounds << ",\n";
  out << "  \"events_fired\": " << events_fired << ",\n";
  out << "  \"utilization\": " << json::num9(utilization) << ",\n";
  out << "  \"resources_observed\": " << resources_observed << ",\n";
  out << "  \"breakdown\": ";
  write_breakdown_json(out, breakdown);
  out << ",\n  \"step_reports\": [";
  for (std::size_t i = 0; i < step_reports.size(); ++i) {
    const StepReport& s = step_reports[i];
    out << (i == 0 ? "" : ",") << "\n    {\"step\":" << i << ",\"label\":\""
        << escape(s.label) << "\",\"start_s\":" << format_seconds(s.start)
        << ",\"duration_s\":" << format_seconds(s.duration)
        << ",\"rounds\":" << s.rounds
        << ",\"wavelengths_used\":" << s.wavelengths_used
        << ",\"breakdown\":";
    write_breakdown_json(out, s.breakdown);
    out << "}";
  }
  out << (step_reports.empty() ? "" : "\n  ") << "],\n";
  out << "  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out << (first ? "" : ",") << "\n    \"" << escape(name) << "\": " << value;
    first = false;
  }
  out << (counters.empty() ? "" : "\n  ") << "}\n";
  out << "}\n";
}

void RunReport::write_json_file(const std::string& path) const {
  const prof::ScopedTimer timer("io.run_report.write");
  std::ofstream out(path);
  if (!out) throw Error("RunReport: cannot open '" + path + "'");
  write_json(out);
}

}  // namespace wrht
