#include "wrht/obs/event_log.hpp"

#include <array>
#include <fstream>
#include <ostream>
#include <sstream>

#include "wrht/common/error.hpp"
#include "wrht/common/json.hpp"

namespace wrht::obs {

using json::escape;
using json::num17;

namespace {

/// Indexed by ServiceEvent::Kind.
constexpr std::array<const char*, 7> kKindNames = {
    "submit", "admit", "preempt", "grant", "start", "complete", "retune"};

}  // namespace

std::string to_string(ServiceEvent::Kind kind) {
  const auto index = static_cast<std::size_t>(kind);
  if (index >= kKindNames.size()) {
    throw InvalidArgument("unknown ServiceEvent::Kind");
  }
  return kKindNames[index];
}

ServiceEvent::Kind event_kind_from_string(const std::string& name) {
  for (std::size_t i = 0; i < kKindNames.size(); ++i) {
    if (name == kKindNames[i]) return static_cast<ServiceEvent::Kind>(i);
  }
  throw InvalidArgument("unknown service event kind '" + json::escape(name) +
                        "'");
}

void EventLog::write_jsonl(std::ostream& out) const {
  out << "{\"schema\": \"" << kSchema
      << "\", \"fabric_wavelengths\": " << context_.fabric_wavelengths
      << ", \"policy\": \"" << escape(context_.policy)
      << "\", \"seed\": " << context_.seed
      << ", \"events\": " << events_.size() << "}\n";
  for (const ServiceEvent& e : events_) {
    out << "{\"kind\": \"" << to_string(e.kind)
        << "\", \"t\": " << num17(e.time.count()) << ", \"job\": " << e.job
        << ", \"tenant\": " << e.tenant << ", \"w_lo\": " << e.w_lo
        << ", \"w_hi\": " << e.w_hi << ", \"cause\": \"" << escape(e.cause)
        << "\"}\n";
  }
}

void EventLog::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw Error("EventLog: cannot open " + path);
  write_jsonl(out);
}

std::string EventLog::to_jsonl() const {
  std::ostringstream out;
  write_jsonl(out);
  return out.str();
}

EventLog EventLog::read_jsonl(std::istream& in) {
  EventLog log;
  std::string line;
  require(static_cast<bool>(std::getline(in, line)),
          "EventLog: line 1: empty stream (missing header line)");
  std::uint64_t declared = 0;
  try {
    const json::FieldReader header(line);
    require(header.str("schema") == kSchema,
            "expected schema '" + std::string(kSchema) + "', got: " + line);
    log.context_.fabric_wavelengths = header.u32("fabric_wavelengths");
    log.context_.policy = header.str("policy");
    log.context_.seed = header.u64("seed");
    declared = header.u64("events");
  } catch (const Error& e) {
    throw Error("EventLog: line 1: " + std::string(e.what()));
  }
  std::size_t line_number = 1;
  Seconds previous{0.0};
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    ServiceEvent e;
    try {
      const json::FieldReader p(line);
      e.kind = event_kind_from_string(p.str("kind"));
      e.time = Seconds{p.f64("t")};
      e.job = p.u64("job");
      e.tenant = p.u32("tenant");
      e.w_lo = p.u32("w_lo");
      e.w_hi = p.u32("w_hi");
      e.cause = p.str("cause");
    } catch (const Error& err) {
      throw Error("EventLog: line " + std::to_string(line_number) + ": " +
                  std::string(err.what()));
    }
    // The recorder appends in simulation order; a time reversal means the
    // file was edited, interleaved, or corrupted — replaying it would
    // silently misorder grants.
    if (!log.events_.empty() && e.time < previous) {
      throw Error("EventLog: line " + std::to_string(line_number) +
                  ": out-of-order timestamp " + num17(e.time.count()) +
                  " (previous event at " + num17(previous.count()) + ")");
    }
    previous = e.time;
    log.events_.push_back(std::move(e));
  }
  if (log.events_.size() != declared) {
    throw Error("EventLog: line " + std::to_string(line_number) +
                ": header declares " + std::to_string(declared) +
                " events but the file holds " +
                std::to_string(log.events_.size()) +
                (log.events_.size() < declared ? " (truncated?)"
                                               : " (extra lines?)"));
  }
  return log;
}

EventLog EventLog::read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("EventLog: cannot open " + path);
  return read_jsonl(in);
}

}  // namespace wrht::obs
