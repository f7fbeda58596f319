// Focused coverage for the observability layer: JSON escaping corner
// cases, counter ordering guarantees, and RunReport round-trip invariants
// for all three simulator backends.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "wrht/collectives/ring_allreduce.hpp"
#include "wrht/electrical/fat_tree_network.hpp"
#include "wrht/electrical/packet_sim.hpp"
#include "wrht/obs/counters.hpp"
#include "wrht/obs/run_report.hpp"
#include "wrht/common/json.hpp"
#include "wrht/obs/trace_json.hpp"
#include "wrht/optical/ring_network.hpp"

namespace wrht {
namespace {

// ------------------------------------------------ JSON string escaping

TEST(ObsCoverage, EscapeHandlesQuotesAndBackslashes) {
  EXPECT_EQ(json::escape("plain"), "plain");
  EXPECT_EQ(json::escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(json::escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json::escape("\\\""), "\\\\\\\"");
}

TEST(ObsCoverage, EscapeHandlesWhitespaceControls) {
  EXPECT_EQ(json::escape("line1\nline2"), "line1\\nline2");
  EXPECT_EQ(json::escape("col1\tcol2"), "col1\\tcol2");
  EXPECT_EQ(json::escape("cr\rlf\n"), "cr\\rlf\\n");
}

TEST(ObsCoverage, EscapeEncodesOtherControlBytes) {
  EXPECT_EQ(json::escape(std::string("\x01", 1)), "\\u0001");
  EXPECT_EQ(json::escape(std::string("\x1f", 1)), "\\u001f");
  // 0x20 and above pass through untouched (including UTF-8 multibyte).
  EXPECT_EQ(json::escape(" ~"), " ~");
  EXPECT_EQ(json::escape("\xc3\xa9"), "\xc3\xa9");
}

TEST(ObsCoverage, EscapedSpanSurvivesSerialization) {
  obs::ChromeTraceSink sink("proc \"quoted\"\n");
  obs::TraceSpan span;
  span.name = "step\t0";
  span.category = "a\\b";
  span.args.push_back({"key\n", "value\""});
  sink.span(span);

  std::ostringstream out;
  sink.write(out);
  const std::string json = out.str();
  // No raw control bytes or unescaped quotes may survive inside strings.
  EXPECT_EQ(json.find("step\t0"), std::string::npos);
  EXPECT_NE(json.find("step\\t0"), std::string::npos);
  EXPECT_NE(json.find("proc \\\"quoted\\\"\\n"), std::string::npos);
  EXPECT_NE(json.find("\"key\\n\":\"value\\\"\""), std::string::npos);
}

// -------------------------------------------------- counter guarantees

TEST(ObsCoverage, SnapshotIsNameOrderedRegardlessOfInsertion) {
  obs::Counters counters;
  counters.add("zeta", 1);
  counters.add("alpha", 2);
  counters.add("mid.dle", 3);
  counters.add("alpha.sub", 4);

  std::vector<std::string> names;
  for (const auto& [name, value] : counters.snapshot()) names.push_back(name);
  const std::vector<std::string> want{"alpha", "alpha.sub", "mid.dle", "zeta"};
  EXPECT_EQ(names, want);
}

TEST(ObsCoverage, ObserveMaxIsAHighWatermark) {
  obs::Counters counters;
  counters.observe_max("peak", 5);
  counters.observe_max("peak", 3);
  EXPECT_EQ(counters.value("peak"), 5u);
  counters.observe_max("peak", 9);
  EXPECT_EQ(counters.value("peak"), 9u);
}

TEST(ObsCoverage, MergePreservesOrderingAndSums) {
  obs::Counters a;
  a.add("shared", 2);
  a.add("only_a", 1);
  obs::Counters b;
  b.add("shared", 3);
  b.add("aaa_first", 7);
  a.merge(b);

  EXPECT_EQ(a.value("shared"), 5u);
  EXPECT_EQ(a.value("aaa_first"), 7u);
  EXPECT_EQ(a.snapshot().begin()->first, "aaa_first");
  EXPECT_EQ(a.size(), 3u);
}

// ---------------------------- RunReport round trips, all three backends

TEST(ObsCoverage, OpticalReportStepDurationsSumToTotal) {
  const optics::RingNetwork net(8, optics::OpticalConfig{}.with_wavelengths(4));
  const RunReport report = net.execute(coll::ring_allreduce(8, 64)).to_report();
  ASSERT_EQ(report.backend, "optical-ring");
  Seconds sum(0.0);
  for (const StepReport& s : report.step_reports) sum += s.duration;
  EXPECT_NEAR(sum.count(), report.total_time.count(),
              1e-12 * report.total_time.count());
  EXPECT_GE(report.rounds, report.steps);
}

TEST(ObsCoverage, FlowReportStartsAreContiguous) {
  const elec::FatTreeNetwork net(8, elec::ElectricalConfig{});
  const RunReport report = net.execute(coll::ring_allreduce(8, 64)).to_report();
  ASSERT_EQ(report.backend, "electrical-flow");
  Seconds cursor(0.0);
  for (const StepReport& s : report.step_reports) {
    EXPECT_EQ(s.start.count(), cursor.count());
    EXPECT_EQ(s.rounds, 1u);           // electrical steps never split
    EXPECT_EQ(s.wavelengths_used, 0u); // not an optical concept
    cursor += s.duration;
  }
  EXPECT_EQ(cursor.count(), report.total_time.count());
}

TEST(ObsCoverage, PacketReportKeepsEventCount) {
  const elec::PacketLevelNetwork net(8, elec::ElectricalConfig{});
  const elec::PacketRunResult result = net.execute(coll::ring_allreduce(8, 64));
  const RunReport report = result.to_report();
  ASSERT_EQ(report.backend, "electrical-packet");
  EXPECT_EQ(report.events_fired, result.events_fired);
  EXPECT_GT(report.events_fired, 0u);
  EXPECT_EQ(report.steps, result.steps);
  EXPECT_EQ(report.step_reports.size(), result.step_times.size());
}

TEST(ObsCoverage, ReportsFromAllBackendsShareTheSchedule) {
  const coll::Schedule sched = coll::ring_allreduce(8, 64);
  const optics::RingNetwork optical(8, optics::OpticalConfig{});
  const elec::FatTreeNetwork flow(8, elec::ElectricalConfig{});
  const elec::PacketLevelNetwork packet(8, elec::ElectricalConfig{});

  const RunReport a = optical.execute(sched).to_report();
  const RunReport b = flow.execute(sched).to_report();
  const RunReport c = packet.execute(sched).to_report();
  EXPECT_EQ(a.steps, sched.num_steps());
  EXPECT_EQ(b.steps, sched.num_steps());
  EXPECT_EQ(c.steps, sched.num_steps());
  // The optical backend carries the schedule's own labels; the electrical
  // backends synthesize positional ones.
  for (std::size_t i = 0; i < sched.num_steps(); ++i) {
    EXPECT_EQ(a.step_reports[i].label, sched.steps()[i].label);
    EXPECT_EQ(b.step_reports[i].label, "step " + std::to_string(i));
    EXPECT_EQ(c.step_reports[i].label, "step " + std::to_string(i));
  }
}

}  // namespace
}  // namespace wrht
