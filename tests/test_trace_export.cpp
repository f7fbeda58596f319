#include "wrht/common/json.hpp"
#include "wrht/obs/trace_json.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "wrht/common/error.hpp"
#include "wrht/obs/counters.hpp"
#include "wrht/obs/trace.hpp"
#include "wrht/optical/ring_network.hpp"

namespace wrht::obs {
namespace {

// ---------------------------------------------------------------- Counters

TEST(Counters, AddCreatesAtZeroAndAccumulates) {
  Counters c;
  EXPECT_EQ(c.value("x"), 0u);
  EXPECT_FALSE(c.contains("x"));
  c.add("x");
  c.add("x", 4);
  EXPECT_EQ(c.value("x"), 5u);
  EXPECT_TRUE(c.contains("x"));
  EXPECT_EQ(c.size(), 1u);
}

TEST(Counters, ObserveMaxIsHighWatermark) {
  Counters c;
  c.observe_max("peak", 3);
  c.observe_max("peak", 7);
  c.observe_max("peak", 5);
  EXPECT_EQ(c.value("peak"), 7u);
}

TEST(Counters, MergeAddsEveryCounter) {
  Counters a, b;
  a.add("shared", 2);
  a.add("only_a", 1);
  b.add("shared", 3);
  b.add("only_b", 9);
  a.merge(b);
  EXPECT_EQ(a.value("shared"), 5u);
  EXPECT_EQ(a.value("only_a"), 1u);
  EXPECT_EQ(a.value("only_b"), 9u);
}

TEST(Counters, SnapshotIsNameOrdered) {
  Counters c;
  c.add("zebra");
  c.add("apple");
  c.add("mango");
  std::string prev;
  for (const auto& [name, value] : c.snapshot()) {
    EXPECT_LT(prev, name);
    prev = name;
  }
  c.clear();
  EXPECT_EQ(c.size(), 0u);
}

TEST(Counters, WriteCsv) {
  Counters c;
  c.add("b.second", 2);
  c.add("a.first", 1);
  const std::string path = testing::TempDir() + "counters_test.csv";
  c.write_csv(path);
  std::ifstream in(path);
  std::stringstream got;
  got << in.rdbuf();
  EXPECT_EQ(got.str(), "counter,value\na.first,1\nb.second,2\n");
  std::remove(path.c_str());
}

// ------------------------------------------------------------------- Probe

TEST(Probe, EmptyProbeIsInactiveAndSafe) {
  const Probe probe;
  EXPECT_FALSE(probe.active());
  // All emission paths must be no-ops, not crashes.
  probe.count("nope");
  probe.count_max("nope", 3);
  probe.span(TraceSpan{});
}

TEST(Probe, RoutesToSinkAndStampsTrack) {
  MemoryTraceSink sink;
  Counters counters;
  const Probe probe{&sink, &counters, 7};
  EXPECT_TRUE(probe.active());

  TraceSpan s;
  s.name = "work";
  s.track = 99;  // probe overrides with its own track
  probe.span(s);
  probe.count("n", 2);

  ASSERT_EQ(sink.spans().size(), 1u);
  EXPECT_EQ(sink.spans()[0].name, "work");
  EXPECT_EQ(sink.spans()[0].track, 7u);
  EXPECT_EQ(counters.value("n"), 2u);
}

TEST(Probe, CountersOnlyProbeEmitsNoSpans) {
  Counters counters;
  const Probe probe{nullptr, &counters, 0};
  EXPECT_TRUE(probe.active());
  probe.span(TraceSpan{});  // dropped
  probe.count("k");
  EXPECT_EQ(counters.value("k"), 1u);
}

// ------------------------------------------------------- JSON string escape

TEST(ChromeTrace, EscapesJsonMetacharacters) {
  EXPECT_EQ(json::escape("plain"), "plain");
  EXPECT_EQ(json::escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json::escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json::escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(json::escape(std::string("a\x01") + "b"), "a\\u0001b");
}

// ------------------------------------------------- golden Chrome trace JSON

/// Hand-fed spans with clean times: the emitted JSON must match this golden
/// byte for byte (fixed key order, %.6f microsecond timestamps, metadata
/// before spans). chrome://tracing and Perfetto both accept this shape.
TEST(ChromeTrace, GoldenOutputForHandFedSpans) {
  ChromeTraceSink sink("golden");
  sink.set_track_name(0, "optical ring");

  TraceSpan step;
  step.name = "exchange";
  step.category = "step";
  step.start = Seconds(0.0);
  step.duration = Seconds(5e-6);
  step.args = {{"rounds", "1"}};
  sink.span(step);

  TraceSpan round;
  round.name = "round 0";
  round.category = "round";
  round.start = Seconds(1e-6);
  round.duration = Seconds(4e-6);
  round.track = 0;
  sink.span(round);

  // Counter samples render as "C" events after the spans; whole values
  // print as integers, fractional ones via %g.
  sink.counter(CounterSample{"wavelengths in use", Seconds(1e-6), 2.0, 0});
  sink.counter(CounterSample{"load", Seconds(2e-6), 0.5, 0});

  std::ostringstream out;
  sink.write(out);

  const std::string expected =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"golden\"}},\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"optical ring\"}},\n"
      "{\"name\":\"exchange\",\"cat\":\"step\",\"ph\":\"X\",\"ts\":0.000000,"
      "\"dur\":5.000000,\"pid\":0,\"tid\":0,\"args\":{\"rounds\":\"1\"}},\n"
      "{\"name\":\"round 0\",\"cat\":\"round\",\"ph\":\"X\",\"ts\":1.000000,"
      "\"dur\":4.000000,\"pid\":0,\"tid\":0,\"args\":{}},\n"
      "{\"name\":\"wavelengths in use\",\"ph\":\"C\",\"ts\":1.000000,"
      "\"pid\":0,\"tid\":0,\"args\":{\"value\":2}},\n"
      "{\"name\":\"load\",\"ph\":\"C\",\"ts\":2.000000,"
      "\"pid\":0,\"tid\":0,\"args\":{\"value\":0.5}}\n"
      "]}\n";
  EXPECT_EQ(out.str(), expected);
  EXPECT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink.counter_count(), 2u);
}

/// End-to-end golden: a deterministic 2-node exchange through the optical
/// simulator with round numbers (1 GB/s lane, 1 us reconfiguration, zero
/// O/E/O) so every timestamp is exact. This is the same pipeline the
/// trace_viewer example runs.
TEST(ChromeTrace, GoldenOutputForOpticalRun) {
  coll::Schedule sched("pair", 2, 1000);
  coll::Step& step = sched.add_step("exchange");
  step.transfers.push_back({0, 1, 0, 1000, coll::TransferKind::kReduce, {}});
  step.transfers.push_back({1, 0, 0, 1000, coll::TransferKind::kReduce, {}});

  const optics::RingNetwork net(2, optics::OpticalConfig{}
                                       .with_wavelengths(4)
                                       .with_wavelength_rate(BitsPerSecond(1e9))
                                       .with_mrr_reconfig_delay(Seconds(1e-6))
                                       .with_oeo_delay(Seconds(0.0)));

  ChromeTraceSink sink("wrht");
  sink.set_track_name(0, "optical");
  const auto result = net.execute(sched, Probe{&sink, nullptr, 0});
  EXPECT_DOUBLE_EQ(result.total_time.count(), 5e-6);

  std::ostringstream out;
  sink.write(out);
  const std::string expected =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"wrht\"}},\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"optical\"}},\n"
      "{\"name\":\"exchange\",\"cat\":\"step\",\"ph\":\"X\",\"ts\":0.000000,"
      "\"dur\":5.000000,\"pid\":0,\"tid\":0,\"args\":{\"rounds\":\"1\","
      "\"wavelengths\":\"1\",\"max_transfer_elements\":\"1000\"}},\n"
      "{\"name\":\"round 0\",\"cat\":\"round\",\"ph\":\"X\",\"ts\":0.000000,"
      "\"dur\":5.000000,\"pid\":0,\"tid\":0,\"args\":{"
      "\"serialization_us\":\"4.000000\",\"wavelengths\":\"1\"}},\n"
      "{\"name\":\"wavelengths in use\",\"ph\":\"C\",\"ts\":0.000000,"
      "\"pid\":0,\"tid\":0,\"args\":{\"value\":1}},\n"
      "{\"name\":\"wavelengths in use\",\"ph\":\"C\",\"ts\":5.000000,"
      "\"pid\":0,\"tid\":0,\"args\":{\"value\":0}}\n"
      "]}\n";
  EXPECT_EQ(out.str(), expected);
}

TEST(ChromeTrace, WriteFileRoundTripsAndBadPathThrows) {
  ChromeTraceSink sink("file-test");
  TraceSpan s;
  s.name = "only";
  s.category = "c";
  sink.span(s);

  const std::string path = testing::TempDir() + "trace_test.trace.json";
  sink.write_file(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream got;
  got << in.rdbuf();
  std::ostringstream direct;
  sink.write(direct);
  EXPECT_EQ(got.str(), direct.str());
  std::remove(path.c_str());

  EXPECT_THROW(sink.write_file("/no/such/dir/x.json"), Error);
}

/// Step spans must contain their round child spans in time, on the same
/// track — that containment is what chrome://tracing renders as nesting.
TEST(ChromeTrace, RoundSpansNestInsideStepSpans) {
  // 8 transfers from distinct sources into node 0: a 4-wavelength fiber
  // must split the step into rounds.
  coll::Schedule sched("fan-in", 16, 1600);
  coll::Step& step = sched.add_step("fan-in");
  for (std::uint32_t src = 1; src <= 8; ++src) {
    step.transfers.push_back(
        {src, 0, 0, 100, coll::TransferKind::kReduce, {}});
  }

  const optics::RingNetwork net(
      16, optics::OpticalConfig{}.with_wavelengths(4).with_validate_node_capacity(
              false));
  MemoryTraceSink sink;
  const auto result = net.execute(sched, Probe{&sink, nullptr, 0});
  ASSERT_GT(result.total_rounds, 1u);

  const TraceSpan* parent = nullptr;
  std::size_t rounds_seen = 0;
  for (const TraceSpan& s : sink.spans()) {
    if (s.category == "step") {
      parent = &s;
      continue;
    }
    ASSERT_NE(parent, nullptr);
    ASSERT_EQ(s.category, "round");
    ++rounds_seen;
    const double eps = 1e-15;
    EXPECT_GE(s.start.count(), parent->start.count() - eps);
    EXPECT_LE(s.start.count() + s.duration.count(),
              parent->start.count() + parent->duration.count() + eps);
    EXPECT_EQ(s.track, parent->track);
  }
  EXPECT_EQ(rounds_seen, result.total_rounds);
}

}  // namespace
}  // namespace wrht::obs
