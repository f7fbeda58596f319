// Tier-1 replay of the checked-in fuzz regression corpus.
//
// Every line of tests/corpus/fuzz_regressions.txt is a FuzzCase that once
// failed (and was shrunk) or pins a boundary the fuzzer's new draw
// dimensions (reconfig policy, planner candidates) must keep covering.
// Replaying them here means a reintroduced bug fails fast in tier-1
// instead of waiting for the seeded fuzz sweep to re-draw it.
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "wrht/common/error.hpp"
#include "wrht/verify/fuzz.hpp"

namespace wrht {
namespace {

std::vector<verify::FuzzCase> load_corpus() {
  const std::string path =
      std::string(WRHT_REPO_ROOT) + "/tests/corpus/fuzz_regressions.txt";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::vector<verify::FuzzCase> cases;
  std::string line;
  while (std::getline(in, line)) {
    const auto first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    cases.push_back(verify::FuzzCase::parse(line));
  }
  return cases;
}

TEST(FuzzCorpus, EveryRegressionCasePasses) {
  const std::vector<verify::FuzzCase> cases = load_corpus();
  ASSERT_FALSE(cases.empty());
  for (const verify::FuzzCase& c : cases) {
    const verify::CheckResult result = verify::check_case(c);
    EXPECT_TRUE(result.ok()) << c.to_string() << "\n" << result.summary();
  }
}

TEST(FuzzCorpus, CorpusCoversNewDrawDimensions) {
  const std::vector<verify::FuzzCase> cases = load_corpus();
  bool planner = false;
  bool on_retune = false;
  bool overlapped = false;
  for (const verify::FuzzCase& c : cases) {
    planner |= c.algorithm.rfind("plan:", 0) == 0;
    on_retune |= c.reconfig_policy == net::ReconfigPolicy::kOnRetune;
    overlapped |= c.reconfig_policy == net::ReconfigPolicy::kOverlapped;
  }
  EXPECT_TRUE(planner) << "corpus lost its planner-candidate entries";
  EXPECT_TRUE(on_retune && overlapped)
      << "corpus lost its non-default reconfig-policy entries";

  bool leased = false;
  bool leased_offset = false;
  for (const verify::FuzzCase& c : cases) {
    leased |= c.leased();
    leased_offset |= c.leased() && c.w_lo > 0;
  }
  EXPECT_TRUE(leased) << "corpus lost its leased-slice entries";
  EXPECT_TRUE(leased_offset)
      << "corpus lost its offset (w_lo > 0) leased-slice entries";
}

TEST(FuzzCorpus, SerializeParseRoundTrips) {
  for (const verify::FuzzCase& c : load_corpus()) {
    const verify::FuzzCase again = verify::FuzzCase::parse(c.serialize());
    EXPECT_EQ(again.algorithm, c.algorithm);
    EXPECT_EQ(again.num_nodes, c.num_nodes);
    EXPECT_EQ(again.elements, c.elements);
    EXPECT_EQ(again.group_size, c.group_size);
    EXPECT_EQ(again.wavelengths, c.wavelengths);
    EXPECT_EQ(again.reconfig_policy, c.reconfig_policy);
    EXPECT_EQ(again.w_lo, c.w_lo);
    EXPECT_EQ(again.w_hi, c.w_hi);
  }
}

TEST(FuzzCorpus, ParseRejectsMalformedLines) {
  EXPECT_THROW(verify::FuzzCase::parse("wrht 5 1 2"), InvalidArgument);
  EXPECT_THROW(verify::FuzzCase::parse("wrht 5 1 2 1 warp_speed"),
               InvalidArgument);
  EXPECT_THROW(verify::FuzzCase::parse("wrht 5 1 2 1 every_round extra"),
               InvalidArgument);
  EXPECT_THROW(verify::FuzzCase::parse("wrht 0 1 2 1 every_round"),
               InvalidArgument);
  // Lease tokens come in pairs, name a non-empty slice, and end the line.
  EXPECT_THROW(verify::FuzzCase::parse("wrht 5 1 2 1 every_round 3"),
               InvalidArgument);
  EXPECT_THROW(verify::FuzzCase::parse("wrht 5 1 2 1 every_round 5 3"),
               InvalidArgument);
  EXPECT_THROW(verify::FuzzCase::parse("wrht 5 1 2 1 every_round 0 0"),
               InvalidArgument);
  EXPECT_THROW(verify::FuzzCase::parse("wrht 5 1 2 1 every_round 3 5 9"),
               InvalidArgument);
}

/// Integer tokens are read strictly: a stream-extracted "-5" used to wrap
/// to 4294967291 nodes. parse() alone is called; the case is never run.
TEST(FuzzCorpus, ParseRejectsNegativeOverflowingAndJunkIntegers) {
  for (const char* line :
       {"wrht -5 100 3 4 every_round", "wrht 5 -100 3 4 every_round",
        "wrht 5 100 3 4 every_round -1 4",
        "wrht 4294967296 100 3 4 every_round",
        "wrht 5 18446744073709551616 3 4 every_round",
        "wrht 5 100 3x 4 every_round", "wrht 5 100 3 4.0 every_round",
        "wrht +5 100 3 4 every_round"}) {
    try {
      (void)verify::FuzzCase::parse(line);
      FAIL() << "accepted '" << line << "'";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(line), std::string::npos)
          << e.what();
    }
  }
}

/// A leased draw and a sentinel (no-lease) case must both round-trip.
TEST(FuzzCorpus, LeasedCaseSerializeRoundTrips) {
  verify::FuzzCase c;
  c.algorithm = "ring";
  c.num_nodes = 8;
  c.elements = 8;
  c.wavelengths = 2;
  c.w_lo = 3;
  c.w_hi = 5;
  EXPECT_EQ(c.serialize(), "ring 8 8 2 2 every_round 3 5");
  const verify::FuzzCase again = verify::FuzzCase::parse(c.serialize());
  EXPECT_EQ(again.w_lo, 3u);
  EXPECT_EQ(again.w_hi, 5u);
  EXPECT_TRUE(again.leased());

  c.w_lo = 0;
  c.w_hi = 0;
  EXPECT_EQ(c.serialize(), "ring 8 8 2 2 every_round");
  EXPECT_FALSE(verify::FuzzCase::parse(c.serialize()).leased());
}

/// The extended sampler must actually emit the new dimensions.
TEST(FuzzCorpus, SamplerDrawsPlannerCandidatesAndPolicies) {
  verify::FuzzOptions options;
  options.iterations = 60;
  options.max_nodes = 12;
  options.max_elements = 16;
  const verify::FuzzReport report = verify::run_fuzz(options);
  EXPECT_TRUE(report.ok()) << (report.minimal_failure
                                   ? report.minimal_failure->config.to_string()
                                   : "");
  bool planner = false;
  for (const auto& [algorithm, count] : report.cases_per_algorithm) {
    planner |= algorithm.rfind("plan:", 0) == 0 && count > 0;
  }
  EXPECT_TRUE(planner) << "60 draws never sampled a planner candidate";
}

}  // namespace
}  // namespace wrht
