// Seeded mutation fuzzing of the on-disk readers: valid svc-events-1 JSONL,
// run-kind and service-kind wrht-blame-1 documents are damaged by byte
// flips, truncations, deleted or duplicated lines and digit-to-letter
// swaps. Every mutant must either parse or be rejected with a wrht::Error
// whose message names a line; any other exception (or a crash, which the
// sanitizer job turns into a failure) is a reader bug.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "wrht/common/error.hpp"
#include "wrht/common/json.hpp"
#include "wrht/common/rng.hpp"
#include "wrht/diag/blame_json.hpp"
#include "wrht/diag/svc_blame.hpp"
#include "wrht/obs/event_log.hpp"

namespace wrht {
namespace {

constexpr int kMutantsPerFormat = 4000;

std::string event_log_document() {
  using Kind = obs::ServiceEvent::Kind;
  obs::EventLog log;
  log.set_context(obs::EventLog::Context{16, "back\"fill", 2023});
  log.record({Kind::kSubmit, Seconds(0.0), 1, 0, 0, 0, "arrival"});
  log.record({Kind::kAdmit, Seconds(0.0), 1, 0, 0, 0, "policy=backfill"});
  log.record({Kind::kGrant, Seconds(0.1000000000000001), 1, 0, 4, 12,
              "alg=wrht"});
  log.record({Kind::kStart, Seconds(0.125), 1, 0, 4, 12, "tab\there"});
  log.record({Kind::kSubmit, Seconds(0.25), 2, 3, 0, 0, "arrival"});
  log.record({Kind::kComplete, Seconds(1.0 / 3.0), 1, 0, 4, 12, "release"});
  log.record({Kind::kRetune, Seconds(0.5), 2, 3, 4, 12, "quote\" \\"});
  return log.to_jsonl();
}

diag::BlameTotals totals(double scale) {
  diag::BlameTotals t;
  for (const diag::BlameCategory c : diag::all_blame_categories()) {
    t[c] = scale * static_cast<double>(1 + static_cast<int>(c));
  }
  return t;
}

std::string run_blame_document() {
  diag::BlameReport report;
  report.backend = "optical-ring";
  report.reconfig_policy = "every_round";
  report.mrr_reconfig_delay = Seconds(25e-6);
  report.oeo_delay = Seconds(497e-15);
  report.categories = totals(1e-5);
  report.total_time = Seconds(report.categories.total());
  report.steps = 2;
  report.rounds = 3;
  report.transfers = 64;
  for (const char* lane : {"cw", "ccw \"b\""}) {
    report.lanes.push_back(diag::LaneBlame{lane, totals(3e-6), Seconds(4e-5)});
  }
  for (std::uint32_t step = 0; step < 2; ++step) {
    diag::CriticalRound round;
    round.step = step;
    round.lane = "cw";
    round.start = Seconds(1e-5 * step);
    round.duration = Seconds(1e-5);
    round.reconfig = Seconds(2.5e-6);
    report.critical_path.push_back(round);
  }
  std::ostringstream out;
  diag::write_blame_json(report, {{"policy_on_retune", 1.25e-3}}, out);
  return out.str();
}

std::string service_blame_document() {
  diag::ServiceBlame blame;
  blame.policy = "fifo";
  blame.fabric_wavelengths = 8;
  blame.jobs = 12;
  blame.categories = totals(2e-3);
  blame.total_jct = Seconds(blame.categories.total());
  for (std::uint32_t tenant = 0; tenant < 3; ++tenant) {
    blame.tenants.push_back(
        diag::TenantBlame{tenant, 4, Seconds(0.01 * (tenant + 1)),
                          totals(1e-4)});
  }
  std::ostringstream out;
  diag::write_service_blame_json(blame, out);
  return out.str();
}

std::vector<std::size_t> line_starts(const std::string& doc) {
  std::vector<std::size_t> starts{0};
  for (std::size_t i = 0; i + 1 < doc.size(); ++i) {
    if (doc[i] == '\n') starts.push_back(i + 1);
  }
  return starts;
}

/// One random damage of `doc`; an empty document stays empty.
void mutate(std::string& doc, Rng& rng) {
  if (doc.empty()) return;
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(0, n - 1));
  };
  switch (rng.uniform_int(0, 4)) {
    case 0:  // byte flip
      doc[pick(doc.size())] = static_cast<char>(rng.uniform_int(0, 255));
      break;
    case 1:  // truncation
      doc.resize(pick(doc.size()));
      break;
    case 2:
    case 3: {  // delete or duplicate a line
      const std::vector<std::size_t> starts = line_starts(doc);
      const std::size_t k = pick(starts.size());
      const std::size_t end =
          k + 1 < starts.size() ? starts[k + 1] : doc.size();
      const std::string line = doc.substr(starts[k], end - starts[k]);
      if (rng.uniform_int(0, 1) == 0) {
        doc.erase(starts[k], line.size());
      } else {
        doc.insert(end, line);
      }
      break;
    }
    default: {  // digit -> letter
      std::vector<std::size_t> digits;
      for (std::size_t i = 0; i < doc.size(); ++i) {
        if (doc[i] >= '0' && doc[i] <= '9') digits.push_back(i);
      }
      if (digits.empty()) return;
      doc[digits[pick(digits.size())]] =
          static_cast<char>('a' + rng.uniform_int(0, 25));
    }
  }
}

/// Mutates `valid` kMutantsPerFormat times; each mutant must parse or be
/// rejected with a line-numbered wrht::Error. Both outcomes must occur, so
/// the mutator is known to reach past the schema checks.
void fuzz_reader(const std::string& valid, std::uint64_t seed,
                 const std::function<void(std::istream&)>& read) {
  {
    std::istringstream in(valid);
    ASSERT_NO_THROW(read(in)) << "the unmutated document must parse";
  }
  Rng rng(seed);
  int parsed = 0;
  int rejected = 0;
  for (int i = 0; i < kMutantsPerFormat; ++i) {
    std::string doc = valid;
    const auto damages = rng.uniform_int(1, 3);
    for (std::uint64_t d = 0; d < damages; ++d) mutate(doc, rng);
    std::istringstream in(doc);
    try {
      read(in);
      ++parsed;
    } catch (const Error& e) {
      ++rejected;
      ASSERT_NE(std::string(e.what()).find("line "), std::string::npos)
          << "mutant " << i << " rejected without a line number: "
          << e.what() << "\nmutant: \"" << json::escape(doc) << "\"";
    } catch (const std::exception& e) {
      FAIL() << "mutant " << i << " threw a non-wrht exception: " << e.what()
             << "\nmutant: \"" << json::escape(doc) << "\"";
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

TEST(ReaderFuzz, EventLogMutantsParseOrNameTheirLine) {
  fuzz_reader(event_log_document(), 1,
              [](std::istream& in) { (void)obs::EventLog::read_jsonl(in); });
}

TEST(ReaderFuzz, RunBlameMutantsParseOrNameTheirLine) {
  fuzz_reader(run_blame_document(), 2,
              [](std::istream& in) { (void)diag::read_blame_json(in); });
}

TEST(ReaderFuzz, ServiceBlameMutantsParseOrNameTheirLine) {
  fuzz_reader(service_blame_document(), 3,
              [](std::istream& in) { (void)diag::read_blame_json(in); });
}

}  // namespace
}  // namespace wrht
