#include "wrht/diag/blame_json.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>

#include "wrht/common/error.hpp"
#include "wrht/common/json.hpp"

namespace wrht::diag {

namespace {

using json::escape;
using json::num17;

void write_categories(const BlameTotals& totals, const char* indent,
                      std::ostream& out) {
  bool first = true;
  for (const BlameCategory category : all_blame_categories()) {
    if (!first) out << ",\n";
    first = false;
    out << indent << "\"" << to_string(category)
        << "\": " << num17(totals[category]);
  }
  out << "\n";
}

void add_movers(const std::map<std::string, double>& base,
                const std::map<std::string, double>& other,
                double abs_threshold, std::vector<BlameMover>* out) {
  std::map<std::string, BlameMover> merged;
  for (const auto& [name, v] : base) {
    merged[name].name = name;
    merged[name].base = v;
  }
  for (const auto& [name, v] : other) {
    merged[name].name = name;
    merged[name].other = v;
  }
  for (const auto& [name, mover] : merged) {
    if (std::abs(mover.delta()) > abs_threshold) out->push_back(mover);
  }
  std::sort(out->begin(), out->end(),
            [](const BlameMover& a, const BlameMover& b) {
              if (std::abs(a.delta()) != std::abs(b.delta())) {
                return std::abs(a.delta()) > std::abs(b.delta());
              }
              return a.name < b.name;
            });
}

}  // namespace

void write_blame_json(
    const BlameReport& report,
    const std::vector<std::pair<std::string, double>>& what_if,
    std::ostream& out) {
  out << "{\n";
  out << "  \"schema\": \"" << kBlameSchema << "\",\n";
  out << "  \"kind\": \"run\",\n";
  out << "  \"backend\": \"" << escape(report.backend) << "\",\n";
  out << "  \"reconfig_policy\": \"" << escape(report.reconfig_policy)
      << "\",\n";
  out << "  \"mrr_reconfig_delay\": "
      << num17(report.mrr_reconfig_delay.count()) << ",\n";
  out << "  \"oeo_delay\": " << num17(report.oeo_delay.count()) << ",\n";
  out << "  \"steps\": " << report.steps << ",\n";
  out << "  \"rounds\": " << report.rounds << ",\n";
  out << "  \"transfers\": " << report.transfers << ",\n";
  out << "  \"total_time\": " << num17(report.total_time.count()) << ",\n";
  out << "  \"attributed_time\": " << num17(report.attributed()) << ",\n";
  out << "  \"categories\": {\n";
  write_categories(report.categories, "    ", out);
  out << "  },\n";
  out << "  \"what_if\": {\n";
  for (std::size_t i = 0; i < what_if.size(); ++i) {
    out << "    \"" << escape(what_if[i].first)
        << "\": " << num17(what_if[i].second)
        << (i + 1 < what_if.size() ? ",\n" : "\n");
  }
  out << "  },\n";
  out << "  \"lanes\": [\n";
  for (std::size_t i = 0; i < report.lanes.size(); ++i) {
    const LaneBlame& lane = report.lanes[i];
    out << "    {\"lane\": \"" << escape(lane.lane)
        << "\", \"busy\": " << num17(lane.busy.count());
    for (const BlameCategory category : all_blame_categories()) {
      out << ", \"" << to_string(category)
          << "\": " << num17(lane.totals[category]);
    }
    out << "}" << (i + 1 < report.lanes.size() ? ",\n" : "\n");
  }
  out << "  ],\n";
  out << "  \"critical_path\": [\n";
  for (std::size_t i = 0; i < report.critical_path.size(); ++i) {
    const CriticalRound& r = report.critical_path[i];
    out << "    {\"step\": " << r.step
        << ", \"lane\": \"" << escape(r.lane)
        << "\", \"round\": " << r.round
        << ", \"start\": " << num17(r.start.count())
        << ", \"duration\": " << num17(r.duration.count())
        << ", \"reconfiguration\": " << num17(r.reconfig.count())
        << ", \"conversion\": " << num17(r.conversion.count())
        << ", \"transmission\": " << num17(r.serialization.count())
        << ", \"processing\": " << num17(r.processing.count())
        << ", \"retune\": " << (r.retune ? "true" : "false") << "}"
        << (i + 1 < report.critical_path.size() ? ",\n" : "\n");
  }
  out << "  ]\n";
  out << "}\n";
}

void write_blame_file(
    const BlameReport& report,
    const std::vector<std::pair<std::string, double>>& what_if,
    const std::string& path) {
  std::ofstream out(path);
  if (!out) throw Error("write_blame_file: cannot open '" + path + "'");
  write_blame_json(report, what_if, out);
}

ParsedBlame read_blame_json(std::istream& in) {
  ParsedBlame parsed;
  std::string line;
  std::size_t line_number = 0;
  bool saw_schema = false;
  std::string section;  // "", "categories", "what_if", "lanes", ...
  while (std::getline(in, line)) {
    ++line_number;
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    try {
      const json::FieldReader fields(line);
      if (!section.empty()) {
        // A section closes on its bare `}` / `]` terminator line.
        if (line[first] == '}' || line[first] == ']') {
          section.clear();
        } else if (section == "categories" || section == "what_if") {
          auto& named =
              section == "categories" ? parsed.categories : parsed.what_if;
          for (const json::Field& f : fields.fields()) {
            named[f.key] = fields.f64(f.key);
          }
        } else if (section == "lanes") {
          parsed.lanes[fields.str("lane")] = fields.f64("busy");
        } else if (section == "tenants") {
          parsed.tenants["tenant" + std::to_string(fields.u32("tenant"))] =
              fields.f64("jct");
        }
        // critical_path entries are not part of the diff surface; skipped.
        continue;
      }
      for (const json::Field& f : fields.fields()) {
        if (f.kind == json::Field::Kind::kOpen) {
          require(fields.fields().size() == 1,
                  "section \"" + f.key + "\" must open on its own line");
          section = f.key;
        } else if (f.key == "schema") {
          require(fields.str(f.key) == kBlameSchema,
                  "unsupported schema '" + json::escape(f.value) + "'");
          saw_schema = true;
        } else if (f.key == "kind") {
          parsed.kind = fields.str(f.key);
        } else if (f.key == "backend" ||
                   (f.key == "policy" && parsed.kind == "service")) {
          parsed.source = fields.str(f.key);
        } else if (f.key == "total_time") {
          parsed.total_time = fields.f64(f.key);
        } else if (f.key == "attributed_time") {
          parsed.attributed_time = fields.f64(f.key);
        }
      }
    } catch (const Error& e) {
      throw Error("wrht-blame-1: line " + std::to_string(line_number) + ": " +
                  e.what());
    }
  }
  if (!section.empty()) {
    throw Error("wrht-blame-1: line " + std::to_string(line_number) +
                ": section \"" + section + "\" is never closed (truncated?)");
  }
  if (!saw_schema) {
    throw Error("wrht-blame-1: line " +
                std::to_string(std::max<std::size_t>(line_number, 1)) +
                ": input ends without a \"schema\": \"" +
                std::string(kBlameSchema) + "\" marker");
  }
  return parsed;
}

ParsedBlame read_blame_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("read_blame_file: cannot open '" + path + "'");
  return read_blame_json(in);
}

BlameDiff diff_blame(const ParsedBlame& base, const ParsedBlame& other,
                     double rel_threshold) {
  BlameDiff diff;
  diff.base_total = base.total_time;
  diff.other_total = other.total_time;
  const double scale = std::max(std::abs(base.total_time),
                                std::abs(other.total_time));
  const double abs_threshold = rel_threshold * scale;
  add_movers(base.categories, other.categories, abs_threshold,
             &diff.categories);
  add_movers(base.lanes, other.lanes, abs_threshold, &diff.lanes);
  add_movers(base.tenants, other.tenants, abs_threshold, &diff.tenants);
  diff.regressed =
      other.total_time > base.total_time + rel_threshold * scale;
  return diff;
}

std::string BlameDiff::to_string() const {
  std::string out;
  char line[192];
  std::snprintf(line, sizeof(line),
                "blame diff: %s (total %.6e -> %.6e, %+.2f%%)\n",
                clean() ? "clean" : (regressed ? "REGRESSED" : "shifted"),
                base_total, other_total,
                base_total != 0.0
                    ? 100.0 * (other_total - base_total) / base_total
                    : 0.0);
  out += line;
  const auto table = [&](const char* title,
                         const std::vector<BlameMover>& movers) {
    if (movers.empty()) return;
    out += std::string("  ") + title + ":\n";
    for (const BlameMover& m : movers) {
      std::snprintf(line, sizeof(line),
                    "    %-20s %.6e -> %.6e (%+.6e s)\n", m.name.c_str(),
                    m.base, m.other, m.delta());
      out += line;
    }
  };
  table("categories", categories);
  table("lanes", lanes);
  table("tenants", tenants);
  return out;
}

}  // namespace wrht::diag
