#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "e2e.hpp"

namespace e2e {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

Tracer::Span::Span(Tracer& tracer, const char* module, std::string name)
    : tracer_(tracer), start_(std::chrono::steady_clock::now()) {
  if (!tracer_.enabled_) return;
  Record record;
  record.module = module;
  record.name = std::move(name);
  record.start_ns = tracer_.now_ns();
  record.parent = tracer_.open_.empty()
                      ? -1
                      : static_cast<std::int64_t>(tracer_.open_.back());
  index_ = tracer_.records_.size();
  tracer_.records_.push_back(std::move(record));
  tracer_.open_.push_back(index_);
}

Tracer::Span::~Span() {
  if (!tracer_.enabled_) return;
  tracer_.records_[index_].end_ns = tracer_.now_ns();
  tracer_.open_.pop_back();
}

double Tracer::Span::elapsed_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

Tracer::SelfTimes Tracer::self_times() const {
  SelfTimes out;
  if (records_.empty()) return out;
  // Self time = duration minus the union of the children's intervals
  // clipped to the parent. Summed over a well-nested tree this telescopes
  // to the root's duration; overlapping or escaping children break it.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      records_.size());
  for (const Record& r : records_) {
    if (r.parent >= 0) {
      children[static_cast<std::size_t>(r.parent)].emplace_back(r.start_ns,
                                                                r.end_ns);
    }
  }
  double total_self = 0.0;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = r.start_ns;
    for (const auto& [lo, hi] : kids) {
      const std::int64_t a = std::max(lo, cursor);
      const std::int64_t b = std::min(hi, r.end_ns);
      if (b > a) covered += b - a;
      cursor = std::max(cursor, b);
    }
    const double self = static_cast<double>(r.end_ns - r.start_ns - covered) *
                        1e-9;
    total_self += self;
    if (r.parent < 0) {
      out.unattributed_s += self;
      out.wall_s += static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
    } else {
      out.self_s[r.module] += self;
    }
  }
  out.identity_error_s = std::fabs(total_self - out.wall_s);
  return out;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << r.name
        << "\",\"cat\":\"" << r.module << "\",\"ph\":\"X\",\"pid\":1,"
        << "\"tid\":1,\"ts\":" << static_cast<double>(r.start_ns) * 1e-3
        << ",\"dur\":" << static_cast<double>(r.end_ns - r.start_ns) * 1e-3
        << "}";
  }
  out << "\n]}\n";
}

void Result::fail(std::string what, std::uint64_t operations) {
  failed += operations;
  if (failures.size() < 8) failures.push_back(std::move(what));
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

}  // namespace e2e
