#include "wrht/obs/counters.hpp"

#include <algorithm>

#include "wrht/common/csv.hpp"

namespace wrht::obs {

void Counters::add(const std::string& name, std::uint64_t delta) {
  const std::lock_guard<std::mutex> lock(mutex_);
  values_[name].value += delta;
}

void Counters::observe_max(const std::string& name, std::uint64_t value) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] =
      values_.try_emplace(name, Entry{value, Kind::kMax});
  if (!inserted) {
    it->second.value = std::max(it->second.value, value);
    it->second.kind = Kind::kMax;
  }
}

std::uint64_t Counters::value(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = values_.find(name);
  return it == values_.end() ? 0 : it->second.value;
}

bool Counters::contains(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return values_.count(name) != 0;
}

std::size_t Counters::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return values_.size();
}

std::map<std::string, std::uint64_t> Counters::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, entry] : values_) out.emplace(name, entry.value);
  return out;
}

void Counters::merge(const Counters& other) {
  if (&other == this) return;
  // Copy under the source lock, fold under ours: never hold both (a
  // cross-thread merge cycle would otherwise deadlock).
  std::map<std::string, Entry> theirs;
  {
    const std::lock_guard<std::mutex> lock(other.mutex_);
    theirs = other.values_;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, entry] : theirs) {
    auto [it, inserted] = values_.try_emplace(name, entry);
    if (inserted) continue;
    if (entry.kind == Kind::kMax || it->second.kind == Kind::kMax) {
      it->second.value = std::max(it->second.value, entry.value);
      it->second.kind = Kind::kMax;
    } else {
      it->second.value += entry.value;
    }
  }
}

void Counters::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  values_.clear();
}

void Counters::write_csv(const std::string& path) const {
  const auto snap = snapshot();
  CsvWriter csv(path, {"counter", "value"});
  for (const auto& [name, v] : snap) {
    csv.add_row({name, std::to_string(v)});
  }
}

}  // namespace wrht::obs
