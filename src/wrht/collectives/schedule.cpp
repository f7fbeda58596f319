#include "wrht/collectives/schedule.hpp"

#include <algorithm>
#include <atomic>
#include <iterator>

#include "wrht/common/error.hpp"

namespace wrht::coll {

namespace {

thread_local ScheduleStorage g_storage = ScheduleStorage::kArena;

/// Structure ids of generated schedules: one per rule, never reused, so
/// equal ids mean the same base pattern.
std::atomic<std::uint64_t> g_next_structure{1};

std::optional<topo::Direction> unpack_direction(std::uint8_t direction) {
  if (direction == 0) return std::nullopt;
  return direction == 1 ? topo::Direction::kClockwise
                        : topo::Direction::kCounterClockwise;
}

}  // namespace

ScheduleStorage default_schedule_storage() { return g_storage; }

ScheduleStorageScope::ScheduleStorageScope(ScheduleStorage storage)
    : saved_(g_storage) {
  g_storage = storage;
}

ScheduleStorageScope::~ScheduleStorageScope() { g_storage = saved_; }

Schedule::Schedule(std::string algorithm, std::uint32_t num_nodes,
                   std::size_t elements)
    : algorithm_(std::move(algorithm)),
      num_nodes_(num_nodes),
      elements_(elements) {
  require(num_nodes >= 1, "Schedule: need at least one node");
  require(elements >= 1, "Schedule: need at least one element");
  if (g_storage == ScheduleStorage::kArena) {
    arena_ = std::make_shared<common::Arena>();
  }
}

Schedule::Schedule(std::string algorithm, std::uint32_t num_nodes,
                   std::size_t elements, RotatedSteps rule)
    : Schedule(std::move(algorithm), num_nodes, elements) {
  require(rule.chunks.size() == rule.base.size(),
          "Schedule: a rotated rule needs one chunk per base transfer");
  auto generated = std::make_shared<Generated>();
  for (const RotatedSteps::Phase& phase : rule.phases) {
    generated->num_steps += phase.steps;
  }
  for (const ChunkRange& chunk : rule.chunks) {
    generated->max_count = std::max(generated->max_count, chunk.count);
    generated->traffic += chunk.count;
  }
  generated->structure = g_next_structure.fetch_add(1);
  generated->rule = std::move(rule);
  generated_ = std::move(generated);
  materialized_ = std::make_unique<std::once_flag>();
}

Schedule::Schedule(const Schedule& other)
    : Schedule(other.algorithm_, other.num_nodes_, other.elements_) {
  if (other.generated_) {
    generated_ = other.generated_;
    materialized_ = std::make_unique<std::once_flag>();
    return;
  }
  steps_.reserve(other.steps_.size());
  for (const Step& src : other.steps_) {
    Step& dst = add_step(src.label);
    dst.transfers.assign(src.transfers.begin(), src.transfers.end());
  }
}

Schedule& Schedule::operator=(const Schedule& other) {
  if (this != &other) *this = Schedule(other);
  return *this;
}

const std::vector<Step>& Schedule::steps() const {
  if (generated_) std::call_once(*materialized_, [this] { materialize(); });
  return steps_;
}

std::size_t Schedule::num_steps() const {
  return generated_ ? generated_->num_steps : steps_.size();
}

StepView Schedule::step_view(std::size_t step) const {
  StepView view;
  if (!generated_) {
    view.step_ = &steps_[step];
    return view;
  }
  view.schedule_ = this;
  const std::vector<RotatedSteps::Phase>& phases = generated_->rule.phases;
  while (step >= phases[view.phase_].steps) step -= phases[view.phase_++].steps;
  view.index_ = static_cast<std::uint32_t>(step);
  return view;
}

void Schedule::materialize() const {
  // The same allocation sequence as a builder that reserves every list, so
  // the arena holds exactly what such a build would.
  steps_.reserve(generated_->num_steps);
  std::vector<Transfer> scratch;
  for (std::size_t s = 0; s < generated_->num_steps; ++s) {
    const StepView view = step_view(s);
    const std::span<const Transfer> transfers = view.transfers(scratch);
    steps_.push_back(Step{TransferList(transfer_allocator()), view.label()});
    steps_.back().transfers.reserve(transfers.size());
    steps_.back().transfers.assign(transfers.begin(), transfers.end());
  }
}

Step& Schedule::add_step(std::string label) {
  if (generated_) {
    (void)steps();
    generated_.reset();
    materialized_.reset();
  }
  steps_.push_back(Step{TransferList(transfer_allocator()),
                        std::move(label)});
  return steps_.back();
}

std::size_t Schedule::num_transfers() const {
  std::size_t total = 0;
  for (std::size_t s = 0; s < num_steps(); ++s) {
    total += step_view(s).num_transfers();
  }
  return total;
}

std::uint64_t Schedule::total_traffic_elements() const {
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < num_steps(); ++s) total += step_view(s).traffic();
  return total;
}

std::size_t Schedule::max_transfer_elements(std::size_t step) const {
  require(step < num_steps(), "Schedule: step index out of range");
  return step_view(step).max_count();
}

void Schedule::validate() const {
  // Messages are composed only on failure: this loop visits every
  // transfer of every execution.
  const auto check = [this](const Transfer& t, std::size_t s) {
    if (t.src >= num_nodes_ || t.dst >= num_nodes_) {
      throw InvalidArgument("Schedule: node id out of range in step " +
                            std::to_string(s));
    }
    if (t.src == t.dst) {
      throw InvalidArgument("Schedule: self-transfer in step " +
                            std::to_string(s));
    }
    // offset + count could wrap; compare against what remains instead.
    if (t.count < 1 || t.count > elements_ ||
        t.offset > elements_ - t.count) {
      throw InvalidArgument("Schedule: element range out of bounds in step " +
                            std::to_string(s));
    }
  };
  if (generated_) {
    // Every step runs the whole base pattern over a permutation of the
    // chunk table, so step 0 fails first if any step does.
    if (generated_->num_steps == 0) return;
    std::vector<Transfer> scratch;
    for (const Transfer& t : step_view(0).transfers(scratch)) check(t, 0);
    return;
  }
  for (std::size_t s = 0; s < steps_.size(); ++s) {
    for (const auto& t : steps_[s].transfers) check(t, s);
  }
}

std::string StepView::label() const {
  if (step_ != nullptr) return step_->label;
  return schedule_->generated_->rule.phases[phase_].label + " " +
         std::to_string(index_);
}

std::size_t StepView::num_transfers() const {
  return step_ != nullptr ? step_->transfers.size()
                          : schedule_->generated_->rule.base.size();
}

std::size_t StepView::max_count() const {
  if (step_ == nullptr) return schedule_->generated_->max_count;
  std::size_t max_count = 0;
  for (const Transfer& t : step_->transfers) {
    max_count = std::max(max_count, t.count);
  }
  return max_count;
}

std::uint64_t StepView::traffic() const {
  if (step_ == nullptr) return schedule_->generated_->traffic;
  std::uint64_t total = 0;
  for (const Transfer& t : step_->transfers) total += t.count;
  return total;
}

std::uint64_t StepView::structure() const {
  return step_ != nullptr ? 0 : schedule_->generated_->structure;
}

std::span<const Transfer> StepView::transfers(
    std::vector<Transfer>& scratch) const {
  if (step_ != nullptr) return step_->transfers;
  const RotatedSteps& rule = schedule_->generated_->rule;
  const RotatedSteps::Phase& phase = rule.phases[phase_];
  const std::size_t n = rule.chunks.size();
  std::size_t chunk = (phase.rotation + n - index_ % n) % n;
  scratch.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Circuit& c = rule.base[i];
    const ChunkRange& r = rule.chunks[chunk];
    scratch[i] = Transfer{c.src, c.dst, r.offset, r.count, phase.kind,
                          unpack_direction(c.direction)};
    if (++chunk == n) chunk = 0;
  }
  return scratch;
}

Circuit circuit_of(const Transfer& transfer) {
  Circuit c;
  c.src = transfer.src;
  c.dst = transfer.dst;
  if (transfer.direction.has_value()) {
    c.direction =
        *transfer.direction == topo::Direction::kClockwise ? 1 : 2;
  }
  return c;
}

namespace {

/// Sorted, deduplicated circuit set of one step, reusing `scratch`'s
/// capacity across steps.
void step_circuits(const Step& step, std::vector<Circuit>& scratch) {
  scratch.clear();
  scratch.reserve(step.transfers.size());
  for (const Transfer& t : step.transfers) scratch.push_back(circuit_of(t));
  std::sort(scratch.begin(), scratch.end());
  scratch.erase(std::unique(scratch.begin(), scratch.end()), scratch.end());
}

}  // namespace

std::vector<ReconfigDelta> reconfig_deltas(const Schedule& schedule) {
  std::vector<ReconfigDelta> deltas;
  deltas.reserve(schedule.num_steps());
  std::vector<Circuit> previous;  // sorted, deduplicated
  std::vector<Circuit> current;
  for (const Step& step : schedule.steps()) {
    step_circuits(step, current);

    ReconfigDelta delta;
    std::set_difference(current.begin(), current.end(), previous.begin(),
                        previous.end(), std::back_inserter(delta.added));
    std::set_difference(previous.begin(), previous.end(), current.begin(),
                        current.end(), std::back_inserter(delta.removed));
    delta.kept = current.size() - delta.added.size();
    deltas.push_back(std::move(delta));
    std::swap(previous, current);
  }
  return deltas;
}

bool is_reconfig_free(const Schedule& schedule) {
  std::vector<Circuit> previous;
  std::vector<Circuit> current;
  bool first = true;
  for (const Step& step : schedule.steps()) {
    step_circuits(step, current);
    if (!first && current != previous) return false;
    first = false;
    std::swap(previous, current);
  }
  return true;
}

ChunkRange chunk_range(std::size_t elements, std::size_t chunks,
                       std::size_t index) {
  require(chunks >= 1 && index < chunks, "chunk_range: bad chunk index");
  const std::size_t base = elements / chunks;
  const std::size_t extra = elements % chunks;
  const std::size_t count = base + (index < extra ? 1 : 0);
  const std::size_t offset =
      index * base + std::min<std::size_t>(index, extra);
  return ChunkRange{offset, count};
}

}  // namespace wrht::coll
