// Shared pattern-cache keying for schedule-executing backends.
//
// Both the optical ring and the electrical fat tree memoize per-step
// evaluations: steps with the same routing (all 2(N-1) Ring All-reduce
// steps, the repeated H-Ring stages, ...) share one RWA / routing
// evaluation. A PatternKey is the exact key: the (src, dst[, direction])
// sequence in transfer order, or a generated step's structure id. Order
// matters: first-fit RWA assigns wavelengths in transfer order, and cached
// routes index the step's transfer list, so a reordered step is a
// different pattern. Counts are not part of it; an engine re-derives what
// depends on them. The hash only picks a bucket; a hit compares the whole
// key.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "wrht/collectives/schedule.hpp"

namespace wrht::net {

struct PatternKey {
  /// A generated step's coll::StepView::structure(), which stands for its
  /// whole sequence (circuits stay empty); 0 otherwise.
  std::uint64_t structure = 0;
  std::vector<coll::Circuit> circuits;
  bool operator==(const PatternKey&) const = default;
};

struct PatternKeyHash {
  [[nodiscard]] std::size_t operator()(const PatternKey& key) const;
};

/// Rewrites `key` (reusing its capacity) for `transfers`. With
/// `include_direction` the optional optical routing hint of each transfer
/// participates (two steps that differ only in pinned ring directions
/// route differently); electrical backends ignore hints and pass false so
/// hint-variants share one cache entry.
void make_pattern_key(std::span<const coll::Transfer> transfers,
                      bool include_direction, PatternKey& key);

/// The optical key of `view` (directions included): its structure id for
/// a generated step, its sequence otherwise.
void make_route_key(const coll::StepView& view, PatternKey& key);

/// A 64-bit digest of the (src, dst[, direction]) tuples plus the step's
/// largest count, for callers that only want to count distinct patterns.
/// It is lossy: no pattern cache keys on it.
[[nodiscard]] std::uint64_t step_signature(const coll::Step& step,
                                           bool include_direction);

}  // namespace wrht::net
