#include "wrht/optical/rwa.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <exception>
#include <numeric>
#include <thread>

#include "wrht/common/env.hpp"
#include "wrht/common/error.hpp"
#include "wrht/common/log.hpp"
#include "wrht/prof/prof.hpp"

namespace wrht::optics {

namespace {

/// Occupancy bookkeeping: one lazily-allocated per-segment bitset per
/// (direction, fiber, wavelength), packed 64 segments to a word, so a
/// conflict check tests a whole run of segments with a few masked word
/// operations no matter how many lightpaths are already placed.
class OccupancyMap {
 public:
  OccupancyMap(std::uint32_t n, const RwaOptions& opt)
      : n_(n),
        words_((n + 63) / 64),
        wavelengths_(opt.wavelengths),
        fibers_(opt.fibers_per_direction),
        bitsets_(2 * opt.fibers_per_direction * opt.wavelengths) {}

  [[nodiscard]] bool fits(topo::Direction dir, std::uint32_t fiber,
                          std::uint32_t lambda, const SegmentSpan& span) const {
    const std::vector<std::uint64_t>& bits =
        bitsets_[index(dir, fiber, lambda)];
    if (bits.empty()) return true;
    const std::uint32_t end = span.first + span.hops;
    if (end <= n_) return !any_set(bits, span.first, end);
    return !any_set(bits, span.first, n_) && !any_set(bits, 0, end - n_);
  }

  void place(topo::Direction dir, std::uint32_t fiber, std::uint32_t lambda,
             const SegmentSpan& span) {
    std::vector<std::uint64_t>& bits = bitsets_[index(dir, fiber, lambda)];
    if (bits.empty()) bits.assign(words_, 0);
    const std::uint32_t end = span.first + span.hops;
    if (end <= n_) {
      set_range(bits, span.first, end);
    } else {
      set_range(bits, span.first, n_);
      set_range(bits, 0, end - n_);
    }
  }

 private:
  // Segment ranges below are non-wrapping and non-empty: segment_span
  // checks its nodes, so a span starts below n_ and has 1 to n_ - 1 hops.
  // A range covers words [lo / 64, (hi - 1) / 64]; the first word is
  // masked from bit lo % 64 up, the last up to bit (hi - 1) % 64.

  [[nodiscard]] static std::uint64_t last_mask(std::uint32_t hi) {
    return ~std::uint64_t{0} >> (63 - (hi - 1) % 64);
  }

  /// True when any segment of [lo, hi) is set.
  [[nodiscard]] static bool any_set(const std::vector<std::uint64_t>& bits,
                                    std::uint32_t lo, std::uint32_t hi) {
    const std::size_t last = (hi - 1) / 64;
    std::uint64_t mask = ~std::uint64_t{0} << (lo % 64);
    for (std::size_t w = lo / 64; w < last; ++w) {
      if ((bits[w] & mask) != 0) return true;
      mask = ~std::uint64_t{0};
    }
    return (bits[last] & mask & last_mask(hi)) != 0;
  }

  /// Sets every segment of [lo, hi).
  static void set_range(std::vector<std::uint64_t>& bits, std::uint32_t lo,
                        std::uint32_t hi) {
    const std::size_t last = (hi - 1) / 64;
    std::uint64_t mask = ~std::uint64_t{0} << (lo % 64);
    for (std::size_t w = lo / 64; w < last; ++w) {
      bits[w] |= mask;
      mask = ~std::uint64_t{0};
    }
    bits[last] |= mask & last_mask(hi);
  }

  [[nodiscard]] std::size_t index(topo::Direction dir, std::uint32_t fiber,
                                  std::uint32_t lambda) const {
    const std::size_t d = dir == topo::Direction::kClockwise ? 0 : 1;
    return (d * fibers_ + fiber) * wavelengths_ + lambda;
  }

  std::uint32_t n_;
  std::size_t words_;
  std::uint32_t wavelengths_;
  std::uint32_t fibers_;
  std::vector<std::vector<std::uint64_t>> bitsets_;
};

/// Longest lightpaths first: first-fit packs nested WRHT group paths and
/// all-to-all exchanges tightly when the most constrained path goes first.
/// Each transfer's hop count is computed once, before the sort.
std::vector<std::size_t> order_by_hops(
    const topo::Ring& ring, std::span<const coll::Transfer> transfers) {
  std::vector<std::uint32_t> hops(transfers.size());
  for (std::size_t i = 0; i < transfers.size(); ++i) {
    hops[i] = ring.distance(transfers[i].src, transfers[i].dst);
  }
  std::vector<std::size_t> order(transfers.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return hops[a] > hops[b];
                   });
  return order;
}

topo::Direction pick_direction(const topo::Ring& ring,
                               const coll::Transfer& t) {
  return t.direction ? *t.direction : ring.shortest_direction(t.src, t.dst);
}

bool place_if_fits(OccupancyMap& occupancy, topo::Direction dir,
                   std::uint32_t fiber, std::uint32_t lambda,
                   const SegmentSpan& span, const coll::Transfer& t,
                   Lightpath& out) {
  if (!occupancy.fits(dir, fiber, lambda, span)) return false;
  occupancy.place(dir, fiber, lambda, span);
  out = Lightpath{t.src, t.dst, dir, fiber, lambda, span.first, span.hops};
  return true;
}

/// Tries to place one transfer; returns true and fills `out` on success.
/// First-fit scans wavelengths in index order with no scratch allocation;
/// random-fit shuffles a wavelength permutation through `rng` exactly as
/// the paper's Random-Fit does (one Fisher-Yates pass per transfer).
bool try_assign(const topo::Ring& ring, const coll::Transfer& t,
                const RwaOptions& opt, OccupancyMap& occupancy, Rng* rng,
                Lightpath& out) {
  const topo::Direction dir = pick_direction(ring, t);
  const SegmentSpan span = segment_span(ring, t.src, t.dst, dir);

  if (opt.policy == RwaPolicy::kFirstFit) {
    for (std::uint32_t fiber = 0; fiber < opt.fibers_per_direction; ++fiber) {
      for (std::uint32_t lambda = opt.wavelength_lo; lambda < opt.wavelengths;
           ++lambda) {
        if (place_if_fits(occupancy, dir, fiber, lambda, span, t, out)) {
          return true;
        }
      }
    }
    return false;
  }

  require(rng != nullptr, "RWA: random-fit needs an Rng");
  // The permutation covers the leased slice only, and the Fisher-Yates
  // draw sequence depends on the slice WIDTH alone — a leased random-fit
  // run consumes the Rng exactly like a full run on a narrower fiber, so
  // the slice-equivalence invariant holds for random-fit too.
  const std::uint32_t slice = opt.wavelengths - opt.wavelength_lo;
  std::vector<std::uint32_t> lambda_order(slice);
  std::iota(lambda_order.begin(), lambda_order.end(), opt.wavelength_lo);
  for (std::uint32_t i = slice; i > 1; --i) {
    const auto j = static_cast<std::uint32_t>(rng->uniform_int(0, i - 1));
    std::swap(lambda_order[i - 1], lambda_order[j]);
  }
  for (std::uint32_t fiber = 0; fiber < opt.fibers_per_direction; ++fiber) {
    for (const std::uint32_t lambda : lambda_order) {
      if (place_if_fits(occupancy, dir, fiber, lambda, span, t, out)) {
        return true;
      }
    }
  }
  return false;
}

/// Every RWA call (one per step) checks its leased slice; the message is
/// composed only on failure.
void require_nonempty_slice(const RwaOptions& options) {
  if (options.wavelength_lo >= options.wavelengths) {
    throw InvalidArgument("RWA: leased slice [" +
                          std::to_string(options.wavelength_lo) + ", " +
                          std::to_string(options.wavelengths) + ") is empty");
  }
}

}  // namespace

RwaResult assign_wavelengths(const topo::Ring& ring,
                             std::span<const coll::Transfer> transfers,
                             const RwaOptions& options, Rng* rng) {
  const prof::ScopedTimer timer("optical.rwa.assign");
  require(options.wavelengths >= 1 && options.fibers_per_direction >= 1,
          "RWA: need at least one wavelength and fiber");
  require_nonempty_slice(options);
  RwaResult result;
  result.paths.resize(transfers.size());
  OccupancyMap occupancy(ring.size(), options);

  for (const std::size_t idx : order_by_hops(ring, transfers)) {
    Lightpath path;
    if (!try_assign(ring, transfers[idx], options, occupancy, rng, path)) {
      return RwaResult{};  // ok = false
    }
    result.paths[idx] = path;
    result.wavelengths_used =
        std::max(result.wavelengths_used, path.wavelength + 1);
  }
  result.ok = true;
  return result;
}

RoundsResult assign_rounds(const topo::Ring& ring,
                           std::span<const coll::Transfer> transfers,
                           const RwaOptions& options, Rng* rng) {
  require_nonempty_slice(options);
  RoundsResult result;
  std::vector<std::size_t> remaining = order_by_hops(ring, transfers);

  while (!remaining.empty()) {
    OccupancyMap occupancy(ring.size(), options);
    std::vector<std::size_t> round;
    std::vector<Lightpath> paths;
    std::vector<std::size_t> deferred;

    for (const std::size_t idx : remaining) {
      Lightpath path;
      if (try_assign(ring, transfers[idx], options, occupancy, rng, path)) {
        round.push_back(idx);
        paths.push_back(path);
        result.wavelengths_used =
            std::max(result.wavelengths_used, path.wavelength + 1);
      } else {
        deferred.push_back(idx);
      }
    }

    if (round.empty()) {
      throw InfeasibleSchedule(
          "RWA: a transfer cannot be routed even in an empty round "
          "(wavelength budget " +
          std::to_string(options.wavelengths - options.wavelength_lo) + ")");
    }
    result.rounds.push_back(std::move(round));
    result.paths.push_back(std::move(paths));
    remaining = std::move(deferred);
  }
  return result;
}

unsigned resolve_rwa_threads(unsigned threads) {
  if (threads > 0) return threads;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return thread_count_from_env("WRHT_RWA_THREADS", hw);
}

std::vector<RoundsResult> assign_rounds_batch(const std::vector<RwaStep>& steps,
                                              const RwaOptions& options,
                                              unsigned threads) {
  const prof::ScopedTimer timer("optical.rwa.batch");
  require(options.policy == RwaPolicy::kFirstFit,
          "RWA: assign_rounds_batch is first-fit only — random-fit draws "
          "from a sequential Rng and cannot be partitioned");
  for (const RwaStep& step : steps) {
    require(step.ring != nullptr, "RWA: batch step needs a ring");
  }

  std::vector<RoundsResult> results(steps.size());
  std::vector<std::exception_ptr> errors(steps.size());
  const auto solve = [&](std::size_t s) {
    try {
      results[s] =
          assign_rounds(*steps[s].ring, steps[s].transfers, options, nullptr);
    } catch (...) {
      errors[s] = std::current_exception();
    }
  };

  std::size_t transfers = 0;
  for (const RwaStep& step : steps) transfers += step.transfers.size();
  const unsigned workers =
      transfers < kRwaInlineTransfers
          ? 1
          : static_cast<unsigned>(std::min<std::size_t>(
                resolve_rwa_threads(threads),
                std::max<std::size_t>(steps.size(), 1)));
  if (workers <= 1) {
    for (std::size_t s = 0; s < steps.size(); ++s) solve(s);
  } else {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
      pool.emplace_back([&] {
        for (std::size_t s = next.fetch_add(1, std::memory_order_relaxed);
             s < steps.size();
             s = next.fetch_add(1, std::memory_order_relaxed)) {
          solve(s);
        }
      });
    }
    for (std::thread& t : pool) t.join();
  }

  // Rethrow the lowest-indexed failure: the same exception a sequential
  // in-order loop would have surfaced first.
  for (std::size_t s = 0; s < steps.size(); ++s) {
    if (errors[s]) std::rethrow_exception(errors[s]);
  }
  return results;
}

std::vector<RoundsResult> assign_rounds_batch(
    const topo::Ring& ring,
    const std::vector<std::span<const coll::Transfer>>& steps,
    const RwaOptions& options, unsigned threads) {
  std::vector<RwaStep> problems;
  problems.reserve(steps.size());
  for (const auto& transfers : steps) {
    problems.push_back(RwaStep{&ring, transfers});
  }
  return assign_rounds_batch(problems, options, threads);
}

}  // namespace wrht::optics
