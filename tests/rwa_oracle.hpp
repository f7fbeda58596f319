// Reference RWA for tests: first-fit and random-fit over one byte per ring
// segment, each span walked hop by hop modulo N, as optics::assign_rounds
// did before occupancy was packed into 64-bit words. Tests compare the
// library's assignments with it field by field.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

#include "wrht/collectives/schedule.hpp"
#include "wrht/common/rng.hpp"
#include "wrht/optical/lightpath.hpp"
#include "wrht/optical/rwa.hpp"
#include "wrht/topo/ring.hpp"

namespace wrht::test {

class RwaOracle {
 public:
  RwaOracle(const topo::Ring& ring, std::span<const coll::Transfer> transfers,
            const optics::RwaOptions& options, Rng* rng)
      : ring_(ring), transfers_(transfers), opt_(options), rng_(rng) {}

  /// The transfers placed in one round, or ok = false.
  optics::RwaResult assign_wavelengths() {
    optics::RwaResult result;
    result.paths.resize(transfers_.size());
    reset();
    for (const std::size_t idx : order_by_hops()) {
      optics::Lightpath path;
      if (!try_assign(transfers_[idx], path)) return optics::RwaResult{};
      result.paths[idx] = path;
      result.wavelengths_used =
          std::max(result.wavelengths_used, path.wavelength + 1);
    }
    result.ok = true;
    return result;
  }

  /// Greedy sequential rounds; throws std::runtime_error when a transfer
  /// fits no empty round.
  optics::RoundsResult assign_rounds() {
    optics::RoundsResult result;
    std::vector<std::size_t> remaining = order_by_hops();
    while (!remaining.empty()) {
      reset();
      std::vector<std::size_t> round;
      std::vector<optics::Lightpath> paths;
      std::vector<std::size_t> deferred;
      for (const std::size_t idx : remaining) {
        optics::Lightpath path;
        if (try_assign(transfers_[idx], path)) {
          round.push_back(idx);
          paths.push_back(path);
          result.wavelengths_used =
              std::max(result.wavelengths_used, path.wavelength + 1);
        } else {
          deferred.push_back(idx);
        }
      }
      if (round.empty()) throw std::runtime_error("oracle: infeasible");
      result.rounds.push_back(std::move(round));
      result.paths.push_back(std::move(paths));
      remaining = std::move(deferred);
    }
    return result;
  }

 private:
  void reset() {
    bitmaps_.assign(2 * opt_.fibers_per_direction * opt_.wavelengths,
                    std::vector<std::uint8_t>(ring_.size(), 0));
  }

  std::vector<std::uint8_t>& bitmap(topo::Direction dir, std::uint32_t fiber,
                                    std::uint32_t lambda) {
    const std::size_t d = dir == topo::Direction::kClockwise ? 0 : 1;
    return bitmaps_[(d * opt_.fibers_per_direction + fiber) *
                        opt_.wavelengths +
                    lambda];
  }

  std::vector<std::size_t> order_by_hops() const {
    std::vector<std::size_t> order(transfers_.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return ring_.distance(transfers_[a].src,
                                             transfers_[a].dst) >
                              ring_.distance(transfers_[b].src,
                                             transfers_[b].dst);
                     });
    return order;
  }

  bool place_if_fits(topo::Direction dir, std::uint32_t fiber,
                     std::uint32_t lambda, const optics::SegmentSpan& span,
                     const coll::Transfer& t, optics::Lightpath& out) {
    std::vector<std::uint8_t>& bits = bitmap(dir, fiber, lambda);
    const std::uint32_t n = ring_.size();
    for (std::uint32_t h = 0; h < span.hops; ++h) {
      if (bits[(span.first + h) % n]) return false;
    }
    for (std::uint32_t h = 0; h < span.hops; ++h) {
      bits[(span.first + h) % n] = 1;
    }
    out = optics::Lightpath{t.src,  t.dst,      dir,      fiber,
                            lambda, span.first, span.hops};
    return true;
  }

  bool try_assign(const coll::Transfer& t, optics::Lightpath& out) {
    const topo::Direction dir =
        t.direction ? *t.direction : ring_.shortest_direction(t.src, t.dst);
    const optics::SegmentSpan span = optics::segment_span(ring_, t.src, t.dst,
                                                          dir);
    std::vector<std::uint32_t> lambda_order(opt_.wavelengths -
                                            opt_.wavelength_lo);
    std::iota(lambda_order.begin(), lambda_order.end(), opt_.wavelength_lo);
    if (opt_.policy == optics::RwaPolicy::kRandomFit) {
      for (auto i = static_cast<std::uint32_t>(lambda_order.size()); i > 1;
           --i) {
        const auto j = static_cast<std::uint32_t>(rng_->uniform_int(0, i - 1));
        std::swap(lambda_order[i - 1], lambda_order[j]);
      }
    }
    for (std::uint32_t fiber = 0; fiber < opt_.fibers_per_direction;
         ++fiber) {
      for (const std::uint32_t lambda : lambda_order) {
        if (place_if_fits(dir, fiber, lambda, span, t, out)) return true;
      }
    }
    return false;
  }

  const topo::Ring& ring_;
  std::span<const coll::Transfer> transfers_;
  optics::RwaOptions opt_;
  Rng* rng_;
  std::vector<std::vector<std::uint8_t>> bitmaps_;
};

}  // namespace wrht::test
