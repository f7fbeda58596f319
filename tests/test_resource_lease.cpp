// Multi-tenant resource leases: accessor/validation edge cases, the
// slice-equivalence property on both optical engines (a leased run prices
// like a full run on a fabric the width of the slice), the electrical
// bandwidth-share mapping, and byte-identity of an explicit full-width
// slice with the default lease.
#include "wrht/net/resource_lease.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "wrht/common/error.hpp"
#include "wrht/core/torus_wrht.hpp"
#include "wrht/core/wrht_schedule.hpp"
#include "wrht/electrical/fat_tree_network.hpp"
#include "wrht/optical/optical_backend.hpp"
#include "wrht/optical/ring_network.hpp"
#include "wrht/optical/torus_network.hpp"

namespace wrht {
namespace {

using net::ResourceLease;
using net::slice_lease;

TEST(ResourceLease, DefaultIsFullFabric) {
  const ResourceLease lease;
  EXPECT_TRUE(lease.full());
  EXPECT_EQ(lease.width(64), 64u);
  EXPECT_EQ(lease.clamp_hi(64), 64u);
  EXPECT_DOUBLE_EQ(lease.share(64), 1.0);
  EXPECT_EQ(lease.to_string(), "full");
  EXPECT_NO_THROW(lease.validate(0));
  EXPECT_NO_THROW(lease.validate(64));
}

TEST(ResourceLease, SliceAccessors) {
  const ResourceLease lease = slice_lease(8, 4, 7);
  EXPECT_FALSE(lease.full());
  EXPECT_EQ(lease.w_lo, 8u);
  EXPECT_EQ(lease.w_hi, 12u);
  EXPECT_EQ(lease.tenant, 7u);
  EXPECT_EQ(lease.width(64), 4u);
  EXPECT_EQ(lease.clamp_hi(64), 12u);
  EXPECT_DOUBLE_EQ(lease.share(64), 4.0 / 64.0);
  EXPECT_DOUBLE_EQ(lease.share(0), 1.0);  // unknown fabric width
  EXPECT_EQ(lease.to_string(), "[8, 12)@t7");
}

TEST(ResourceLease, Validation) {
  EXPECT_THROW((void)slice_lease(3, 0), InvalidArgument);
  EXPECT_THROW((ResourceLease{5, 5, 0}).validate(8), InvalidArgument);
  EXPECT_THROW((ResourceLease{6, 4, 0}).validate(8), InvalidArgument);
  EXPECT_THROW(slice_lease(6, 4).validate(8), InvalidArgument);  // [6, 10)
  EXPECT_NO_THROW(slice_lease(4, 4).validate(8));  // [4, 8) exactly fits
  const auto message = [](const ResourceLease& lease, std::uint32_t fabric) {
    try {
      lease.validate(fabric);
    } catch (const InvalidArgument& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  EXPECT_EQ(message(ResourceLease{5, 5, 0}, 8),
            "ResourceLease: empty slice [5, 5)");
  EXPECT_EQ(message(slice_lease(6, 4), 8),
            "ResourceLease: slice [6, 10) exceeds the fabric's 8 wavelengths");
}

TEST(ResourceLease, SliceLeaseRejectsAWrappingEnd) {
  try {
    (void)slice_lease(0xFFFFFFFFu, 2);  // w_lo + width wraps to 1
    ADD_FAILURE() << "wrapping slice was accepted";
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(),
                 "slice_lease: slice at 4294967295 of width 2 overflows the "
                 "32-bit wavelength index");
  }
  // The last representable slice still builds.
  const ResourceLease last = slice_lease(0xFFFFFFFEu, 1);
  EXPECT_EQ(last.w_hi, 0xFFFFFFFFu);
}

optics::OpticalConfig optical_cfg(std::uint32_t wavelengths) {
  optics::OpticalConfig c;
  c.wavelengths = wavelengths;
  return c;
}

// A leased run must price exactly like a full-fabric run on a fiber the
// width of the slice, with every wavelength index shifted up by w_lo.
// This is the invariant the verify fuzzer draws random slices against.
TEST(ResourceLease, RingSliceEquivalence) {
  // m = 9 needs floor(9/2) = 4 wavelengths: the schedule fills the slice.
  const auto sched = core::wrht_allreduce(64, 4096, core::WrhtOptions{9, 4});

  optics::OpticalConfig leased_cfg = optical_cfg(16);
  leased_cfg.lease = slice_lease(5, 4);
  const optics::RingNetwork leased(64, leased_cfg);
  const optics::RingNetwork narrow(64, optical_cfg(4));

  const auto a = leased.execute(sched);
  const auto b = narrow.execute(sched);
  EXPECT_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.total_rounds, b.total_rounds);
  EXPECT_EQ(a.steps, b.steps);
  // wavelengths_used is highest index + 1, and leased indices stay
  // absolute, so the slice offset shows up here.
  EXPECT_EQ(a.max_wavelengths_used, b.max_wavelengths_used + 5);
}

TEST(ResourceLease, RingSliceEquivalenceWithMultiRoundSplitting) {
  // The schedule wants 4 wavelengths but the slice grants 2: every wide
  // step splits into rounds, identically on both fabrics.
  const auto sched = core::wrht_allreduce(64, 4096, core::WrhtOptions{9, 4});

  optics::OpticalConfig leased_cfg = optical_cfg(16);
  leased_cfg.lease = slice_lease(7, 2);
  const optics::RingNetwork leased(64, leased_cfg);
  const optics::RingNetwork narrow(64, optical_cfg(2));

  const auto a = leased.execute(sched);
  const auto b = narrow.execute(sched);
  EXPECT_GT(a.total_rounds, a.steps);  // splitting actually happened
  EXPECT_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.total_rounds, b.total_rounds);
  EXPECT_EQ(a.max_wavelengths_used, b.max_wavelengths_used + 7);
}

TEST(ResourceLease, RingSliceEquivalenceRandomFit) {
  // Random-fit draws a permutation of the slice; the draw sequence depends
  // only on the slice width, so equivalence holds seed-for-seed.
  const auto sched = core::wrht_allreduce(64, 4096, core::WrhtOptions{9, 4});

  optics::OpticalConfig leased_cfg = optical_cfg(16);
  leased_cfg.rwa_policy = optics::RwaPolicy::kRandomFit;
  leased_cfg.lease = slice_lease(5, 4);
  const optics::RingNetwork leased(64, leased_cfg);

  optics::OpticalConfig narrow_cfg = optical_cfg(4);
  narrow_cfg.rwa_policy = optics::RwaPolicy::kRandomFit;
  const optics::RingNetwork narrow(64, narrow_cfg);

  Rng rng_a(2023);
  Rng rng_b(2023);
  const auto a = leased.execute(sched, &rng_a);
  const auto b = narrow.execute(sched, &rng_b);
  EXPECT_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.total_rounds, b.total_rounds);
  EXPECT_EQ(a.max_wavelengths_used, b.max_wavelengths_used + 5);
}

TEST(ResourceLease, TorusSliceEquivalence) {
  const topo::Torus torus(4, 8);
  const auto sched =
      core::torus_wrht_allreduce(torus, 1000, core::WrhtOptions{3, 2});

  optics::OpticalConfig leased_cfg = optical_cfg(8);
  leased_cfg.lease = slice_lease(3, 2);
  const optics::TorusNetwork leased(torus, leased_cfg);
  const optics::TorusNetwork narrow(torus, optical_cfg(2));

  const auto a = leased.execute(sched);
  const auto b = narrow.execute(sched);
  EXPECT_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.total_rounds, b.total_rounds);
  EXPECT_EQ(a.max_wavelengths_used, b.max_wavelengths_used + 3);
}

TEST(ResourceLease, EngineConstructorsValidateLease) {
  optics::OpticalConfig bad = optical_cfg(8);
  bad.lease = slice_lease(6, 4);  // [6, 10) exceeds 8 wavelengths
  EXPECT_THROW(optics::RingNetwork(16, bad), InvalidArgument);
  EXPECT_THROW(optics::TorusNetwork(topo::Torus(4, 4), bad), InvalidArgument);

  elec::ElectricalConfig elec_bad;
  elec_bad.lease = slice_lease(0, 4);  // slice without a fabric width
  EXPECT_THROW(elec::FatTreeNetwork(16, elec_bad), InvalidArgument);
  elec_bad.lease_fabric_width = 2;  // [0, 4) exceeds a width-2 fabric
  EXPECT_THROW(elec::FatTreeNetwork(16, elec_bad), InvalidArgument);
}

TEST(ResourceLease, ElectricalShareScalesBandwidth) {
  elec::ElectricalConfig full;
  elec::ElectricalConfig quarter;
  quarter.with_lease(slice_lease(16, 16), 64);  // 16 of 64 wavelengths
  EXPECT_DOUBLE_EQ(quarter.bytes_per_second(), full.bytes_per_second() / 4.0);

  // A leased fat tree prices a schedule strictly slower than a full one
  // (same steps, scaled link rate).
  const auto sched = core::wrht_allreduce(16, 4096, core::WrhtOptions{5, 2});
  const elec::FatTreeNetwork fast(16, full);
  const elec::FatTreeNetwork slow(16, quarter);
  const auto a = fast.execute(sched);
  const auto b = slow.execute(sched);
  EXPECT_EQ(a.to_report().steps, b.to_report().steps);
  EXPECT_GT(b.total_time.count(), a.total_time.count());
}

TEST(ResourceLease, ExplicitFullWidthSliceIsByteIdentical) {
  // A [0, W) slice is not the sentinel but must price byte-identically to
  // the default full lease, down to the serialized report.
  const auto sched = core::wrht_allreduce(64, 4096, core::WrhtOptions{9, 4});
  const optics::RingBackend plain(64, optical_cfg(16));
  optics::OpticalConfig sliced_cfg = optical_cfg(16);
  sliced_cfg.lease = slice_lease(0, 16);
  const optics::RingBackend sliced(64, sliced_cfg);

  std::ostringstream a;
  std::ostringstream b;
  plain.execute(sched).write_json(a);
  sliced.execute(sched).write_json(b);
  EXPECT_EQ(a.str(), b.str());
}

}  // namespace
}  // namespace wrht
