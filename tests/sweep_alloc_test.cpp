// Counts global operator new calls during core::sweep: a point is a
// fixed-size record and a platform variant's list schedule reuses its
// valuation's scheduler state, so sweeping the same valuations over
// nine platform variants instead of one adds a fixed number of
// allocations per variant (building the variant's topology and label),
// and none per point.
//
// A separate executable because it replaces the global allocation
// functions for the whole binary.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "apps/ofdm.hpp"
#include "core/context.hpp"
#include "core/sweep.hpp"
#include "platform/spec.hpp"
#include "platform/topology.hpp"

namespace {

// Atomic: the sweep's pool threads allocate too.
std::atomic<std::int64_t> allocations{0};

void* allocate(std::size_t size) {
  allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return allocate(size); }
void* operator new[](std::size_t size) { return allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tpdf::core {
namespace {

/// Allocations made by one sweep of `spec` (result freed included).
std::int64_t countSweep(const AnalysisContext& ctx, const SweepSpec& spec,
                        std::size_t expectedPoints) {
  const std::int64_t before = allocations;
  {
    const SweepResult result = sweep(ctx, spec);
    EXPECT_EQ(result.points.size(), expectedPoints);
    EXPECT_EQ(result.bounded(), expectedPoints);
  }
  return allocations - before;
}

/// Allocations of building `spec`'s platform variants on their own.
std::int64_t countVariants(const SweepSpec& spec) {
  const std::int64_t before = allocations;
  for (const std::string& topology : spec.topologies) {
    for (const double bw : spec.linkBandwidths) {
      platform::PlatformSpec variant = platform::parsePlatformSpec(topology).spec;
      variant.bandwidth = bw;
      const std::string label = variant.canonical(spec.pes);
      const platform::Topology built = variant.build(spec.pes);
    }
  }
  return allocations - before;
}

TEST(SweepAllocations, PointsDoNotAllocate) {
  const graph::Graph g = apps::ofdmCsdfGraph();
  const AnalysisContext ctx(g);
  // The OFDM demodulator over 32 valuations.
  SweepSpec spec;
  spec.axes.push_back(SweepAxis::parse("b", "1:8"));
  spec.axes.push_back(SweepAxis::parse("N", "64,256"));
  spec.axes.push_back(SweepAxis::parse("L", "1:2"));
  spec.jobs = 1;
  constexpr std::size_t kValuations = 32;

  SweepSpec one = spec;
  one.topologies = {"mesh:2x2"};
  one.linkBandwidths = {4.0};
  SweepSpec nine = spec;
  nine.topologies = {"mesh:2x2", "ring:4", "bus:4"};
  nine.linkBandwidths = {1.0, 4.0, 16.0};

  countSweep(ctx, one, kValuations);  // warms the context
  const std::int64_t oneVariant = countSweep(ctx, one, kValuations);
  const std::int64_t nineVariants = countSweep(ctx, nine, 9 * kValuations);
  // Beyond building the eight extra topologies and labels, a variant may
  // cost a few container growths; one allocation per point would cost 32.
  const std::int64_t topologies = countVariants(nine) - countVariants(one);
  constexpr std::int64_t kPerVariant = 4;
  EXPECT_LE(nineVariants - oneVariant - topologies, 8 * kPerVariant)
      << oneVariant << " allocations over 1 variant, " << nineVariants
      << " over 9, " << topologies << " of them building the 8 extra ones";
}

}  // namespace
}  // namespace tpdf::core
