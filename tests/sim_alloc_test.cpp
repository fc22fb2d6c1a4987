// Counts global operator new calls during Simulator::run: a behaviour-
// less run allocates its per-run tables and result, and nothing per
// firing, so running 8 iterations instead of 1 adds at most a few
// allocations (event-heap growth), with or without a fabric.
//
// A separate executable because it replaces the global allocation
// functions for the whole binary.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "apps/randomgraphs.hpp"
#include "core/context.hpp"
#include "core/model.hpp"
#include "platform/spec.hpp"
#include "sim/simulator.hpp"

namespace {

std::int64_t allocations = 0;

void* allocate(std::size_t size) {
  ++allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return allocate(size); }
void* operator new[](std::size_t size) { return allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++allocations;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++allocations;
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tpdf::sim {
namespace {

struct Counted {
  std::int64_t allocations = 0;
  std::int64_t firings = 0;
};

/// Allocations made by one run of `simulator` at `iterations`.
Counted countRun(Simulator& simulator, SimOptions options,
                 std::int64_t iterations) {
  options.iterations = iterations;
  const std::int64_t before = allocations;
  const SimResult result = simulator.run(options);
  Counted c{allocations - before, result.totalFirings};
  EXPECT_TRUE(result.ok) << result.diagnostic;
  EXPECT_TRUE(result.returnedToInitialState);
  return c;
}

TEST(SimAllocations, BehaviourlessRunsDoNotAllocatePerFiring) {
  const core::TpdfGraph model(apps::randomConsistentChain(100, 1));
  const core::AnalysisContext ctx(model.graph());
  const platform::Topology mesh =
      platform::parsePlatformSpec("mesh:2x2,bw=4").spec.build(4);
  const std::size_t actors = model.graph().actorCount();

  for (const bool onFabric : {false, true}) {
    SimOptions options;
    if (onFabric) {
      options.fabric = &mesh;
      options.actorPe.resize(actors);
      for (std::size_t i = 0; i < actors; ++i) {
        options.actorPe[i] = i % mesh.peCount();
      }
    }
    Simulator simulator(model, symbolic::Environment{}, &ctx);
    countRun(simulator, options, 1);  // memoizes the context's rate tables
    const Counted one = countRun(simulator, options, 1);
    const Counted eight = countRun(simulator, options, 8);
    ASSERT_EQ(eight.firings, 8 * one.firings);
    EXPECT_GT(one.firings, 1000);
    EXPECT_LE(eight.allocations - one.allocations, 8)
        << (onFabric ? "mesh" : "no fabric") << ": " << one.allocations
        << " allocations for " << one.firings << " firings, "
        << eight.allocations << " for " << eight.firings;
  }
}

}  // namespace
}  // namespace tpdf::sim
