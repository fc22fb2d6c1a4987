// Refactor safety net for the platform subsystem: the committed files
// under tests/golden/platform_* were captured from the build at commit
// 9992fdf, BEFORE sched::Platform grew an interconnect topology.  An
// ideal platform — the default (no spec), and, once the platform
// subsystem exists, an explicit crossbar with infinite link bandwidth
// and zero latency — must keep producing these map reports, schedules,
// and sim traces byte-for-byte.
//
// Regenerate (only when an intentional report change lands):
//   TPDF_WRITE_GOLDEN=1 ./tests/platform_golden_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/requests.hpp"
#include "api/session.hpp"
#include "apps/ofdm.hpp"
#include "apps/randomgraphs.hpp"
#include "core/model.hpp"
#include "symbolic/expr.hpp"

namespace tpdf::api {
namespace {

std::string goldenPath(const std::string& name) {
  return std::string(TPDF_SOURCE_DIR) + "/tests/golden/" + name;
}

bool writeMode() { return std::getenv("TPDF_WRITE_GOLDEN") != nullptr; }

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void checkGolden(const std::string& name, const std::string& actual) {
  const std::string path = goldenPath(name);
  if (writeMode()) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return;
  }
  const std::string expected = slurp(path);
  ASSERT_FALSE(expected.empty()) << "missing golden file " << path
                                 << " (regenerate with TPDF_WRITE_GOLDEN=1)";
  EXPECT_EQ(expected, actual) << "byte-identity with the pre-refactor "
                              << "report broken for " << name;
}

/// One corpus entry: a session graph id plus the valuation the golden
/// requests run at.
struct Entry {
  std::string id;
  symbolic::Environment bindings;
};

/// Loads the shared corpus: the committed paper graphs, the OFDM case
/// study (built programmatically — it has no .tpdf file), and seeded
/// random chains from the shared generator.
class PlatformGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* name : {"fig1", "fig2", "fig4a", "quickstart"}) {
      LoadRequest req;
      req.path = std::string(TPDF_SOURCE_DIR) + "/examples/graphs/" + name +
                 ".tpdf";
      req.id = name;
      const LoadResponse loaded = session.load(req);
      ASSERT_EQ(loaded.status, Status::Ok) << req.path;
      entries.push_back(Entry{name, {{"p", 2}}});
    }
    ASSERT_TRUE(session.adopt(
        "ofdm", std::make_shared<core::TpdfGraph>(apps::ofdmTpdfGraph())));
    entries.push_back(
        Entry{"ofdm", {{"b", 2}, {"N", 16}, {"L", 2}, {"M", 4}}});
    for (const std::uint64_t seed : {7u, 42u}) {
      const std::string id = "chain" + std::to_string(seed);
      ASSERT_TRUE(session.adopt(
          id, std::make_shared<core::TpdfGraph>(
                  core::TpdfGraph(apps::randomConsistentChain(8, seed)))));
      entries.push_back(Entry{id, {}});
    }
  }

  std::string mapJson(const Entry& e, const std::string& platform = "") {
    MapRequest req;
    req.graphId = e.id;
    req.bindings = e.bindings;
    req.pes = 4;
    req.platform = platform;
    const MapResponse response = session.map(req);
    EXPECT_EQ(response.status, Status::Ok) << e.id;
    return response.toJson().pretty() + "\n";
  }

  std::string simJson(const Entry& e, const std::string& platform = "") {
    SimulateRequest req;
    req.graphId = e.id;
    req.bindings = e.bindings;
    req.platform = platform;
    req.options.iterations = 2;
    req.options.recordTrace = true;
    const SimulateResponse response = session.simulate(req);
    EXPECT_EQ(response.status, Status::Ok) << e.id;
    return response.toJson(session.graph(e.id)).pretty() + "\n";
  }

  Session session;
  std::vector<Entry> entries;
};

TEST_F(PlatformGoldenTest, DefaultPlatformMapReportsAreByteIdentical) {
  for (const Entry& e : entries) {
    checkGolden("platform_map_" + e.id + ".json", mapJson(e));
  }
}

TEST_F(PlatformGoldenTest, DefaultPlatformSimTracesAreByteIdentical) {
  for (const Entry& e : entries) {
    checkGolden("platform_sim_" + e.id + ".json", simJson(e));
  }
}

// The acceptance bar for the refactor: an *explicit* ideal platform —
// crossbar, infinite bandwidth, zero latency — must collapse to the
// legacy code path and reproduce the very same pre-refactor bytes, not
// merely equivalent numbers.
TEST_F(PlatformGoldenTest, ExplicitIdealCrossbarIsByteIdenticalToLegacy) {
  if (writeMode()) GTEST_SKIP() << "goldens are written by the default run";
  for (const Entry& e : entries) {
    checkGolden("platform_map_" + e.id + ".json", mapJson(e, "crossbar:4"));
    checkGolden("platform_sim_" + e.id + ".json",
                simJson(e, "crossbar:4,bw=inf,lat=0"));
  }
}

// Contended platforms take the steady-state measurement path (two
// round-robin simulations, the period read off their difference).  These
// goldens were captured before that measurement moved into sim/, so the
// shared routine must reproduce the contention block byte for byte.
TEST_F(PlatformGoldenTest, ContendedOfdmMapReportsAreByteIdentical) {
  LoadRequest load;
  load.path = std::string(TPDF_SOURCE_DIR) + "/examples/graphs/ofdm.tpdf";
  load.id = "ofdm_csdf";
  ASSERT_EQ(session.load(load).status, Status::Ok) << load.path;
  const Entry ofdm{"ofdm_csdf", {{"b", 2}, {"N", 16}, {"L", 2}}};
  checkGolden("platform_map_ofdm_bus4.json", mapJson(ofdm, "bus:4,bw=1"));
  checkGolden("platform_map_ofdm_mesh2x2.json",
              mapJson(ofdm, "mesh:2x2,bw=2,lat=1"));
}

}  // namespace
}  // namespace tpdf::api
