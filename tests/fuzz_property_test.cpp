// Randomized property sweeps across the whole stack: generated graphs
// must satisfy the invariants the analyses promise, and every module
// must agree with the others on them.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/analysis.hpp"
#include "csdf/buffer.hpp"
#include "graph/builder.hpp"
#include "io/format.hpp"
#include "sched/canonical.hpp"
#include "sched/list.hpp"
#include "sim/simulator.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"
#include "random_dag.hpp"

namespace tpdf {
namespace {

using graph::Graph;
using symbolic::Environment;
using testutil::randomLayeredDag;

class FuzzSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSweep, GeneratedDagsAreConsistentAndLive) {
  const Graph g = randomLayeredDag(GetParam());
  const core::AnalysisReport report = core::analyze(g);
  EXPECT_TRUE(report.consistent()) << report.repetition.diagnostic;
  EXPECT_TRUE(report.live()) << report.liveness.diagnostic;
  EXPECT_TRUE(report.bounded());
}

TEST_P(FuzzSweep, IoRoundTripPreservesAnalyses) {
  const Graph g = randomLayeredDag(GetParam());
  const Graph back = io::readGraph(io::writeGraph(g));
  EXPECT_EQ(csdf::computeRepetitionVector(g).toString(),
            csdf::computeRepetitionVector(back).toString());
}

TEST_P(FuzzSweep, ScheduleExecutionReturnsToInitialState) {
  const Graph g = randomLayeredDag(GetParam());
  for (const csdf::SchedulePolicy policy :
       {csdf::SchedulePolicy::Eager, csdf::SchedulePolicy::MinOccupancy}) {
    const csdf::LivenessResult live =
        csdf::findSchedule(g, csdf::computeRepetitionVector(g), {}, policy);
    ASSERT_TRUE(live.live) << live.diagnostic;
    const csdf::ScheduleCheck check = validateSchedule(g, live.schedule);
    ASSERT_TRUE(check.ok) << check.diagnostic;
    for (const graph::Channel& c : g.channels()) {
      EXPECT_EQ(check.finalOccupancy[c.id.index()], c.initialTokens);
    }
  }
}

TEST_P(FuzzSweep, MinOccupancyNeverBeatenByEager) {
  const Graph g = randomLayeredDag(GetParam());
  const csdf::BufferReport lazy =
      csdf::minimumBuffers(g, csdf::computeRepetitionVector(g), {},
                           csdf::SchedulePolicy::MinOccupancy);
  const csdf::BufferReport eager =
      csdf::minimumBuffers(g, csdf::computeRepetitionVector(g), {},
                           csdf::SchedulePolicy::Eager);
  ASSERT_TRUE(lazy.ok);
  ASSERT_TRUE(eager.ok);
  EXPECT_LE(lazy.total(), eager.total());
}

TEST_P(FuzzSweep, SimulatorAgreesWithStaticIterationCounts) {
  const Graph g = randomLayeredDag(GetParam());
  const csdf::RepetitionVector rv = csdf::computeRepetitionVector(g);
  ASSERT_TRUE(rv.consistent);

  core::TpdfGraph model(randomLayeredDag(GetParam()));
  sim::Simulator simulator(model, Environment{});
  const sim::SimResult result = simulator.run();
  ASSERT_TRUE(result.ok) << result.diagnostic;
  EXPECT_TRUE(result.returnedToInitialState);
  for (const graph::Actor& a : g.actors()) {
    EXPECT_EQ(result.firings[a.id.index()],
              rv.qOf(a.id).constant().toInteger())
        << a.name;
  }
}

TEST_P(FuzzSweep, ListScheduleRespectsDependenciesOnRandomDags) {
  const Graph g = randomLayeredDag(GetParam());
  const sched::CanonicalPeriod cp(core::AnalysisContext(g), Environment{});
  const sched::ListSchedule ls =
      sched::listSchedule(cp, sched::Platform{.peCount = 2});
  ASSERT_EQ(ls.entries.size(), cp.size());
  for (std::size_t v = 0; v < cp.size(); ++v) {
    for (std::size_t s : cp.successors(v)) {
      EXPECT_GE(ls.of(s).start, ls.of(v).finish - 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep,
                         ::testing::Range<std::uint64_t>(1, 21));

// ---- Reader robustness: mutated corpus files -----------------------------

/// Applies 1..3 random byte edits (overwrite, insert, erase, truncate).
std::string mutate(std::string text, support::Prng& rng) {
  const std::int64_t edits = rng.uniform(1, 3);
  for (std::int64_t e = 0; e < edits && !text.empty(); ++e) {
    const std::size_t at = static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(text.size()) - 1));
    switch (rng.uniform(0, 3)) {
      case 0:
        text[at] = static_cast<char>(rng.uniform(0, 255));
        break;
      case 1:
        text.insert(at, 1, static_cast<char>(rng.uniform(0, 255)));
        break;
      case 2:
        text.erase(at, 1);
        break;
      default:
        text.resize(at);
        break;
    }
  }
  return text;
}

/// Every committed .tpdf under examples/graphs/ (paper figures plus the
/// scenario corpus), mutated at random, must either parse cleanly or
/// raise a structured error with a usable position — never crash, hang,
/// or leak an unclassified exception.  Iteration counts are bounded so
/// the sweep stays fast under ASan.
TEST(ReaderFuzz, MutatedCorpusFilesNeverCrashTheReader) {
  namespace fs = std::filesystem;
  const fs::path root = fs::path(TPDF_SOURCE_DIR) / "examples" / "graphs";
  std::vector<fs::path> files;
  for (const fs::directory_entry& entry :
       fs::recursive_directory_iterator(root)) {
    if (entry.is_regular_file() && entry.path().extension() == ".tpdf") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 19u) << "corpus went missing under " << root;

  support::Prng rng(0xC0FFEE);
  constexpr int kMutationsPerFile = 12;
  for (const fs::path& file : files) {
    std::ifstream in(file);
    ASSERT_TRUE(in) << file;
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string original = buffer.str();
    for (int trial = 0; trial < kMutationsPerFile; ++trial) {
      const std::string text = mutate(original, rng);
      try {
        const Graph g = io::readGraph(text);
        // A mutation that stays well-formed must still yield a graph the
        // rest of the stack can at least name.
        EXPECT_FALSE(g.name().empty());
      } catch (const support::ParseError& err) {
        EXPECT_GE(err.line(), 1) << file;
        EXPECT_GE(err.column(), 1) << file;
        EXPECT_FALSE(err.message().empty()) << file;
      } catch (const support::Error&) {
        // Structurally invalid but syntactically parsable (dangling
        // port, duplicate name, ...) — a clean, classified rejection.
      }
    }
  }
}

}  // namespace
}  // namespace tpdf
