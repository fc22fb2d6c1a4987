// Sweep parity digests: a SHA-256 of every SweepResult in a fixed matrix,
// rendered compact and pretty, compared against
// tests/sweep_parity_digests.txt.
//
// The matrix holds the OFDM demodulator over the benchmark's dse-sweep
// grid (b=1:64, N=64..1024, L=1:4 on three topologies and three link
// bandwidths: 11,520 points), a two-parameter scenario graph on a bus,
// Figure 2 under a per-point work cap that trips some points in their
// shared analyses and some in their list schedules, and a graph whose
// rate turns negative inside the grid (per-point errors).  Each sweep
// runs at 1 and at 4 jobs.
//
// Any change to a verdict, a metric, a Pareto mark, a binding, a
// platform label, an error text or a number's formatting changes a
// digest.  On a mismatch the test prints the whole table as computed;
// when an output change is intended, that table is the new content of
// the digest file.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/context.hpp"
#include "core/sweep.hpp"
#include "io/format.hpp"
#include "support/json.hpp"
#include "sha256.hpp"

namespace tpdf::core {
namespace {

namespace fs = std::filesystem;

using testutil::sha256Hex;

struct Case {
  std::string id;
  graph::Graph graph;
  SweepSpec spec;
};

graph::Graph corpusGraph(const std::string& relPath) {
  return io::readGraphFile((fs::path(TPDF_SOURCE_DIR) / relPath).string());
}

std::vector<Case> cases() {
  std::vector<Case> out;
  {
    SweepSpec spec;
    spec.axes.push_back(SweepAxis::parse("b", "1:64"));
    spec.axes.push_back(SweepAxis::parse("N", "64,128,256,512,1024"));
    spec.axes.push_back(SweepAxis::parse("L", "1:4"));
    spec.topologies = {"mesh:2x2", "ring:4", "bus:4"};
    spec.linkBandwidths = {1.0, 4.0, 16.0};
    out.push_back({"ofdm dse-sweep", corpusGraph("examples/graphs/ofdm.tpdf"),
                   spec});
  }
  {
    SweepSpec spec;
    spec.axes.push_back(SweepAxis::parse("p", "1:6"));
    spec.axes.push_back(SweepAxis::parse("q", "1,2,3,5,8"));
    spec.platform = "bus:4,bw=1,lat=1";
    out.push_back({"regime_pq bus",
                   corpusGraph("examples/graphs/scenarios/param_regime_pq.tpdf"),
                   spec});
  }
  {
    SweepSpec spec;
    spec.axes.push_back(SweepAxis::parse("p", "1:8"));
    spec.topologies = {"mesh:2x2", "bus:4"};
    spec.linkBandwidths = {1.0, 16.0};
    spec.pointMaxWork = 200;
    out.push_back({"fig2 work cap", corpusGraph("examples/graphs/fig2.tpdf"),
                   spec});
  }
  {
    SweepSpec spec;
    spec.axes.push_back(SweepAxis::parse("p", "1:5"));
    spec.linkBandwidths = {1.0, 2.0};
    out.push_back({"negative rate", io::readGraph(R"(
graph neg {
  param p;
  kernel A { out o rates [3-p]; }
  kernel B { in i rates [1]; }
  channel e from A.o to B.i;
}
)"),
                   spec});
  }
  return out;
}

std::string render(const SweepResult& result, support::json::Layout layout) {
  support::json::Writer w(layout);
  result.write(w);
  return w.finish();
}

/// Every case of the matrix: id -> digest, in id order.
std::map<std::string, std::string> computeDigests() {
  std::map<std::string, std::string> out;
  for (Case& c : cases()) {
    const AnalysisContext ctx(c.graph);
    for (const std::size_t jobs : {1u, 4u}) {
      c.spec.jobs = jobs;
      const SweepResult result = sweep(ctx, c.spec);
      const std::string id = c.id + " jobs=" + std::to_string(jobs);
      out[id + " compact"] =
          sha256Hex(render(result, support::json::Layout::Compact));
      out[id + " pretty"] =
          sha256Hex(render(result, support::json::Layout::Pretty));
    }
  }
  return out;
}

std::map<std::string, std::string> recordedDigests() {
  std::ifstream in(fs::path(TPDF_SOURCE_DIR) / "tests" /
                   "sweep_parity_digests.txt");
  std::map<std::string, std::string> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.find("  ");
    if (space == std::string::npos) continue;
    out[line.substr(space + 2)] = line.substr(0, space);
  }
  return out;
}

TEST(SweepParity, DigestsMatchTheRecordedTable) {
  const std::map<std::string, std::string> actual = computeDigests();
  const std::map<std::string, std::string> recorded = recordedDigests();
  EXPECT_FALSE(recorded.empty()) << "tests/sweep_parity_digests.txt is missing";

  std::ostringstream table;
  for (const auto& [id, digest] : actual) table << digest << "  " << id << "\n";
  EXPECT_EQ(actual.size(), recorded.size());
  std::size_t mismatches = 0;
  for (const auto& [id, digest] : actual) {
    const auto it = recorded.find(id);
    if (it == recorded.end() || it->second != digest) {
      ++mismatches;
      ADD_FAILURE() << "digest differs for " << id;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "computed table:\n" << table.str();
}

}  // namespace
}  // namespace tpdf::core
