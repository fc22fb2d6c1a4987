// Simulator parity digests: a SHA-256 of the JSON of every simulation in
// a fixed matrix, compared against tests/sim_parity_digests.txt.
//
// The matrix runs every graph in examples/graphs and
// examples/graphs/scenarios through api::Session::simulate with a trace,
// with no platform, on `mesh:2x2,bw=4` and on `bus:4,bw=1,lat=1`, at 1
// and 3 iterations (firings capped at 50,000), plus behaviour-driven runs
// the corpus cannot express: the edge-detection Transaction at three
// deadlines (clock ticks, HighestPriority, discards after arrival) and
// control-token mode selection on Figure 3, each with and without a
// fabric.  Behaviour runs
// also digest the token tags their sinks observed, so token values and
// their order are pinned, not only the counts.
//
// Any change to firing order, traces, channel or link stats, endTime or
// returnedToInitialState changes a digest.  On a mismatch the test
// prints the whole table as computed; when an output change is intended,
// that table is the new content of the digest file.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "api/requests.hpp"
#include "api/session.hpp"
#include "apps/edgegraph.hpp"
#include "apps/papergraphs.hpp"
#include "platform/topology.hpp"
#include "sim/simulator.hpp"
#include "support/json.hpp"
#include "sha256.hpp"

namespace tpdf {
namespace {

namespace fs = std::filesystem;

using testutil::sha256Hex;

TEST(SimParity, Sha256MatchesKnownVectors) {
  EXPECT_EQ(sha256Hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(sha256Hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      sha256Hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(sha256Hex(std::string(1000, 'a')),
            "41edece42d63e8d9bf515a9ba6932e1c20cbc9f5a5d134645adb5db1b9737ea3");
}

// ---- The matrix ----------------------------------------------------------

const std::vector<std::string>& platforms() {
  static const std::vector<std::string> kPlatforms{"", "mesh:2x2,bw=4",
                                                   "bus:4,bw=1,lat=1"};
  return kPlatforms;
}

std::string platformLabel(const std::string& spec) {
  return spec.empty() ? "none" : spec;
}

/// The corpus graphs, as paths relative to the source tree, sorted.
std::vector<std::string> corpusGraphs() {
  const fs::path root(TPDF_SOURCE_DIR);
  std::vector<std::string> out;
  for (const char* dir : {"examples/graphs", "examples/graphs/scenarios"}) {
    for (const fs::directory_entry& e : fs::directory_iterator(root / dir)) {
      if (e.path().extension() == ".tpdf") {
        out.push_back(fs::relative(e.path(), root).generic_string());
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// adv_near_overflow runs into the firing cap; at the default cap of 1M
/// its six traces alone would be 800 MB of JSON to hash.  The lower cap
/// keeps the cap-truncated path covered at a twentieth of the cost.
constexpr std::int64_t kMaxFirings = 50'000;

std::string simulateCorpusGraph(const std::string& relPath,
                                const std::string& platform,
                                std::int64_t iterations) {
  api::Session session;
  api::LoadRequest load;
  load.path = (fs::path(TPDF_SOURCE_DIR) / relPath).string();
  const api::LoadResponse loaded = session.load(load);
  if (!loaded.ok()) return "load-failed";
  api::SimulateRequest request;
  request.graphId = loaded.id;
  request.platform = platform;
  request.options.iterations = iterations;
  request.options.recordTrace = true;
  request.options.maxFirings = kMaxFirings;
  const api::SimulateResponse response = session.simulate(request);
  support::json::Writer w(support::json::Layout::Compact);
  response.write(w.beginObject(), session.graph(loaded.id));
  return w.endObject().finish();
}

/// Round-robin placement over `fabric`, as api::Session::simulate does.
sim::SimOptions onFabric(const platform::Topology* fabric,
                         std::size_t actors) {
  sim::SimOptions options;
  options.recordTrace = true;
  if (fabric != nullptr) {
    options.fabric = fabric;
    options.actorPe.resize(actors);
    for (std::size_t i = 0; i < actors; ++i) {
      options.actorPe[i] = i % fabric->peCount();
    }
  }
  return options;
}

std::string resultText(const sim::SimResult& result, const graph::Graph& g,
                       const std::string& observed) {
  support::json::Writer w(support::json::Layout::Compact);
  result.write(w, g);
  return w.finish() + "\n" + observed;
}

/// Edge detection at `deadline`: detectors tag their result with their
/// quality rank, Trans forwards the tag of the input it took, IWrite
/// records it.
std::string simulateEdgeDetection(double deadline,
                                  const platform::Topology* fabric) {
  const core::TpdfGraph model = apps::edgeDetectionGraph(deadline);
  sim::Simulator simulator(model, symbolic::Environment{});
  const std::vector<std::string>& detectors = apps::edgeDetectorNames();
  for (std::size_t i = 0; i < detectors.size(); ++i) {
    const auto tag = static_cast<std::int64_t>(i + 1);
    simulator.setBehaviour(detectors[i], [tag](sim::FiringContext& ctx) {
      ctx.emit("o", sim::Token{tag * 100 + ctx.firingIndex(), {}});
    });
  }
  simulator.setBehaviour("Trans", [&](sim::FiringContext& ctx) {
    for (const std::string& name : detectors) {
      for (const sim::Token& t : ctx.inputs("i" + name)) {
        ctx.emit("o", sim::Token{t.tag, {}});
      }
    }
  });
  std::string observed;
  simulator.setBehaviour("IWrite", [&](sim::FiringContext& ctx) {
    for (const sim::Token& t : ctx.inputs("i")) {
      observed += std::to_string(t.tag) + "@" + std::to_string(ctx.now()) + " ";
    }
  });
  sim::SimOptions options = onFabric(fabric, model.graph().actorCount());
  options.iterations = 3;
  options.stopTime = 3.5 * deadline + 1200.0;
  return resultText(simulator.run(options), model.graph(), observed);
}

/// Figure 3 with CTL choosing mode `chosen` on odd firings and the other
/// one on even firings; D and E stamp their tokens, SNK records them.
std::string simulateModes(std::int64_t chosen,
                          const platform::Topology* fabric) {
  const core::TpdfGraph model = apps::fig3SelectDuplicate();
  sim::Simulator simulator(model, symbolic::Environment{});
  simulator.setBehaviour("A", [](sim::FiringContext& ctx) {
    ctx.emit("o", sim::Token{ctx.firingIndex(), {}});
  });
  simulator.setBehaviour("CTL", [chosen](sim::FiringContext& ctx) {
    const std::int64_t mode = (ctx.firingIndex() + chosen) % 2;
    ctx.emit("toB", sim::Token{mode, {}});
    ctx.emit("toF", sim::Token{mode, {}});
  });
  simulator.setBehaviour("D", [](sim::FiringContext& ctx) {
    for (const sim::Token& t : ctx.inputs("i")) {
      ctx.emit("o", sim::Token{1000 + t.tag, {}});
    }
  });
  simulator.setBehaviour("E", [](sim::FiringContext& ctx) {
    for (const sim::Token& t : ctx.inputs("i")) {
      ctx.emit("o", sim::Token{2000 + t.tag, {}});
    }
  });
  std::string observed;
  simulator.setBehaviour("SNK", [&](sim::FiringContext& ctx) {
    for (const sim::Token& t : ctx.inputs("i")) {
      observed += std::to_string(t.tag) + " ";
    }
  });
  sim::SimOptions options = onFabric(fabric, model.graph().actorCount());
  options.iterations = 4;
  return resultText(simulator.run(options), model.graph(), observed);
}

/// Every case of the matrix: id -> digest, in id order.
std::map<std::string, std::string> computeDigests() {
  std::map<std::string, std::string> out;
  for (const std::string& path : corpusGraphs()) {
    for (const std::string& platform : platforms()) {
      for (const std::int64_t iterations : {1, 3}) {
        const std::string id = path + " platform=" + platformLabel(platform) +
                               " iterations=" + std::to_string(iterations);
        out[id] = sha256Hex(simulateCorpusGraph(path, platform, iterations));
      }
    }
  }
  const platform::Topology mesh = platform::Topology::mesh(2, 2, 4.0, 1.0);
  for (const platform::Topology* fabric :
       {static_cast<const platform::Topology*>(nullptr), &mesh}) {
    const std::string label = fabric == nullptr ? "none" : "mesh2x2";
    for (const double deadline : {250.0, 500.0, 1100.0}) {
      out["behaviour/edge-detection deadline=" +
          std::to_string(static_cast<int>(deadline)) + " fabric=" + label] =
          sha256Hex(simulateEdgeDetection(deadline, fabric));
    }
    for (const std::int64_t chosen : {0, 1}) {
      out["behaviour/fig3-modes chosen=" + std::to_string(chosen) +
          " fabric=" + label] = sha256Hex(simulateModes(chosen, fabric));
    }
  }
  return out;
}

std::map<std::string, std::string> recordedDigests() {
  std::ifstream in(fs::path(TPDF_SOURCE_DIR) / "tests" /
                   "sim_parity_digests.txt");
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

TEST(SimParity, DigestsMatchTheRecordedTable) {
  const std::map<std::string, std::string> actual = computeDigests();
  const std::map<std::string, std::string> recorded = recordedDigests();
  EXPECT_FALSE(recorded.empty()) << "tests/sim_parity_digests.txt is missing";

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
}  // namespace tpdf
