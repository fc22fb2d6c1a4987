// Map parity digests: a SHA-256 of the `map --json` envelope and of the
// text rendering of every mapping in a fixed matrix, compared against
// tests/map_parity_digests.txt.
//
// The matrix maps every graph in examples/graphs and
// examples/graphs/scenarios (except adv_near_overflow, whose one
// million period nodes would dominate the suite's time) through
// api::Session::map at 1, 2 and 4 PEs, with no platform, on
// `mesh:2x2,bw=4` and on `bus:4,bw=1,lat=1`.  The envelope is the
// pretty-printed object `tpdfc map --json` prints (minus the tool and
// command members tpdfc adds); the text is what `tpdfc map` prints.
//
// Any change to the canonical period (nodes, edges and their order),
// the list schedule (placement, start times, entry order), the
// contention block or a number's formatting changes a digest.  On a
// mismatch the test prints the whole table as computed; when an output
// change is intended, that table is the new content of the digest file.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "api/requests.hpp"
#include "api/session.hpp"
#include "support/json.hpp"
#include "sha256.hpp"

namespace tpdf {
namespace {

namespace fs = std::filesystem;

using testutil::sha256Hex;

const std::vector<std::string>& platforms() {
  static const std::vector<std::string> kPlatforms{"", "mesh:2x2,bw=4",
                                                   "bus:4,bw=1,lat=1"};
  return kPlatforms;
}

/// The corpus graphs, as paths relative to the source tree, sorted.
std::vector<std::string> corpusGraphs() {
  const fs::path root(TPDF_SOURCE_DIR);
  std::vector<std::string> out;
  for (const char* dir : {"examples/graphs", "examples/graphs/scenarios"}) {
    for (const fs::directory_entry& e : fs::directory_iterator(root / dir)) {
      if (e.path().extension() == ".tpdf" &&
          e.path().stem() != "adv_near_overflow") {
        out.push_back(fs::relative(e.path(), root).generic_string());
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

struct Rendered {
  std::string json;
  std::string text;
};

Rendered mapCorpusGraph(const std::string& relPath, std::size_t pes,
                        const std::string& platform) {
  api::Session session;
  api::LoadRequest load;
  load.path = (fs::path(TPDF_SOURCE_DIR) / relPath).string();
  const api::LoadResponse loaded = session.load(load);
  if (!loaded.ok()) return {"load-failed", "load-failed"};
  api::MapRequest request;
  request.graphId = loaded.id;
  request.pes = pes;
  request.platform = platform;
  const api::MapResponse response = session.map(request);

  support::json::Writer w(support::json::Layout::Pretty);
  response.write(w.beginObject());
  Rendered out{w.endObject().finish(), ""};
  if (response.period.has_value()) {
    out.text = "canonical period: " + std::to_string(response.period->size()) +
               " occurrences\n" + response.schedule.toString(*response.period);
  }
  return out;
}

/// Every case of the matrix: id -> digest, in id order.
std::map<std::string, std::string> computeDigests() {
  std::map<std::string, std::string> out;
  for (const std::string& path : corpusGraphs()) {
    for (const std::size_t pes : {1, 2, 4}) {
      for (const std::string& platform : platforms()) {
        const std::string id = path + " pes=" + std::to_string(pes) +
                               " platform=" +
                               (platform.empty() ? "none" : platform);
        const Rendered r = mapCorpusGraph(path, pes, platform);
        out[id + " json"] = sha256Hex(r.json);
        out[id + " text"] = sha256Hex(r.text);
      }
    }
  }
  return out;
}

std::map<std::string, std::string> recordedDigests() {
  std::ifstream in(fs::path(TPDF_SOURCE_DIR) / "tests" /
                   "map_parity_digests.txt");
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

TEST(MapParity, DigestsMatchTheRecordedTable) {
  const std::map<std::string, std::string> actual = computeDigests();
  const std::map<std::string, std::string> recorded = recordedDigests();
  EXPECT_FALSE(recorded.empty()) << "tests/map_parity_digests.txt is missing";

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
