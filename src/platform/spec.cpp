#include "platform/spec.hpp"

#include <cmath>
#include <cstdlib>

#include "support/strings.hpp"

namespace tpdf::platform {

namespace {

// PE counts above this make route tables (pes^2 entries) and crossbar
// link lists (pes^2 links) unreasonable; the MPPA-class targets the
// paper considers are two orders of magnitude smaller.
constexpr std::size_t kMaxPes = 4096;

SpecParse failAt(std::size_t column, std::string message) {
  SpecParse out;
  out.error = std::move(message);
  out.column = column;
  return out;
}

/// Parses a positive integer at text[pos..]; advances pos.
bool parseSize(const std::string& text, std::size_t& pos, std::size_t& out) {
  std::size_t digits = 0;
  std::size_t value = 0;
  while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
    value = value * 10 + static_cast<std::size_t>(text[pos] - '0');
    if (value > kMaxPes) return false;
    ++pos;
    ++digits;
  }
  if (digits == 0 || value == 0) return false;
  out = value;
  return true;
}

/// Parses a double at text[pos..] up to the next ',' (or end); advances
/// pos.  Accepts "inf".
bool parseNumber(const std::string& text, std::size_t& pos, double& out) {
  std::size_t end = text.find(',', pos);
  if (end == std::string::npos) end = text.size();
  const std::string token = text.substr(pos, end - pos);
  if (token.empty()) return false;
  if (token == "inf") {
    out = std::numeric_limits<double>::infinity();
    pos = end;
    return true;
  }
  char* rest = nullptr;
  const double value = std::strtod(token.c_str(), &rest);
  if (rest == nullptr || *rest != '\0' || std::isnan(value)) return false;
  out = value;
  pos = end;
  return true;
}

}  // namespace

SpecParse parsePlatformSpec(const std::string& text) {
  PlatformSpec spec;
  std::size_t pos = 0;
  std::size_t end = text.find_first_of(":,", pos);
  if (end == std::string::npos) end = text.size();
  const std::string kind = text.substr(0, end);
  if (kind == "crossbar") {
    spec.kind = TopologyKind::Crossbar;
  } else if (kind == "bus") {
    spec.kind = TopologyKind::Bus;
  } else if (kind == "ring") {
    spec.kind = TopologyKind::Ring;
  } else if (kind == "mesh") {
    spec.kind = TopologyKind::Mesh;
  } else {
    return failAt(1, "unknown topology kind '" + kind +
                         "' (expected crossbar, bus, ring, or mesh)");
  }
  pos = end;

  if (pos < text.size() && text[pos] == ':') {
    ++pos;
    const std::size_t sizeCol = pos + 1;
    std::size_t first = 0;
    if (!parseSize(text, pos, first)) {
      return failAt(sizeCol, "expected a positive PE count (at most " +
                                 std::to_string(kMaxPes) + ")");
    }
    if (pos < text.size() && text[pos] == 'x') {
      if (spec.kind != TopologyKind::Mesh) {
        return failAt(pos + 1, "rows x cols size is only valid for mesh");
      }
      ++pos;
      const std::size_t colsCol = pos + 1;
      std::size_t second = 0;
      if (!parseSize(text, pos, second) || first * second > kMaxPes) {
        return failAt(colsCol, "expected a positive column count (rows x "
                               "cols at most " +
                                   std::to_string(kMaxPes) + " PEs)");
      }
      spec.rows = first;
      spec.cols = second;
      spec.pes = first * second;
    } else if (spec.kind == TopologyKind::Mesh) {
      spec.rows = first;
      spec.cols = first;
      spec.pes = first * first;
      if (spec.pes > kMaxPes) {
        return failAt(sizeCol, "mesh size exceeds " + std::to_string(kMaxPes) +
                                   " PEs");
      }
    } else {
      spec.pes = first;
    }
  } else if (spec.kind == TopologyKind::Mesh) {
    return failAt(end + 1, "mesh requires an explicit size (mesh:RxC)");
  }

  while (pos < text.size()) {
    if (text[pos] != ',') {
      return failAt(pos + 1, "expected ',' before '" + text.substr(pos) + "'");
    }
    ++pos;
    const std::size_t keyCol = pos + 1;
    const std::size_t eq = text.find('=', pos);
    if (eq == std::string::npos) {
      return failAt(keyCol, "expected key=value option");
    }
    const std::string key = text.substr(pos, eq - pos);
    pos = eq + 1;
    const std::size_t valueCol = pos + 1;
    double value = 0.0;
    if (!parseNumber(text, pos, value)) {
      return failAt(valueCol, "expected a number for '" + key + "'");
    }
    if (key == "bw") {
      if (value <= 0.0) {
        return failAt(valueCol, "link bandwidth must be positive");
      }
      spec.bandwidth = value;
    } else if (key == "lat") {
      if (value < 0.0 || std::isinf(value)) {
        return failAt(valueCol, "link latency must be finite and "
                                "non-negative");
      }
      spec.latency = value;
    } else {
      return failAt(keyCol,
                    "unknown option '" + key + "' (expected bw or lat)");
    }
  }

  SpecParse out;
  out.ok = true;
  out.spec = spec;
  return out;
}

Topology PlatformSpec::build(std::size_t defaultPes) const {
  const std::size_t n = pes != 0 ? pes : defaultPes;
  switch (kind) {
    case TopologyKind::Crossbar:
      return Topology::crossbar(n, bandwidth, latency);
    case TopologyKind::Bus:
      return Topology::bus(n, bandwidth, latency);
    case TopologyKind::Ring:
      return Topology::ring(n, bandwidth, latency);
    case TopologyKind::Mesh:
      return Topology::mesh(rows, cols, bandwidth, latency);
  }
  return Topology::crossbar(n, bandwidth, latency);
}

std::string PlatformSpec::canonical(std::size_t defaultPes) const {
  std::string out = toString(kind);
  if (kind == TopologyKind::Mesh) {
    out += ":" + std::to_string(rows) + "x" + std::to_string(cols);
  } else {
    out += ":" + std::to_string(pes != 0 ? pes : defaultPes);
  }
  if (!std::isinf(bandwidth)) {
    out += ",bw=" + support::formatDouble(bandwidth);
  }
  if (latency != 0.0) {
    out += ",lat=" + support::formatDouble(latency);
  }
  return out;
}

void PlatformSpec::write(support::json::Writer& w,
                         std::size_t defaultPes) const {
  w.beginObject().member("kind", toString(kind));
  w.member("pes", pes != 0 ? pes : defaultPes);
  if (kind == TopologyKind::Mesh) w.member("rows", rows).member("cols", cols);
  if (!std::isinf(bandwidth)) w.member("bandwidth", bandwidth);
  w.member("latency", latency).endObject();
}

}  // namespace tpdf::platform
