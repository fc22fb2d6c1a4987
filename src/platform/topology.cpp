#include "platform/topology.hpp"

#include <algorithm>
#include <cmath>
#include <deque>

#include "support/error.hpp"

namespace tpdf::platform {

std::string toString(TopologyKind k) {
  switch (k) {
    case TopologyKind::Crossbar:
      return "crossbar";
    case TopologyKind::Bus:
      return "bus";
    case TopologyKind::Ring:
      return "ring";
    case TopologyKind::Mesh:
      return "mesh";
  }
  return "?";
}

namespace {

std::string linkName(std::size_t src, std::size_t dst) {
  return std::to_string(src) + "->" + std::to_string(dst);
}

void requirePes(std::size_t pes) {
  if (pes == 0) {
    throw support::ModelError("topology must have at least one PE");
  }
}

}  // namespace

Topology Topology::crossbar(std::size_t pes, double bandwidth,
                            double latency) {
  requirePes(pes);
  Topology t;
  t.kind_ = TopologyKind::Crossbar;
  t.pes_ = pes;
  t.routes_.assign(pes * pes, {});
  for (std::size_t i = 0; i < pes; ++i) {
    for (std::size_t j = 0; j < pes; ++j) {
      if (i == j) continue;
      const auto id = static_cast<std::uint32_t>(t.links_.size());
      t.links_.push_back(Link{id, linkName(i, j), i, j, bandwidth, latency});
      t.routes_[i * pes + j] = {id};
    }
  }
  return t;
}

Topology Topology::bus(std::size_t pes, double bandwidth, double latency) {
  requirePes(pes);
  Topology t;
  t.kind_ = TopologyKind::Bus;
  t.pes_ = pes;
  t.links_.push_back(Link{0, "bus", 0, 0, bandwidth, latency});
  t.routes_.assign(pes * pes, {});
  for (std::size_t i = 0; i < pes; ++i) {
    for (std::size_t j = 0; j < pes; ++j) {
      if (i != j) t.routes_[i * pes + j] = {0};
    }
  }
  return t;
}

Topology Topology::ring(std::size_t pes, double bandwidth, double latency) {
  requirePes(pes);
  Topology t;
  t.kind_ = TopologyKind::Ring;
  t.pes_ = pes;
  for (std::size_t i = 0; i < pes; ++i) {
    const std::size_t j = (i + 1) % pes;
    const auto id = static_cast<std::uint32_t>(t.links_.size());
    t.links_.push_back(Link{id, linkName(i, j), i, j, bandwidth, latency});
  }
  t.buildRoutesBfs();
  return t;
}

Topology Topology::mesh(std::size_t rows, std::size_t cols, double bandwidth,
                        double latency) {
  requirePes(rows);
  requirePes(cols);
  Topology t;
  t.kind_ = TopologyKind::Mesh;
  t.pes_ = rows * cols;
  t.rows_ = rows;
  t.cols_ = cols;
  // Bidirectional neighbor links, emitted in PE order (east, west,
  // south, north) so link ids are stable.
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t node = r * cols + c;
      const auto add = [&](std::size_t to) {
        const auto id = static_cast<std::uint32_t>(t.links_.size());
        t.links_.push_back(
            Link{id, linkName(node, to), node, to, bandwidth, latency});
      };
      if (c + 1 < cols) add(node + 1);
      if (c > 0) add(node - 1);
      if (r + 1 < rows) add(node + cols);
      if (r > 0) add(node - cols);
    }
  }
  t.buildRoutesXy();
  return t;
}

void Topology::buildRoutesBfs() {
  routes_.assign(pes_ * pes_, {});
  // Adjacency in ascending link-id order: ties in path length resolve
  // to the lowest link id, deterministically.
  std::vector<std::vector<std::uint32_t>> out(pes_);
  for (const Link& l : links_) out[l.src].push_back(l.id);
  for (std::size_t src = 0; src < pes_; ++src) {
    std::vector<std::uint32_t> via(pes_, UINT32_MAX);
    std::vector<std::size_t> prev(pes_, SIZE_MAX);
    std::deque<std::size_t> queue{src};
    std::vector<char> seen(pes_, 0);
    seen[src] = 1;
    while (!queue.empty()) {
      const std::size_t node = queue.front();
      queue.pop_front();
      for (std::uint32_t lid : out[node]) {
        const std::size_t next = links_[lid].dst;
        if (seen[next]) continue;
        seen[next] = 1;
        via[next] = lid;
        prev[next] = node;
        queue.push_back(next);
      }
    }
    for (std::size_t dst = 0; dst < pes_; ++dst) {
      if (dst == src || !seen[dst]) continue;
      std::vector<std::uint32_t>& path = routes_[src * pes_ + dst];
      for (std::size_t node = dst; node != src; node = prev[node]) {
        path.push_back(via[node]);
      }
      std::reverse(path.begin(), path.end());
    }
  }
}

void Topology::buildRoutesXy() {
  routes_.assign(pes_ * pes_, {});
  // linkTo[a][b] for neighbors a -> b.
  std::vector<std::vector<std::uint32_t>> out(pes_);
  std::vector<std::vector<std::size_t>> dsts(pes_);
  for (const Link& l : links_) {
    out[l.src].push_back(l.id);
    dsts[l.src].push_back(l.dst);
  }
  const auto step = [&](std::size_t from, std::size_t to) {
    for (std::size_t k = 0; k < dsts[from].size(); ++k) {
      if (dsts[from][k] == to) return out[from][k];
    }
    throw support::ModelError("mesh routing: missing neighbor link");
  };
  for (std::size_t src = 0; src < pes_; ++src) {
    for (std::size_t dst = 0; dst < pes_; ++dst) {
      if (src == dst) continue;
      std::vector<std::uint32_t>& path = routes_[src * pes_ + dst];
      std::size_t r = src / cols_, c = src % cols_;
      const std::size_t tr = dst / cols_, tc = dst % cols_;
      // X (column) first, then Y (row): deterministic dimension order.
      while (c != tc) {
        const std::size_t next = r * cols_ + (c < tc ? c + 1 : c - 1);
        path.push_back(step(r * cols_ + c, next));
        c = c < tc ? c + 1 : c - 1;
      }
      while (r != tr) {
        const std::size_t next = (r < tr ? r + 1 : r - 1) * cols_ + c;
        path.push_back(step(r * cols_ + c, next));
        r = r < tr ? r + 1 : r - 1;
      }
    }
  }
}

double Topology::routeCost(std::size_t src, std::size_t dst,
                           std::int64_t tokens) const {
  if (src == dst) return 0.0;
  double cost = 0.0;
  for (std::uint32_t lid : route(src, dst)) {
    cost += serviceTime(links_[lid], tokens);
  }
  return cost;
}

bool Topology::ideal() const {
  if (kind_ != TopologyKind::Crossbar) return false;
  for (const Link& l : links_) {
    if (!std::isinf(l.bandwidth) || l.latency != 0.0) return false;
  }
  return true;
}

}  // namespace tpdf::platform
