#include "core/scc.hpp"

#include <algorithm>

namespace tpdf::core {

using graph::ActorId;
using graph::Graph;

namespace {

struct TarjanState {
  std::size_t actorCount;
  std::vector<std::vector<std::size_t>> successors;
  std::vector<int> index;
  std::vector<int> lowlink;
  std::vector<bool> onStack;
  std::vector<std::size_t> stack;
  int counter = 0;
  SccResult result;

  explicit TarjanState(std::size_t n,
                       std::vector<std::vector<std::size_t>> succ)
      : actorCount(n),
        successors(std::move(succ)),
        index(n, -1),
        lowlink(n, 0),
        onStack(n, false) {
    result.component.resize(n);
  }

  // Iterative Tarjan (explicit stack) to stay safe on deep graphs.
  void run() {
    for (std::size_t v = 0; v < actorCount; ++v) {
      if (index[v] < 0) visit(v);
    }
    // Tarjan emits components in reverse topological order; renumber in
    // discovery order of members for determinism.
    std::reverse(result.members.begin(), result.members.end());
    for (std::size_t c = 0; c < result.members.size(); ++c) {
      std::sort(result.members[c].begin(), result.members[c].end());
      for (ActorId a : result.members[c]) {
        result.component[a.index()] = c;
      }
    }
  }

  void visit(std::size_t root) {
    struct Frame {
      std::size_t v;
      std::size_t nextSucc = 0;
    };
    std::vector<Frame> frames{{root}};
    index[root] = lowlink[root] = counter++;
    stack.push_back(root);
    onStack[root] = true;

    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.nextSucc < successors[f.v].size()) {
        const std::size_t w = successors[f.v][f.nextSucc++];
        if (index[w] < 0) {
          index[w] = lowlink[w] = counter++;
          stack.push_back(w);
          onStack[w] = true;
          frames.push_back({w});
        } else if (onStack[w]) {
          lowlink[f.v] = std::min(lowlink[f.v], index[w]);
        }
      } else {
        if (lowlink[f.v] == index[f.v]) {
          std::vector<ActorId> component;
          while (true) {
            const std::size_t w = stack.back();
            stack.pop_back();
            onStack[w] = false;
            component.push_back(ActorId(static_cast<std::uint32_t>(w)));
            if (w == f.v) break;
          }
          result.members.push_back(std::move(component));
        }
        const std::size_t v = f.v;
        frames.pop_back();
        if (!frames.empty()) {
          lowlink[frames.back().v] =
              std::min(lowlink[frames.back().v], lowlink[v]);
        }
      }
    }
  }
};

}  // namespace

SccResult stronglyConnectedComponents(const Graph& g) {
  std::vector<std::vector<std::size_t>> successors(g.actorCount());
  std::vector<bool> selfLoop(g.actorCount(), false);
  for (std::size_t c = 0; c < g.channelCount(); ++c) {
    const graph::ChannelId id(static_cast<std::uint32_t>(c));
    const std::size_t src = g.sourceActor(id).index();
    const std::size_t dst = g.destActor(id).index();
    successors[src].push_back(dst);
    if (src == dst) selfLoop[src] = true;
  }
  TarjanState state(g.actorCount(), std::move(successors));
  state.run();
  SccResult result = std::move(state.result);
  for (std::size_t c = 0; c < result.members.size(); ++c) {
    if (result.members[c].size() > 1 ||
        selfLoop[result.members[c][0].index()]) {
      result.nonTrivial.push_back(c);
    }
  }
  return result;
}

}  // namespace tpdf::core
