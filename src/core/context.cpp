#include "core/context.hpp"

#include <algorithm>
#include <set>

namespace tpdf::core {

using graph::ActorId;
using graph::ChannelId;
using graph::Graph;

AnalysisContext::AnalysisContext(const Graph& g)
    : g_(&g),
      syncedRevision_(g.revision()),
      syncedShapeRevision_(g.shapeRevision()),
      syncedActorCount_(g.actorCount()) {
  g.freeze();
}

std::string AnalysisContext::cacheKey(const symbolic::Environment& env) {
  std::string key;
  for (const auto& [name, value] : env.bindings()) {
    key += name;
    key += '=';
    key += std::to_string(value);
    key += ';';
  }
  return key;
}

void AnalysisContext::computeComponents() const {
  const std::size_t n = g_->actorCount();
  // Union-find over actors; channels are the edges.
  std::vector<std::uint32_t> parent(n);
  for (std::size_t i = 0; i < n; ++i) {
    parent[i] = static_cast<std::uint32_t>(i);
  }
  const auto find = [&](std::uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (const graph::Channel& c : g_->channels()) {
    const std::uint32_t a = find(g_->sourceActor(c.id).index());
    const std::uint32_t b = find(g_->destActor(c.id).index());
    // Union by index keeps the root the lowest member, so component ids
    // come out ordered by their minimum actor.
    if (a < b) {
      parent[b] = a;
    } else if (b < a) {
      parent[a] = b;
    }
  }
  componentOf_.assign(n, 0);
  compMinActor_.clear();
  compSize_.clear();
  std::vector<std::uint32_t> compOfRoot(n, UINT32_MAX);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t root = find(static_cast<std::uint32_t>(i));
    if (compOfRoot[root] == UINT32_MAX) {
      compOfRoot[root] = static_cast<std::uint32_t>(compMinActor_.size());
      compMinActor_.push_back(root);
      compSize_.push_back(0);
    }
    componentOf_[i] = compOfRoot[root];
    ++compSize_[compOfRoot[root]];
  }
  componentsValid_ = true;
}

void AnalysisContext::sync() const {
  const std::uint64_t rev = g_->revision();
  if (rev == syncedRevision_) return;
  ++stats_.syncs;
  std::vector<Graph::Touch> touches;
  const bool tracked = g_->touchesSince(syncedRevision_, touches);
  g_->freeze();
  const std::uint64_t shapeRev = g_->shapeRevision();
  const std::size_t n = g_->actorCount();

  // Rate tables: the flat layout is keyed by shapeRevision, so tables
  // survive setExecTime / addChannel / addParam edits verbatim.
  if (shapeRev != syncedShapeRevision_) {
    stats_.rateTablesDropped += rateCache_.size();
    rateCache_.clear();
  } else {
    stats_.rateTablesKept += rateCache_.size();
  }

  if (!tracked) {
    // More edits than the graph's touch log retains: nothing can be
    // localized, drop every derived fact.
    ++stats_.fullRebuilds;
    repetitionComputed_ = false;
    livenessCache_.clear();
    componentsValid_ = false;
  } else {
    // Collect the actors whose component's balance system or initial
    // tokens an edit can have changed.  Param and ExecTime touches
    // affect neither repetition nor rates nor liveness.
    std::vector<std::uint32_t> dirtyActors;
    for (const Graph::Touch& t : touches) {
      switch (t.kind) {
        case Graph::Touch::Kind::Param:
        case Graph::Touch::Kind::ExecTime:
          break;
        case Graph::Touch::Kind::Actor:
        case Graph::Touch::Kind::Port:
          dirtyActors.push_back(t.index);
          break;
        case Graph::Touch::Kind::Channel: {
          const graph::Channel& c = g_->channel(ChannelId(t.index));
          dirtyActors.push_back(g_->port(c.src).actor.index());
          dirtyActors.push_back(g_->port(c.dst).actor.index());
          break;
        }
      }
    }

    if (!dirtyActors.empty()) {
      computeComponents();
      std::vector<char> dirtyComp(compMinActor_.size(), 0);
      for (const std::uint32_t a : dirtyActors) {
        dirtyComp[componentOf_[a]] = 1;
      }

      // Repetition: re-solve only the dirty components and splice their
      // entries over the cached vector; clean components' normalized
      // sub-vectors are exactly what a full solve would produce.
      if (repetitionComputed_) {
        if (!repetition_.consistent) {
          // Diagnostics of a fresh solve are position-dependent; always
          // regenerate them from scratch.
          ++stats_.fullRebuilds;
          repetitionComputed_ = false;
        } else {
          std::vector<char> mask(n, 0);
          std::size_t dirtyActorCount = 0;
          for (std::size_t i = 0; i < n; ++i) {
            if (dirtyComp[componentOf_[i]]) {
              mask[i] = 1;
              ++dirtyActorCount;
            }
          }
          csdf::RepetitionVector partial =
              csdf::computeRepetitionVector(*g_, mask);
          if (!partial.consistent) {
            // Fall back to the full solve so the diagnostic is the
            // canonical (first-failure-in-id-order) one.
            repetition_ = csdf::computeRepetitionVector(*g_);
          } else {
            repetition_.r.resize(n);
            repetition_.q.resize(n);
            for (std::size_t i = 0; i < n; ++i) {
              if (mask[i]) {
                repetition_.r[i] = std::move(partial.r[i]);
                repetition_.q[i] = std::move(partial.q[i]);
              }
            }
          }
          stats_.repetitionActorsResolved += dirtyActorCount;
          stats_.repetitionActorsReused += n - dirtyActorCount;
        }
      }

      // Liveness: keep only verdicts whose signature still names a
      // clean component of the new partition (merged or touched
      // components changed signature or are explicitly dirty).
      std::set<Signature> cleanSigs;
      for (std::size_t c = 0; c < compMinActor_.size(); ++c) {
        if (!dirtyComp[c]) cleanSigs.insert({compMinActor_[c], compSize_[c]});
      }
      for (auto& [key, byComp] : livenessCache_) {
        for (auto it = byComp.begin(); it != byComp.end();) {
          it = cleanSigs.count(it->first) ? std::next(it) : byComp.erase(it);
        }
      }
    }
  }

  syncedRevision_ = rev;
  syncedShapeRevision_ = shapeRev;
  syncedActorCount_ = n;
}

const csdf::RepetitionVector& AnalysisContext::repetition() const {
  sync();
  if (!repetitionComputed_) {
    repetition_ = csdf::computeRepetitionVector(*g_);
    repetitionComputed_ = true;
  }
  return repetition_;
}

const graph::EvaluatedRates& AnalysisContext::rates(
    const symbolic::Environment& env) const {
  sync();
  std::string key = cacheKey(env);
  const auto it = rateCache_.find(key);
  if (it != rateCache_.end()) return it->second;
  return rateCache_.emplace(std::move(key), graph::EvaluatedRates(*g_, env))
      .first->second;
}

bool AnalysisContext::live(const symbolic::Environment& env,
                           csdf::SchedulePolicy policy,
                           std::string* diagnostic) const {
  const csdf::RepetitionVector& rv = repetition();  // syncs
  if (!rv.consistent) {
    if (diagnostic != nullptr) {
      *diagnostic = "graph is not rate consistent: " + rv.diagnostic;
    }
    return false;
  }
  if (!componentsValid_) computeComponents();
  const std::size_t n = g_->actorCount();
  auto& byComp =
      livenessCache_[cacheKey(env) + '#' +
                     std::to_string(static_cast<int>(policy))];
  bool allLive = true;
  for (std::size_t c = 0; c < compMinActor_.size(); ++c) {
    const Signature sig{compMinActor_[c], compSize_[c]};
    auto it = byComp.find(sig);
    if (it == byComp.end()) {
      std::vector<char> mask(n, 0);
      for (std::size_t i = 0; i < n; ++i) {
        if (componentOf_[i] == c) mask[i] = 1;
      }
      it = byComp
               .emplace(sig, csdf::findSchedule(*g_, rv, env, policy,
                                                &rates(env), nullptr, mask))
               .first;
      ++stats_.livenessComponentsComputed;
    } else {
      ++stats_.livenessComponentsReused;
    }
    if (allLive && !it->second.live) {
      allLive = false;
      if (diagnostic != nullptr) *diagnostic = it->second.diagnostic;
    }
  }
  return allLive;
}

std::size_t AnalysisContext::componentCount() const {
  sync();
  if (!componentsValid_) computeComponents();
  return compMinActor_.size();
}

std::uint32_t AnalysisContext::componentOf(ActorId a) const {
  sync();
  if (!componentsValid_) computeComponents();
  return componentOf_[a.index()];
}

}  // namespace tpdf::core
