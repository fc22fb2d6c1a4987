#include "graph/graph.hpp"

#include <algorithm>
#include <cmath>

#include "support/checked.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace tpdf::graph {

std::string toString(PortKind k) {
  switch (k) {
    case PortKind::DataIn:
      return "in";
    case PortKind::DataOut:
      return "out";
    case PortKind::ControlIn:
      return "ctl_in";
    case PortKind::ControlOut:
      return "ctl_out";
  }
  return "?";
}

std::string toString(ActorKind k) {
  return k == ActorKind::Kernel ? "kernel" : "control";
}

Graph::Graph(const Graph& o)
    : name_(o.name_),
      actors_(o.actors_),
      ports_(o.ports_),
      channels_(o.channels_),
      params_(o.params_),
      actorIndex_(o.actorIndex_),
      channelIndex_(o.channelIndex_) {
  rehome();
}

Graph& Graph::operator=(const Graph& o) {
  if (this == &o) return *this;
  Graph copy(o);
  *this = std::move(copy);
  return *this;
}

// The element vectors were copied verbatim, so every Name and rate
// pointer still refers to the *source* graph: copy each into this graph's
// own pool and store.  The name indices hold (hash, id) slots, not views,
// so the copied ones stay valid.
void Graph::rehome() {
  for (Actor& a : actors_) a.name = copyName(a.name);
  for (Port& p : ports_) {
    p.name = intern(p.name);
    p.rates_ = storeRates(*p.rates_);
  }
  for (Channel& c : channels_) c.name = copyName(c.name);
}

const RateSeq* Graph::storeRates(RateSeq rates) {
  if (rates.length() == 1 && rates.at(0).isConstant()) {
    const support::Rational v = rates.at(0).constant();
    if (v.isInteger() && v.num() >= 0 &&
        v.num() < static_cast<std::int64_t>(kSharedRates)) {
      const RateSeq*& shared =
          sharedRates_[static_cast<std::size_t>(v.num())];
      if (shared == nullptr) {
        shared = &rateStore_.emplace_back(std::move(rates));
      }
      return shared;
    }
  }
  return &rateStore_.emplace_back(std::move(rates));
}

void Graph::NameIndex::insert(std::uint32_t h, std::uint32_t index) {
  const auto place = [this](std::uint64_t slot) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = (slot >> 32) & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = slot;
  };
  if (2 * (size_ + 1) > slots_.size()) {
    std::vector<std::uint64_t> old(
        std::max<std::size_t>(16, 2 * slots_.size()));
    old.swap(slots_);
    for (const std::uint64_t slot : old) {
      if (slot != 0) place(slot);
    }
  }
  place(std::uint64_t{h} << 32 | (std::uint64_t{index} + 1));
  ++size_;
}

void Graph::requireUnsealed(const char* op) const {
  if (sealed_) {
    throw support::Error(std::string(op) + " on sealed graph '" + name_ +
                         "': a graph is read-only once frozen");
  }
}

void Graph::addParam(const std::string& name) {
  requireUnsealed("addParam");
  if (name.empty()) {
    throw support::ModelError("parameter name must not be empty");
  }
  if (hasParam(name)) {
    throw support::ModelError("duplicate parameter name '" + name + "'");
  }
  if (findActor(name)) {
    throw support::ModelError("parameter '" + name +
                              "' collides with an actor of the same name");
  }
  params_.insert(std::lower_bound(params_.begin(), params_.end(), name),
                 name);
}

bool Graph::hasParam(std::string_view name) const {
  return std::binary_search(params_.begin(), params_.end(), name,
                            [](const auto& a, const auto& b) {
                              return std::string_view(a) <
                                     std::string_view(b);
                            });
}

ActorId Graph::addActor(const std::string& name, ActorKind kind) {
  requireUnsealed("addActor");
  const std::uint32_t h = NameIndex::hash(name);
  if (actorIndex_.find(name, h, actors_)) {
    throw support::ModelError("duplicate actor name '" + name + "'");
  }
  if (hasParam(name)) {
    throw support::ModelError("actor '" + name +
                              "' collides with a parameter of the same name");
  }
  const ActorId id(static_cast<std::uint32_t>(actors_.size()));
  Actor a;
  a.id = id;
  a.name = copyName(name);
  a.kind = kind;
  actors_.push_back(std::move(a));
  actorIndex_.insert(h, id.value);
  return id;
}

PortId Graph::addPort(ActorId actor, const std::string& name, PortKind kind,
                      RateSeq rates, int priority) {
  requireUnsealed("addPort");
  if (!actor.valid() || actor.index() >= actors_.size()) {
    throw support::ModelError("addPort on unknown actor");
  }
  for (PortId p : actors_[actor.index()].ports) {
    if (ports_[p.index()].name == name) {
      throw support::ModelError("duplicate port name '" + name +
                                "' on actor '" +
                                actors_[actor.index()].name + "'");
    }
  }
  const PortId id(static_cast<std::uint32_t>(ports_.size()));
  Port p;
  p.id = id;
  p.actor = actor;
  p.name = intern(name);
  p.kind = kind;
  p.rates_ = storeRates(std::move(rates));
  p.priority = priority;
  ports_.push_back(std::move(p));
  actors_[actor.index()].ports.push_back(id);
  return id;
}

ChannelId Graph::addChannel(const std::string& name, PortId src, PortId dst,
                            std::int64_t initialTokens) {
  requireUnsealed("addChannel");
  const std::uint32_t h = NameIndex::hash(name);
  if (channelIndex_.find(name, h, channels_)) {
    throw support::ModelError("duplicate channel name '" + name + "'");
  }
  if (!src.valid() || src.index() >= ports_.size() || !dst.valid() ||
      dst.index() >= ports_.size()) {
    throw support::ModelError("channel '" + name + "' uses an unknown port");
  }
  if (initialTokens < 0) {
    throw support::ModelError("channel '" + name +
                              "' has negative initial tokens");
  }
  const ChannelId id(static_cast<std::uint32_t>(channels_.size()));
  Channel c;
  c.id = id;
  c.name = copyName(name);
  c.src = src;
  c.dst = dst;
  c.initialTokens = initialTokens;
  channels_.push_back(std::move(c));
  channelIndex_.insert(h, id.value);
  ports_[src.index()].channel = id;
  ports_[dst.index()].channel = id;
  return id;
}

void Graph::setExecTime(ActorId actor, std::span<const double> perPhase) {
  requireUnsealed("setExecTime");
  if (perPhase.empty()) {
    throw support::ModelError("execution time vector must be non-empty");
  }
  Actor& a = actors_.at(actor.index());
  for (const double v : perPhase) {
    if (!std::isfinite(v) || v < 0) {
      throw support::ModelError("actor '" + a.name + "' has execution time " +
                                support::formatDouble(v) +
                                "; times must be finite and non-negative");
    }
  }
  a.execTime.clear();
  a.execTime.reserve(perPhase.size());
  for (double v : perPhase) a.execTime.push_back(v);
}

std::optional<ActorId> Graph::findActor(std::string_view name) const {
  return actorIndex_.find(name, NameIndex::hash(name), actors_);
}

std::optional<ChannelId> Graph::findChannel(std::string_view name) const {
  return channelIndex_.find(name, NameIndex::hash(name), channels_);
}

std::optional<PortId> Graph::findPort(std::string_view qualifiedName) const {
  const auto dot = qualifiedName.find('.');
  if (dot == std::string_view::npos) return std::nullopt;
  return findPort(qualifiedName.substr(0, dot), qualifiedName.substr(dot + 1));
}

std::optional<PortId> Graph::findPort(std::string_view actor,
                                      std::string_view port) const {
  const auto a = findActor(actor);
  if (!a) return std::nullopt;
  for (PortId p : actors_[a->index()].ports) {
    if (ports_[p.index()].name == port) return p;
  }
  return std::nullopt;
}

void Graph::build() const {
  const std::size_t nActors = actors_.size();
  const std::size_t nPorts = ports_.size();
  const std::size_t nChannels = channels_.size();

  auto* outOffset = frozenArena_.allocateArray<std::uint32_t>(nActors + 1);
  auto* inOffset = frozenArena_.allocateArray<std::uint32_t>(nActors + 1);
  auto* tau = frozenArena_.allocateArray<std::int64_t>(nActors);
  auto* srcActor = frozenArena_.allocateArray<ActorId>(nChannels);
  auto* dstActor = frozenArena_.allocateArray<ActorId>(nChannels);
  auto* effective = frozenArena_.allocateArray<const RateSeq*>(nPorts);
  auto* rateOffset = frozenArena_.allocateArray<std::uint32_t>(nPorts);

  // Per-actor phase counts: the LCM of the port sequence lengths.
  for (const Actor& a : actors_) {
    std::int64_t t = 1;
    for (PortId pid : a.ports) {
      t = support::lcm64(
          t, static_cast<std::int64_t>(ports_[pid.index()].rates().length()));
    }
    tau[a.id.index()] = t;
  }

  // CSR adjacency: count per actor, prefix-sum, then fill with cursors.
  // Walking each actor's port list in order fixes the channel order the
  // pre-CSR Graph::outChannels / Graph::inChannels returned.
  for (std::size_t i = 0; i <= nActors; ++i) outOffset[i] = inOffset[i] = 0;
  for (const Actor& a : actors_) {
    for (PortId pid : a.ports) {
      const Port& pt = ports_[pid.index()];
      if (!pt.channel.valid()) continue;
      ++(isInput(pt.kind) ? inOffset : outOffset)[a.id.index() + 1];
    }
  }
  for (std::size_t i = 0; i < nActors; ++i) {
    outOffset[i + 1] += outOffset[i];
    inOffset[i + 1] += inOffset[i];
  }
  auto* outAdj = frozenArena_.allocateArray<ChannelId>(outOffset[nActors]);
  auto* inAdj = frozenArena_.allocateArray<ChannelId>(inOffset[nActors]);
  auto* outCursor = frozenArena_.allocateArray<std::uint32_t>(nActors);
  auto* inCursor = frozenArena_.allocateArray<std::uint32_t>(nActors);
  for (std::size_t i = 0; i < nActors; ++i) {
    outCursor[i] = outOffset[i];
    inCursor[i] = inOffset[i];
  }
  for (const Actor& a : actors_) {
    for (PortId pid : a.ports) {
      const Port& pt = ports_[pid.index()];
      if (!pt.channel.valid()) continue;
      if (isInput(pt.kind)) {
        inAdj[inCursor[a.id.index()]++] = pt.channel;
      } else {
        outAdj[outCursor[a.id.index()]++] = pt.channel;
      }
    }
  }

  // Channel endpoint actors.
  for (const Channel& c : channels_) {
    srcActor[c.id.index()] = ports_[c.src.index()].actor;
    dstActor[c.id.index()] = ports_[c.dst.index()].actor;
  }

  // Cyclically-extended rate tables, plus the flat offsets
  // EvaluatedRates tables share.  No symbolic arithmetic happens here:
  // a freeze is purely structural.
  std::size_t offset = 0;
  for (const Port& pt : ports_) {
    const std::int64_t t = tau[pt.actor.index()];
    if (static_cast<std::int64_t>(pt.rates().length()) == t) {
      effective[pt.id.index()] = pt.rates_;
    } else {
      std::vector<symbolic::Expr> entries;
      entries.reserve(static_cast<std::size_t>(t));
      for (std::int64_t i = 0; i < t; ++i) {
        entries.push_back(pt.rates().at(i));
      }
      effective[pt.id.index()] =
          &extendedStore_.emplace_back(std::move(entries));
    }
    rateOffset[pt.id.index()] = static_cast<std::uint32_t>(offset);
    offset += static_cast<std::size_t>(t);
  }

  frozen_.outOffset = {outOffset, nActors + 1};
  frozen_.inOffset = {inOffset, nActors + 1};
  frozen_.outAdj = {outAdj, outOffset[nActors]};
  frozen_.inAdj = {inAdj, inOffset[nActors]};
  frozen_.tau = {tau, nActors};
  frozen_.srcActor = {srcActor, nChannels};
  frozen_.dstActor = {dstActor, nChannels};
  frozen_.effective = {effective, nPorts};
  frozen_.rateOffset = {rateOffset, nPorts};
  frozen_.rateTableSize = offset;
  sealed_ = true;
}

}  // namespace tpdf::graph
