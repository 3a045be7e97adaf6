#include "sim/network.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/check.hpp"
#include "util/quad_heap.hpp"

namespace rmrn::sim {

SimNetwork::SimNetwork(Simulator& simulator, const net::Topology& topology,
                       const net::Routing& routing, double loss_prob,
                       util::Rng rng)
    : SimNetwork(simulator, topology, routing, loss_prob, lossSeedOf(rng),
                 rng) {}

// rmrn-lint: init-phase
SimNetwork::SimNetwork(Simulator& simulator, const net::Topology& topology,
                       const net::Routing& routing, double loss_prob,
                       std::uint64_t loss_seed, util::Rng rng)
    : simulator_(simulator),
      topology_(topology),
      routing_(routing),
      loss_prob_(loss_prob),
      loss_seed_(loss_seed),
      chaos_rng_(rng.fork(0x51c4a05u)) {
  if (loss_prob_ < 0.0 || loss_prob_ >= 1.0) {
    throw std::invalid_argument("SimNetwork: loss_prob must be in [0, 1)");
  }
  loss_threshold_ = lossThreshold(loss_prob_);
  const std::size_t n = topology_.graph.numNodes();
  sends_.assign(n, 0);
  is_agent_.assign(n, false);
  is_agent_[topology_.source] = true;
  for (const net::NodeId c : topology_.clients) is_agent_[c] = true;
  agent_fault_.assign(n, AgentFault::kNone);
  agent_slow_extra_ms_.assign(n, 0.0);
  deliveries_by_type_.assign(n * 4, 0);

  // Precompute loss-free arrival delays down the tree (preorder guarantees
  // parents are computed before children).
  const auto& tree = topology_.tree;
  arrival_delay_.assign(tree.numMembers(), 0.0);
  for (const net::NodeId v : tree.members()) {
    if (v == tree.root()) continue;
    arrival_delay_[tree.memberIndex(v)] =
        arrival_delay_[tree.memberIndex(tree.parent(v))] + treeLinkDelay(v);
  }

  // CSR edge index with deterministic undirected edge ids: rows hold each
  // node's neighbors ascending; ids are assigned scanning rows in node order
  // and numbering each edge at its min-endpoint row, then mirrored into the
  // max-endpoint row by binary search.
  edge_offset_.assign(n + 1, 0);
  for (net::NodeId v = 0; v < n; ++v) {
    edge_offset_[v + 1] =
        edge_offset_[v] + static_cast<std::uint32_t>(topology_.graph.degree(v));
  }
  edge_peer_.resize(edge_offset_[n]);
  edge_id_.assign(edge_offset_[n], 0);
  for (net::NodeId v = 0; v < n; ++v) {
    auto* row = edge_peer_.data() + edge_offset_[v];
    std::size_t i = 0;
    for (const net::HalfEdge& half : topology_.graph.neighbors(v)) {
      row[i++] = half.to;
    }
    std::sort(row, row + i);
  }
  std::uint32_t next_edge = 0;
  edge_delay_.assign(edge_offset_[n], 0.0);
  for (net::NodeId v = 0; v < n; ++v) {
    for (std::uint32_t i = edge_offset_[v]; i < edge_offset_[v + 1]; ++i) {
      const net::NodeId w = edge_peer_[i];
      if (w > v) {
        edge_id_[i] = next_edge++;
      } else {
        edge_id_[i] = edge_id_[edgeSlot(w, v)];  // mirror from w's row
      }
      // NOLINTNEXTLINE(bugprone-unchecked-optional-access): w comes from
      // v's own adjacency row, so the edge (and its delay) must exist.
      edge_delay_[i] = *topology_.graph.edgeDelay(v, w);
    }
  }
  RMRN_ENSURE(next_edge == topology_.graph.numEdges(),
              "CSR edge index count mismatch");
  link_load_.assign(next_edge, 0);
  link_down_.assign(next_edge, 0);
  link_dup_prob_.assign(next_edge, 0.0);
  link_jitter_ms_.assign(next_edge, 0.0);

  tree_slot_.assign(tree.numMembers(), kNilSlot);
  for (const net::NodeId v : tree.members()) {
    if (v == tree.root()) continue;
    tree_slot_[tree.memberIndex(v)] = edgeSlot(tree.parent(v), v);
  }

  up_link_.assign(n, TreeLink{0.0, kNilSlot, net::kInvalidNode});
  down_offset_.assign(n + 1, 0);
  for (const net::NodeId v : tree.members()) {
    if (v != tree.root()) {
      const std::uint32_t slot = tree_slot_[tree.memberIndex(v)];
      up_link_[v] = TreeLink{edge_delay_[slot], slot, tree.parent(v)};
    }
    down_offset_[v + 1] = static_cast<std::uint32_t>(tree.children(v).size());
  }
  for (std::size_t v = 0; v < n; ++v) down_offset_[v + 1] += down_offset_[v];
  down_link_.resize(down_offset_[n]);
  for (const net::NodeId v : tree.members()) {
    std::uint32_t i = down_offset_[v];
    for (const net::NodeId child : tree.children(v)) {
      const TreeLink& up = up_link_[child];  // the same link, seen from above
      down_link_[i++] = TreeLink{up.delay, up.slot, child};
    }
  }
}

std::uint32_t SimNetwork::edgeSlot(net::NodeId a, net::NodeId b) const {
  const auto* begin = edge_peer_.data() + edge_offset_[a];
  const auto* end = edge_peer_.data() + edge_offset_[a + 1];
  const auto* it = std::lower_bound(begin, end, b);
  if (it == end || *it != b) {
    throw std::invalid_argument("SimNetwork: no edge " + std::to_string(a) +
                                " -- " + std::to_string(b));
  }
  return static_cast<std::uint32_t>(it - edge_peer_.data());
}

void SimNetwork::setDeliveryHandler(DeliveryHandler handler) {
  handler_ = std::move(handler);
}

// rmrn-lint: init-phase
void SimNetwork::enableShardMode(const RegionMap& regions,
                                 std::uint32_t my_region,
                                 std::vector<RoutedHandoff>* outbox) {
  if (my_region >= regions.numRegions()) {
    throw std::invalid_argument("SimNetwork: shard region out of range");
  }
  if (outbox == nullptr) {
    throw std::invalid_argument("SimNetwork: shard mode needs an outbox");
  }
  regions_ = &regions;
  my_region_ = my_region;
  outbox_ = outbox;
  // Shard mode never takes the closed form, so a region's replica drops the
  // closed form's tables (there is one replica per region).
  std::vector<TreeLink>().swap(up_link_);
  std::vector<std::uint32_t>().swap(down_offset_);
  std::vector<TreeLink>().swap(down_link_);
}

// rmrn-lint: init-phase
std::uint32_t SimNetwork::stageLossPattern(const LinkLossPattern& loss) {
  if (loss.size() != topology_.tree.numMembers()) {
    throw std::invalid_argument(
        "SimNetwork: staged loss pattern size mismatch");
  }
  // The pin ref from acquirePattern is never released, so staged slots are
  // stable for the whole run.  Staging happens before any traffic, so the
  // free list is empty and ids come out 0..N-1 in every region alike.
  const std::uint32_t pattern = acquirePattern(loss);
  staged_by_seq_.push_back(pattern);
  return pattern;
}

void SimNetwork::handOff(std::uint32_t slot, net::NodeId from, net::NodeId to,
                         ShardHandoff handoff) {
  const std::uint32_t dst = regions_->regionOf(to);
  handoff.at = simulator_.now() + chaosDelay(slot);
  ++handoffs_out_;
  // rmrn-lint: allow(HOT-1) the outbox keeps its high-water capacity
  outbox_->push_back(RoutedHandoff{dst, handoff});
  if (!chaosDuplicates(slot)) return;
  ++stats_.duplicates_created;
  countHopSlot(handoff.packet, slot);
  handoff.key = copyKey(handoff.key, from);
  handoff.at = simulator_.now() + chaosDelay(slot);
  ++handoffs_out_;
  // rmrn-lint: allow(HOT-1) the outbox keeps its high-water capacity
  outbox_->push_back(RoutedHandoff{dst, handoff});
}

void SimNetwork::injectHandoff(const ShardHandoff& handoff) {
  switch (handoff.kind) {
    case EventKind::kForwardHop: {
      // Rebuild the route from the shared (immutable) routing tables: the
      // sender's path arena never crosses threads.
      const std::uint32_t path = acquirePath();
      routing_.pathInto(handoff.ufrom, handoff.uto, paths_[path]);
      RMRN_REQUIRE(handoff.hop + 1 < paths_[path].size(),
                   "SimNetwork: handoff hop beyond route");
      EventRecord record{EventKind::kForwardHop, {}};
      record.data.forward =
          ForwardHopEvent{path, handoff.hop, handoff.key, handoff.packet};
      simulator_.scheduleEventAt(handoff.at, this, record);
      return;
    }
    case EventKind::kFloodStep: {
      // Mirror sendAcross's reference: onFloodStep releases it after firing.
      if (isPatternKey(handoff.key)) patternAddRef(patternOf(handoff.key));
      EventRecord record{EventKind::kFloodStep, {}};
      record.data.flood =
          FloodStepEvent{handoff.next, handoff.came_from, handoff.boundary,
                         handoff.down_only, handoff.key, handoff.packet};
      simulator_.scheduleEventAt(handoff.at, this, record);
      return;
    }
    case EventKind::kDeliver:
    case EventKind::kFloodCursor:
    case EventKind::kTimer:
      break;
  }
  throw std::logic_error("SimNetwork: unexpected handoff kind");
}

void SimNetwork::setTraceSink(TraceSink sink) { trace_sink_ = std::move(sink); }

void SimNetwork::setAgentFault(net::NodeId agent, AgentFault fault,
                               double slow_extra_ms) {
  if (agent >= is_agent_.size() || !is_agent_[agent]) {
    throw std::invalid_argument("SimNetwork: not an agent");
  }
  if (slow_extra_ms < 0.0) {
    throw std::invalid_argument("SimNetwork: negative slow_extra_ms");
  }
  agent_fault_[agent] = fault;
  agent_slow_extra_ms_[agent] =
      fault == AgentFault::kSlowed ? slow_extra_ms : 0.0;
}

AgentFault SimNetwork::agentFault(net::NodeId agent) const {
  return agent < agent_fault_.size() ? agent_fault_[agent] : AgentFault::kNone;
}

void SimNetwork::setAgentFailed(net::NodeId agent, bool failed) {
  setAgentFault(agent, failed ? AgentFault::kCrashed : AgentFault::kNone);
}

bool SimNetwork::isAgentFailed(net::NodeId agent) const {
  return agentFault(agent) == AgentFault::kCrashed;
}

void SimNetwork::enableChaos() { chaos_active_ = true; }

void SimNetwork::setLinkState(net::NodeId a, net::NodeId b, bool up) {
  enableChaos();
  link_down_[edge_id_[edgeSlot(a, b)]] = up ? 0 : 1;
}

bool SimNetwork::isLinkUp(net::NodeId a, net::NodeId b) const {
  return link_down_[edge_id_[edgeSlot(a, b)]] == 0;
}

void SimNetwork::setLinkDuplicationProb(net::NodeId a, net::NodeId b,
                                        double prob) {
  if (prob < 0.0 || prob >= 1.0) {
    throw std::invalid_argument(
        "SimNetwork: duplication prob must be in [0, 1)");
  }
  enableChaos();
  link_dup_prob_[edge_id_[edgeSlot(a, b)]] = prob;
}

void SimNetwork::setAllLinksDuplicationProb(double prob) {
  if (prob < 0.0 || prob >= 1.0) {
    throw std::invalid_argument(
        "SimNetwork: duplication prob must be in [0, 1)");
  }
  enableChaos();
  std::fill(link_dup_prob_.begin(), link_dup_prob_.end(), prob);
}

void SimNetwork::setLinkJitterMs(net::NodeId a, net::NodeId b,
                                 double jitter_ms) {
  if (jitter_ms < 0.0) {
    throw std::invalid_argument("SimNetwork: negative jitter");
  }
  enableChaos();
  link_jitter_ms_[edge_id_[edgeSlot(a, b)]] = jitter_ms;
}

void SimNetwork::setAllLinksJitterMs(double jitter_ms) {
  if (jitter_ms < 0.0) {
    throw std::invalid_argument("SimNetwork: negative jitter");
  }
  enableChaos();
  std::fill(link_jitter_ms_.begin(), link_jitter_ms_.end(), jitter_ms);
}

bool SimNetwork::reachableFromSource(net::NodeId v) const {
  if (v == topology_.source) return true;
  if (!chaos_active_) return true;  // links never fail outside chaos mode
  // Static unicast route (requests up, repairs back down the same path).
  std::vector<net::NodeId> route;
  routing_.pathInto(topology_.source, v, route);
  for (std::size_t i = 0; i + 1 < route.size(); ++i) {
    if (link_down_[edge_id_[edgeSlot(route[i], route[i + 1])]] != 0) {
      return false;
    }
  }
  // Tree root path: repair/data multicasts reach v through its ancestors.
  const auto& tree = topology_.tree;
  if (tree.contains(v)) {
    for (net::NodeId u = v; u != tree.root(); u = tree.parent(u)) {
      if (link_down_[edge_id_[tree_slot_[tree.memberIndex(u)]]] != 0) {
        return false;
      }
    }
  }
  return true;
}

net::DelayMs SimNetwork::chaosDelay(std::uint32_t slot) {
  net::DelayMs delay = edge_delay_[slot];
  if (chaos_active_) {
    const double jitter = link_jitter_ms_[edge_id_[slot]];
    if (jitter > 0.0) delay += chaos_rng_.uniformReal(0.0, jitter);
  }
  return delay;
}

bool SimNetwork::chaosDropped(std::uint32_t slot, net::NodeId from,
                              net::NodeId to, const Packet& packet) {
  if (!chaos_active_ || link_down_[edge_id_[slot]] == 0) return false;
  ++stats_.packets_lost;
  ++stats_.chaos_link_drops;
  trace(TraceEvent::Kind::kHopDrop, from, to, packet);
  return true;
}

bool SimNetwork::chaosDuplicates(std::uint32_t slot) {
  if (!chaos_active_) return false;
  const double prob = link_dup_prob_[edge_id_[slot]];
  return prob > 0.0 && chaos_rng_.bernoulli(prob);
}

SendKey SimNetwork::nextKey(net::NodeId sender) {
  return sendKey(sender, sends_[sender]++);
}

SendKey SimNetwork::copyKey(SendKey key, net::NodeId at) {
  return isPatternKey(key) ? key : nextKey(at);
}

bool SimNetwork::lostOn(std::uint64_t send_hash, std::uint32_t slot) const {
  return loss_threshold_ != 0 && linkDraw(send_hash, slot) < loss_threshold_;
}

void SimNetwork::trace(TraceEvent::Kind kind, net::NodeId from,
                       net::NodeId to, const Packet& packet) {
  if (trace_sink_) {
    trace_sink_(TraceEvent{simulator_.now(), kind, from, to, packet});
  }
}

net::DelayMs SimNetwork::treeLinkDelay(net::NodeId child) const {
  const net::NodeId parent = topology_.tree.parent(child);
  const auto delay = topology_.graph.edgeDelay(parent, child);
  if (!delay) {
    throw std::logic_error("SimNetwork: tree link " + std::to_string(parent) +
                           "->" + std::to_string(child) +
                           " missing from graph");
  }
  return *delay;
}

net::DelayMs SimNetwork::treeArrivalDelay(net::NodeId v) const {
  return arrival_delay_[topology_.tree.memberIndex(v)];
}

void SimNetwork::countHopSlot(const Packet& packet, std::uint32_t slot) {
  if (packet.type == Packet::Type::kData) {
    ++stats_.data_hops;
    return;
  }
  ++stats_.recovery_hops;
  if (link_accounting_) {
    ++link_load_[edge_id_[slot]];
  }
}

void SimNetwork::resetStats() {
  stats_ = {};
  std::fill(deliveries_by_type_.begin(), deliveries_by_type_.end(), 0);
  std::fill(link_load_.begin(), link_load_.end(), 0);
}

std::uint64_t SimNetwork::deliveriesAt(net::NodeId v,
                                       Packet::Type type) const {
  const std::size_t index =
      static_cast<std::size_t>(v) * 4 + static_cast<std::size_t>(type);
  return index < deliveries_by_type_.size() ? deliveries_by_type_[index] : 0;
}

void SimNetwork::enableLinkAccounting(bool enabled) {
  link_accounting_ = enabled;
}

std::uint64_t SimNetwork::recoveryLinkLoad(net::NodeId a, net::NodeId b) const {
  return link_load_[edge_id_[edgeSlot(a, b)]];
}

std::uint64_t SimNetwork::totalRecoveryLinkLoad() const {
  std::uint64_t total = 0;
  for (const std::uint64_t count : link_load_) total += count;
  return total;
}

std::uint64_t SimNetwork::maxRecoveryLinkLoad() const {
  std::uint64_t best = 0;
  for (const std::uint64_t count : link_load_) best = std::max(best, count);
  return best;
}

std::uint32_t SimNetwork::acquirePath() {
  if (!free_paths_.empty()) {
    const std::uint32_t path = free_paths_.back();
    free_paths_.pop_back();
    path_refs_[path] = 1;
    return path;
  }
  // rmrn-lint: allow(HOT-1) arena warm-up: grows once per high-water mark, then slots recycle
  paths_.emplace_back();
  // A simple route visits at most every node; reserving up front means no
  // route written into this slot ever reallocates.
  // rmrn-lint: allow(HOT-1) arena warm-up: grows once per high-water mark, then slots recycle
  paths_.back().reserve(topology_.graph.numNodes());
  // rmrn-lint: allow(HOT-1) arena warm-up: grows once per high-water mark, then slots recycle
  path_refs_.push_back(1);
  return static_cast<std::uint32_t>(paths_.size() - 1);
}

void SimNetwork::pathAddRef(std::uint32_t path) { ++path_refs_[path]; }

void SimNetwork::releasePath(std::uint32_t path) {
  RMRN_REQUIRE(path_refs_[path] > 0, "path arena refcount underflow");
  if (--path_refs_[path] == 0) {
    // rmrn-lint: allow(HOT-1) free list reuses retained capacity; alloc_tests pin the zero-allocation data plane
    free_paths_.push_back(path);  // the slot keeps its capacity for reuse
  }
}

std::uint32_t SimNetwork::acquirePattern(const LinkLossPattern& loss) {
  std::uint32_t pattern;
  if (!free_patterns_.empty()) {
    pattern = free_patterns_.back();
    free_patterns_.pop_back();
    // rmrn-lint: allow(HOT-1) recycled slot assign reuses retained capacity
    patterns_[pattern].assign(loss.begin(), loss.end());
  } else {
    pattern = static_cast<std::uint32_t>(patterns_.size());
    // rmrn-lint: allow(HOT-1) arena warm-up: grows once per high-water mark, then slots recycle
    patterns_.push_back(loss);
    // rmrn-lint: allow(HOT-1) arena warm-up: grows once per high-water mark, then slots recycle
    pattern_refs_.push_back(0);
  }
  pattern_refs_[pattern] = 1;
  return pattern;
}

void SimNetwork::patternAddRef(std::uint32_t pattern) {
  ++pattern_refs_[pattern];
}

void SimNetwork::patternRelease(std::uint32_t pattern) {
  RMRN_REQUIRE(pattern_refs_[pattern] > 0, "pattern arena refcount underflow");
  // rmrn-lint: allow(HOT-1) free list reuses retained capacity; alloc_tests pin the zero-allocation data plane
  if (--pattern_refs_[pattern] == 0) free_patterns_.push_back(pattern);
}

void SimNetwork::onEvent(const EventRecord& event) {
  switch (event.kind) {
    case EventKind::kDeliver:
      if (event.data.deliver.direct) {
        deliverNow(event.data.deliver.at, event.data.deliver.packet);
      } else {
        deliver(event.data.deliver.at, event.data.deliver.packet);
      }
      return;
    case EventKind::kForwardHop:
      onForwardHop(event.data.forward);
      return;
    case EventKind::kFloodStep:
      onFloodStep(event.data.flood);
      return;
    case EventKind::kFloodCursor:
      onFloodCursor(event.data.cursor);
      return;
    case EventKind::kTimer:
      break;
  }
  throw std::logic_error("SimNetwork: unexpected event kind");
}

void SimNetwork::deliver(net::NodeId at, const Packet& packet) {
  if (!is_agent_[at] || !handler_) return;
  switch (agent_fault_[at]) {
    case AgentFault::kCrashed:
      return;  // fail-stop: nothing is processed
    case AgentFault::kStalled:
      // A stalled peer keeps its state but never answers a recovery plea.
      if (packet.type == Packet::Type::kRequest) return;
      break;
    case AgentFault::kSlowed:
      if (packet.type == Packet::Type::kRequest &&
          agent_slow_extra_ms_[at] > 0.0) {
        EventRecord slowed{EventKind::kDeliver, {}};
        slowed.data.deliver = DeliverEvent{at, /*direct=*/true, packet};
        simulator_.scheduleEventAfter(agent_slow_extra_ms_[at], this, slowed);
        return;
      }
      break;
    case AgentFault::kNone:
      break;
  }
  deliverNow(at, packet);
}

void SimNetwork::deliverNow(net::NodeId at, const Packet& packet) {
  // Re-check the crash state: the agent may have crashed while a slowed
  // delivery was in flight.
  if (!handler_ || agent_fault_[at] == AgentFault::kCrashed) return;
  ++stats_.deliveries;
  const std::size_t index =
      static_cast<std::size_t>(at) * 4 + static_cast<std::size_t>(packet.type);
  ++deliveries_by_type_[index];
  trace(TraceEvent::Kind::kDeliver, net::kInvalidNode, at, packet);
  handler_(at, packet);
}

void SimNetwork::unicast(net::NodeId from, net::NodeId to, Packet packet) {
  ++stats_.packets_sent;
  if (from == to) {
    EventRecord self{EventKind::kDeliver, {}};
    self.data.deliver = DeliverEvent{to, /*direct=*/false, packet};
    simulator_.scheduleEventAfter(0.0, this, self);
    return;
  }
  const std::uint32_t path = acquirePath();
  routing_.pathInto(from, to, paths_[path]);
  if (paths_[path].size() < 2) {
    releasePath(path);
    throw std::invalid_argument("SimNetwork::unicast: no route " +
                                std::to_string(from) + " -> " +
                                std::to_string(to));
  }
  const SendKey key = nextKey(from);
  if (closedForm()) {
    unicastClosedForm(path, key, packet);
    return;
  }
  sendHop(path, 0, key, packet);
}

void SimNetwork::unicastClosedForm(std::uint32_t path, SendKey key,
                                   const Packet& packet) {
  const std::vector<net::NodeId>& route = paths_[path];
  const std::uint64_t send_hash = sendHash(loss_seed_, key);
  // Fold the arrival hop by hop, as the per-hop events would advance the
  // clock: (t + d1) + d2 is not always t + (d1 + d2).
  TimeMs at = simulator_.now();
  for (std::size_t hop = 0; hop + 1 < route.size(); ++hop) {
    const std::uint32_t slot = edgeSlot(route[hop], route[hop + 1]);
    countHopSlot(packet, slot);
    if (lostOn(send_hash, slot)) {
      ++stats_.packets_lost;
      releasePath(path);
      return;
    }
    at += edge_delay_[slot];
  }
  EventRecord record{EventKind::kDeliver, {}};
  record.data.deliver = DeliverEvent{route.back(), /*direct=*/false, packet};
  releasePath(path);
  simulator_.scheduleEventAt(at, this, record);
}

void SimNetwork::sendHop(std::uint32_t path, std::uint32_t hop, SendKey key,
                         const Packet& packet) {
  const std::vector<net::NodeId>& route = paths_[path];
  const net::NodeId a = route[hop];
  const net::NodeId b = route[hop + 1];
  // One CSR search serves the hop count, accounting id, and delay (and
  // doubles as the routing-uses-real-edges check: edgeSlot throws if not).
  const std::uint32_t slot = edgeSlot(a, b);
  countHopSlot(packet, slot);
  trace(TraceEvent::Kind::kHopSend, a, b, packet);
  if (chaosDropped(slot, a, b, packet)) {
    releasePath(path);
    return;
  }
  if (lostOn(sendHash(loss_seed_, key), slot)) {
    ++stats_.packets_lost;
    trace(TraceEvent::Kind::kHopDrop, a, b, packet);
    releasePath(path);
    return;
  }
  if (!isShardLocal(b)) {
    // The hop survived this region's loss/chaos draws; hand the in-flight
    // packet to b's region, which resumes the route at the same hop index.
    ShardHandoff handoff;
    handoff.kind = EventKind::kForwardHop;
    handoff.packet = packet;
    handoff.key = key;
    handoff.ufrom = route.front();
    handoff.uto = route.back();
    handoff.hop = hop;
    handOff(slot, a, b, handoff);
    releasePath(path);
    return;
  }
  EventRecord record{EventKind::kForwardHop, {}};
  record.data.forward = ForwardHopEvent{path, hop, key, packet};
  simulator_.scheduleEventAfter(chaosDelay(slot), this, record);
  if (chaosDuplicates(slot)) {
    // The copy is a second transmission: it draws its own losses ahead.
    ++stats_.duplicates_created;
    countHopSlot(packet, slot);  // the copy traversed the link too
    pathAddRef(path);
    record.data.forward.key = copyKey(key, a);
    simulator_.scheduleEventAfter(chaosDelay(slot), this, record);
  }
}

void SimNetwork::onForwardHop(const ForwardHopEvent& event) {
  // The packet arrived at hop `hop + 1` of its route.
  const std::uint32_t next = event.hop + 1;
  if (next + 1 == paths_[event.path].size()) {
    const net::NodeId at = paths_[event.path][next];
    releasePath(event.path);  // before deliver: the handler may send again
    deliver(at, event.packet);
    return;
  }
  sendHop(event.path, next, event.key, event.packet);
}

void SimNetwork::multicastFromSource(Packet packet,
                                     const LinkLossPattern* forced_loss) {
  ++stats_.packets_sent;
  if (forced_loss && forced_loss->size() != topology_.tree.numMembers()) {
    throw std::invalid_argument(
        "SimNetwork: forced loss pattern size mismatch");
  }
  // Copy the pattern into the arena: the flood's scheduled events outlive
  // the caller's argument.  In shard mode forced patterns MUST be staged
  // (stageLossPattern) so their arena ids are meaningful in every region;
  // the staged slot is pinned, so no release balances the lookup.
  const net::NodeId root = topology_.tree.root();
  SendKey key;
  bool staged = false;
  if (!forced_loss) {
    key = nextKey(root);
  } else if (regions_ != nullptr) {
    RMRN_REQUIRE(packet.seq < staged_by_seq_.size(),
                 "SimNetwork: shard-mode forced loss must be staged");
    key = patternKey(staged_by_seq_[packet.seq]);
    staged = true;
  } else {
    key = patternKey(acquirePattern(*forced_loss));
  }
  if (closedForm()) {
    // The flood takes over the send's pattern reference.
    floodClosedForm(root, packet, /*down_only=*/true, net::kInvalidNode, key);
    return;
  }
  floodFrom(root, net::kInvalidNode, packet, /*down_only=*/true,
            /*boundary=*/net::kInvalidNode, key);
  if (isPatternKey(key) && !staged) {
    patternRelease(patternOf(key));  // drop the send's ref
  }
}

void SimNetwork::multicastGroup(net::NodeId from, Packet packet) {
  ++stats_.packets_sent;
  const SendKey key = nextKey(from);
  if (closedForm()) {
    floodClosedForm(from, packet, /*down_only=*/false, net::kInvalidNode,
                    key);
    return;
  }
  floodFrom(from, net::kInvalidNode, packet, /*down_only=*/false,
            /*boundary=*/net::kInvalidNode, key);
}

void SimNetwork::multicastSubtree(net::NodeId subtree_root, net::NodeId from,
                                  Packet packet) {
  if (!topology_.tree.isAncestor(subtree_root, from)) {
    throw std::invalid_argument(
        "SimNetwork::multicastSubtree: sender outside subtree");
  }
  ++stats_.packets_sent;
  const SendKey key = nextKey(from);
  if (closedForm()) {
    floodClosedForm(from, packet, /*down_only=*/false, subtree_root, key);
    return;
  }
  floodFrom(from, net::kInvalidNode, packet, /*down_only=*/false,
            /*boundary=*/subtree_root, key);
}

void SimNetwork::multicastDownInto(net::NodeId subtree_root, Packet packet) {
  ++stats_.packets_sent;
  const auto& tree = topology_.tree;
  if (subtree_root == tree.root()) {
    const SendKey key = nextKey(subtree_root);
    if (closedForm()) {
      floodClosedForm(subtree_root, packet, /*down_only=*/true,
                      net::kInvalidNode, key);
      return;
    }
    floodFrom(subtree_root, net::kInvalidNode, packet, /*down_only=*/true,
              /*boundary=*/net::kInvalidNode, key);
    return;
  }
  // The packet leaves from the subtree root's parent, so that node keys it.
  const net::NodeId parent = tree.parent(subtree_root);
  const SendKey key = nextKey(parent);
  const std::uint32_t slot = tree_slot_[tree.memberIndex(subtree_root)];
  if (closedForm()) {
    const std::uint32_t flood =
        openFlood(packet, /*down_only=*/true, net::kInvalidNode, key);
    crossTreeLink(floods_[flood], up_link_[subtree_root], subtree_root,
                  /*upward=*/0, simulator_.now());
    advanceFlood(flood);
    return;
  }
  countHopSlot(packet, slot);
  trace(TraceEvent::Kind::kHopSend, parent, subtree_root, packet);
  if (chaosDropped(slot, parent, subtree_root, packet)) return;
  if (lostOn(sendHash(loss_seed_, key), slot)) {
    ++stats_.packets_lost;
    trace(TraceEvent::Kind::kHopDrop, parent, subtree_root, packet);
    return;
  }
  if (!isShardLocal(subtree_root)) {
    ShardHandoff handoff;
    handoff.kind = EventKind::kFloodStep;
    handoff.packet = packet;
    handoff.key = key;
    handoff.next = subtree_root;
    handoff.came_from = parent;
    handoff.down_only = true;
    handOff(slot, parent, subtree_root, handoff);
    return;
  }
  EventRecord record{EventKind::kFloodStep, {}};
  record.data.flood = FloodStepEvent{subtree_root, parent,
                                     /*boundary=*/net::kInvalidNode,
                                     /*down_only=*/true, key, packet};
  simulator_.scheduleEventAfter(chaosDelay(slot), this, record);
  if (chaosDuplicates(slot)) {
    ++stats_.duplicates_created;
    countHopSlot(packet, slot);
    record.data.flood.key = copyKey(key, parent);
    simulator_.scheduleEventAfter(chaosDelay(slot), this, record);
  }
}

void SimNetwork::floodFrom(net::NodeId node, net::NodeId came_from,
                           const Packet& packet, bool down_only,
                           net::NodeId boundary, SendKey key) {
  const auto& tree = topology_.tree;

  const auto sendAcross = [&](net::NodeId next, net::NodeId link_child) {
    const std::size_t member = tree.memberIndex(link_child);
    const std::uint32_t slot = tree_slot_[member];
    countHopSlot(packet, slot);
    trace(TraceEvent::Kind::kHopSend, node, next, packet);
    if (chaosDropped(slot, node, next, packet)) return;
    const bool lost = isPatternKey(key)
                          ? patterns_[patternOf(key)][member]
                          : lostOn(sendHash(loss_seed_, key), slot);
    if (lost) {
      ++stats_.packets_lost;
      trace(TraceEvent::Kind::kHopDrop, node, next, packet);
      return;
    }
    if (!isShardLocal(next)) {
      // Surviving crossing: the destination region re-acquires the pattern
      // reference itself (injectHandoff), so no local ref is taken here.
      ShardHandoff handoff;
      handoff.kind = EventKind::kFloodStep;
      handoff.packet = packet;
      handoff.key = key;
      handoff.next = next;
      handoff.came_from = node;
      handoff.boundary = boundary;
      handoff.down_only = down_only;
      handOff(slot, node, next, handoff);
      return;
    }
    if (isPatternKey(key)) patternAddRef(patternOf(key));
    EventRecord record{EventKind::kFloodStep, {}};
    record.data.flood =
        FloodStepEvent{next, node, boundary, down_only, key, packet};
    simulator_.scheduleEventAfter(chaosDelay(slot), this, record);
    if (chaosDuplicates(slot)) {
      // The copy re-floods the whole subtree below it (a duplicated flood
      // step forwards like the original, drawing its own losses);
      // dedup/idempotence upstream absorbs the storm.
      ++stats_.duplicates_created;
      countHopSlot(packet, slot);
      if (isPatternKey(key)) patternAddRef(patternOf(key));
      record.data.flood.key = copyKey(key, node);
      simulator_.scheduleEventAfter(chaosDelay(slot), this, record);
    }
  };

  if (!down_only && node != boundary && node != tree.root()) {
    const net::NodeId up = tree.parent(node);
    if (up != came_from) sendAcross(up, /*link_child=*/node);
  }
  for (const net::NodeId child : tree.children(node)) {
    if (child != came_from) sendAcross(child, /*link_child=*/child);
  }
}

void SimNetwork::onFloodStep(const FloodStepEvent& event) {
  deliver(event.next, event.packet);
  floodFrom(event.next, event.came_from, event.packet, event.down_only,
            event.boundary, event.key);
  if (isPatternKey(event.key)) patternRelease(patternOf(event.key));
}

void SimNetwork::floodClosedForm(net::NodeId origin, const Packet& packet,
                                 bool down_only, net::NodeId boundary,
                                 SendKey key) {
  (void)topology_.tree.memberIndex(origin);  // throws on a non-member
  const std::uint32_t flood = openFlood(packet, down_only, boundary, key);
  expandFlood(flood, origin, net::kInvalidNode, simulator_.now());
  advanceFlood(flood);
}

std::uint32_t SimNetwork::openFlood(const Packet& packet, bool down_only,
                                    net::NodeId boundary, SendKey key) {
  std::uint32_t flood;
  if (!free_floods_.empty()) {
    flood = free_floods_.back();
    free_floods_.pop_back();
  } else {
    flood = static_cast<std::uint32_t>(floods_.size());
    // rmrn-lint: allow(HOT-1) arena warm-up: grows once per high-water mark, then slots recycle
    floods_.emplace_back();
  }
  Flood& f = floods_[flood];
  f.packet = packet;
  f.next_seq = 0;
  f.key = key;
  f.send_hash = sendHash(loss_seed_, key);
  f.boundary = boundary;
  f.down_only = down_only;
  return flood;
}

void SimNetwork::crossTreeLink(Flood& flood, const TreeLink& link,
                               net::NodeId link_child, std::uint64_t upward,
                               TimeMs at) {
  countHopSlot(flood.packet, link.slot);
  const bool lost =
      isPatternKey(flood.key)
          ? patterns_[patternOf(flood.key)]
                     [topology_.tree.memberIndex(link_child)]
          : lostOn(flood.send_hash, link.slot);
  if (lost) {
    // The link's subtree is never pushed, so the flood skips it.
    ++stats_.packets_lost;
    return;
  }
  // rmrn-lint: allow(HOT-1) a flood slot's frontier keeps its high-water capacity across floods (alloc_tests)
  flood.frontier.push_back(
      FrontierEntry{timeOrder(at + link.delay),
                    (std::uint64_t{flood.next_seq++} << 33) | upward |
                        link_child});
  util::quad_heap::siftUp(flood.frontier.data(), flood.frontier.size() - 1);
}

std::pair<net::NodeId, net::NodeId> SimNetwork::linkEnds(
    std::uint64_t key) const {
  const auto link_child = static_cast<net::NodeId>(key);
  const net::NodeId parent = up_link_[link_child].to;
  if ((key & kUpward) != 0) return {parent, link_child};
  return {link_child, parent};
}

void SimNetwork::expandFlood(std::uint32_t flood, net::NodeId node,
                             net::NodeId came_from, TimeMs at) {
  Flood& f = floods_[flood];
  if (!f.down_only && node != f.boundary) {
    const TreeLink& up = up_link_[node];
    if (up.to != net::kInvalidNode && up.to != came_from) {
      crossTreeLink(f, up, /*link_child=*/node, kUpward, at);
    }
  }
  const std::uint32_t end = down_offset_[node + 1];
  for (std::uint32_t i = down_offset_[node]; i < end; ++i) {
    const TreeLink& down = down_link_[i];
    if (down.to != came_from) crossTreeLink(f, down, down.to, 0, at);
  }
}

void SimNetwork::advanceFlood(std::uint32_t flood) {
  Flood& f = floods_[flood];  // stable: nothing below can grow floods_
  while (!f.frontier.empty()) {
    const FrontierEntry next = f.frontier.front();
    util::quad_heap::popRoot(f.frontier);
    const auto [node, came_from] = linkEnds(next.key);
    const TimeMs at = timeOfOrder(next.order);
    if (is_agent_[node]) {
      f.cursor_key = next.key;
      EventRecord record{EventKind::kFloodCursor, {}};
      record.data.cursor = FloodCursorEvent{flood};
      simulator_.scheduleEventAt(at, this, record);
      return;
    }
    // Routers never deliver: expand straight away.
    expandFlood(flood, node, came_from, at);
  }
  if (isPatternKey(f.key)) patternRelease(patternOf(f.key));
  // rmrn-lint: allow(HOT-1) free list reuses retained capacity; alloc_tests pin the zero-allocation data plane
  free_floods_.push_back(flood);
}

void SimNetwork::onFloodCursor(const FloodCursorEvent& event) {
  const Flood& f = floods_[event.flood];
  const auto [node, came_from] = linkEnds(f.cursor_key);
  const Packet packet = f.packet;  // copy: the handler may grow floods_
  deliver(node, packet);
  expandFlood(event.flood, node, came_from, simulator_.now());
  advanceFlood(event.flood);
}

}  // namespace rmrn::sim
