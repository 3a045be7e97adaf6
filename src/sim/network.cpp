#include "sim/network.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/check.hpp"
#include "util/quad_heap.hpp"

namespace rmrn::sim {

// rmrn-lint: init-phase
SimNetwork::SimNetwork(Simulator& simulator, const net::Topology& topology,
                       const net::Routing& routing, double loss_prob,
                       std::uint64_t loss_seed)
    : simulator_(simulator),
      topology_(topology),
      routing_(routing),
      loss_seed_(loss_seed) {
  if (loss_prob < 0.0 || loss_prob >= 1.0) {
    throw std::invalid_argument("SimNetwork: loss_prob must be in [0, 1)");
  }
  loss_threshold_ = lossThreshold(loss_prob);
  const std::size_t n = topology_.graph.numNodes();
  sends_.assign(n, 0);
  is_agent_.assign(n, false);
  is_agent_[topology_.source] = true;
  for (const net::NodeId c : topology_.clients) is_agent_[c] = true;
  agent_fault_.assign(n, AgentFault::kNone);
  agent_slow_extra_ms_.assign(n, 0.0);
  deliveries_by_type_.assign(n * 4, 0);

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

  // Tree links, and loss-free arrival delays down the tree (preorder
  // guarantees parents are computed before children).  edgeSlot throws on a
  // tree link the graph lacks.
  const auto& tree = topology_.tree;
  up_link_.assign(n, TreeLink{0.0, kNilSlot, net::kInvalidNode});
  down_offset_.assign(n + 1, 0);
  arrival_delay_.assign(tree.numMembers(), 0.0);
  for (const net::NodeId v : tree.members()) {
    if (v != tree.root()) {
      const net::NodeId parent = tree.parent(v);
      const std::uint32_t slot = edgeSlot(parent, v);
      up_link_[v] = TreeLink{edge_delay_[slot], slot, parent};
      arrival_delay_[tree.memberIndex(v)] =
          arrival_delay_[tree.memberIndex(parent)] + edge_delay_[slot];
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

void SimNetwork::emitHandoff(net::NodeId to, const ShardHandoff& handoff) {
  ++handoffs_out_;
  // rmrn-lint: allow(HOT-1) the outbox keeps its high-water capacity
  outbox_->push_back(RoutedHandoff{regions_->regionOf(to), handoff});
}

void SimNetwork::handOffUnicast(std::uint32_t path, std::uint32_t hop,
                                SendKey key, const Packet& packet,
                                TimeMs arrival, TimeMs decided) {
  // The receiver rebuilds the route from the shared routing tables and
  // resumes it where the packet arrives.
  const std::vector<net::NodeId>& route = paths_[path];
  ShardHandoff handoff;
  handoff.at = arrival;
  handoff.decided = decided;
  handoff.kind = EventKind::kUnicastResume;
  handoff.packet = packet;
  handoff.key = key;
  handoff.ufrom = route.front();
  handoff.uto = route.back();
  handoff.hop = hop;
  emitHandoff(route[hop + 1], handoff);
}

void SimNetwork::handOffFlood(const Flood& flood, net::NodeId from,
                              net::NodeId to, SendKey key,
                              std::uint64_t send_hash, TimeMs arrival) {
  ShardHandoff handoff;
  handoff.at = arrival;
  handoff.decided = simulator_.now();
  handoff.kind = EventKind::kFloodCursor;
  handoff.packet = flood.packet;
  handoff.key = key;
  handoff.next = to;
  handoff.came_from = from;
  handoff.boundary = flood.boundary;
  handoff.down_only = flood.down_only;
  handoff.send_hash = send_hash;
  emitHandoff(to, handoff);
}

void SimNetwork::injectHandoff(const ShardHandoff& handoff) {
  switch (handoff.kind) {
    case EventKind::kUnicastResume: {
      // Rebuild the route from the shared (immutable) routing tables: the
      // sender's path arena never crosses threads.
      const std::uint32_t path = acquirePath();
      routing_.pathInto(handoff.ufrom, handoff.uto, paths_[path]);
      RMRN_REQUIRE(handoff.hop + 1 < paths_[path].size(),
                   "SimNetwork: handoff hop beyond route");
      EventRecord record{EventKind::kUnicastResume, {}};
      record.data.resume =
          UnicastResumeEvent{path, handoff.hop, handoff.key, handoff.packet};
      simulator_.scheduleDecidedEventAt(handoff.at, handoff.decided, this,
                                        record);
      return;
    }
    case EventKind::kFloodCursor: {
      // A fresh flood record whose cursor is the crossing into `next`: the
      // flood resumes there when the cursor fires, never at the barrier.
      // The record takes a reference on a staged pattern and drops it when
      // it closes.
      if (isPatternKey(handoff.key)) patternAddRef(patternOf(handoff.key));
      const std::uint32_t flood =
          openFlood(handoff.packet, handoff.down_only, handoff.boundary,
                    handoff.key, handoff.send_hash);
      floods_[flood].cursor_key =
          topology_.tree.parent(handoff.next) == handoff.came_from
              ? handoff.next
              : kUpward | handoff.came_from;
      EventRecord record{EventKind::kFloodCursor, {}};
      record.data.cursor = FloodCursorEvent{flood};
      simulator_.scheduleDecidedEventAt(handoff.at, handoff.decided, this,
                                        record);
      return;
    }
    case EventKind::kDeliver:
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

bool SimNetwork::isAgentFailed(net::NodeId agent) const {
  return agentFault(agent) == AgentFault::kCrashed;
}

void SimNetwork::enableChaos() { chaos_active_ = true; }

void SimNetwork::stageLinkState(net::NodeId a, net::NodeId b, TimeMs at,
                                bool up) {
  const std::uint32_t edge = edge_id_[edgeSlot(a, b)];
  RMRN_REQUIRE(at > latest_crossing_,
               "SimNetwork: link change staged before a decided crossing");
  enableChaos();
  // rmrn-lint: allow(HOT-1) staged before traffic: one slot per edge, once
  if (link_changes_.empty()) link_changes_.resize(link_load_.size());
  std::vector<TimeMs>& changes = link_changes_[edge];
  if (!changes.empty() && at < changes.back()) {
    throw std::invalid_argument("SimNetwork: link changes out of time order");
  }
  // The link starts up and each change flips it.
  if (up != (changes.size() % 2 == 1)) {
    throw std::invalid_argument(up ? "SimNetwork: link_up for a link not down"
                                   : "SimNetwork: link_down for a link down");
  }
  // rmrn-lint: allow(HOT-1) staged before traffic, never on the send path
  changes.push_back(at);
}

bool SimNetwork::isLinkUp(net::NodeId a, net::NodeId b) const {
  return !linkDownAt(edge_id_[edgeSlot(a, b)], simulator_.now());
}

bool SimNetwork::linkDownAt(std::uint32_t edge, TimeMs at) const {
  if (link_changes_.empty()) return false;
  const std::vector<TimeMs>& changes = link_changes_[edge];
  const auto passed = std::upper_bound(changes.begin(), changes.end(), at) -
                      changes.begin();
  return passed % 2 == 1;
}

void SimNetwork::setAllLinksDuplicationProb(double prob) {
  if (prob < 0.0 || prob >= 1.0) {
    throw std::invalid_argument(
        "SimNetwork: duplication prob must be in [0, 1)");
  }
  enableChaos();
  dup_threshold_ = lossThreshold(prob);
}

void SimNetwork::setAllLinksJitterMs(double jitter_ms) {
  if (jitter_ms < 0.0) {
    throw std::invalid_argument("SimNetwork: negative jitter");
  }
  enableChaos();
  jitter_ms_ = jitter_ms;
}

bool SimNetwork::reachableFromSource(net::NodeId v, TimeMs at) const {
  if (v == topology_.source) return true;
  if (!chaos_active_) return true;  // links never fail outside chaos mode
  // Static unicast route (requests up, repairs back down the same path).
  std::vector<net::NodeId> route;
  routing_.pathInto(topology_.source, v, route);
  for (std::size_t i = 0; i + 1 < route.size(); ++i) {
    if (linkDownAt(edge_id_[edgeSlot(route[i], route[i + 1])], at)) {
      return false;
    }
  }
  // Tree root path: repair/data multicasts reach v through its ancestors.
  const auto& tree = topology_.tree;
  if (tree.contains(v)) {
    for (net::NodeId u = v; u != tree.root(); u = tree.parent(u)) {
      if (linkDownAt(edge_id_[up_link_[u].slot], at)) {
        return false;
      }
    }
  }
  return true;
}

net::DelayMs SimNetwork::chaosDelay(net::DelayMs delay, std::uint32_t slot,
                                    std::uint64_t send_hash) const {
  if (jitter_ms_ > 0.0) {
    delay += jitterOf(chaosDraw(send_hash, kJitterSalt, slot), jitter_ms_);
  }
  return delay;
}

// Inlined into every crossing, like pushCrossing().
[[gnu::always_inline]] inline bool SimNetwork::survives(
    std::uint32_t slot, TimeMs at, net::NodeId from, net::NodeId to,
    const Packet& packet, bool lost) {
  countHopSlot(packet, slot);
#if RMRN_CHECKS_ENABLED
  latest_crossing_ = std::max(latest_crossing_, at);
#endif
  if (trace_sink_ || !link_changes_.empty()) {
    lost = observeCrossing(slot, at, from, to, packet, lost);
  }
  if (lost) ++stats_.packets_lost;
  return !lost;
}

bool SimNetwork::observeCrossing(std::uint32_t slot, TimeMs at,
                                 net::NodeId from, net::NodeId to,
                                 const Packet& packet, bool lost) {
  trace(TraceEvent::Kind::kHopSend, at, from, to, packet);
  const bool down = linkDownAt(edge_id_[slot], at);
  if (down) ++stats_.chaos_link_drops;
  if (down || lost) trace(TraceEvent::Kind::kHopDrop, at, from, to, packet);
  return down || lost;
}

bool SimNetwork::duplicated(std::uint32_t slot, TimeMs at,
                            const Packet& packet, std::uint64_t send_hash,
                            Copy& copy) {
  if (dup_threshold_ == 0 ||
      chaosDraw(send_hash, kDuplicateSalt, slot) >= dup_threshold_) {
    return false;
  }
  ++stats_.duplicates_created;
  countHopSlot(packet, slot);  // the copy traversed the link too
  copy.key = copyKey(send_hash, slot);
  copy.arrival =
      at + chaosDelay(edge_delay_[slot], slot, sendHash(loss_seed_, copy.key));
  return true;
}

SendKey SimNetwork::nextKey(net::NodeId sender) {
  return sendKey(sender, sends_[sender]++);
}

std::uint64_t SimNetwork::drawHash(SendKey key, const Packet& packet) const {
  return sendHash(loss_seed_,
                  isPatternKey(key)
                      ? patternKey(static_cast<std::uint32_t>(packet.seq))
                      : key);
}

bool SimNetwork::lostOn(std::uint64_t send_hash, std::uint32_t slot) const {
  return loss_threshold_ != 0 && linkDraw(send_hash, slot) < loss_threshold_;
}

void SimNetwork::trace(TraceEvent::Kind kind, TimeMs at, net::NodeId from,
                       net::NodeId to, const Packet& packet) {
  if (trace_sink_) trace_sink_(TraceEvent{at, kind, from, to, packet});
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
  ++link_load_[edge_id_[slot]];
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
    return path;
  }
  // rmrn-lint: allow(HOT-1) arena warm-up: grows once per high-water mark, then slots recycle
  paths_.emplace_back();
  // A simple route visits at most every node; reserving up front means no
  // route written into this slot ever reallocates.
  // rmrn-lint: allow(HOT-1) arena warm-up: grows once per high-water mark, then slots recycle
  paths_.back().reserve(topology_.graph.numNodes());
  return static_cast<std::uint32_t>(paths_.size() - 1);
}

void SimNetwork::releasePath(std::uint32_t path) {
  // rmrn-lint: allow(HOT-1) free list reuses retained capacity; alloc_tests pin the zero-allocation data plane
  free_paths_.push_back(path);  // the slot keeps its capacity for reuse
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
    case EventKind::kUnicastResume:
      onUnicastResume(event.data.resume);
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
  trace(TraceEvent::Kind::kDeliver, simulator_.now(), net::kInvalidNode, at,
        packet);
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
  walkUnicast(path, 0, nextKey(from), packet, simulator_.now(),
              simulator_.now());
  releasePath(path);
}

void SimNetwork::walkUnicast(std::uint32_t path, std::uint32_t hop,
                             SendKey key, const Packet& packet, TimeMs at,
                             TimeMs decided) {
  const std::vector<net::NodeId>& route = paths_[path];
  const std::uint64_t send_hash = sendHash(loss_seed_, key);
  // Fold the arrival hop by hop, as a hop-by-hop forwarder advances the
  // clock: (t + d1) + d2 is not always t + (d1 + d2).
  for (; hop + 1 < route.size(); ++hop) {
    const net::NodeId from = route[hop];
    const net::NodeId to = route[hop + 1];
    const std::uint32_t slot = edgeSlot(from, to);
    if (!survives(slot, at, from, to, packet, lostOn(send_hash, slot))) {
      return;
    }
    const TimeMs arrival = at + chaosDelay(edge_delay_[slot], slot, send_hash);
    if ((regions_ != nullptr || dup_threshold_ != 0) &&
        !branchUnicast(path, hop, slot, key, packet, at, arrival, decided)) {
      return;
    }
    at = arrival;
  }
  EventRecord record{EventKind::kDeliver, {}};
  record.data.deliver = DeliverEvent{route.back(), /*direct=*/false, packet};
  if (decided == simulator_.now()) {
    simulator_.scheduleEventAt(at, this, record);
  } else {
    simulator_.scheduleDecidedEventAt(at, decided, this, record);
  }
}

bool SimNetwork::branchUnicast(std::uint32_t path, std::uint32_t hop,
                               std::uint32_t slot, SendKey key,
                               const Packet& packet, TimeMs at,
                               TimeMs arrival, TimeMs decided) {
  // Shard mode: a crossing into another region ends the walk here; that
  // region resumes it when the packet arrives.
  const bool local = isShardLocal(paths_[path][hop + 1]);
  if (!local) handOffUnicast(path, hop, key, packet, arrival, decided);
  Copy copy;
  if (duplicated(slot, at, packet, sendHash(loss_seed_, key), copy)) {
    // The copy is a second transmission: it walks the rest of the route
    // with its own key.
    if (local) {
      walkUnicast(path, hop + 1, copy.key, packet, copy.arrival, decided);
    } else {
      handOffUnicast(path, hop, copy.key, packet, copy.arrival, decided);
    }
  }
  return local;
}

void SimNetwork::onUnicastResume(const UnicastResumeEvent& event) {
  // A shard handoff arrived at hop `hop + 1` of its route: deliver there,
  // or walk the rest of the route.
  const std::uint32_t next = event.hop + 1;
  if (next + 1 == paths_[event.path].size()) {
    const net::NodeId at = paths_[event.path][next];
    releasePath(event.path);  // before deliver: the handler may send again
    deliver(at, event.packet);
    return;
  }
  walkUnicast(event.path, next, event.key, event.packet, simulator_.now(),
              simulator_.firingDecidedAt());
  releasePath(event.path);
}

void SimNetwork::multicastFromSource(Packet packet,
                                     const LinkLossPattern* forced_loss) {
  ++stats_.packets_sent;
  if (forced_loss && forced_loss->size() != topology_.tree.numMembers()) {
    throw std::invalid_argument(
        "SimNetwork: forced loss pattern size mismatch");
  }
  // Copy the pattern into the arena: the flood record outlives the
  // caller's argument, and takes over this reference.  In shard mode forced
  // patterns MUST be staged (stageLossPattern) so their arena ids are
  // meaningful in every region; a staged slot keeps its pin and lends the
  // flood a reference of its own.
  const net::NodeId root = topology_.tree.root();
  SendKey key;
  if (!forced_loss) {
    key = nextKey(root);
  } else if (regions_ != nullptr) {
    RMRN_REQUIRE(packet.seq < staged_by_seq_.size(),
                 "SimNetwork: shard-mode forced loss must be staged");
    key = patternKey(staged_by_seq_[packet.seq]);
    patternAddRef(patternOf(key));
  } else {
    key = patternKey(acquirePattern(*forced_loss));
  }
  startFlood(root, packet, /*down_only=*/true, net::kInvalidNode, key);
}

void SimNetwork::multicastGroup(net::NodeId from, Packet packet) {
  ++stats_.packets_sent;
  startFlood(from, packet, /*down_only=*/false, net::kInvalidNode,
             nextKey(from));
}

void SimNetwork::multicastSubtree(net::NodeId subtree_root, net::NodeId from,
                                  Packet packet) {
  if (!topology_.tree.isAncestor(subtree_root, from)) {
    throw std::invalid_argument(
        "SimNetwork::multicastSubtree: sender outside subtree");
  }
  ++stats_.packets_sent;
  startFlood(from, packet, /*down_only=*/false, subtree_root, nextKey(from));
}

void SimNetwork::multicastDownInto(net::NodeId subtree_root, Packet packet) {
  ++stats_.packets_sent;
  const auto& tree = topology_.tree;
  if (subtree_root == tree.root()) {
    startFlood(subtree_root, packet, /*down_only=*/true, net::kInvalidNode,
               nextKey(subtree_root));
    return;
  }
  // The packet leaves from the subtree root's parent, so that node keys it,
  // and crosses the root's parent link downward.
  const net::NodeId parent = tree.parent(subtree_root);
  const SendKey key = nextKey(parent);
  const std::uint32_t flood =
      openFlood(packet, /*down_only=*/true, net::kInvalidNode, key,
                sendHash(loss_seed_, key));
  const TreeLink& up = up_link_[subtree_root];
  crossTreeLink(flood, parent, TreeLink{up.delay, up.slot, subtree_root},
                subtree_root, /*upward=*/0, simulator_.now());
  advanceFlood(flood);
}

void SimNetwork::startFlood(net::NodeId origin, const Packet& packet,
                            bool down_only, net::NodeId boundary,
                            SendKey key) {
  (void)topology_.tree.memberIndex(origin);  // throws on a non-member
  const std::uint32_t flood =
      openFlood(packet, down_only, boundary, key, drawHash(key, packet));
  expandFlood(flood, origin, net::kInvalidNode, simulator_.now());
  advanceFlood(flood);
}

std::uint32_t SimNetwork::openFlood(const Packet& packet, bool down_only,
                                    net::NodeId boundary, SendKey key,
                                    std::uint64_t send_hash) {
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
  f.send_hash = send_hash;
  f.boundary = boundary;
  f.down_only = down_only;
  return flood;
}

// Inlined into every crossing: a call per link crossed costs measurably.
[[gnu::always_inline]] inline void SimNetwork::pushCrossing(
    Flood& flood, std::uint64_t link, TimeMs arrival) {
  // rmrn-lint: allow(HOT-1) a flood slot's frontier keeps its high-water capacity across floods (alloc_tests)
  flood.frontier.push_back(FrontierEntry{
      timeOrder(arrival), (std::uint64_t{flood.next_seq++} << 33) | link});
  util::quad_heap::siftUp(flood.frontier.data(), flood.frontier.size() - 1);
}

void SimNetwork::crossTreeLink(std::uint32_t flood, net::NodeId from,
                               const TreeLink& link, net::NodeId link_child,
                               std::uint64_t upward, TimeMs at) {
  Flood& f = floods_[flood];
  const bool lost =
      isPatternKey(f.key)
          ? patterns_[patternOf(f.key)][topology_.tree.memberIndex(link_child)]
          : lostOn(f.send_hash, link.slot);
  // A lost link's subtree is never pushed, so the flood skips it.
  if (!survives(link.slot, at, from, link.to, f.packet, lost)) return;
  const TimeMs arrival = at + chaosDelay(link.delay, link.slot, f.send_hash);
  if (regions_ == nullptr && dup_threshold_ == 0) {
    pushCrossing(f, link_child | upward, arrival);
  } else {
    branchFlood(flood, from, link, link_child | upward, at, arrival);
  }
}

void SimNetwork::branchFlood(std::uint32_t flood, net::NodeId from,
                             const TreeLink& link, std::uint64_t link_key,
                             TimeMs at, TimeMs arrival) {
  Flood& f = floods_[flood];
  // Shard mode: a crossing into another region leaves this record; that
  // region resumes the flood when the packet arrives.
  const bool local = isShardLocal(link.to);
  if (local) {
    pushCrossing(f, link_key, arrival);
  } else {
    handOffFlood(f, from, link.to, f.key, f.send_hash, arrival);
  }
  Copy copy;
  if (!duplicated(link.slot, at, f.packet, f.send_hash, copy)) return;
  // The copy is a second transmission that re-floods everything beyond the
  // link.  Its chaos draws follow its own lineage (the copy key); its
  // losses follow the original's forced pattern, or else its own key.
  const SendKey key = isPatternKey(f.key) ? f.key : copy.key;
  const std::uint64_t send_hash = sendHash(loss_seed_, copy.key);
  if (!local) {
    handOffFlood(f, from, link.to, key, send_hash, copy.arrival);
    return;
  }
  if (isPatternKey(key)) patternAddRef(patternOf(key));
  // Copies first: openFlood may move the record.
  const Packet packet = f.packet;
  const bool down_only = f.down_only;
  const net::NodeId boundary = f.boundary;
  const std::uint32_t c =
      openFlood(packet, down_only, boundary, key, send_hash);
  pushCrossing(floods_[c], link_key, copy.arrival);
  advanceFlood(c);
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
  // floods_[flood] is re-read after every crossing: a chaos duplicate opens
  // a record of its own, which may move this one.
  if (!floods_[flood].down_only && node != floods_[flood].boundary) {
    const TreeLink& up = up_link_[node];
    if (up.to != net::kInvalidNode && up.to != came_from) {
      crossTreeLink(flood, node, up, /*link_child=*/node, kUpward, at);
    }
  }
  const std::uint32_t end = down_offset_[node + 1];
  for (std::uint32_t i = down_offset_[node]; i < end; ++i) {
    const TreeLink& down = down_link_[i];
    if (down.to != came_from) {
      crossTreeLink(flood, node, down, down.to, 0, at);
    }
  }
}

void SimNetwork::advanceFlood(std::uint32_t flood) {
  while (!floods_[flood].frontier.empty()) {
    Flood& f = floods_[flood];
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
  const SendKey key = floods_[flood].key;
  if (isPatternKey(key)) patternRelease(patternOf(key));
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
