#include "sim/network.hpp"

#include <algorithm>
#include <limits>
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
  route_.reserve(n);

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

void SimNetwork::setDeliverySink(DeliverySink* sink, bool absorbs) {
  sink_ = sink;
  sink_absorbs_ = sink != nullptr && absorbs;
  updateOffers();
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
    case EventKind::kDeliver: {
      // A unicast whose sender walked its whole route: only the delivery
      // is left.
      EventRecord record{EventKind::kDeliver, {}};
      record.data.deliver =
          DeliverEvent{handoff.next, /*direct=*/false, handoff.packet};
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
    case EventKind::kTimer:
      break;
  }
  throw std::logic_error("SimNetwork: unexpected handoff kind");
}

void SimNetwork::setTraceSink(TraceRecorder* recorder) {
  recorder_ = recorder;
}

void SimNetwork::setAgentFault(net::NodeId agent, AgentFault fault,
                               double slow_extra_ms) {
  if (agent >= is_agent_.size() || !is_agent_[agent]) {
    throw std::invalid_argument("SimNetwork: not an agent");
  }
  if (slow_extra_ms < 0.0) {
    throw std::invalid_argument("SimNetwork: negative slow_extra_ms");
  }
  agent_fault_[agent] = fault;
  expectAgentFaults();
  agent_slow_extra_ms_[agent] =
      fault == AgentFault::kSlowed ? slow_extra_ms : 0.0;
}

AgentFault SimNetwork::agentFault(net::NodeId agent) const {
  return agent < agent_fault_.size() ? agent_fault_[agent] : AgentFault::kNone;
}

bool SimNetwork::isAgentFailed(net::NodeId agent) const {
  return agentFault(agent) == AgentFault::kCrashed;
}

void SimNetwork::expectAgentFaults() {
  agent_faults_ = true;
  updateOffers();
}

void SimNetwork::enableChaos() {
  chaos_active_ = true;
  updateOffers();
}

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

// Inlined into every crossing, like pushCrossing(); the trace and timeline
// hooks are off in untraced, unchaotic runs, so they stay off its
// straight-line path.
[[gnu::always_inline]] inline bool SimNetwork::survives(
    std::uint32_t slot, TimeMs at, net::NodeId from, net::NodeId to,
    const Packet& packet, bool lost) {
  countHopSlot(packet, slot);
#if RMRN_CHECKS_ENABLED
  latest_crossing_ = std::max(latest_crossing_, at);
#endif
  if (recorder_ != nullptr || !link_changes_.empty()) [[unlikely]] {
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
  if (recorder_ != nullptr) {
    recorder_->record(TraceEvent{at, kind, from, to, packet});
  }
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
    case EventKind::kFloodCursor:
      onFloodCursor(event.data.cursor);
      return;
    case EventKind::kTimer:
      break;
  }
  throw std::logic_error("SimNetwork: unexpected event kind");
}

void SimNetwork::deliver(net::NodeId at, const Packet& packet) {
  if (!is_agent_[at] || sink_ == nullptr) return;
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
  if (sink_ == nullptr || agent_fault_[at] == AgentFault::kCrashed) return;
  countDelivery(at, packet, simulator_.now());
  sink_->deliver(at, packet);
}

void SimNetwork::countDelivery(net::NodeId at, const Packet& packet,
                               TimeMs at_ms) {
  ++stats_.deliveries;
  const std::size_t index =
      static_cast<std::size_t>(at) * 4 + static_cast<std::size_t>(packet.type);
  ++deliveries_by_type_[index];
  trace(TraceEvent::Kind::kDeliver, at_ms, net::kInvalidNode, at, packet);
}

void SimNetwork::unicast(net::NodeId from, net::NodeId to, Packet packet) {
  ++stats_.packets_sent;
  if (from == to) {
    EventRecord self{EventKind::kDeliver, {}};
    self.data.deliver = DeliverEvent{to, /*direct=*/false, packet};
    simulator_.scheduleEventAfter(0.0, this, self);
    return;
  }
  routing_.pathInto(from, to, route_);
  if (route_.size() < 2) {
    throw std::invalid_argument("SimNetwork::unicast: no route " +
                                std::to_string(from) + " -> " +
                                std::to_string(to));
  }
  walkUnicast(0, nextKey(from), packet, simulator_.now());
}

void SimNetwork::walkUnicast(std::uint32_t hop, SendKey key,
                             const Packet& packet, TimeMs at) {
  const std::uint64_t send_hash = sendHash(loss_seed_, key);
  // Fold the arrival hop by hop, as a hop-by-hop forwarder advances the
  // clock: (t + d1) + d2 is not always t + (d1 + d2).  In shard mode the
  // walk crosses other regions too: every draw on the way is a pure
  // function of the send and the link, and every region stages the same
  // link timeline, so this region decides each hop as theirs would.
  for (; hop + 1 < route_.size(); ++hop) {
    const net::NodeId from = route_[hop];
    const net::NodeId to = route_[hop + 1];
    const std::uint32_t slot = edgeSlot(from, to);
    if (!survives(slot, at, from, to, packet, lostOn(send_hash, slot))) {
      return;
    }
    const TimeMs arrival = at + chaosDelay(edge_delay_[slot], slot, send_hash);
    Copy copy;
    if (dup_threshold_ != 0 &&
        duplicated(slot, at, packet, send_hash, copy)) {
      // The copy is a second transmission: it walks the rest of the route
      // with its own key.
      walkUnicast(hop + 1, copy.key, packet, copy.arrival);
    }
    at = arrival;
  }
  const net::NodeId dest = route_.back();
  if (isShardLocal(dest)) {
    EventRecord record{EventKind::kDeliver, {}};
    record.data.deliver = DeliverEvent{dest, /*direct=*/false, packet};
    simulator_.scheduleEventAt(at, this, record);
    return;
  }
  // The route ends in another region, across at least one boundary link,
  // so the arrival lies at least the lookahead ahead.
  ShardHandoff handoff;
  handoff.at = at;
  handoff.decided = simulator_.now();
  handoff.kind = EventKind::kDeliver;
  handoff.packet = packet;
  handoff.next = dest;
  emitHandoff(dest, handoff);
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
  const TimeMs now = simulator_.now();
  // A down-only flood from the root crosses the links a group flood from
  // the root does, so both replay the root's schedule.
  if (boundary == net::kInvalidNode &&
      (!down_only || origin == topology_.tree.root()) &&
      tryReplay(flood, origin)) {
    replayFlood(flood);
    return;
  }
  expandFlood(flood, origin, net::kInvalidNode, now);
  advanceFlood(flood);
}

bool SimNetwork::tryReplay(std::uint32_t flood, net::NodeId origin) {
  // Jitter and duplication change delays and add floods per crossing, and
  // a shard stops at its region's edge: those floods keep the frontier.
  if (regions_ != nullptr || dup_threshold_ != 0 || jitter_ms_ > 0.0) {
    return false;
  }
  const auto& tree = topology_.tree;
  if (schedule_of_.empty()) {
    // rmrn-lint: allow(HOT-1) one slot per member, at the first whole-tree flood
    schedule_of_.assign(tree.numMembers(), kUnbuilt);
  }
  std::uint32_t& id = schedule_of_[tree.memberIndex(origin)];
  if (id == kUnbuilt) id = buildSchedule(origin);
  const TimeMs now = simulator_.now();
  if (id == kNilSlot || !(now >= 0.0 && now <= schedules_[id].max_start)) {
    return false;
  }
  Flood& f = floods_[flood];
  f.schedule = id;
  f.arrivals[kSlotOrigin] = now;
#if RMRN_CHECKS_ENABLED
  f.last_arrival = now;
#endif
  ++floods_replayed_;
  return true;
}

// rmrn-lint: init-phase (once per origin: the schedule and its scratch)
std::uint32_t SimNetwork::buildSchedule(net::NodeId origin) {
  const auto& tree = topology_.tree;
  if (tree.numMembers() > (std::size_t{1} << kEntryMemberBits)) {
    return kNilSlot;
  }
  // Every link a flood from `origin` crosses, breadth first from step 0
  // (the origin): each node's links in crossing order (parent link first,
  // then children in tree order), each arrival folded from its
  // flood-parent's from time 0, as expandFlood folds them.
  build_steps_.clear();
  build_steps_.push_back(ScheduleStep{0.0, 0, kNilSlot, 0, 0, kSlotOrigin});
  std::uint32_t hops = 0;
  for (std::uint32_t i = 0; i < build_steps_.size(); ++i) {
    const ScheduleStep step = build_steps_[i];
    const auto [node, came_from] =
        i == 0 ? std::pair{origin, net::kInvalidNode} : linkEnds(step.link);
    hops = std::max(hops, step.hops);
    forEachFloodLink(node, came_from, /*up=*/true,
                     [&](const TreeLink& link, net::NodeId link_child,
                         std::uint64_t upward) {
                       build_steps_.push_back(
                           ScheduleStep{step.offset + link.delay,
                                        link_child | upward, i, step.hops + 1,
                                        0, kSlotSink});
                       ++build_steps_[i].readers;
                     });
  }
  if (build_steps_.size() < 2) return kNilSlot;
  // The order a lossless frontier pops them in from time 0: by arrival,
  // then by crossing seq.  Breadth-first order is crossing order among
  // siblings and puts a flood-parent before its children, and the proof
  // below rejects every other tie, so it stands in for the seq.
  build_order_.clear();
  for (std::uint32_t i = 1; i < build_steps_.size(); ++i) {
    build_order_.push_back(FrontierEntry{timeOrder(build_steps_[i].offset), i});
  }
  std::sort(build_order_.begin(), build_order_.end(),
            [](const FrontierEntry& a, const FrontierEntry& b) {
              return util::quad_heap::before(a, b);
            });

  // One pass in arrival order lays out the entries and checks the order
  // proof.  An arrival h links out is h rounded additions of sums no
  // larger than t0 + dmax, so it lies within h * u * (t0 + dmax) of the
  // exact sum t0 + (sum of its delays), u = 2^-53.  Two consecutive
  // entries keep their order in a flood starting at t0 when their exact
  // gap, which the offsets here know to within the same error at t0 = 0,
  // exceeds both entries' errors at t0.  That holds when the offsets' gap
  // exceeds 4 * hops * epsilon * (t0 + dmax), epsilon = 2u, with room
  // for the rounding of this check.  Siblings over links of bit-equal
  // delay are exempt: they arrive at bit-equal times at every t0, and
  // their crossing seqs order them as here.
  //
  // Arrival slots: an arrival is kept from its own entry to the last entry
  // that folds from it, and a freed slot is reused first.
  TimeMs gap = Simulator::kForever;
  std::uint32_t used = kSlotSink + 1;
  build_free_.clear();
  build_entries_.clear();
  const ScheduleStep* previous = nullptr;
  for (const FrontierEntry& sorted : build_order_) {
    ScheduleStep& step = build_steps_[sorted.key];
    if (previous != nullptr &&
        (previous->parent != step.parent ||
         up_link_[static_cast<net::NodeId>(previous->link)].delay !=
             up_link_[static_cast<net::NodeId>(step.link)].delay)) {
      gap = std::min(gap, step.offset - previous->offset);
    }
    previous = &step;
    ScheduleStep& parent = build_steps_[step.parent];
    if (--parent.readers == 0) build_free_.push_back(parent.slot);
    if (step.readers != 0) {
      if (build_free_.empty()) {
        step.slot = used++;
      } else {
        step.slot = build_free_.back();
        build_free_.pop_back();
      }
    }
    const auto child = static_cast<net::NodeId>(step.link);
    build_entries_.push_back(
        static_cast<std::uint32_t>(tree.memberIndex(child)) |
        ((step.link & kUpward) != 0 ? kEntryUpward : 0) |
        (parent.slot << kEntryParentShift) | (step.slot << kEntryOwnShift));
  }
  const TimeMs dmax = previous->offset;
  const TimeMs max_start =
      gap / (4.0 * hops * std::numeric_limits<TimeMs>::epsilon()) - dmax;
  if (!(max_start >= 0.0) || used > kEntrySlotMask + 1) return kNilSlot;
  schedules_.push_back(FloodSchedule{
      std::vector<std::uint32_t>(build_entries_.begin(), build_entries_.end()),
      max_start, used});
  // Every flood record holds arrival slots for the largest schedule, so a
  // replay never grows one once every origin has flooded.
  if (used > max_slots_) {
    max_slots_ = used;
    for (Flood& f : floods_) f.arrivals.resize(max_slots_);
  }
  return static_cast<std::uint32_t>(schedules_.size() - 1);
}

std::uint32_t SimNetwork::openFlood(const Packet& packet, bool down_only,
                                    net::NodeId boundary, SendKey key,
                                    std::uint64_t send_hash) {
  std::uint32_t flood;
  if (!free_floods_.empty()) {
    flood = free_floods_.back();
    free_floods_.pop_back();
  } else {
    // Flood ids ride in cursor-lane keys (sim/event_queue.hpp).
    if (floods_.size() >= EventQueue::kMaxFloods) {
      throw std::length_error("SimNetwork: more than 2^20 open floods");
    }
    flood = static_cast<std::uint32_t>(floods_.size());
    // rmrn-lint: allow(HOT-1) arena warm-up: grows once per high-water mark, then slots recycle
    floods_.emplace_back();
    // rmrn-lint: allow(HOT-1) arena warm-up: a new record's replay slots
    floods_.back().arrivals.resize(max_slots_);
  }
  Flood& f = floods_[flood];
  f.packet = packet;
  f.next_seq = 0;
  f.key = key;
  f.send_hash = send_hash;
  f.boundary = boundary;
  f.down_only = down_only;
  f.schedule = kNilSlot;
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
  const bool lost = isPatternKey(f.key)
                        ? patterns_[patternOf(f.key)]
                                   [topology_.tree.memberIndex(link_child)]
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

template <typename Cross>
void SimNetwork::forEachFloodLink(net::NodeId node, net::NodeId came_from,
                                  bool up, Cross&& cross) const {
  if (up) {
    const TreeLink& parent = up_link_[node];
    if (parent.to != net::kInvalidNode && parent.to != came_from) {
      cross(parent, /*link_child=*/node, kUpward);
    }
  }
  const std::uint32_t end = down_offset_[node + 1];
  for (std::uint32_t i = down_offset_[node]; i < end; ++i) {
    const TreeLink& down = down_link_[i];
    if (down.to != came_from) cross(down, down.to, std::uint64_t{0});
  }
}

void SimNetwork::expandFlood(std::uint32_t flood, net::NodeId node,
                             net::NodeId came_from, TimeMs at) {
  // Not a reference to the record: a chaos duplicate opens a record of its
  // own, which may move this one.
  const bool up =
      !floods_[flood].down_only && node != floods_[flood].boundary;
  forEachFloodLink(node, came_from, up,
                   [&](const TreeLink& link, net::NodeId link_child,
                       std::uint64_t upward) {
                     crossTreeLink(flood, node, link, link_child, upward, at);
                   });
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
      simulator_.scheduleCursorAt(at, this, flood);
      return;
    }
    // Routers never deliver: expand straight away.
    expandFlood(flood, node, came_from, at);
  }
  closeFlood(flood);
}

void SimNetwork::replayFlood(std::uint32_t flood) {
  constexpr TimeMs kUnreached = -1.0;  // replayed arrivals are never negative
  const std::vector<net::NodeId>& members = topology_.tree.members();
  // A reference stays valid: nothing in the walk opens a flood record
  // (absorb() sends nothing).
  Flood& f = floods_[flood];
  const std::vector<std::uint32_t>& entries = schedules_[f.schedule].entries;
  const LinkLossPattern* pattern =
      isPatternKey(f.key) ? &patterns_[patternOf(f.key)] : nullptr;
  TimeMs* const arrivals = f.arrivals.data();
  for (std::uint32_t next = f.next_seq; next < entries.size();) {
    const std::uint32_t entry = entries[next++];
    const TimeMs parent_at =
        arrivals[(entry >> kEntryParentShift) & kEntrySlotMask];
    TimeMs& own = arrivals[entry >> kEntryOwnShift];
    if (parent_at < 0.0) {
      own = kUnreached;
      continue;
    }
    // The flood crossed the link when its flood-parent was reached, at
    // parent_at.
    const std::uint32_t member = entry & kEntryMemberMask;
    const net::NodeId child = members[member];
    const TreeLink& up = up_link_[child];
    const bool upward = (entry & kEntryUpward) != 0;
    const net::NodeId node = upward ? up.to : child;
    const net::NodeId came_from = upward ? child : up.to;
    if (!survives(up.slot, parent_at, came_from, node, f.packet,
                  pattern != nullptr ? (*pattern)[member]
                                     : lostOn(f.send_hash, up.slot))) {
      own = kUnreached;
      continue;
    }
    const TimeMs at = parent_at + up.delay;
    own = at;
#if RMRN_CHECKS_ENABLED
    // The schedule build proved the order; an inversion would fire an
    // agent's cursor out of arrival order.
    RMRN_ENSURE(at >= f.last_arrival,
                "SimNetwork: replayed flood arrivals decreased");
    f.last_arrival = at;
#endif
    if (is_agent_[node]) {
      // The sink may take the arrival over (DeliverySink::absorb): it is
      // then delivered as far as the network is concerned, and the walk
      // goes on past it.  A replay has no jitter, duplication or shard.
      if (!offer_arrivals_ || !sink_->absorb(node, f.packet, at)) {
        f.next_seq = next;
        f.cursor_key = child | (upward ? kUpward : 0);
        simulator_.scheduleCursorAt(at, this, flood);
        return;
      }
      countDelivery(node, f.packet, at);
      ++stats_.absorbed_arrivals;
    }
  }
  closeFlood(flood);
}

void SimNetwork::closeFlood(std::uint32_t flood) {
  const SendKey key = floods_[flood].key;
  if (isPatternKey(key)) patternRelease(patternOf(key));
  // rmrn-lint: allow(HOT-1) free list reuses retained capacity; alloc_tests pin the zero-allocation data plane
  free_floods_.push_back(flood);
}

void SimNetwork::onFloodCursor(const FloodCursorEvent& event) {
  const Flood& f = floods_[event.flood];
  const auto [node, came_from] = linkEnds(f.cursor_key);
  const bool replayed = f.schedule != kNilSlot;
  const Packet packet = f.packet;  // copy: the handler may grow floods_
  deliver(node, packet);
  if (replayed) {
    replayFlood(event.flood);
    return;
  }
  expandFlood(event.flood, node, came_from, simulator_.now());
  advanceFlood(event.flood);
}

}  // namespace rmrn::sim
