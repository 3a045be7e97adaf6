// Test-only reference transport: a hop-by-hop forwarder with SimNetwork's
// send API, against which closed_form_test checks SimNetwork's closed form
// (DESIGN.md §10.2).
//
// Every link crossing is one event here: a send is decided one hop at a
// time, when the packet reaches each node, exactly as the paper's §5.1
// model reads.  Each crossing draws the same keyed loss, jitter and
// duplication as SimNetwork (sim/keyed_loss.hpp: by loss seed, send key
// and CSR half-edge slot, with SimNetwork's slot numbering), reads the
// staged link timeline at the time the hop starts, and a duplicate is one
// more event chain with its copy key.  Only agents (source and clients)
// get deliveries, through the same fault triage.  Nothing here aims for
// speed or allocation-freedom.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/routing.hpp"
#include "net/topology.hpp"
#include "sim/event.hpp"
#include "sim/keyed_loss.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace rmrn::test_support {

class HopNetwork final : public sim::EventSink {
 public:
  using DeliveryHandler = std::function<void(net::NodeId, const sim::Packet&)>;

  HopNetwork(sim::Simulator& simulator, const net::Topology& topology,
             const net::Routing& routing, double loss_prob,
             std::uint64_t loss_seed)
      : simulator_(simulator),
        topology_(topology),
        routing_(routing),
        loss_seed_(loss_seed),
        loss_threshold_(sim::lossThreshold(loss_prob)) {
    const std::size_t n = topology_.graph.numNodes();
    sends_.assign(n, 0);
    is_agent_.assign(n, false);
    is_agent_[topology_.source] = true;
    for (const net::NodeId c : topology_.clients) is_agent_[c] = true;
    fault_.assign(n, sim::AgentFault::kNone);
    slow_extra_ms_.assign(n, 0.0);
    // SimNetwork's CSR numbering: each node's neighbors ascending, one
    // half-edge slot each, rows in node order.
    row_.assign(n + 1, 0);
    for (net::NodeId v = 0; v < n; ++v) {
      std::vector<net::NodeId> row;
      for (const net::HalfEdge& half : topology_.graph.neighbors(v)) {
        row.push_back(half.to);
      }
      std::sort(row.begin(), row.end());
      peer_.insert(peer_.end(), row.begin(), row.end());
      row_[v + 1] = static_cast<std::uint32_t>(peer_.size());
    }
  }

  void setDeliveryHandler(DeliveryHandler handler) {
    handler_ = std::move(handler);
  }
  void setTraceSink(sim::TraceSink sink) { trace_sink_ = std::move(sink); }
  void setAgentFault(net::NodeId agent, sim::AgentFault fault,
                     double slow_extra_ms = 0.0) {
    fault_[agent] = fault;
    slow_extra_ms_[agent] =
        fault == sim::AgentFault::kSlowed ? slow_extra_ms : 0.0;
  }
  void stageLinkState(net::NodeId a, net::NodeId b, sim::TimeMs at,
                      bool /*up: each change flips the link*/) {
    link_changes_[edge(a, b)].push_back(at);
  }
  void setAllLinksDuplicationProb(double prob) {
    dup_threshold_ = sim::lossThreshold(prob);
  }
  void setAllLinksJitterMs(double jitter_ms) { jitter_ms_ = jitter_ms; }

  [[nodiscard]] const sim::NetworkStats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t recoveryLinkLoad(net::NodeId a,
                                               net::NodeId b) const {
    const auto it = link_load_.find(edge(a, b));
    return it == link_load_.end() ? 0 : it->second;
  }
  /// Events fired at a link crossing's far end (one per hop).
  [[nodiscard]] std::uint64_t hopEvents() const { return hop_events_; }

  void unicast(net::NodeId from, net::NodeId to, sim::Packet packet) {
    ++stats_.packets_sent;
    if (from == to) {
      schedule(0.0, Pending{Pending::kDeliver, to, {}, 0, 0, packet});
      return;
    }
    auto route = std::make_shared<std::vector<net::NodeId>>();
    routing_.pathInto(from, to, *route);
    if (route->size() < 2) throw std::invalid_argument("no route");
    sendHop(route, 0, nextKey(from), packet);
  }

  void multicastFromSource(sim::Packet packet,
                           const sim::LinkLossPattern* forced_loss = nullptr) {
    ++stats_.packets_sent;
    const net::NodeId root = topology_.tree.root();
    if (forced_loss == nullptr) {
      floodFrom(root, net::kInvalidNode,
                keyed(packet, net::kInvalidNode, true, nextKey(root)));
      return;
    }
    // A forced-pattern flood draws chaos by patternKey(seq).
    Flood flood =
        keyed(packet, net::kInvalidNode, /*down_only=*/true,
              sim::patternKey(static_cast<std::uint32_t>(packet.seq)));
    flood.pattern = std::make_shared<sim::LinkLossPattern>(*forced_loss);
    floodFrom(root, net::kInvalidNode, flood);
  }

  void multicastGroup(net::NodeId from, sim::Packet packet) {
    ++stats_.packets_sent;
    floodFrom(from, net::kInvalidNode,
              keyed(packet, net::kInvalidNode, false, nextKey(from)));
  }

  void multicastSubtree(net::NodeId subtree_root, net::NodeId from,
                        sim::Packet packet) {
    ++stats_.packets_sent;
    floodFrom(from, net::kInvalidNode,
              keyed(packet, subtree_root, false, nextKey(from)));
  }

  void multicastDownInto(net::NodeId subtree_root, sim::Packet packet) {
    ++stats_.packets_sent;
    const auto& tree = topology_.tree;
    if (subtree_root == tree.root()) {
      floodFrom(subtree_root, net::kInvalidNode,
                keyed(packet, net::kInvalidNode, true, nextKey(subtree_root)));
      return;
    }
    const net::NodeId parent = tree.parent(subtree_root);
    crossTreeLink(parent, subtree_root, subtree_root,
                  keyed(packet, net::kInvalidNode, true, nextKey(parent)));
  }

  void onEvent(const sim::EventRecord& record) override {
    const Pending event = pending_[record.data.timer.a];
    switch (event.kind) {
      case Pending::kDeliver:
        deliver(event.node, event.packet);
        return;
      case Pending::kDirect:
        deliverNow(event.node, event.packet);
        return;
      case Pending::kHop: {
        ++hop_events_;
        const std::vector<net::NodeId>& route = *event.route;
        const std::uint32_t next = event.hop + 1;
        if (next + 1 == route.size()) {
          deliver(route[next], event.packet);
        } else {
          sendHop(event.route, next, event.key, event.packet);
        }
        return;
      }
      case Pending::kFloodStep:
        ++hop_events_;
        deliver(event.node, event.flood.packet);
        floodFrom(event.node, event.came_from, event.flood);
        return;
    }
  }

 private:
  /// A flood's state as it travels: its draws start from `hash`, and its
  /// losses follow `pattern` when it has one.
  struct Flood {
    sim::Packet packet;
    net::NodeId boundary;
    bool down_only;
    std::uint64_t hash;
    std::shared_ptr<const sim::LinkLossPattern> pattern;
  };
  [[nodiscard]] Flood keyed(const sim::Packet& packet, net::NodeId boundary,
                            bool down_only, sim::SendKey key) const {
    return Flood{packet, boundary, down_only, sim::sendHash(loss_seed_, key),
                 nullptr};
  }
  struct Pending {
    enum Kind { kDeliver, kDirect, kHop, kFloodStep } kind;
    net::NodeId node;  // deliveries, flood steps: the node reached
    std::shared_ptr<const std::vector<net::NodeId>> route;  // kHop
    std::uint32_t hop;
    sim::SendKey key;  // kHop
    sim::Packet packet;
    net::NodeId came_from = net::kInvalidNode;  // kFloodStep
    Flood flood{};                              // kFloodStep
  };

  [[nodiscard]] std::pair<net::NodeId, net::NodeId> edge(net::NodeId a,
                                                        net::NodeId b) const {
    return {std::min(a, b), std::max(a, b)};
  }
  [[nodiscard]] std::uint32_t slotOf(net::NodeId a, net::NodeId b) const {
    const auto begin = peer_.begin() + row_[a];
    const auto end = peer_.begin() + row_[a + 1];
    const auto it = std::lower_bound(begin, end, b);
    if (it == end || *it != b) throw std::invalid_argument("no edge");
    return static_cast<std::uint32_t>(it - peer_.begin());
  }
  [[nodiscard]] sim::SendKey nextKey(net::NodeId sender) {
    return sim::sendKey(sender, sends_[sender]++);
  }
  [[nodiscard]] bool linkDown(net::NodeId a, net::NodeId b) const {
    const auto it = link_changes_.find(edge(a, b));
    if (it == link_changes_.end()) return false;
    const auto passed = std::upper_bound(it->second.begin(), it->second.end(),
                                         simulator_.now()) -
                        it->second.begin();
    return passed % 2 == 1;
  }
  [[nodiscard]] sim::TimeMs delayOf(std::uint32_t slot, net::NodeId a,
                                    net::NodeId b, std::uint64_t hash) const {
    // NOLINTNEXTLINE(bugprone-unchecked-optional-access): a real edge
    double delay = *topology_.graph.edgeDelay(a, b);
    if (jitter_ms_ > 0.0) {
      delay += sim::jitterOf(sim::chaosDraw(hash, sim::kJitterSalt, slot),
                             jitter_ms_);
    }
    return delay;
  }
  [[nodiscard]] bool duplicates(std::uint32_t slot, std::uint64_t hash) const {
    return dup_threshold_ != 0 &&
           sim::chaosDraw(hash, sim::kDuplicateSalt, slot) < dup_threshold_;
  }
  void trace(sim::TraceEvent::Kind kind, net::NodeId from, net::NodeId to,
             const sim::Packet& packet) {
    if (trace_sink_) {
      trace_sink_(sim::TraceEvent{simulator_.now(), kind, from, to, packet});
    }
  }
  void countHop(const sim::Packet& packet, net::NodeId a, net::NodeId b) {
    if (packet.type == sim::Packet::Type::kData) {
      ++stats_.data_hops;
      return;
    }
    ++stats_.recovery_hops;
    ++link_load_[edge(a, b)];
  }
  /// Counts and traces the crossing a -> b; true when it survives chaos and
  /// the loss `lost` names.
  bool survives(net::NodeId a, net::NodeId b, const sim::Packet& packet,
                bool lost) {
    countHop(packet, a, b);
    trace(sim::TraceEvent::Kind::kHopSend, a, b, packet);
    if (linkDown(a, b)) {
      ++stats_.packets_lost;
      ++stats_.chaos_link_drops;
      trace(sim::TraceEvent::Kind::kHopDrop, a, b, packet);
      return false;
    }
    if (lost) {
      ++stats_.packets_lost;
      trace(sim::TraceEvent::Kind::kHopDrop, a, b, packet);
      return false;
    }
    return true;
  }
  void schedule(sim::TimeMs delay, Pending pending) {
    sim::EventRecord record{sim::EventKind::kTimer, {}};
    record.data.timer = sim::TimerEvent{0, pending_.size(), 0, 0};
    pending_.push_back(std::move(pending));
    simulator_.scheduleEventAfter(delay, this, record);
  }

  void sendHop(const std::shared_ptr<const std::vector<net::NodeId>>& route,
               std::uint32_t hop, sim::SendKey key, const sim::Packet& packet) {
    const net::NodeId a = (*route)[hop];
    const net::NodeId b = (*route)[hop + 1];
    const std::uint32_t slot = slotOf(a, b);
    const std::uint64_t hash = sim::sendHash(loss_seed_, key);
    const bool lost =
        loss_threshold_ != 0 && sim::linkDraw(hash, slot) < loss_threshold_;
    if (!survives(a, b, packet, lost)) return;
    schedule(delayOf(slot, a, b, hash),
             Pending{Pending::kHop, b, route, hop, key, packet});
    if (duplicates(slot, hash)) {
      ++stats_.duplicates_created;
      countHop(packet, a, b);  // the copy traversed the link too
      const sim::SendKey copy = sim::copyKey(hash, slot);
      schedule(delayOf(slot, a, b, sim::sendHash(loss_seed_, copy)),
               Pending{Pending::kHop, b, route, hop, copy, packet});
    }
  }

  /// Floods from `node` over tree links other than the one to `came_from`:
  /// the parent link first (unless down-only or at the boundary), then the
  /// children in tree order.
  void floodFrom(net::NodeId node, net::NodeId came_from, const Flood& flood) {
    const auto& tree = topology_.tree;
    if (!flood.down_only && node != flood.boundary && node != tree.root()) {
      const net::NodeId up = tree.parent(node);
      if (up != came_from) crossTreeLink(node, up, node, flood);
    }
    for (const net::NodeId child : tree.children(node)) {
      if (child != came_from) crossTreeLink(node, child, child, flood);
    }
  }

  /// Crosses the tree link above `link_child` from `from` to `to`.  A tree
  /// link draws by its slot in the parent's row, in either direction.
  void crossTreeLink(net::NodeId from, net::NodeId to, net::NodeId link_child,
                     const Flood& flood) {
    const std::uint32_t slot =
        slotOf(topology_.tree.parent(link_child), link_child);
    const std::uint64_t hash = flood.hash;
    const bool lost =
        flood.pattern
            ? (*flood.pattern)[topology_.tree.memberIndex(link_child)]
            : loss_threshold_ != 0 &&
                  sim::linkDraw(hash, slot) < loss_threshold_;
    if (!survives(from, to, flood.packet, lost)) return;
    Pending step{Pending::kFloodStep, to, nullptr, 0, 0, flood.packet};
    step.came_from = from;
    step.flood = flood;
    schedule(delayOf(slot, from, to, hash), step);
    if (duplicates(slot, hash)) {
      // The copy re-floods everything beyond the link with its own key; a
      // forced pattern's losses still hold for it.
      ++stats_.duplicates_created;
      countHop(flood.packet, from, to);
      step.flood.hash = sim::sendHash(loss_seed_, sim::copyKey(hash, slot));
      schedule(delayOf(slot, from, to, step.flood.hash), step);
    }
  }

  void deliver(net::NodeId at, const sim::Packet& packet) {
    if (!is_agent_[at] || !handler_) return;
    switch (fault_[at]) {
      case sim::AgentFault::kCrashed:
        return;
      case sim::AgentFault::kStalled:
        if (packet.type == sim::Packet::Type::kRequest) return;
        break;
      case sim::AgentFault::kSlowed:
        if (packet.type == sim::Packet::Type::kRequest &&
            slow_extra_ms_[at] > 0.0) {
          schedule(slow_extra_ms_[at],
                   Pending{Pending::kDirect, at, nullptr, 0, 0, packet});
          return;
        }
        break;
      case sim::AgentFault::kNone:
        break;
    }
    deliverNow(at, packet);
  }
  void deliverNow(net::NodeId at, const sim::Packet& packet) {
    if (!handler_ || fault_[at] == sim::AgentFault::kCrashed) return;
    ++stats_.deliveries;
    trace(sim::TraceEvent::Kind::kDeliver, net::kInvalidNode, at, packet);
    handler_(at, packet);
  }

  sim::Simulator& simulator_;
  const net::Topology& topology_;
  const net::Routing& routing_;
  std::uint64_t loss_seed_;
  std::uint64_t loss_threshold_;
  std::uint64_t dup_threshold_ = 0;
  double jitter_ms_ = 0.0;
  std::vector<std::uint32_t> sends_;
  std::vector<bool> is_agent_;
  std::vector<sim::AgentFault> fault_;
  std::vector<double> slow_extra_ms_;
  std::vector<std::uint32_t> row_;
  std::vector<net::NodeId> peer_;
  std::map<std::pair<net::NodeId, net::NodeId>, std::vector<sim::TimeMs>>
      link_changes_;
  std::map<std::pair<net::NodeId, net::NodeId>, std::uint64_t> link_load_;
  DeliveryHandler handler_;
  sim::TraceSink trace_sink_;
  sim::NetworkStats stats_;
  std::vector<Pending> pending_;
  std::uint64_t hop_events_ = 0;
};

}  // namespace rmrn::test_support
