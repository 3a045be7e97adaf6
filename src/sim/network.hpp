// Packet-level network runtime on top of the discrete-event simulator.
//
// Unicast packets follow shortest (expected-delay) routing paths; multicasts
// flood over the multicast tree.  Every link traversal is accounted as one
// "hop" of bandwidth, matching the paper's "average bandwidth usage per
// packet recovered (hops)" metric, and may drop the packet.  Per §5.1 of the
// paper, link delay and loss are independent of load, and each traversal is
// lost independently with probability p: a data flood reads its forced loss
// pattern, and every other send is lost on a link iff its keyed draw says so
// (sim/keyed_loss.hpp), a pure function of (loss seed, send key, link).
//
// Two forwarding paths produce the same simulation, except that bit-equal
// arrival times of different sends may fire in another order (DESIGN.md
// §10.2):
//   * Closed form — every send, lossy or not, with chaos off, no trace sink
//     and no shard mode.  No loss depends on event order, so a send's whole
//     schedule is fixed when it is sent and only agent arrivals become
//     events: a unicast is one kDeliver at its arrival time (none when a hop
//     loses it), and a tree flood keeps a private frontier heap of in-flight
//     links and one kFloodCursor event for its next agent arrival; a lost
//     link's subtree is never pushed.  Hops, losses and recovery link loads
//     are counted when a link is expanded, at or before the time the packet
//     crosses it.
//   * Hop by hop — the reference: one kForwardHop/kFloodStep event per link
//     crossed, each carrying its send's key.  Chaos, tracing and shard mode
//     need it.
// Both fold arrival times link by link from the send time and decide each
// link with the same draw, so every delivery time is bit-identical between
// them; within one flood, arrivals fire in the same order too.
//
// The forwarding hot path is allocation-free at steady state: in-flight
// events are typed records (sim/event.hpp) in the queue's slab, unicast
// routes live in a recycled per-send path arena (one slot per in-flight
// unicast, released on drop or delivery), forced loss patterns in a
// refcounted pattern arena shared by every event of one flood, closed-form
// floods in a recycled flood arena whose frontiers keep their capacity, and
// per-link recovery accounting is a flat vector indexed by a CSR edge table
// built once at construction.
//
// Protocol agents live at the source and the clients; the network invokes the
// delivery handler only at those nodes (routers forward but never process).
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <utility>
#include <vector>

#include "net/routing.hpp"
#include "net/topology.hpp"
#include "net/types.hpp"
#include "sim/event.hpp"
#include "sim/handoff.hpp"
#include "sim/keyed_loss.hpp"
#include "sim/packet.hpp"
#include "sim/region_map.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "util/rng.hpp"

namespace rmrn::sim {

/// Per-tree-link loss draws for one data multicast: `loss[tree.memberIndex(v)]`
/// is true when the link parent(v) -> v drops the packet.  The root entry is
/// ignored.  Shared across protocols so all three recover identical losses.
using LinkLossPattern = std::vector<bool>;

/// Agent fault states (see sim::FaultInjector for the scheduled process).
///   kCrashed — the agent receives nothing and answers nothing (fail-stop);
///   kStalled — the agent keeps receiving data/repairs but never sees
///              REQUESTs, so it silently ignores every recovery plea
///              (a respond-never Byzantine-ish peer);
///   kSlowed  — REQUEST deliveries are delayed by an extra latency, so the
///              agent answers, just late (stresses timeout adaptation).
/// Routers keep forwarding in every state; only agent behaviour changes.
enum class AgentFault : std::uint8_t { kNone, kCrashed, kStalled, kSlowed };

[[nodiscard]] constexpr std::string_view toString(AgentFault fault) {
  switch (fault) {
    case AgentFault::kNone:
      return "none";
    case AgentFault::kCrashed:
      return "crash";
    case AgentFault::kStalled:
      return "stall";
    case AgentFault::kSlowed:
      return "slow";
  }
  return "?";
}

struct NetworkStats {
  std::uint64_t data_hops = 0;      // link traversals of DATA packets
  std::uint64_t recovery_hops = 0;  // link traversals of REQUEST/REPAIR
  std::uint64_t packets_sent = 0;   // send operations (unicast or multicast)
  std::uint64_t packets_lost = 0;   // individual link drops
  std::uint64_t deliveries = 0;     // handler invocations
  std::uint64_t chaos_link_drops = 0;    // of packets_lost: dropped on a down link
  std::uint64_t duplicates_created = 0;  // extra copies injected by duplication
};

class SimNetwork final : public EventSink {
 public:
  // rmrn-lint: allow(HOT-1) installed once at setup; steady-state delivery only invokes it
  using DeliveryHandler = std::function<void(net::NodeId, const Packet&)>;

  /// `loss_prob` applies per link traversal to every packet that no forced
  /// pattern covers; `loss_seed` keys those draws (sim/keyed_loss.hpp) and
  /// `rng` seeds the chaos draws.  The topology and routing must outlive
  /// the network.
  SimNetwork(Simulator& simulator, const net::Topology& topology,
             const net::Routing& routing, double loss_prob,
             std::uint64_t loss_seed, util::Rng rng);
  /// As above, with the loss seed lossSeedOf(rng).
  SimNetwork(Simulator& simulator, const net::Topology& topology,
             const net::Routing& routing, double loss_prob, util::Rng rng);

  void setDeliveryHandler(DeliveryHandler handler);

  /// Installs a packet-trace sink (see sim/trace.hpp); pass an empty
  /// function to disable.  No overhead when unset.  A sink sees every hop,
  /// so later sends take the per-hop path; sends already in flight on the
  /// closed form finish untraced, so install it before traffic starts.
  void setTraceSink(TraceSink sink);

  /// Failure injection (see AgentFault above).  `slow_extra_ms` is the extra
  /// REQUEST-delivery latency for kSlowed and ignored otherwise.  Throws on
  /// non-agent nodes.  Protocol timeouts route around faulted agents.
  void setAgentFault(net::NodeId agent, AgentFault fault,
                     double slow_extra_ms = 0.0);
  [[nodiscard]] AgentFault agentFault(net::NodeId agent) const;

  /// Crash-only shorthands kept for existing callers: `failed` maps to
  /// AgentFault::kCrashed and isAgentFailed() reports crashes only.
  void setAgentFailed(net::NodeId agent, bool failed);
  [[nodiscard]] bool isAgentFailed(net::NodeId agent) const;

  /// Link-level chaos (DESIGN.md §9).  State lives in flat per-edge arrays
  /// indexed by the CSR undirected edge id, so the forwarding hot path stays
  /// allocation-free.  All chaos draws come from a dedicated RNG substream
  /// forked at construction; loss draws are keyed, not streamed, so chaos
  /// never changes which (send, link) pairs are lost.
  ///
  /// Any chaos setter flips the network into chaos mode permanently (for the
  /// run); protocols key hardened behaviour off chaosEnabled().  Chaos sends
  /// take the per-hop path; sends already in flight on the closed form when
  /// chaos is first enabled finish on it, so enable chaos before traffic
  /// starts (FaultInjector does, at construction).
  void enableChaos();
  [[nodiscard]] bool chaosEnabled() const { return chaos_active_; }
  /// Takes the undirected link {a, b} down (packets crossing it are dropped
  /// and counted as chaos_link_drops) or back up.  Packets already in flight
  /// across the link are unaffected — a flap loses only new traversals.
  void setLinkState(net::NodeId a, net::NodeId b, bool up);
  [[nodiscard]] bool isLinkUp(net::NodeId a, net::NodeId b) const;
  /// Per-traversal duplication: with probability `prob` a packet crossing the
  /// link is delivered twice (the copy gets an independent jitter draw and,
  /// as a second transmission, its own loss key).
  void setLinkDuplicationProb(net::NodeId a, net::NodeId b, double prob);
  void setAllLinksDuplicationProb(double prob);
  /// Reorder jitter: each traversal (and each duplicate) adds an independent
  /// uniform extra delay in [0, jitter_ms], so same-link packets can overtake
  /// each other.
  void setLinkJitterMs(net::NodeId a, net::NodeId b, double jitter_ms);
  void setAllLinksJitterMs(double jitter_ms);
  /// Whether `v` can still be recovered from the source under the CURRENT
  /// link state: conservative — both the static unicast route source <-> v
  /// and v's tree root path (repair multicasts) must be fully up.  Cold
  /// path (allocates); meant for end-of-run reachability accounting.
  [[nodiscard]] bool reachableFromSource(net::NodeId v) const;

  /// Shard mode (conservative parallel engine, DESIGN.md §14): this network
  /// instance simulates only the nodes of `my_region`; a packet whose next
  /// hop leaves the region is appended to `outbox` (with this region's loss
  /// and chaos draws already applied, and its send key for the receiver's
  /// draws) instead of being scheduled locally.
  /// `regions` and `outbox` must outlive the network.  Every send of a
  /// shard-mode network runs the per-hop path.  Serial networks never call
  /// this and behave exactly as before — every shard check degrades to one
  /// predictable null test.
  void enableShardMode(const RegionMap& regions, std::uint32_t my_region,
                       std::vector<RoutedHandoff>* outbox);
  /// True when node `v` is simulated by this instance (always true serially).
  [[nodiscard]] bool isShardLocal(net::NodeId v) const {
    return regions_ == nullptr || regions_->regionOf(v) == my_region_;
  }
  /// True when this instance owns the multicast source (true serially).
  [[nodiscard]] bool shardOwnsSource() const {
    return isShardLocal(topology_.source);
  }
  /// Stages the forced loss pattern of the next data multicast (call in
  /// ascending seq order before the run).  Every region stages the identical
  /// pattern sequence, so the returned arena ids agree across regions and
  /// travel in flood handoffs.  Staged slots stay pinned for the run.
  std::uint32_t stageLossPattern(const LinkLossPattern& loss);
  /// Materializes a handoff emitted by another region (engine barrier only;
  /// `handoff.at` must not be in this region's past).
  void injectHandoff(const ShardHandoff& handoff);
  /// Cross-region packets this instance has emitted.
  [[nodiscard]] std::uint64_t handoffsEmitted() const { return handoffs_out_; }

  /// Sends `packet` from `from` to `to` along the shortest path.  Loss on
  /// any hop silently drops the packet (recovery relies on timeouts).  Every
  /// send below is keyed by its sending node and that node's send counter.
  void unicast(net::NodeId from, net::NodeId to, Packet packet);

  /// Source multicast down the tree.  When `forced_loss` is non-null it
  /// overrides random sampling on the tree links (fairness across protocols);
  /// recovery multicasts pass nullptr.
  void multicastFromSource(Packet packet,
                           const LinkLossPattern* forced_loss = nullptr);

  /// SRM-style group multicast: floods from a member over every tree link
  /// (up through the parent as well as down), reaching the whole group.
  void multicastGroup(net::NodeId from, Packet packet);

  /// RMA-style scoped multicast: floods from `from` but never crosses out of
  /// the subtree rooted at `subtree_root`.  `from` must be inside it.
  void multicastSubtree(net::NodeId subtree_root, net::NodeId from,
                        Packet packet);

  /// Source-style scoped multicast for the subgroup recovery mode (paper
  /// ref [4]): the packet crosses the tree link into `subtree_root` from its
  /// parent, which keys the send, and then floods downward only.  With
  /// `subtree_root` equal to the tree root this is a plain source multicast.
  void multicastDownInto(net::NodeId subtree_root, Packet packet);

  /// Sum of tree-link delays from the source down to member `v` (the time a
  /// loss-free data packet takes to arrive).
  [[nodiscard]] net::DelayMs treeArrivalDelay(net::NodeId v) const;

  [[nodiscard]] const NetworkStats& stats() const { return stats_; }
  void resetStats();

  /// Deliveries (handler invocations) at agent `v`, by packet type — e.g.
  /// REQUESTs delivered at the source measure the recovery load §2.2 of the
  /// paper worries about.
  [[nodiscard]] std::uint64_t deliveriesAt(net::NodeId v,
                                           Packet::Type type) const;

  /// Per-link traversal accounting for RECOVERY traffic (requests, repairs,
  /// parities); off by default.  When on, each traversal is one increment of
  /// a flat per-edge counter (no hashing on the hot path).
  void enableLinkAccounting(bool enabled);
  /// Recovery traversals of the undirected edge {a, b}.  Throws
  /// std::invalid_argument when the graph has no such edge.
  [[nodiscard]] std::uint64_t recoveryLinkLoad(net::NodeId a,
                                               net::NodeId b) const;
  /// Total recovery traversals across all links (0 when accounting is off).
  [[nodiscard]] std::uint64_t totalRecoveryLinkLoad() const;
  /// Heaviest-loaded link's recovery traversal count (0 when accounting is
  /// off or no recovery traffic flowed).
  [[nodiscard]] std::uint64_t maxRecoveryLinkLoad() const;

  [[nodiscard]] double lossProb() const { return loss_prob_; }
  [[nodiscard]] const net::Topology& topology() const { return topology_; }
  [[nodiscard]] const net::Routing& routing() const { return routing_; }
  [[nodiscard]] Simulator& simulator() { return simulator_; }

  /// Typed-event dispatch (deliveries, forwarding hops, flood steps and
  /// cursors).
  void onEvent(const EventRecord& event) override;

 private:
  static constexpr std::uint32_t kNilSlot = 0xffffffffu;
  struct Flood;     // closed-form flood record (below)
  struct TreeLink;  // a tree link as the closed form walks it (below)

  void deliver(net::NodeId at, const Packet& packet);
  void deliverNow(net::NodeId at, const Packet& packet);
  /// Sends the unicast in path-arena slot `path` across hop `hop` (draws the
  /// loss with `key`, schedules the arrival).  Releases the slot on a drop.
  void sendHop(std::uint32_t path, std::uint32_t hop, SendKey key,
               const Packet& packet);
  void onForwardHop(const ForwardHopEvent& event);
  /// Floods from `node` over tree links, skipping `came_from`.  `down_only`
  /// restricts to child links; `boundary` (kInvalidNode = none) is a node
  /// whose parent link must not be crossed upward.  `key` keys the loss
  /// draws, or names a forced pattern, on which every event this schedules
  /// takes a reference.
  void floodFrom(net::NodeId node, net::NodeId came_from, const Packet& packet,
                 bool down_only, net::NodeId boundary, SendKey key);
  void onFloodStep(const FloodStepEvent& event);

  /// True when sends take the closed-form path.
  [[nodiscard]] bool closedForm() const {
    return !chaos_active_ && !trace_sink_ && regions_ == nullptr;
  }
  /// The key of `sender`'s next send: its node id and own send counter.
  [[nodiscard]] SendKey nextKey(net::NodeId sender);
  /// The key a chaos duplicate made at `at` draws with: a fresh send of
  /// `at`, as the copy is a second transmission; a forced pattern stays.
  [[nodiscard]] SendKey copyKey(SendKey key, net::NodeId at);
  /// Whether the send with hash `send_hash` (sendHash of its key) is lost
  /// on CSR half-edge `slot`.
  [[nodiscard]] bool lostOn(std::uint64_t send_hash, std::uint32_t slot) const;
  /// Closed-form unicast along the route in path-arena slot `path`: counts
  /// every hop now, up to the first one that `key` loses, schedules one
  /// kDeliver at arrival unless a hop lost it, and releases the slot.
  void unicastClosedForm(std::uint32_t path, SendKey key,
                         const Packet& packet);
  /// Closed-form flood from `origin` (throws when it is not a tree member):
  /// opens the record, expands `origin` and schedules the first cursor.
  void floodClosedForm(net::NodeId origin, const Packet& packet,
                       bool down_only, net::NodeId boundary, SendKey key);
  /// Opens a closed-form flood record (taking over one reference on a
  /// forced pattern) and returns its arena id.
  [[nodiscard]] std::uint32_t openFlood(const Packet& packet, bool down_only,
                                        net::NodeId boundary, SendKey key);
  /// Counts `link` (the tree link above `link_child`, crossed upward when
  /// `upward` is kUpward, else downward) entered at `at`; unless the flood's
  /// forced pattern or keyed draw loses it, pushes its arrival onto the
  /// flood's frontier.
  void crossTreeLink(Flood& flood, const TreeLink& link,
                     net::NodeId link_child, std::uint64_t upward, TimeMs at);
  /// (node reached, node it came from) of a frontier entry's link.
  [[nodiscard]] std::pair<net::NodeId, net::NodeId> linkEnds(
      std::uint64_t key) const;
  /// Pushes every link `node` floods across (the same links, in the same
  /// order, as floodFrom) onto the flood's frontier, arriving `at` + delay.
  void expandFlood(std::uint32_t flood, net::NodeId node,
                   net::NodeId came_from, TimeMs at);
  /// Pops the frontier, expanding routers, until an agent arrival is found
  /// and scheduled as the flood's cursor; closes the flood when none is left.
  void advanceFlood(std::uint32_t flood);
  void onFloodCursor(const FloodCursorEvent& event);
  /// Counts a hop across the CSR half-edge `slot` — the hot paths resolve
  /// the slot once and reuse it for delay, edge id, and accounting.
  void countHopSlot(const Packet& packet, std::uint32_t slot);
  [[nodiscard]] net::DelayMs treeLinkDelay(net::NodeId child) const;
  void trace(TraceEvent::Kind kind, net::NodeId from, net::NodeId to,
             const Packet& packet);

  /// Link delay for the CSR half-edge `slot`, plus that edge's chaos jitter
  /// draw when armed.  Identical to edge_delay_[slot] with chaos off.
  [[nodiscard]] net::DelayMs chaosDelay(std::uint32_t slot);
  /// Shard mode: appends `handoff` (every field but `at` set) to the outbox
  /// for `to`'s region, arriving after `slot`'s chaos delay; a chaos
  /// duplicate on `slot` (crossed from `from`) becomes a second handoff with
  /// its own delay and loss key.
  void handOff(std::uint32_t slot, net::NodeId from, net::NodeId to,
               ShardHandoff handoff);
  /// True when chaos dropped the packet on `slot`'s down link (counted and
  /// traced); hot-path guard shared by every send site.
  bool chaosDropped(std::uint32_t slot, net::NodeId from, net::NodeId to,
                    const Packet& packet);
  /// One chaos duplication draw for `slot`; false when chaos is off or the
  /// edge's duplication probability is zero.
  bool chaosDuplicates(std::uint32_t slot);

  // Arena slot management.  Released slots keep their vector capacity, so a
  // warmed-up arena serves the steady state without touching the heap.
  // Paths are refcounted (normally one in-flight copy per slot; link
  // duplication adds a reference per extra copy).
  [[nodiscard]] std::uint32_t acquirePath();
  void pathAddRef(std::uint32_t path);
  void releasePath(std::uint32_t path);
  [[nodiscard]] std::uint32_t acquirePattern(const LinkLossPattern& loss);
  void patternAddRef(std::uint32_t pattern);
  void patternRelease(std::uint32_t pattern);

  /// Flat id of the undirected edge {a, b} in the CSR edge index; throws
  /// std::invalid_argument when absent.
  [[nodiscard]] std::uint32_t edgeSlot(net::NodeId a, net::NodeId b) const;

  Simulator& simulator_;
  const net::Topology& topology_;
  const net::Routing& routing_;
  double loss_prob_;
  std::uint64_t loss_seed_;
  std::uint64_t loss_threshold_ = 0;  // lossThreshold(loss_prob_)
  std::vector<std::uint32_t> sends_;  // send counter, by NodeId
  DeliveryHandler handler_;
  TraceSink trace_sink_;
  std::vector<bool> is_agent_;               // clients + source, by NodeId
  std::vector<AgentFault> agent_fault_;      // fault injection, by NodeId
  std::vector<double> agent_slow_extra_ms_;  // kSlowed request delay, by NodeId
  std::vector<net::DelayMs> arrival_delay_;  // by memberIndex
  NetworkStats stats_;
  // deliveries_by_type_[node * 4 + type]; sized at construction so reads
  // before the first delivery are well-defined.
  std::vector<std::uint64_t> deliveries_by_type_;

  // CSR edge index: neighbors of v are edge_peer_[edge_offset_[v] ..
  // edge_offset_[v+1]) in ascending NodeId order; edge_id_ and edge_delay_
  // in parallel map each half-edge to its undirected edge's flat id in
  // [0, numEdges()) and its propagation delay, so one binary search per hop
  // yields delay, accounting id, and hop counting together.
  std::vector<std::uint32_t> edge_offset_;
  std::vector<net::NodeId> edge_peer_;
  std::vector<std::uint32_t> edge_id_;
  std::vector<net::DelayMs> edge_delay_;
  // CSR slot of each member's parent link, by memberIndex (kNilSlot for the
  // root): floods walk tree links only, so they never search the CSR.
  std::vector<std::uint32_t> tree_slot_;
  bool link_accounting_ = false;
  std::vector<std::uint64_t> link_load_;  // by undirected edge id

  // Link chaos state, by undirected edge id (flat, sized at construction).
  // chaos_rng_ is a fork of the construction RNG, the network's only
  // sequential stream; chaos-off runs never draw from it.
  bool chaos_active_ = false;
  util::Rng chaos_rng_;
  std::vector<std::uint8_t> link_down_;
  std::vector<double> link_dup_prob_;
  std::vector<double> link_jitter_ms_;

  // Path arena: one in-flight unicast route per slot, refcounted so link
  // duplication can put several copies in flight on one route.
  std::vector<std::vector<net::NodeId>> paths_;
  std::vector<std::uint32_t> path_refs_;
  std::vector<std::uint32_t> free_paths_;

  // Loss-pattern arena: one forced pattern per flood, refcounted by the
  // flood's outstanding events (plus one for the sending scope).  A send
  // names its pattern by patternKey(id).
  std::vector<LinkLossPattern> patterns_;
  std::vector<std::uint32_t> pattern_refs_;
  std::vector<std::uint32_t> free_patterns_;

  // Closed-form flood arena.  A frontier entry is a tree link the flood
  // crosses (its arrival may lie ahead of now) whose far end is not yet
  // expanded.  Entries form a 4-ary min-heap on (arrival time, per-flood
  // crossing seq); the seq replays the reference path's insertion order, so
  // ties within one flood resolve exactly as there.  A link is named by its
  // child end plus a direction bit, which fixes both the node reached and
  // the node it came from, so an entry is 16 bytes.
  static constexpr std::uint64_t kUpward = std::uint64_t{1} << 32;
  struct FrontierEntry {
    std::uint64_t order;  // timeOrder(arrival)
    std::uint64_t key;    // (seq << 33) | upward bit | link child
  };
  struct Flood {
    Packet packet;
    std::vector<FrontierEntry> frontier;
    std::uint64_t cursor_key = 0;  // the arrival the cursor event waits for
    SendKey key = 0;
    std::uint64_t send_hash = 0;  // sendHash(loss_seed_, key)
    std::uint32_t next_seq = 0;
    net::NodeId boundary = net::kInvalidNode;
    bool down_only = false;
  };
  std::vector<Flood> floods_;
  std::vector<std::uint32_t> free_floods_;
  // Tree adjacency by NodeId for flood expansion: up_link_[v] is v's parent
  // link (to = kInvalidNode for the root and non-members) and v's child
  // links are down_link_[down_offset_[v] .. down_offset_[v + 1]).
  struct TreeLink {
    net::DelayMs delay;  // edge_delay_[slot]
    std::uint32_t slot;  // CSR half-edge slot
    net::NodeId to;      // the far end
  };
  std::vector<TreeLink> up_link_;
  std::vector<std::uint32_t> down_offset_;
  std::vector<TreeLink> down_link_;

  // Shard mode (all null/empty serially).  staged_by_seq_ maps data seq ->
  // pinned pattern arena id; identical in every region by construction.
  const RegionMap* regions_ = nullptr;
  std::uint32_t my_region_ = 0;
  std::vector<RoutedHandoff>* outbox_ = nullptr;
  std::vector<std::uint32_t> staged_by_seq_;
  std::uint64_t handoffs_out_ = 0;
};

}  // namespace rmrn::sim
