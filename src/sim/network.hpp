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
// Link delay, loss, jitter and duplication are independent of load and of
// event order, so every send takes one closed form (DESIGN.md §10.2): its
// whole schedule is fixed when it is sent, and only agent arrivals become
// events.  A unicast is one kDeliver at its arrival time (none when a hop
// loses it); a tree flood keeps a private frontier heap of in-flight links
// and one kFloodCursor event for its next agent arrival, expanding routers
// as it goes; a lost link's subtree is never pushed.  Hops, losses, recovery
// link loads and trace records are produced when a link is expanded, at or
// before the time the packet crosses it, each trace record stamped with
// that time.  Link chaos reads a staged per-edge timeline at the crossing
// time, and a duplicate is one more closed-form branch: a unicast copy
// walks the rest of the route, a flood copy opens its own flood record.  In
// shard mode a send stops at a link into another region and hands the
// crossing over; the receiving region resumes it with one event at the
// arrival, scheduled as decided when the sender decided the crossing, so
// it ties with the receiver's events as in the serial run.  The
// reference it must reproduce — one event per link crossed — lives in
// tests/support/hop_network.hpp: every delivery time is
// bit-identical, arrivals of one flood fire in the same order, and only
// bit-equal arrivals of different sends may fire in another order.
//
// The forwarding hot path is allocation-free at steady state: in-flight
// events are typed records (sim/event.hpp) in the queue's slab, unicast
// routes live in a recycled per-send path arena (one slot per walk or
// handed-over unicast), forced loss patterns in a refcounted pattern arena
// shared by the flood records of one data packet, floods in a recycled
// flood arena whose frontiers keep their capacity, and per-link recovery
// accounting is a flat vector indexed by a CSR edge table built once at
// construction.
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
  /// pattern covers; `loss_seed` keys those draws and every chaos draw
  /// (sim/keyed_loss.hpp).  The topology and routing must outlive the
  /// network.
  SimNetwork(Simulator& simulator, const net::Topology& topology,
             const net::Routing& routing, double loss_prob,
             std::uint64_t loss_seed);

  void setDeliveryHandler(DeliveryHandler handler);

  /// Installs a packet-trace sink (see sim/trace.hpp); pass an empty
  /// function to disable.  No overhead when unset.  A send's hop records
  /// are emitted when the send decides them, ahead of the clock, each with
  /// the time the hop is crossed (TraceRecorder orders them by time); sends
  /// already in flight finish untraced, so install it before traffic.
  void setTraceSink(TraceSink sink);

  /// Failure injection (see AgentFault above).  `slow_extra_ms` is the extra
  /// REQUEST-delivery latency for kSlowed and ignored otherwise.  Throws on
  /// non-agent nodes.  Protocol timeouts route around faulted agents.
  void setAgentFault(net::NodeId agent, AgentFault fault,
                     double slow_extra_ms = 0.0);
  [[nodiscard]] AgentFault agentFault(net::NodeId agent) const;

  /// True when `agent` is crashed (stalled and slowed agents still run).
  [[nodiscard]] bool isAgentFailed(net::NodeId agent) const;

  /// Link-level chaos (DESIGN.md §9).  Chaos draws are keyed like the loss
  /// draws (sim/keyed_loss.hpp): a crossing's jitter and duplication are
  /// pure functions of (loss seed, send, CSR slot), and a duplicate is a
  /// second transmission keyed by its original and the link, so no chaos
  /// outcome depends on the order events fire in.  Link up/down state is a
  /// per-edge timeline staged before traffic; a crossing reads the state at
  /// the time it starts.
  ///
  /// Any chaos setter flips the network into chaos mode permanently (for the
  /// run); protocols key hardened behaviour off chaosEnabled().  A send fixes
  /// its whole schedule when it leaves, so set chaos up before traffic
  /// starts (FaultInjector does, at construction and arm()).
  void enableChaos();
  [[nodiscard]] bool chaosEnabled() const { return chaos_active_; }
  /// Stages a change of the undirected link {a, b} at time `at`: down (a
  /// packet that starts crossing it at or after `at` is dropped and counted
  /// as chaos_link_drops) or back up.  A link's changes must come in time
  /// order and alternate down, up, down, ... (std::invalid_argument
  /// otherwise), and `at` must lie after every crossing already decided
  /// (RMRN_REQUIRE).  Throws std::invalid_argument on an unknown edge.
  void stageLinkState(net::NodeId a, net::NodeId b, TimeMs at, bool up);
  /// Whether {a, b} is up now, by its staged timeline.
  [[nodiscard]] bool isLinkUp(net::NodeId a, net::NodeId b) const;
  /// Per-traversal duplication on every link: with probability `prob` a
  /// packet crossing a link is delivered twice (the copy is a second
  /// transmission with its own jitter, duplication and loss draws; a copy
  /// of a forced-pattern data flood keeps the pattern's losses).
  void setAllLinksDuplicationProb(double prob);
  /// Reorder jitter on every link: each traversal (and each duplicate) adds
  /// a uniform extra delay in [0, jitter_ms), so same-link packets can
  /// overtake each other.
  void setAllLinksJitterMs(double jitter_ms);
  /// Whether `v` can be recovered from the source in the link state at `at`:
  /// conservative — both the static unicast route source <-> v and v's tree
  /// root path (repair multicasts) must be fully up.  Cold path (allocates);
  /// meant for end-of-run reachability accounting.
  [[nodiscard]] bool reachableFromSource(net::NodeId v, TimeMs at) const;

  /// Shard mode (conservative parallel engine, DESIGN.md §14): this network
  /// instance simulates only the nodes of `my_region`; a send stops at a
  /// link into another region and appends a handoff to `outbox`, with the
  /// crossing's loss and chaos draws applied, its computed arrival time and
  /// its send key for the receiver's draws.  `regions` and `outbox` must
  /// outlive the network.  Serial networks never call this and behave
  /// exactly as before — every shard check degrades to one predictable null
  /// test.
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
  /// Schedules the one event that resumes a handoff emitted by another
  /// region at `handoff.at`, as decided at `handoff.decided` (engine
  /// barrier only; `handoff.at` must not be in this region's past): the
  /// unicast walks on, or a fresh flood record expands from the node it
  /// entered.
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

  /// Traversals of the undirected edge {a, b} by RECOVERY traffic
  /// (requests, repairs, parities), counted in a flat per-edge array (no
  /// hashing on the hot path).  Throws std::invalid_argument when the graph
  /// has no such edge.
  [[nodiscard]] std::uint64_t recoveryLinkLoad(net::NodeId a,
                                               net::NodeId b) const;
  /// Total recovery traversals across all links.
  [[nodiscard]] std::uint64_t totalRecoveryLinkLoad() const;
  /// Heaviest-loaded link's recovery traversal count (0 when no recovery
  /// traffic flowed).
  [[nodiscard]] std::uint64_t maxRecoveryLinkLoad() const;

  [[nodiscard]] const net::Topology& topology() const { return topology_; }
  [[nodiscard]] const net::Routing& routing() const { return routing_; }
  [[nodiscard]] Simulator& simulator() { return simulator_; }

  /// Typed-event dispatch (deliveries, unicast resumes, flood cursors).
  void onEvent(const EventRecord& event) override;

 private:
  static constexpr std::uint32_t kNilSlot = 0xffffffffu;
  struct Flood;     // flood record (below)
  struct TreeLink;  // a tree link as a flood walks it (below)

  void deliver(net::NodeId at, const Packet& packet);
  void deliverNow(net::NodeId at, const Packet& packet);
  void onUnicastResume(const UnicastResumeEvent& event);

  /// The key of `sender`'s next send: its node id and own send counter.
  [[nodiscard]] SendKey nextKey(net::NodeId sender);
  /// The hash a send's chaos draws start from: its loss hash, or for a
  /// forced-pattern data flood, which draws no losses, the hash of
  /// patternKey(seq), so its identity does not depend on its arena slot.
  [[nodiscard]] std::uint64_t drawHash(SendKey key, const Packet& packet) const;
  /// Whether the send with hash `send_hash` (sendHash of its key) is lost
  /// on CSR half-edge `slot`.
  [[nodiscard]] bool lostOn(std::uint64_t send_hash, std::uint32_t slot) const;
  /// Walks the unicast in path-arena slot `path`, at route[hop] at time
  /// `at`, keyed `key` and sent at `decided`: counts every hop now, up to
  /// the first one chaos or the key's draw loses, or hands it over at a
  /// region boundary; walks each chaos duplicate's rest of the route with
  /// its own key; schedules a kDeliver at each arrival, as decided at
  /// `decided`.  The caller keeps the slot.
  void walkUnicast(std::uint32_t path, std::uint32_t hop, SendKey key,
                   const Packet& packet, TimeMs at, TimeMs decided);
  /// Floods from `origin` (throws when it is not a tree member): opens the
  /// record, expands `origin` and schedules the first cursor.
  void startFlood(net::NodeId origin, const Packet& packet, bool down_only,
                 net::NodeId boundary, SendKey key);
  /// Opens a flood record keyed `key` whose draws start from `send_hash`
  /// (taking over one reference on a forced pattern) and returns its arena
  /// id.
  [[nodiscard]] std::uint32_t openFlood(const Packet& packet, bool down_only,
                                        net::NodeId boundary, SendKey key,
                                        std::uint64_t send_hash);
  /// Counts `link` (the tree link above `link_child`, crossed from `from`,
  /// upward when `upward` is kUpward, else downward) entered at `at`;
  /// unless chaos, the forced pattern or the keyed draw loses it, pushes
  /// its arrival onto the flood's frontier.
  void crossTreeLink(std::uint32_t flood, net::NodeId from,
                     const TreeLink& link, net::NodeId link_child,
                     std::uint64_t upward, TimeMs at);
  /// `flood`'s surviving crossing of `link` (frontier link key `link_key`)
  /// entered at `at` and arriving at `arrival`, in shard mode or under
  /// duplication: pushes it, or hands it over when its far end lies in
  /// another region; a chaos duplicate opens a flood record of its own
  /// starting at the link (or is handed over too).
  void branchFlood(std::uint32_t flood, net::NodeId from, const TreeLink& link,
                   std::uint64_t link_key, TimeMs at, TimeMs arrival);
  /// The unicast in path slot `path` crossed hop `hop` (CSR half-edge
  /// `slot`) at `at`, arriving at `arrival`, in shard mode or under
  /// duplication: hands it over when the far end lies in another region,
  /// and walks or hands over a chaos duplicate.  False when the walk ends
  /// here.
  bool branchUnicast(std::uint32_t path, std::uint32_t hop, std::uint32_t slot,
                     SendKey key, const Packet& packet, TimeMs at,
                     TimeMs arrival, TimeMs decided);
  /// Pushes the crossing of `link` (child | direction bit) arriving at
  /// `arrival` onto the flood's frontier.
  void pushCrossing(Flood& flood, std::uint64_t link, TimeMs arrival);
  /// (node reached, node it came from) of a frontier entry's link.
  [[nodiscard]] std::pair<net::NodeId, net::NodeId> linkEnds(
      std::uint64_t key) const;
  /// Crosses every tree link `node` floods across, other than the one to
  /// `came_from`, entered at `at`: its parent link first (unless the flood
  /// is down-only or `node` is its boundary), then its child links in tree
  /// order.
  void expandFlood(std::uint32_t flood, net::NodeId node,
                   net::NodeId came_from, TimeMs at);
  /// Pops the frontier, expanding routers, until an agent arrival is found
  /// and scheduled as the flood's cursor; closes the flood when none is left.
  void advanceFlood(std::uint32_t flood);
  void onFloodCursor(const FloodCursorEvent& event);
  /// Counts a hop across the CSR half-edge `slot` — the hot paths resolve
  /// the slot once and reuse it for delay, edge id, and accounting.
  void countHopSlot(const Packet& packet, std::uint32_t slot);
  /// Emits a trace record of time `at` when a sink is installed.
  void trace(TraceEvent::Kind kind, TimeMs at, net::NodeId from,
             net::NodeId to, const Packet& packet);

  /// `delay` (CSR half-edge `slot`'s link delay) plus the jitter draw of
  /// the send with hash `send_hash` when jitter is on.
  [[nodiscard]] net::DelayMs chaosDelay(net::DelayMs delay, std::uint32_t slot,
                                        std::uint64_t send_hash) const;
  /// Appends `handoff` to the outbox for `to`'s region.
  void emitHandoff(net::NodeId to, const ShardHandoff& handoff);
  /// Hands the unicast in path slot `path` (keyed `key`, sent at
  /// `decided`) to the region of route[hop + 1], which it reaches at
  /// `arrival`.
  void handOffUnicast(std::uint32_t path, std::uint32_t hop, SendKey key,
                      const Packet& packet, TimeMs arrival, TimeMs decided);
  /// Hands `flood`'s crossing from `from` into `to` (keyed `key`, draws
  /// from `send_hash`) to `to`'s region, which the packet reaches at
  /// `arrival`.
  void handOffFlood(const Flood& flood, net::NodeId from, net::NodeId to,
                    SendKey key, std::uint64_t send_hash, TimeMs arrival);
  /// True when undirected edge `edge` is down at `at`, by its timeline.
  [[nodiscard]] bool linkDownAt(std::uint32_t edge, TimeMs at) const;
  /// Counts and traces a crossing of `slot` from `from` to `to` started at
  /// `at`; false when its link is down then or `lost` (the send's own loss
  /// draw) holds, the drop counted and traced too.  Every crossing of every
  /// send goes through here.
  bool survives(std::uint32_t slot, TimeMs at, net::NodeId from,
                net::NodeId to, const Packet& packet, bool lost);
  /// survives() with a trace sink or a link timeline: traces the crossing,
  /// reads the link's state at `at`; whether the crossing is dropped.
  bool observeCrossing(std::uint32_t slot, TimeMs at, net::NodeId from,
                       net::NodeId to, const Packet& packet, bool lost);
  /// A chaos duplicate of a crossing: the copy's key and arrival time.
  struct Copy {
    SendKey key = 0;
    TimeMs arrival = 0.0;
  };
  /// Whether the send with hash `send_hash` duplicates on `slot`, crossed
  /// at `at`; if so, counts the copy's hop and fills `copy`.
  bool duplicated(std::uint32_t slot, TimeMs at, const Packet& packet,
                  std::uint64_t send_hash, Copy& copy);

  // Arena slot management.  Released slots keep their vector capacity, so a
  // warmed-up arena serves the steady state without touching the heap.
  [[nodiscard]] std::uint32_t acquirePath();
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
  std::uint64_t loss_seed_;
  std::uint64_t loss_threshold_ = 0;  // lossThreshold(loss_prob)
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
  std::vector<std::uint64_t> link_load_;  // by undirected edge id

  // Link chaos.  link_changes_[edge] holds the edge's staged change times,
  // ascending; the link is down where an odd number of them lie at or
  // before the time (empty until the first change is staged).
  // latest_crossing_ is the latest time any crossing read its link's state
  // (tracked for the staging contract only).
  bool chaos_active_ = false;
  std::uint64_t dup_threshold_ = 0;  // lossThreshold(duplication prob)
  double jitter_ms_ = 0.0;
  std::vector<std::vector<TimeMs>> link_changes_;
  TimeMs latest_crossing_ = -Simulator::kForever;

  // Path arena: one route per slot, held by a walk (and its duplicates'
  // walks) while it runs, or by a handed-over unicast until it resumes.
  std::vector<std::vector<net::NodeId>> paths_;
  std::vector<std::uint32_t> free_paths_;

  // Loss-pattern arena: one forced pattern per flood, refcounted by the
  // flood's outstanding events (plus one for the sending scope).  A send
  // names its pattern by patternKey(id).
  std::vector<LinkLossPattern> patterns_;
  std::vector<std::uint32_t> pattern_refs_;
  std::vector<std::uint32_t> free_patterns_;

  // Flood arena.  A frontier entry is a tree link the flood crosses (its
  // arrival may lie ahead of now) whose far end is not yet expanded.
  // Entries form a 4-ary min-heap on (arrival time, per-flood crossing
  // seq); the seq replays a hop-by-hop forwarder's insertion order, so ties
  // within one flood resolve exactly as there.  A link is named by its
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
    SendKey key = 0;  // the send's key, or its forced pattern's
    std::uint64_t send_hash = 0;  // the hash its keyed draws start from
    std::uint32_t next_seq = 0;
    net::NodeId boundary = net::kInvalidNode;
    bool down_only = false;
  };
  std::vector<Flood> floods_;
  std::vector<std::uint32_t> free_floods_;
  // Tree adjacency by NodeId for flood expansion, so floods never search the
  // CSR: up_link_[v] is v's parent link (to = kInvalidNode for the root and
  // non-members) and v's child links are
  // down_link_[down_offset_[v] .. down_offset_[v + 1]).
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
