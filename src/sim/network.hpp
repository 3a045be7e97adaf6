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
// loses it); a tree flood keeps one kFloodCursor event for its next agent
// arrival and expands routers as it goes.  The cursor rides the event
// queue's cursor lane (sim/event_queue.hpp): one heap key naming the flood's
// arena record, no slab slot, in serial and shard mode alike; only a
// handed-over flood's first cursor, stamped with its sender's decision
// time, is an ordinary slab event.  Flood ids are lane payloads, so the
// flood arena is bounded at EventQueue::kMaxFloods records.  A whole-tree
// flood from a member (group floods, source floods, down-into-root floods)
// replays its origin's flood schedule: the order the flood reaches the
// tree's links in, built once per origin and proven to hold for the flood's
// start time.  Its walk decides each crossing once, when it reaches the
// link's entry, skipping a link whose flood-parent went unreached or whose
// crossing was lost.  Every other flood (scoped, jittered, duplicated,
// sharded, or started past its schedule's proven bound) keeps a private
// frontier heap of in-flight links, expanding each node it reaches; a lost
// link's subtree is never pushed.  Either way a crossing is decided at or
// before the time the packet reaches the link's far end, by the one
// routine every send's crossings go through: it counts the hop and its
// recovery link load, applies the send's loss draw, reads the link's
// timeline and records the trace, stamped with the time the packet starts
// crossing.  Link chaos reads a staged per-edge timeline at the crossing
// time, and a duplicate is one more closed-form branch: a unicast copy
// walks the rest of the route, a flood copy opens its own flood record.  In
// shard mode a unicast still walks its whole route in the sending region,
// and a destination in another region gets one handoff, its delivery; a
// flood stops at a link into another region and hands the crossing over.
// The receiving region schedules one event at the arrival, as decided when
// the sender decided it, so it ties with the receiver's events as in the
// serial run.  The reference it must reproduce — one event per link
// crossed — lives in tests/support/hop_network.hpp: every delivery time is
// bit-identical, arrivals of one flood fire in the same order, and only
// bit-equal arrivals of different sends may fire in another order.
//
// The forwarding hot path is allocation-free at steady state: in-flight
// deliveries are typed records (sim/event.hpp) in the queue's slab and
// cursors are keys on its lane, a unicast walks one scratch route, forced
// loss patterns in a refcounted pattern arena shared by the flood records
// of one data packet, floods in a recycled flood arena whose frontiers and
// replay slots keep their capacity, flood schedules are built once per
// origin, and per-link recovery accounting is a flat vector indexed by a
// CSR edge table built once at construction.
//
// Protocol agents live at the source and the clients; the network hands
// arrivals to its DeliverySink only at those nodes (routers forward but
// never process).  A replayed flood, walked ahead of the clock, first
// offers each agent arrival to the sink's absorb(): an arrival the sink
// absorbs is counted and traced as a delivery, the walk goes on past it,
// and no cursor fires for it (DESIGN.md §10.2).
#pragma once

#include <cstdint>
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
#include "util/check.hpp"

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
  std::uint64_t deliveries = 0;     // agent arrivals, absorbed ones included
  std::uint64_t chaos_link_drops = 0;    // of packets_lost: dropped on a down link
  std::uint64_t duplicates_created = 0;  // extra copies injected by duplication
  std::uint64_t absorbed_arrivals = 0;   // of deliveries: absorbed, no event
};

/// Where a network's agent arrivals go: the protocol running at the agents.
class DeliverySink {
 public:
  virtual ~DeliverySink() = default;
  /// `packet` reaches agent `at` now.
  virtual void deliver(net::NodeId at, const Packet& packet) = 0;
  /// Offered while a replayed flood is walked ahead of the clock: `packet`
  /// will reach agent `at` at `arrival` (not before now).  Returning true
  /// takes the arrival over: no event fires for it, and the sink must make
  /// every later event observe exactly the state that delivering it at
  /// `arrival` would have left.  It must send nothing.  The network offers
  /// arrivals only when no agent can change state on its own (no link
  /// chaos, no agent fault).
  virtual bool absorb(net::NodeId /*at*/, const Packet& /*packet*/,
                      TimeMs /*arrival*/) {
    return false;
  }
};

class SimNetwork final : public EventSink {
 public:
  /// `loss_prob` applies per link traversal to every packet that no forced
  /// pattern covers; `loss_seed` keys those draws and every chaos draw
  /// (sim/keyed_loss.hpp).  The topology and routing must outlive the
  /// network.
  SimNetwork(Simulator& simulator, const net::Topology& topology,
             const net::Routing& routing, double loss_prob,
             std::uint64_t loss_seed);

  /// Installs the agents' sink (null: arrivals are dropped).  It must
  /// outlive the network's traffic.  Replayed floods offer their agent
  /// arrivals to its absorb() only when `absorbs` is set, and only while no
  /// link chaos and no agent fault is set up.
  void setDeliverySink(DeliverySink* sink, bool absorbs = false);

  /// Records every crossing, drop and delivery into `recorder` (see
  /// sim/trace.hpp), which must outlive the network's traffic; null turns
  /// tracing off, at no cost.  A crossing is recorded when its send decides
  /// it, which may be ahead of the clock, stamped with the time the packet
  /// starts crossing; a delivery when it happens, or when a replayed flood
  /// hands it to DeliverySink::absorb(), stamped with its arrival.  A
  /// recorder installed mid-run records only what is decided from then on,
  /// so install it before traffic to trace every send whole.
  void setTraceSink(TraceRecorder* recorder);

  /// Failure injection (see AgentFault above).  `slow_extra_ms` is the extra
  /// REQUEST-delivery latency for kSlowed and ignored otherwise.  Throws on
  /// non-agent nodes.  Protocol timeouts route around faulted agents.
  void setAgentFault(net::NodeId agent, AgentFault fault,
                     double slow_extra_ms = 0.0);
  [[nodiscard]] AgentFault agentFault(net::NodeId agent) const;

  /// True when `agent` is crashed (stalled and slowed agents still run).
  [[nodiscard]] bool isAgentFailed(net::NodeId agent) const;

  /// Tells the network that agent faults are scheduled for this run (a
  /// FaultInjector does so when it arms): like setAgentFault(), it stops
  /// offering arrivals to DeliverySink::absorb(), since an agent's state at
  /// a future arrival is no longer known ahead of the clock.  Call it before
  /// traffic.
  void expectAgentFaults();

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
  /// instance delivers only at the nodes of `my_region`.  A unicast walks
  /// its whole route here and, when its destination lies in another region,
  /// appends its delivery to `outbox`; a flood stops at a link into another
  /// region and appends the crossing, with its loss and chaos draws
  /// applied, its computed arrival time and its key for the receiver's
  /// draws.  `regions` and `outbox` must outlive the network.  Serial
  /// networks never call this and behave exactly as before — every shard
  /// check degrades to one predictable null test.
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
  /// unicast's delivery, or a fresh flood record that expands from the
  /// node it entered.
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

  /// Floods that replayed their origin's flood schedule instead of keeping
  /// a frontier heap.
  [[nodiscard]] std::uint64_t floodsReplayed() const {
    return floods_replayed_;
  }

  [[nodiscard]] const net::Topology& topology() const { return topology_; }
  [[nodiscard]] const net::Routing& routing() const { return routing_; }
  [[nodiscard]] Simulator& simulator() { return simulator_; }

  /// Typed-event dispatch (deliveries, flood cursors).
  void onEvent(const EventRecord& event) override;

 private:
  static constexpr std::uint32_t kNilSlot = 0xffffffffu;
  struct Flood;     // flood record (below)
  struct TreeLink;  // a tree link as a flood walks it (below)

  void deliver(net::NodeId at, const Packet& packet);
  void deliverNow(net::NodeId at, const Packet& packet);
  /// Counts and traces a delivery of `packet` at agent `at` at time `at_ms`.
  void countDelivery(net::NodeId at, const Packet& packet, TimeMs at_ms);

  /// The key of `sender`'s next send: its node id and own send counter.
  [[nodiscard]] SendKey nextKey(net::NodeId sender);
  /// The hash a send's chaos draws start from: its loss hash, or for a
  /// forced-pattern data flood, which draws no losses, the hash of
  /// patternKey(seq), so its identity does not depend on its arena slot.
  [[nodiscard]] std::uint64_t drawHash(SendKey key, const Packet& packet) const;
  /// Whether the send with hash `send_hash` (sendHash of its key) is lost
  /// on CSR half-edge `slot`.
  [[nodiscard]] bool lostOn(std::uint64_t send_hash, std::uint32_t slot) const;
  /// Walks the unicast on route_, at route_[hop] at time `at` and keyed
  /// `key`: counts every hop now, up to the first one chaos or the key's
  /// draw loses; walks each chaos duplicate's rest of the route with its
  /// own key; schedules a kDeliver at each arrival, or in shard mode hands
  /// an arrival in another region over as its delivery.
  void walkUnicast(std::uint32_t hop, SendKey key, const Packet& packet,
                   TimeMs at);
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
  /// Pushes the crossing of `link` (child | direction bit) arriving at
  /// `arrival` onto the flood's frontier.
  void pushCrossing(Flood& flood, std::uint64_t link, TimeMs arrival);
  /// (node reached, node it came from) of a frontier entry's link.
  [[nodiscard]] std::pair<net::NodeId, net::NodeId> linkEnds(
      std::uint64_t key) const;
  /// Calls `cross(link, link_child, upward)` for every tree link `node`
  /// floods across, other than the one to `came_from`: its parent link
  /// first (when `up` is set), then its child links in tree order.
  template <typename Cross>
  void forEachFloodLink(net::NodeId node, net::NodeId came_from, bool up,
                        Cross&& cross) const;
  /// Crosses every tree link `node` floods across, other than the one to
  /// `came_from`, entered at `at`: its parent link first (unless the flood
  /// is down-only or `node` is its boundary), then its child links in tree
  /// order.
  void expandFlood(std::uint32_t flood, net::NodeId node,
                   net::NodeId came_from, TimeMs at);
  /// Pops the frontier, expanding routers, until an agent arrival is found
  /// and scheduled as the flood's cursor; closes the flood when none is
  /// left.
  void advanceFlood(std::uint32_t flood);
  /// advanceFlood() for a replayed flood: walks its schedule from the next
  /// entry to the next agent arrival it cannot hand to the sink's absorb(),
  /// and schedules that as its cursor; closes the flood at the schedule's
  /// end.  Each entry whose flood-parent was reached is the link's one
  /// crossing, started at the flood-parent's arrival: it goes through
  /// survives() there and, unless lost, folds its own arrival from it.
  void replayFlood(std::uint32_t flood);
  /// Releases the flood's pattern reference and its arena slot.
  void closeFlood(std::uint32_t flood);
  /// Switches the just-opened `flood`, a whole-tree flood from member
  /// `origin` starting now, to replay when its origin's schedule (built on
  /// first use) is proven for the current time; returns whether it did.
  bool tryReplay(std::uint32_t flood, net::NodeId origin);
  /// The index into schedules_ of `origin`'s flood schedule, built now:
  /// kNilSlot when its order is not proven for any start time or does not
  /// fit the entry layout.
  [[nodiscard]] std::uint32_t buildSchedule(net::NodeId origin);
  void onFloodCursor(const FloodCursorEvent& event);
  /// Counts a hop across the CSR half-edge `slot` — the hot paths resolve
  /// the slot once and reuse it for delay, edge id, and accounting.
  void countHopSlot(const Packet& packet, std::uint32_t slot);
  /// Records a trace record of time `at` when a recorder is installed.
  void trace(TraceEvent::Kind kind, TimeMs at, net::NodeId from,
             net::NodeId to, const Packet& packet);

  /// `delay` (CSR half-edge `slot`'s link delay) plus the jitter draw of
  /// the send with hash `send_hash` when jitter is on.
  [[nodiscard]] net::DelayMs chaosDelay(net::DelayMs delay, std::uint32_t slot,
                                        std::uint64_t send_hash) const;
  /// Appends `handoff` to the outbox for `to`'s region.
  void emitHandoff(net::NodeId to, const ShardHandoff& handoff);
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
  /// survives() with a trace recorder or a link timeline: traces the
  /// crossing, reads the link's state at `at`; whether it is dropped.
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
  DeliverySink* sink_ = nullptr;
  // Whether replays offer agent arrivals to sink_->absorb(): the sink
  // absorbs, and no link chaos (chaos_active_) or agent fault is set up.
  bool sink_absorbs_ = false;
  bool agent_faults_ = false;
  bool offer_arrivals_ = false;
  void updateOffers() {
    offer_arrivals_ = sink_absorbs_ && !chaos_active_ && !agent_faults_;
  }
  TraceRecorder* recorder_ = nullptr;  // null: tracing off
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
  // (tracked for the staging contract only; a replayed flood reads a
  // crossing's when its walk reaches it).
  bool chaos_active_ = false;
  std::uint64_t dup_threshold_ = 0;  // lossThreshold(duplication prob)
  double jitter_ms_ = 0.0;
  std::vector<std::vector<TimeMs>> link_changes_;
  TimeMs latest_crossing_ = -Simulator::kForever;

  // The route of the unicast being walked.  A walk ends before its send
  // returns and its duplicates walk the same route, so one is enough; it is
  // reserved for the longest simple route, so it never reallocates.
  std::vector<net::NodeId> route_;

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
    // The next crossing seq, or in replay the next schedule entry.
    std::uint32_t next_seq = 0;
    net::NodeId boundary = net::kInvalidNode;
    bool down_only = false;
    // Replay (schedule != kNilSlot) instead of the frontier: the schedule's
    // arrival slots (a negative time for a link the flood never crossed or
    // lost; every record holds the largest schedule's).  The walk's end
    // closes the flood.
    std::uint32_t schedule = kNilSlot;
    std::vector<TimeMs> arrivals;
#if RMRN_CHECKS_ENABLED
    TimeMs last_arrival = 0.0;  // the latest arrival replayed
#endif
  };
  std::vector<Flood> floods_;
  std::vector<std::uint32_t> free_floods_;

  // Flood schedules (DESIGN.md §10.2).  A whole-tree flood from a member
  // reaches the tree's links in one order, fixed by the origin and the link
  // delays, so it replays that order instead of sorting its own frontier.
  // An entry packs a link, named like a frontier link by its child end
  // (here its memberIndex) plus a direction bit, with the arrival slot its
  // flood-parent's arrival sits in and the slot its own arrival goes to.
  // Slot 0 holds the flood's start time and slot 1 takes every arrival no
  // later entry reads.  The order is proven for floods starting in
  // [0, max_start] (schedule build).
  static constexpr std::uint32_t kEntryMemberBits = 15;
  static constexpr std::uint32_t kEntryUpward = 1u << kEntryMemberBits;
  static constexpr std::uint32_t kEntrySlotBits = 8;
  static constexpr std::uint32_t kEntryParentShift = kEntryMemberBits + 1;
  static constexpr std::uint32_t kEntryOwnShift =
      kEntryParentShift + kEntrySlotBits;
  static constexpr std::uint32_t kEntrySlotMask = (1u << kEntrySlotBits) - 1;
  static constexpr std::uint32_t kEntryMemberMask = kEntryUpward - 1;
  static constexpr std::uint32_t kSlotOrigin = 0;
  static constexpr std::uint32_t kSlotSink = 1;
  struct FloodSchedule {
    std::vector<std::uint32_t> entries;  // in arrival order
    TimeMs max_start = 0.0;
    std::uint32_t slots = 0;  // arrival slots
  };
  // schedule_of_[memberIndex(origin)]: kUnbuilt until the first whole-tree
  // flood from the member, then an index into schedules_, or kNilSlot when
  // the frontier must serve every flood from it.
  static constexpr std::uint32_t kUnbuilt = 0xfffffffeu;
  std::vector<std::uint32_t> schedule_of_;
  std::vector<FloodSchedule> schedules_;
  std::uint32_t max_slots_ = 0;  // the largest schedule's slots
  std::uint64_t floods_replayed_ = 0;
  // Schedule build scratch, kept for its capacity: one step per link a
  // flood from the origin crosses, breadth first, the steps in arrival
  // order (order = timeOrder(offset), key = step), and the entries.
  struct ScheduleStep {
    TimeMs offset;          // arrival, folded from time 0
    std::uint64_t link;     // frontier link key (child | upward bit)
    std::uint32_t parent;   // the step that reached the flood-parent
    std::uint32_t hops;     // links from the origin
    std::uint32_t readers;  // entries still to fold from this arrival
    std::uint32_t slot;     // the arrival slot it is kept in
  };
  std::vector<ScheduleStep> build_steps_;
  std::vector<FrontierEntry> build_order_;
  std::vector<std::uint32_t> build_free_;  // free arrival slots
  std::vector<std::uint32_t> build_entries_;

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
