// Recovery protocol framework.
//
// A protocol instance owns the loss-recovery behaviour of every agent
// (source + clients) of one simulation run.  The base class provides the
// parts all three schemes share:
//   * data multicast with externally supplied per-link loss draws (so RP,
//    SRM and RMA recover identical losses — DESIGN.md §6),
//   * loss detection (a client notices a missing packet one detection delay
//     after the data would have arrived),
//   * the per-agent "has packet" store, and
//   * metric recording (a repair that supplies a missing packet completes a
//     recovery regardless of which scheme delivered it).
//
// Subclasses implement the scheme-specific reactions.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "metrics/recovery_metrics.hpp"
#include "net/types.hpp"
#include "protocols/peer_health.hpp"
#include "sim/network.hpp"
#include "sim/packet.hpp"
#include "util/rng.hpp"

namespace rmrn::protocols {

struct ProtocolConfig {
  /// Lag between the (would-be) arrival of a data packet and the client
  /// noticing the loss, e.g. via a sequence gap.  Identical across schemes,
  /// so it cancels out of latency comparisons.
  double detection_delay_ms = 10.0;
  /// Request timeout = timeout_factor * RTT(requester, target), floored at
  /// min_timeout_ms; covers queueing slack on top of the routed RTT.
  double timeout_factor = 1.5;
  double min_timeout_ms = 1.0;
  /// Adaptive timeouts, backoff and blacklisting (DESIGN.md §9); when
  /// health.enabled is false the static policy above applies unchanged.
  PeerHealthConfig health;
  /// Per-session liveness watchdog (chaos hardening, DESIGN.md §8 I10): a
  /// detected loss still unrecovered this long after detection is explicitly
  /// abandoned (RecoveryMetrics::abandonLoss) and its session torn down, so
  /// every loss terminates in bounded time even under a permanent partition.
  /// 0 disables the watchdog (legacy behaviour).
  double session_deadline_ms = 0.0;
};

// Thread-safety (DESIGN.md §12): externally synchronized.  A protocol's
// state (session maps, dedup watermarks, PeerHealth) is driven solely by the
// owning simulator's single event loop, so there are no locks to annotate.
// A parallel run (harness/parsim.hpp) keeps one protocol instance per
// region, on that region's simulator; instances share only immutable inputs
// and the RpPlanner, whose plans are immutable after build (DESIGN.md §14).
class RecoveryProtocol : public sim::EventSink {
 public:
  RecoveryProtocol(sim::SimNetwork& network, metrics::RecoveryMetrics& metrics,
                   const ProtocolConfig& config);
  virtual ~RecoveryProtocol() = default;

  RecoveryProtocol(const RecoveryProtocol&) = delete;
  RecoveryProtocol& operator=(const RecoveryProtocol&) = delete;

  /// Installs this protocol as the network's delivery handler.  Must be
  /// called exactly once before the first transmission.
  void attach();

  /// Multicasts data packet `seq` from the source now.  `losses` are the
  /// per-tree-link drop draws (see sim::LinkLossPattern); clients cut off by
  /// a dropped ancestor link get a loss registered and a detection event
  /// scheduled.  Sequences must be issued in order starting at 0.
  void sourceMulticast(std::uint64_t seq, const sim::LinkLossPattern& losses);

  [[nodiscard]] bool hasPacket(net::NodeId node, std::uint64_t seq) const;
  [[nodiscard]] std::uint64_t packetsSent() const { return next_seq_; }

  /// True when every registered loss has been recovered.
  [[nodiscard]] bool allRecovered() const {
    return metrics_.outstanding() == 0;
  }

  /// Repairs delivered for packets the receiver already held — the classic
  /// duplicate-suppression overhead metric (large for flooding schemes).
  [[nodiscard]] std::uint64_t duplicateDeliveries() const {
    return duplicate_deliveries_;
  }

  /// Chaos hardening counters.  Requests whose dedup tag was already served
  /// (network-duplicated NACKs) and loss-detection events that would have
  /// opened a second session for a live (client, seq) pair.
  [[nodiscard]] std::uint64_t duplicateRequestsSuppressed() const {
    return duplicate_requests_suppressed_;
  }
  [[nodiscard]] std::uint64_t duplicateSessions() const {
    return duplicate_sessions_;
  }

  /// Source repair multicasts (FEC parities, coded repairs) and the NACKs
  /// clients sent the source for them; zero for per-sequence schemes.
  [[nodiscard]] virtual std::uint64_t sourceRepairMulticasts() const {
    return 0;
  }
  [[nodiscard]] virtual std::uint64_t nacksSent() const { return 0; }

  /// End-of-run invariant sweep (call after the simulator drains).  With the
  /// watchdog enabled, RMRN_ENSUREs that every detected loss terminated —
  /// recovered or explicitly abandoned — and that no scheme still holds an
  /// open recovery session.  No-op when the watchdog is off.
  void finalizeRun() const;

  /// Tells the protocol that `client` crashed (fail-stop): its pending
  /// losses are written off as abandoned and its live recovery sessions are
  /// torn down.  The fault-injection harness calls this alongside
  /// SimNetwork::setAgentFault.
  void clientCrashed(net::NodeId client);

  [[nodiscard]] const PeerHealth& peerHealth() const { return health_; }

  /// Typed-timer dispatch (sim/event.hpp): kTimerLossDetect is handled here,
  /// every other kind is routed to the subclass via onTimer().
  void onEvent(const sim::EventRecord& event) final;

 protected:
  /// Timer kinds.  The base class owns kTimerLossDetect and kTimerWatchdog;
  /// subclasses number their own kinds from kTimerSubclass upward.
  static constexpr std::uint32_t kTimerLossDetect = 0;
  static constexpr std::uint32_t kTimerWatchdog = 1;
  static constexpr std::uint32_t kTimerSubclass = 2;

  /// Schedules a protocol timer on the queue's allocation-free typed lane.
  /// `a`/`b`/`c` are opaque payload words echoed back to onTimer().
  sim::EventId scheduleTimerAt(double at, std::uint32_t kind,
                               std::uint64_t a = 0, std::uint64_t b = 0,
                               std::uint64_t c = 0);
  sim::EventId scheduleTimerAfter(double delay, std::uint32_t kind,
                                  std::uint64_t a = 0, std::uint64_t b = 0,
                                  std::uint64_t c = 0);

  /// A subclass timer (kind >= kTimerSubclass) fired.  The default throws:
  /// a scheme that schedules its own timers must override this.
  virtual void onTimer(std::uint32_t kind, std::uint64_t a, std::uint64_t b,
                       std::uint64_t c);

  /// Scheme-specific reaction to a client noticing a missing packet.
  virtual void onLossDetected(net::NodeId client, std::uint64_t seq) = 0;
  /// A REQUEST packet reached agent `at`.
  virtual void onRequest(net::NodeId at, const sim::Packet& packet) = 0;
  /// A REPAIR packet reached agent `at` (after the has-packet store and the
  /// metrics were updated).
  virtual void onRepair(net::NodeId at, const sim::Packet& packet);
  /// A PARITY packet reached agent `at`.  Unlike repairs, parity packets
  /// carry block ids, so the base class does NOT touch the has-packet
  /// store; FEC subclasses decode and call markHasPacket themselves.
  virtual void onParity(net::NodeId at, const sim::Packet& packet);
  /// The original DATA transmission reached `at`.
  virtual void onData(net::NodeId at, const sim::Packet& packet);
  /// `client` obtained a previously missing packet (via any repair path);
  /// subclasses cancel timers / close sessions here.
  virtual void onPacketObtained(net::NodeId client, std::uint64_t seq);
  /// `client` crashed; subclasses drop its sessions and timers here.
  virtual void onClientCrashed(net::NodeId client);
  /// The watchdog (or retry-budget exhaustion) abandoned (client, seq); the
  /// subclass must tear down any session state and cancel its timers.
  virtual void onSessionAbandoned(net::NodeId client, std::uint64_t seq);
  /// Live recovery sessions the scheme currently holds; feeds the
  /// finalizeRun() sweep.  Schemes with session state must override.
  [[nodiscard]] virtual std::size_t openSessions() const;

  /// Records that `node` now holds `seq`; completes a pending recovery and
  /// fires onPacketObtained() on first receipt.
  void markHasPacket(net::NodeId node, std::uint64_t seq);

  /// Scheme-facing accessors.
  [[nodiscard]] sim::SimNetwork& network() { return network_; }
  [[nodiscard]] sim::Simulator& simulator() { return network_.simulator(); }
  [[nodiscard]] const net::Topology& topology() const {
    return network_.topology();
  }
  [[nodiscard]] const net::Routing& routing() const {
    return network_.routing();
  }
  [[nodiscard]] metrics::RecoveryMetrics& recoveryMetrics() {
    return metrics_;
  }
  [[nodiscard]] const ProtocolConfig& config() const { return config_; }
  [[nodiscard]] net::NodeId source() const { return topology().source; }

  /// Request timeout for a -> b.  Static policy (timeout_factor * RTT,
  /// floored at min_timeout_ms) by default; with health.enabled it is the
  /// Jacobson RTO with backoff (identical to the static value until samples
  /// or timeouts accrue).
  [[nodiscard]] double requestTimeout(net::NodeId a, net::NodeId b) const;

  [[nodiscard]] bool adaptiveTimeouts() const { return config_.health.enabled; }
  [[nodiscard]] bool peerBlacklisted(net::NodeId client,
                                     net::NodeId target) const {
    return config_.health.enabled && health_.blacklisted(client, target);
  }

  /// Registers an outstanding request so the matching repair (same client +
  /// seq, origin == target unless `any_origin`) feeds the RTT estimator.
  /// `retransmit` marks repeat requests to the same target (Karn's rule).
  /// No-op unless health.enabled.
  void noteRequestSent(net::NodeId client, std::uint64_t seq,
                       net::NodeId target, bool retransmit,
                       bool any_origin = false);
  /// Registers a request timeout against `target` (metrics + health).
  /// Returns true when the timeout newly blacklisted the target.
  bool noteRequestTimeout(net::NodeId client, net::NodeId target);

  [[nodiscard]] bool watchdogEnabled() const {
    return config_.session_deadline_ms > 0.0;
  }

  /// Gives up on (client, seq): the loss is explicitly abandoned in the
  /// metrics and the subclass tears its session down.  Used by the watchdog
  /// and by retry-budget exhaustion in watchdog mode.
  void abandonSession(net::NodeId client, std::uint64_t seq);

  /// Request dedup tags (DESIGN.md §8 I9).  In chaos mode every request a
  /// client emits carries a fresh globally monotonic tag; responders serve a
  /// (responder, requester) pair only for tags newer than the last one
  /// served, so a network-duplicated request is absorbed while genuine
  /// retransmissions (newer tag) still get answered.  Outside chaos mode the
  /// tag is 0 and dedup is bypassed — packets stay bit-identical to
  /// pre-chaos builds.
  [[nodiscard]] std::uint64_t nextRequestTag();
  /// False when `packet` is a network duplicate the responder `at` has
  /// already served (counted in duplicateRequestsSuppressed()).
  bool shouldServeRequest(net::NodeId at, const sim::Packet& packet);
  /// Subclasses report a duplicate loss-detection for a live session here.
  void recordDuplicateSessionAttempt() { ++duplicate_sessions_; }

 private:
  void dispatch(net::NodeId at, const sim::Packet& packet);
  /// Matches an arriving repair/parity against outstanding probes.
  void observeResponse(net::NodeId at, const sim::Packet& packet);

  sim::SimNetwork& network_;
  metrics::RecoveryMetrics& metrics_;
  ProtocolConfig config_;
  std::uint64_t next_seq_ = 0;
  bool attached_ = false;
  std::uint64_t duplicate_deliveries_ = 0;
  /// (node << 32 | seq) pairs a client holds; the source implicitly holds
  /// every sent sequence.
  std::unordered_set<std::uint64_t> have_;
  PeerHealth health_;
  struct Probe {
    net::NodeId target = net::kInvalidNode;
    double sent_at_ms = 0.0;
    bool retransmit = false;
    bool any_origin = false;
  };
  /// Outstanding requests by (client << 32 | seq); only maintained when
  /// health.enabled, cleared on match, recovery or crash.
  std::unordered_map<std::uint64_t, std::vector<Probe>> probes_;
  /// Chaos-mode request dedup: last served tag by (responder << 32 |
  /// requester), then by sequence.  The per-sequence level is load-bearing:
  /// a client runs many concurrent sessions against the same responder and
  /// their requests arrive in arbitrary tag order, so a watermark shared
  /// across sequences would suppress every session but the newest-tagged
  /// one (observed as watchdog abandonments of reachable clients after a
  /// link flap).  Empty outside chaos mode.
  std::unordered_map<std::uint64_t,
                     std::unordered_map<std::uint64_t, std::uint64_t>>
      served_requests_;
  std::uint64_t request_tag_counter_ = 0;
  std::uint64_t duplicate_requests_suppressed_ = 0;
  std::uint64_t duplicate_sessions_ = 0;
};

}  // namespace rmrn::protocols
