// Recovery bookkeeping producing the paper's two headline metrics:
//   * average delay per packet recovered (ms)            — Figs. 5 and 7
//   * average bandwidth usage per packet recovered (hops) — Figs. 6 and 8
//
// A "recovery" is one (client, sequence) pair that lost the original
// transmission and later obtained the packet.  Bandwidth is the total hop
// count of all recovery traffic (requests, NACKs, repairs) divided by the
// number of recoveries.
//
// Every (client, sequence) loss that terminates — recovered, abandoned or
// written off by a crash — is also folded into one 64-bit digest: a sum of
// mixed hashes of the pair, its detection time, the bits of its end time,
// how it ended and how many requests the client sent for it.  A sum is
// order-free, so regions and repetitions merge by adding; two runs with
// equal counters but one recovery time moved or swapped read different
// digests.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "metrics/stats.hpp"
#include "net/types.hpp"
#include "util/flat_table.hpp"

namespace rmrn::metrics {

/// How a (client, sequence) loss ended: the packet arrived as the original
/// data (a late copy), as a repair sent by the source or by a peer, or was
/// decoded from parities; or the session was abandoned, or its client
/// crashed.
enum class Terminal : std::uint8_t {
  kData,
  kSourceRepair,
  kPeerRepair,
  kDecoded,
  kAbandoned,
  kCrashed,
};

class RecoveryMetrics {
 public:
  /// Registers that `client` lost data packet `seq`, detected at
  /// `detect_time_ms`.  Duplicate registration throws std::logic_error.
  void recordLoss(net::NodeId client, std::uint64_t seq,
                  double detect_time_ms);

  /// Registers the recovery of a previously recorded loss at `now_ms`, by
  /// the means `how`.  Returns false (and records nothing) when the pair was
  /// never lost or was already recovered — duplicate repairs are normal
  /// under multicast repair.
  bool recordRecovery(net::NodeId client, std::uint64_t seq, double now_ms,
                      Terminal how = Terminal::kPeerRepair);

  /// Counts one request `client` sent for a pending loss of `seq` (no-op
  /// for a pair that is not pending); the count enters the digest.
  void recordAttempt(net::NodeId client, std::uint64_t seq);

  /// Crash handling: writes off every pending (unrecovered) loss of
  /// `client` at `now_ms`, returning how many were abandoned.  Abandoned
  /// losses leave outstanding() — a crashed receiver carries no reliability
  /// obligation — and can no longer be recovered.
  std::size_t abandonClient(net::NodeId client, double now_ms = 0.0);

  /// Explicit single-loss abandonment (liveness watchdog, retry-budget
  /// exhaustion) at `now_ms`: writes off one pending unrecovered loss so the
  /// session terminates as *abandoned* rather than silently stuck.  Returns
  /// false (and records nothing) when the pair is unknown or already
  /// recovered.
  bool abandonLoss(net::NodeId client, std::uint64_t seq, double now_ms = 0.0);

  /// The order-free digest of every terminal record so far (see above);
  /// 0 before the first.
  [[nodiscard]] std::uint64_t digest() const { return digest_; }

  [[nodiscard]] bool wasLost(net::NodeId client, std::uint64_t seq) const;
  [[nodiscard]] bool isRecovered(net::NodeId client, std::uint64_t seq) const;

  [[nodiscard]] std::size_t losses() const { return losses_; }
  [[nodiscard]] std::size_t recoveries() const {
    return latency_.count();
  }
  [[nodiscard]] std::size_t abandoned() const { return abandoned_; }
  /// Of abandoned(): losses given up one session at a time via abandonLoss()
  /// (the rest came from whole-client crash write-offs).
  [[nodiscard]] std::size_t abandonedSessions() const {
    return abandoned_sessions_;
  }
  /// Losses of live clients still unrecovered (the residual a resilience run
  /// must drive to zero).
  [[nodiscard]] std::size_t outstanding() const {
    return losses_ - latency_.count() - abandoned_;
  }

  /// Per-client terminal accounting, for reachability-aware reporting (a
  /// partitioned client's abandoned losses are expected; a reachable one's
  /// are a protocol bug).
  [[nodiscard]] std::uint64_t lossesFor(net::NodeId client) const;
  [[nodiscard]] std::uint64_t recoveriesFor(net::NodeId client) const;
  [[nodiscard]] std::uint64_t abandonedFor(net::NodeId client) const;
  /// Unrecovered, unabandoned losses of `client` (cold scan).
  [[nodiscard]] std::size_t outstandingFor(net::NodeId client) const;

  /// Resilience counters (DESIGN.md §9), recorded by the protocol layer.
  void recordRetry() { ++retries_; }
  void recordTimeout(net::NodeId target) {
    ++timeouts_;
    ++timeouts_by_target_[target];
  }
  void recordBlacklist(net::NodeId /*peer*/) { ++blacklist_events_; }
  void recordFailover(net::NodeId /*client*/) { ++failovers_; }
  void recordSourceFallback(net::NodeId /*client*/) { ++source_fallbacks_; }
  [[nodiscard]] std::uint64_t retries() const { return retries_; }
  [[nodiscard]] std::uint64_t timeouts() const { return timeouts_; }
  [[nodiscard]] std::uint64_t timeoutsFor(net::NodeId target) const;
  [[nodiscard]] const std::unordered_map<net::NodeId, std::uint64_t>&
  timeoutsByTarget() const {
    return timeouts_by_target_;
  }
  [[nodiscard]] std::uint64_t blacklistEvents() const {
    return blacklist_events_;
  }
  [[nodiscard]] std::uint64_t failovers() const { return failovers_; }
  [[nodiscard]] std::uint64_t sourceFallbacks() const {
    return source_fallbacks_;
  }

  /// Latency samples (ms) of completed recoveries.
  [[nodiscard]] const Accumulator& latency() const { return latency_; }

  /// Average recovery bandwidth per recovery given the total recovery hop
  /// count observed by the network.  Returns 0 when no recoveries happened.
  [[nodiscard]] double avgBandwidthHops(std::uint64_t recovery_hops) const;

  /// Time of `client`'s most recent completed recovery (0 when it never
  /// recovered anything) — used for per-client completion times.
  [[nodiscard]] double lastRecoveryTime(net::NodeId client) const;

 private:
  struct Pending {
    double detect_time_ms = 0.0;
    std::uint32_t attempts = 0;  // requests sent while pending
    bool recovered = false;
  };
  /// Per-client terminal accounting.
  struct Tally {
    double last_recovery_ms = 0.0;
    std::uint64_t losses = 0;
    std::uint64_t recoveries = 0;
    std::uint64_t abandoned = 0;
  };
  using Key = std::uint64_t;
  static Key key(net::NodeId client, std::uint64_t seq);
  /// Folds the terminal record of the pair `k` into digest_.
  void fold(Key k, const Pending& pending, double end_ms, Terminal how);
  /// `client`'s tally, or a zero one.
  [[nodiscard]] Tally tallyOf(net::NodeId client) const {
    const Tally* tally = tallies_.find(client);
    return tally != nullptr ? *tally : Tally{};
  }

  util::FlatTable<Pending> pending_;  // by key(client, seq)
  // By client.  Not a vector by node id: a region's metrics see only its
  // own clients, whose ids span the whole topology.
  util::FlatTable<Tally> tallies_;
  Accumulator latency_;
  std::uint64_t digest_ = 0;
  std::size_t losses_ = 0;
  std::size_t abandoned_ = 0;
  std::size_t abandoned_sessions_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t blacklist_events_ = 0;
  std::uint64_t failovers_ = 0;
  std::uint64_t source_fallbacks_ = 0;
  std::unordered_map<net::NodeId, std::uint64_t> timeouts_by_target_;
};

}  // namespace rmrn::metrics
