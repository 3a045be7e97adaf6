#include "metrics/recovery_metrics.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "util/rng.hpp"

namespace rmrn::metrics {

RecoveryMetrics::Key RecoveryMetrics::key(net::NodeId client,
                                          std::uint64_t seq) {
  if (seq > 0xffffffffULL) {
    throw std::invalid_argument("RecoveryMetrics: seq exceeds 32 bits");
  }
  return (static_cast<Key>(client) << 32) | seq;
}

void RecoveryMetrics::fold(Key k, const Pending& pending, double end_ms,
                           Terminal how) {
  // A chain of splitmix64 finalizers over the record's words; the sum of
  // the results is the same in any order the records end in.
  std::uint64_t h = k;
  const std::uint64_t words[] = {
      std::bit_cast<std::uint64_t>(pending.detect_time_ms),
      std::bit_cast<std::uint64_t>(end_ms),
      (static_cast<std::uint64_t>(how) << 32) | pending.attempts};
  std::uint64_t mixed = util::splitmix64(h);
  for (const std::uint64_t word : words) {
    h ^= word;
    mixed = util::splitmix64(h);
  }
  digest_ += mixed;
}

void RecoveryMetrics::recordLoss(net::NodeId client, std::uint64_t seq,
                                 double detect_time_ms) {
  const auto [pending, inserted] = pending_.tryEmplace(key(client, seq));
  if (!inserted) {
    throw std::logic_error("RecoveryMetrics: duplicate loss record");
  }
  *pending = Pending{detect_time_ms, false};
  ++losses_;
  ++tallies_[client].losses;
}

bool RecoveryMetrics::recordRecovery(net::NodeId client, std::uint64_t seq,
                                     double now_ms, Terminal how) {
  const Key k = key(client, seq);
  Pending* pending = pending_.find(k);
  if (pending == nullptr || pending->recovered) return false;
  pending->recovered = true;
  fold(k, *pending, now_ms, how);
  Tally& t = tallies_[client];
  t.last_recovery_ms = std::max(t.last_recovery_ms, now_ms);
  const double latency = now_ms - pending->detect_time_ms;
  // A repair can arrive before the client even notices the loss (e.g. an
  // SRM repair triggered by somebody else); the effective wait is zero.
  latency_.add(latency > 0.0 ? latency : 0.0);
  ++t.recoveries;
  return true;
}

void RecoveryMetrics::recordAttempt(net::NodeId client, std::uint64_t seq) {
  Pending* pending = pending_.find(key(client, seq));
  if (pending != nullptr && !pending->recovered) ++pending->attempts;
}

bool RecoveryMetrics::abandonLoss(net::NodeId client, std::uint64_t seq,
                                  double now_ms) {
  const Key k = key(client, seq);
  const Pending* pending = pending_.find(k);
  if (pending == nullptr || pending->recovered) return false;
  fold(k, *pending, now_ms, Terminal::kAbandoned);
  pending_.erase(k);
  ++abandoned_;
  ++abandoned_sessions_;
  ++tallies_[client].abandoned;
  return true;
}

std::size_t RecoveryMetrics::abandonClient(net::NodeId client,
                                           double now_ms) {
  // The count and the digest are the same in any visiting order.
  const std::size_t count =
      pending_.eraseIf([&](Key k, const Pending& pending) {
        if (static_cast<net::NodeId>(k >> 32) != client || pending.recovered) {
          return false;
        }
        fold(k, pending, now_ms, Terminal::kCrashed);
        return true;
      });
  abandoned_ += count;
  tallies_[client].abandoned += count;
  return count;
}

std::uint64_t RecoveryMetrics::lossesFor(net::NodeId client) const {
  return tallyOf(client).losses;
}

std::uint64_t RecoveryMetrics::recoveriesFor(net::NodeId client) const {
  return tallyOf(client).recoveries;
}

std::uint64_t RecoveryMetrics::abandonedFor(net::NodeId client) const {
  return tallyOf(client).abandoned;
}

std::size_t RecoveryMetrics::outstandingFor(net::NodeId client) const {
  std::size_t count = 0;
  for (const auto& [key, pending] : pending_) {
    if (static_cast<net::NodeId>(key >> 32) == client && !pending.recovered) {
      ++count;
    }
  }
  return count;
}

std::uint64_t RecoveryMetrics::timeoutsFor(net::NodeId target) const {
  const auto it = timeouts_by_target_.find(target);
  return it == timeouts_by_target_.end() ? 0 : it->second;
}

bool RecoveryMetrics::wasLost(net::NodeId client, std::uint64_t seq) const {
  return pending_.contains(key(client, seq));
}

bool RecoveryMetrics::isRecovered(net::NodeId client,
                                  std::uint64_t seq) const {
  const Pending* pending = pending_.find(key(client, seq));
  return pending != nullptr && pending->recovered;
}

double RecoveryMetrics::lastRecoveryTime(net::NodeId client) const {
  return tallyOf(client).last_recovery_ms;
}

double RecoveryMetrics::avgBandwidthHops(std::uint64_t recovery_hops) const {
  const std::size_t n = recoveries();
  if (n == 0) return 0.0;
  return static_cast<double>(recovery_hops) / static_cast<double>(n);
}

}  // namespace rmrn::metrics
