#include "protocols/protocol.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/check.hpp"

namespace rmrn::protocols {

namespace {

std::uint64_t haveKey(net::NodeId node, std::uint64_t seq) {
  if (seq > 0xffffffffULL) {
    throw std::invalid_argument("RecoveryProtocol: seq exceeds 32 bits");
  }
  return (static_cast<std::uint64_t>(node) << 32) | seq;
}

}  // namespace

RecoveryProtocol::RecoveryProtocol(sim::SimNetwork& network,
                                   metrics::RecoveryMetrics& metrics,
                                   const ProtocolConfig& config)
    : network_(network),
      metrics_(metrics),
      config_(config),
      health_(config.health) {
  if (config_.detection_delay_ms < 0.0 || config_.timeout_factor <= 0.0 ||
      config_.min_timeout_ms <= 0.0 || config_.session_deadline_ms < 0.0) {
    throw std::invalid_argument("RecoveryProtocol: bad config");
  }
}

void RecoveryProtocol::attach() {
  if (attached_) throw std::logic_error("RecoveryProtocol: already attached");
  attached_ = true;
  network_.setDeliverySink(this, absorbsArrivals());
}

double RecoveryProtocol::requestTimeout(net::NodeId a, net::NodeId b) const {
  const double rtt = routing().rtt(a, b);
  if (!config_.health.enabled) {
    return std::max(config_.min_timeout_ms, config_.timeout_factor * rtt);
  }
  return health_.timeout(a, b, rtt, config_.timeout_factor,
                         config_.min_timeout_ms);
}

void RecoveryProtocol::noteRequestSent(net::NodeId client, std::uint64_t seq,
                                       net::NodeId target, bool retransmit,
                                       bool any_origin) {
  if (!config_.health.enabled) return;
  probes_[haveKey(client, seq)].push_back(
      Probe{target, simulator().now(), retransmit, any_origin});
}

bool RecoveryProtocol::noteRequestTimeout(net::NodeId client,
                                          net::NodeId target) {
  metrics_.recordTimeout(target);
  if (!config_.health.enabled) return false;
  const bool newly = health_.onTimeout(client, target,
                                       /*blacklistable=*/target != source());
  if (newly) metrics_.recordBlacklist(target);
  return newly;
}

void RecoveryProtocol::observeResponse(net::NodeId at,
                                       const sim::Packet& packet) {
  if (!config_.health.enabled) return;
  const auto it = probes_.find(haveKey(at, packet.seq));
  if (it == probes_.end()) return;
  const double now = simulator().now();
  // Karn's rule, strictly: an RTT sample is attributable only when the
  // request went out exactly once to that target.  With several outstanding
  // transmissions (a retry burst across a link outage) the response cannot
  // be paired with any one of them — feeding `now - first_send` would
  // inflate SRTT by the whole outage and push the RTO past the watchdog —
  // so ambiguous matches only clear the timeout streak.
  const std::vector<Probe>& probes = it->second;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const Probe& probe = probes[i];
    if (!probe.any_origin && probe.target != packet.origin) continue;
    bool first_of_target = true;
    bool ambiguous = probe.retransmit;
    for (std::size_t j = 0; j < probes.size(); ++j) {
      if (j == i || probes[j].target != probe.target) continue;
      if (j < i) {
        first_of_target = false;
        break;
      }
      ambiguous = true;
    }
    if (!first_of_target) continue;  // this target group already handled
    health_.onResponse(at, probe.target,
                       ambiguous ? 0.0 : now - probe.sent_at_ms, ambiguous);
  }
  probes_.erase(it);
}

void RecoveryProtocol::clientCrashed(net::NodeId client) {
  metrics_.abandonClient(client, simulator().now());
  if (config_.health.enabled) {
    std::erase_if(probes_, [client](const auto& entry) {
      return (entry.first >> 32) == client;
    });
  }
  onClientCrashed(client);
}

bool RecoveryProtocol::hasPacket(net::NodeId node, std::uint64_t seq) const {
  if (node == topology().source) return seq < next_seq_;
  return have_.contains(haveKey(node, seq));
}

void RecoveryProtocol::markHasPacket(net::NodeId node, std::uint64_t seq,
                                     metrics::Terminal how) {
  if (node == topology().source) return;  // the source holds everything
  if (!have_.insert(haveKey(node, seq))) return;  // duplicate
  metrics_.recordRecovery(node, seq, simulator().now(), how);
  onPacketObtained(node, seq);
}

void RecoveryProtocol::sourceMulticast(std::uint64_t seq,
                                       const sim::LinkLossPattern& losses) {
  if (!attached_) throw std::logic_error("RecoveryProtocol: not attached");
  if (seq != next_seq_) {
    throw std::invalid_argument("RecoveryProtocol: out-of-order sequence");
  }
  ++next_seq_;

  const auto& tree = topology().tree;
  if (losses.size() != tree.numMembers()) {
    throw std::invalid_argument("RecoveryProtocol: loss pattern size");
  }

  // A client misses the packet iff any tree link on its root path drops it.
  // Crashed receivers run no protocol and carry no reliability obligation.
  //
  // In chaos mode the pattern walk cannot see link-fault losses (down links,
  // mid-flight flaps, jittered drops), so every live client gets a detection
  // check instead; the handler registers the loss from ground truth (the
  // client still lacks the packet at detection time).  Chaos off keeps the
  // legacy pre-registration path bit-identical.
  // Shard mode: each region's protocol instance registers losses and runs
  // detection for ITS clients only, and only the source's region floods the
  // data packet.  Serially both guards are vacuously true.
  const double now = simulator().now();
  const bool chaos = network_.chaosEnabled();
  for (const net::NodeId client : topology().clients) {
    if (!network_.isShardLocal(client)) continue;
    if (network_.isAgentFailed(client)) continue;
    if (!chaos) {
      bool lost = false;
      for (net::NodeId v = client; v != tree.root(); v = tree.parent(v)) {
        if (losses[tree.memberIndex(v)]) {
          lost = true;
          break;
        }
      }
      if (!lost) continue;
    }
    const double detect_at = now + network_.treeArrivalDelay(client) +
                             config_.detection_delay_ms;
    if (!chaos) metrics_.recordLoss(client, seq, detect_at);
    scheduleTimerAt(detect_at, kTimerLossDetect, client, seq);
  }

  if (!network_.shardOwnsSource()) return;
  sim::Packet data{sim::Packet::Type::kData, seq, topology().source,
                   net::kInvalidNode, 0};
  network_.multicastFromSource(data, &losses);
}

sim::EventId RecoveryProtocol::scheduleTimerAt(double at, std::uint32_t kind,
                                               std::uint64_t a,
                                               std::uint64_t b,
                                               std::uint64_t c) {
  sim::EventRecord record{sim::EventKind::kTimer, {}};
  record.data.timer = sim::TimerEvent{kind, a, b, c};
  return simulator().scheduleEventAt(at, this, record);
}

sim::EventId RecoveryProtocol::scheduleTimerAfter(double delay,
                                                  std::uint32_t kind,
                                                  std::uint64_t a,
                                                  std::uint64_t b,
                                                  std::uint64_t c) {
  sim::EventRecord record{sim::EventKind::kTimer, {}};
  record.data.timer = sim::TimerEvent{kind, a, b, c};
  return simulator().scheduleEventAfter(delay, this, record);
}

void RecoveryProtocol::onEvent(const sim::EventRecord& event) {
  if (event.kind != sim::EventKind::kTimer) {
    throw std::logic_error("RecoveryProtocol: unexpected event kind");
  }
  const sim::TimerEvent& timer = event.data.timer;
  if (timer.kind == kTimerLossDetect) {
    const auto client = static_cast<net::NodeId>(timer.a);
    const std::uint64_t seq = timer.b;
    // A repair may beat the detection (e.g. a flooded SRM repair), and the
    // client may have crashed since the multicast.
    if (network_.isAgentFailed(client)) return;
    if (hasPacket(client, seq)) return;
    // Chaos mode registers losses here, from ground truth (see
    // sourceMulticast); the legacy path registered them up front.
    if (!metrics_.wasLost(client, seq)) {
      metrics_.recordLoss(client, seq, simulator().now());
    }
    if (watchdogEnabled()) {
      scheduleTimerAfter(config_.session_deadline_ms, kTimerWatchdog, client,
                         seq);
    }
    onLossDetected(client, seq);
    return;
  }
  if (timer.kind == kTimerWatchdog) {
    const auto client = static_cast<net::NodeId>(timer.a);
    const std::uint64_t seq = timer.b;
    if (network_.isAgentFailed(client)) return;  // crash already wrote it off
    if (hasPacket(client, seq)) return;          // recovered in time
    abandonSession(client, seq);
    return;
  }
  onTimer(timer.kind, timer.a, timer.b, timer.c);
}

void RecoveryProtocol::abandonSession(net::NodeId client, std::uint64_t seq) {
  metrics_.abandonLoss(client, seq, simulator().now());
  probes_.erase(haveKey(client, seq));
  onSessionAbandoned(client, seq);
}

std::uint64_t RecoveryProtocol::nextRequestTag() {
  return network_.chaosEnabled() ? ++request_tag_counter_ : 0;
}

bool RecoveryProtocol::shouldServeRequest(net::NodeId at,
                                          const sim::Packet& packet) {
  if (packet.tag == 0) return true;  // untagged legacy request (chaos off)
  // Keyed by (responder, requester) and then sequence: concurrent sessions
  // of one client must never suppress each other, only true re-deliveries
  // of the same request (DESIGN.md §8 I9).
  std::uint64_t& last =
      served_requests_[(static_cast<std::uint64_t>(at) << 32) |
                       packet.requester][packet.seq];
  if (packet.tag <= last) {
    ++duplicate_requests_suppressed_;
    return false;
  }
  last = packet.tag;
  return true;
}

void RecoveryProtocol::finalizeRun() const {
  if (!watchdogEnabled()) return;
  RMRN_ENSURE(openSessions() == 0,
              "liveness watchdog left an open recovery session");
  RMRN_ENSURE(metrics_.outstanding() == 0,
              "a detected loss terminated neither recovered nor abandoned");
}

void RecoveryProtocol::onTimer(std::uint32_t, std::uint64_t, std::uint64_t,
                               std::uint64_t) {
  throw std::logic_error("RecoveryProtocol: unhandled timer kind");
}

void RecoveryProtocol::deliver(net::NodeId at, const sim::Packet& packet) {
  switch (packet.type) {
    case sim::Packet::Type::kData:
      markHasPacket(at, packet.seq, metrics::Terminal::kData);
      onData(at, packet);
      break;
    case sim::Packet::Type::kRequest:
      onRequest(at, packet);
      break;
    case sim::Packet::Type::kRepair:
      observeResponse(at, packet);
      if (hasPacket(at, packet.seq)) ++duplicate_deliveries_;
      markHasPacket(at, packet.seq,
                    packet.origin == source() ? metrics::Terminal::kSourceRepair
                                              : metrics::Terminal::kPeerRepair);
      onRepair(at, packet);
      break;
    case sim::Packet::Type::kParity:
      observeResponse(at, packet);
      onParity(at, packet);
      break;
  }
}

void RecoveryProtocol::onRepair(net::NodeId, const sim::Packet&) {}
void RecoveryProtocol::onParity(net::NodeId, const sim::Packet&) {}
void RecoveryProtocol::onData(net::NodeId, const sim::Packet&) {}
void RecoveryProtocol::onPacketObtained(net::NodeId, std::uint64_t) {}
void RecoveryProtocol::onClientCrashed(net::NodeId) {}
void RecoveryProtocol::onSessionAbandoned(net::NodeId, std::uint64_t) {}
std::size_t RecoveryProtocol::openSessions() const { return 0; }

}  // namespace rmrn::protocols
