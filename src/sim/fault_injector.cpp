#include "sim/fault_injector.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <stdexcept>
#include <utility>

#include "util/rng.hpp"

namespace rmrn::sim {

namespace {

std::size_t victimCount(double fraction, std::size_t population) {
  return static_cast<std::size_t>(
      std::llround(fraction * static_cast<double>(population)));
}

FaultEvent linkEvent(double at_ms, FaultKind kind, net::NodeId a,
                     net::NodeId b) {
  FaultEvent event;
  event.at_ms = at_ms;
  event.kind = kind;
  event.link_a = a;
  event.link_b = b;
  return event;
}

}  // namespace

FaultInjector::FaultInjector(SimNetwork& network, const FaultPlan& plan)
    : network_(network) {
  if (plan.crash_fraction < 0.0 || plan.stall_fraction < 0.0 ||
      plan.slow_fraction < 0.0 || plan.crash_fraction > 1.0 ||
      plan.stall_fraction > 1.0 || plan.slow_fraction > 1.0 ||
      plan.link_flap_fraction < 0.0 || plan.link_flap_fraction > 1.0 ||
      plan.partition_fraction < 0.0 || plan.partition_fraction > 1.0) {
    throw std::invalid_argument("FaultInjector: fractions must be in [0, 1]");
  }
  if (plan.duplicate_prob < 0.0 || plan.duplicate_prob >= 1.0) {
    throw std::invalid_argument(
        "FaultInjector: duplicate_prob must be in [0, 1)");
  }
  if (plan.at_ms < 0.0 || plan.stagger_ms < 0.0 || plan.slow_extra_ms < 0.0 ||
      plan.flap_down_ms < 0.0 || plan.flap_period_ms < 0.0 ||
      plan.partition_heal_ms < 0.0 || plan.reorder_jitter_ms < 0.0) {
    throw std::invalid_argument("FaultInjector: negative time");
  }
  if (plan.flap_cycles == 0) {
    throw std::invalid_argument("FaultInjector: flap_cycles must be >= 1");
  }
  if (plan.flap_cycles > 1 && plan.flap_down_ms > 0.0 &&
      plan.flap_period_ms <= plan.flap_down_ms) {
    throw std::invalid_argument(
        "FaultInjector: flap_period_ms must exceed flap_down_ms so a link "
        "never goes down while already down");
  }

  const std::vector<net::NodeId>& clients = network_.topology().clients;
  const std::size_t k = clients.size();
  const std::size_t crashes = victimCount(plan.crash_fraction, k);
  const std::size_t stalls = victimCount(plan.stall_fraction, k);
  const std::size_t slows = victimCount(plan.slow_fraction, k);
  if (crashes + stalls + slows > k) {
    throw std::invalid_argument(
        "FaultInjector: fault fractions exceed the client population");
  }

  // Seeded shuffle, then slice: crash victims first, stall, then slow.  The
  // shuffle (not the simulator state) is the only randomness, so the
  // schedule is a pure function of (plan, client list).
  std::vector<net::NodeId> victims = clients;
  util::Rng rng(plan.seed);
  rng.shuffle(victims);

  schedule_.reserve(crashes + stalls + slows);
  std::size_t cursor = 0;
  const auto take = [&](std::size_t count, FaultKind kind) {
    for (std::size_t i = 0; i < count; ++i, ++cursor) {
      FaultEvent event;
      event.at_ms =
          plan.at_ms + static_cast<double>(schedule_.size()) * plan.stagger_ms;
      event.node = victims[cursor];
      event.kind = kind;
      event.slow_extra_ms = kind == FaultKind::kSlow ? plan.slow_extra_ms : 0.0;
      schedule_.push_back(event);
    }
  };
  take(crashes, FaultKind::kCrash);
  take(stalls, FaultKind::kStall);
  take(slows, FaultKind::kSlow);

  // Link chaos.  Victim draws come from a fork, so who crashes above never
  // depends on whether link chaos is in the plan.
  util::Rng link_rng = rng.fork(1);
  const auto& tree = network_.topology().tree;
  const auto& graph = network_.topology().graph;
  const std::size_t n = graph.numNodes();

  // Partition: cut every graph edge with exactly one endpoint inside the
  // subtree whose client share best matches partition_fraction (ties go to
  // the lowest subtree root id).  All cuts land at at_ms in one atomic step.
  std::vector<char> in_cut_subtree(n, 0);
  if (plan.partition_fraction > 0.0 && k > 0) {
    const double target = plan.partition_fraction * static_cast<double>(k);
    net::NodeId best = net::kInvalidNode;
    double best_err = 0.0;
    for (const net::NodeId v : tree.members()) {
      if (v == tree.root()) continue;
      std::size_t count = 0;
      for (const net::NodeId m : tree.subtreeMembers(v)) {
        if (network_.topology().isClient(m)) ++count;
      }
      if (count == 0) continue;
      const double err = std::abs(static_cast<double>(count) - target);
      if (best == net::kInvalidNode || err < best_err) {
        best = v;
        best_err = err;
      }
    }
    if (best != net::kInvalidNode) {
      for (const net::NodeId m : tree.subtreeMembers(best)) {
        in_cut_subtree[m] = 1;
      }
      for (net::NodeId u = 0; u < n; ++u) {
        if (!in_cut_subtree[u]) continue;
        for (const net::HalfEdge& half : graph.neighbors(u)) {
          if (in_cut_subtree[half.to]) continue;
          schedule_.push_back(
              linkEvent(plan.at_ms, FaultKind::kLinkDown, u, half.to));
          if (plan.partition_heal_ms > 0.0) {
            schedule_.push_back(linkEvent(plan.at_ms + plan.partition_heal_ms,
                                          FaultKind::kLinkUp, u, half.to));
          }
        }
      }
    }
  }

  // Flaps: a seeded subset of tree links (each identified by its child
  // endpoint), never touching the partition cut so the boolean link state
  // stays single-writer.
  if (plan.link_flap_fraction > 0.0 && tree.numMembers() > 1) {
    std::vector<net::NodeId> candidates;
    for (const net::NodeId v : tree.members()) {
      if (v == tree.root()) continue;
      if (in_cut_subtree[v] != in_cut_subtree[tree.parent(v)]) continue;
      candidates.push_back(v);
    }
    link_rng.shuffle(candidates);
    const std::size_t want =
        victimCount(plan.link_flap_fraction, tree.numMembers() - 1);
    const std::size_t count = std::min(want, candidates.size());
    const std::uint32_t cycles =
        plan.flap_down_ms > 0.0 ? plan.flap_cycles : 1;
    for (std::size_t i = 0; i < count; ++i) {
      const net::NodeId child = candidates[i];
      const net::NodeId parent = tree.parent(child);
      const double base =
          plan.at_ms + static_cast<double>(i) * plan.stagger_ms;
      for (std::uint32_t c = 0; c < cycles; ++c) {
        const double t_down =
            base + static_cast<double>(c) * plan.flap_period_ms;
        schedule_.push_back(
            linkEvent(t_down, FaultKind::kLinkDown, parent, child));
        if (plan.flap_down_ms > 0.0) {
          schedule_.push_back(linkEvent(t_down + plan.flap_down_ms,
                                        FaultKind::kLinkUp, parent, child));
        }
      }
    }
  }

  global_dup_prob_ = plan.duplicate_prob;
  global_jitter_ms_ = plan.reorder_jitter_ms;
  if (plan.hasLinkChaos()) network_.enableChaos();
  validateLinkSchedule();
}

FaultInjector::FaultInjector(SimNetwork& network,
                             std::vector<FaultEvent> schedule)
    : network_(network), schedule_(std::move(schedule)) {
  bool link_chaos = false;
  for (const FaultEvent& event : schedule_) {
    if (event.at_ms < 0.0 || event.slow_extra_ms < 0.0) {
      throw std::invalid_argument("FaultInjector: negative time in schedule");
    }
    link_chaos = link_chaos || isLinkFault(event.kind);
  }
  if (link_chaos) network_.enableChaos();
  validateLinkSchedule();
}

std::vector<std::size_t> FaultInjector::timeOrder() const {
  std::vector<std::size_t> order(schedule_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [this](std::size_t a, std::size_t b) {
                     return schedule_[a].at_ms < schedule_[b].at_ms;
                   });
  return order;
}

void FaultInjector::validateLinkSchedule() const {
  // Replay link events in time order and require a single coherent
  // link-state timeline: down must precede up, and no link goes down twice.
  std::set<std::pair<net::NodeId, net::NodeId>> down;
  for (const std::size_t index : timeOrder()) {
    const FaultEvent& event = schedule_[index];
    if (!isLinkFault(event.kind)) continue;
    if (event.link_a == net::kInvalidNode ||
        event.link_b == net::kInvalidNode || event.link_a == event.link_b) {
      throw std::invalid_argument("FaultInjector: link fault without a link");
    }
    // Forces an early existence check (throws on a non-edge).
    (void)network_.isLinkUp(event.link_a, event.link_b);
    const std::pair<net::NodeId, net::NodeId> key{
        std::min(event.link_a, event.link_b),
        std::max(event.link_a, event.link_b)};
    if (event.kind == FaultKind::kLinkDown) {
      if (!down.insert(key).second) {
        throw std::invalid_argument(
            "FaultInjector: link_down for a link already down");
      }
    } else {
      if (down.erase(key) == 0) {
        throw std::invalid_argument(
            "FaultInjector: link_up scheduled before its link_down");
      }
    }
  }
}

void FaultInjector::setFaultHandler(FaultHandler handler) {
  handler_ = std::move(handler);
}

std::size_t FaultInjector::plannedFaults(FaultKind kind) const {
  std::size_t count = 0;
  for (const FaultEvent& event : schedule_) {
    if (event.kind == kind) ++count;
  }
  return count;
}

void FaultInjector::arm() {
  if (armed_) throw std::logic_error("FaultInjector: already armed");
  armed_ = true;
  network_.expectAgentFaults();
  if (global_dup_prob_ > 0.0) {
    network_.setAllLinksDuplicationProb(global_dup_prob_);
  }
  if (global_jitter_ms_ > 0.0) {
    network_.setAllLinksJitterMs(global_jitter_ms_);
  }
  // The link-state timeline, staged in time order before any traffic.
  for (const std::size_t index : timeOrder()) {
    const FaultEvent& event = schedule_[index];
    if (!isLinkFault(event.kind)) continue;
    network_.stageLinkState(event.link_a, event.link_b, event.at_ms,
                            event.kind == FaultKind::kLinkUp);
  }
  // One timer per fault; its payload is the schedule index.
  EventRecord record{EventKind::kTimer, {}};
  for (std::size_t i = 0; i < schedule_.size(); ++i) {
    record.data.timer = TimerEvent{0, i, 0, 0};
    network_.simulator().scheduleEventAt(schedule_[i].at_ms, this, record);
  }
}

void FaultInjector::onEvent(const EventRecord& record) {
  const FaultEvent& event = schedule_[record.data.timer.a];
  switch (event.kind) {
    case FaultKind::kCrash:
      network_.setAgentFault(event.node, AgentFault::kCrashed);
      break;
    case FaultKind::kStall:
      network_.setAgentFault(event.node, AgentFault::kStalled);
      break;
    case FaultKind::kSlow:
      network_.setAgentFault(event.node, AgentFault::kSlowed,
                             event.slow_extra_ms);
      break;
    case FaultKind::kLinkDown:
    case FaultKind::kLinkUp:
      break;  // staged on the link timeline at arm()
  }
  if (handler_) handler_(event);
}

}  // namespace rmrn::sim
