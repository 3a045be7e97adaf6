#include "core/group_partition.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace rmrn::core {

GroupPartition::GroupPartition(const net::MulticastTree& tree,
                               std::span<const net::NodeId> clients,
                               std::uint32_t max_shard_clients)
    : tree_(&tree), max_clients_(max_shard_clients) {
  RMRN_REQUIRE(max_clients_ >= 1,
               "GroupPartition: shard size must be at least 1");
  const std::size_t n = tree.numMembers();
  count_.assign(n, 0);
  is_client_.assign(n, 0);
  shard_of_.assign(n, kNoShard);
  root_shard_of_.assign(n, kNoShard);

  for (const net::NodeId v : clients) {
    RMRN_REQUIRE(tree.contains(v), "GroupPartition: client not in tree");
    RMRN_REQUIRE(v != tree.root(), "GroupPartition: the source is no client");
    RMRN_REQUIRE(!is_client_[idx(v)], "GroupPartition: duplicate client");
    is_client_[idx(v)] = 1;
    ++num_clients_;
  }
  // Subtree counts bottom-up: members() is preorder, so every child precedes
  // its parent when walked in reverse.
  const std::vector<net::NodeId>& members = tree.members();
  for (std::size_t i = members.size(); i-- > 0;) {
    const net::NodeId v = members[i];
    count_[idx(v)] += is_client_[idx(v)];
    const net::NodeId p = tree.parent(v);
    if (p != net::kInvalidNode) count_[idx(p)] += count_[idx(v)];
  }

  // Stage every client and build all shards through the shared region
  // rebuild (clears churn_ bookkeeping afterwards).
  affected_.assign(clients.begin(), clients.end());
  reusable_.clear();
  rebuildRegion();
  churn_.touched.clear();
  churn_.removed.clear();
}

const Shard& GroupPartition::shard(std::uint32_t id) const {
  RMRN_REQUIRE(isLive(id), "GroupPartition: dead shard slot");
  return slots_[id];
}

std::uint32_t GroupPartition::shardOf(net::NodeId client) const {
  if (!tree_->contains(client) || !is_client_[idx(client)]) return kNoShard;
  return shard_of_[idx(client)];
}

bool GroupPartition::isClient(net::NodeId v) const {
  return tree_->contains(v) && is_client_[idx(v)] != 0;
}

std::uint32_t GroupPartition::subtreeClients(net::NodeId v) const {
  return count_[idx(v)];
}

void GroupPartition::adjustCounts(net::NodeId v, std::int32_t delta) {
  for (net::NodeId a = v; a != net::kInvalidNode; a = tree_->parent(a)) {
    count_[idx(a)] =
        static_cast<std::uint32_t>(static_cast<std::int64_t>(count_[idx(a)]) +
                                   delta);
  }
}

net::NodeId GroupPartition::highestWithin(net::NodeId v,
                                          std::uint64_t limit) const {
  // Counts are monotone non-decreasing towards the root, so the qualifying
  // ancestors of v form a contiguous run starting at v.
  net::NodeId best = net::kInvalidNode;
  for (net::NodeId a = v; a != net::kInvalidNode; a = tree_->parent(a)) {
    if (count_[idx(a)] > limit) break;
    best = a;
  }
  return best;
}

std::uint32_t GroupPartition::allocSlot() {
  if (!free_ids_.empty()) {
    const std::uint32_t id = free_ids_.back();  // smallest (sorted descending)
    free_ids_.pop_back();
    live_[id] = 1;
    ++num_live_;
    return id;
  }
  slots_.emplace_back();
  live_.push_back(1);
  ++num_live_;
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void GroupPartition::rebuildRegion() {
  // Group the staged clients by their fresh shard root (residual singletons
  // key on the client itself), in preorder-rank order for determinism.
  grouped_.clear();
  for (const net::NodeId w : affected_) {
    const net::NodeId f = highestWithin(w, max_clients_);
    const net::NodeId root = f == net::kInvalidNode ? w : f;
    grouped_.emplace_back(static_cast<std::uint32_t>(idx(root)), w);
  }
  std::sort(grouped_.begin(), grouped_.end());

  // Reuse the freed region slots smallest-first, then the global free list.
  std::sort(reusable_.begin(), reusable_.end());
  std::size_t next_reusable = 0;

  for (std::size_t i = 0; i < grouped_.size();) {
    const std::uint32_t root_idx = grouped_[i].first;
    const net::NodeId root = tree_->members()[root_idx];
    std::uint32_t id;
    if (next_reusable < reusable_.size()) {
      id = reusable_[next_reusable++];
      live_[id] = 1;
      ++num_live_;
    } else {
      id = allocSlot();
    }
    Shard& s = slots_[id];
    s.root = root;
    s.residual = count_[root_idx] > max_clients_;
    s.clients.clear();
    for (; i < grouped_.size() && grouped_[i].first == root_idx; ++i) {
      s.clients.push_back(grouped_[i].second);
      shard_of_[idx(grouped_[i].second)] = id;
    }
    RMRN_ENSURE(s.residual ? s.clients.size() == 1
                           : s.clients.size() <= max_clients_,
                "shard exceeds its client budget");
    root_shard_of_[root_idx] = id;
    churn_.touched.push_back(id);
  }

  // Region slots that found no new shard are gone for good (they were
  // already detached from the live set).
  for (; next_reusable < reusable_.size(); ++next_reusable) {
    const std::uint32_t id = reusable_[next_reusable];
    slots_[id].clients.clear();  // keep capacity for reuse
    free_ids_.push_back(id);
    churn_.removed.push_back(id);
  }
  std::sort(free_ids_.begin(), free_ids_.end(),
            std::greater<std::uint32_t>());
}

const GroupPartition::Churn& GroupPartition::addClient(net::NodeId v) {
  RMRN_REQUIRE(tree_->contains(v), "GroupPartition: joiner not in tree");
  RMRN_REQUIRE(v != tree_->root(), "GroupPartition: the source is no client");
  RMRN_REQUIRE(!is_client_[idx(v)], "GroupPartition: already a client");
  churn_.touched.clear();
  churn_.removed.clear();

  is_client_[idx(v)] = 1;
  ++num_clients_;
  adjustCounts(v, +1);

  // The affected region is rooted at the shallowest ancestor that qualified
  // under the OLD counts (new count <= K+1): only the shard there — if any —
  // can split; everything outside kept its counts or stayed over budget.
  const net::NodeId region =
      highestWithin(v, std::uint64_t{max_clients_} + 1);
  affected_.clear();
  reusable_.clear();
  if (region == net::kInvalidNode) {
    // Even v's own subtree was over budget before the join: v becomes a
    // residual singleton and no existing shard is disturbed.
    affected_.push_back(v);
  } else {
    const std::uint32_t old = root_shard_of_[idx(region)];
    if (old != kNoShard && live_[old]) {
      for (const net::NodeId w : slots_[old].clients) affected_.push_back(w);
      affected_.push_back(v);
      // Detach the old shard; the rebuild reassigns its slot first.
      root_shard_of_[idx(region)] = kNoShard;
      live_[old] = 0;
      --num_live_;
      reusable_.push_back(old);
    } else {
      affected_.push_back(v);
    }
  }
  rebuildRegion();
  return churn_;
}

const GroupPartition::Churn& GroupPartition::removeClient(net::NodeId v) {
  RMRN_REQUIRE(isClient(v), "GroupPartition: not a client");
  churn_.touched.clear();
  churn_.removed.clear();

  const std::uint32_t own = shard_of_[idx(v)];
  is_client_[idx(v)] = 0;
  --num_clients_;
  adjustCounts(v, -1);
  shard_of_[idx(v)] = kNoShard;

  // Shallowest ancestor qualifying under the NEW counts.  At or below the
  // old shard root: only v's own shard shrinks.  Above it: every shard in
  // that ancestor's subtree merges into one.
  const net::NodeId region = highestWithin(v, max_clients_);
  affected_.clear();
  reusable_.clear();

  const auto detach = [&](std::uint32_t id) {
    for (const net::NodeId w : slots_[id].clients) {
      if (w != v) affected_.push_back(w);
    }
    root_shard_of_[idx(slots_[id].root)] = kNoShard;
    live_[id] = 0;
    --num_live_;
    reusable_.push_back(id);
  };

  if (region == net::kInvalidNode) {
    // v was a residual singleton; nothing else can have changed.
    detach(own);
  } else if (!slots_[own].residual && region == slots_[own].root) {
    // A non-residual shard's subtree contains no other shards: it just
    // shrinks in place.
    detach(own);
  } else {
    // Merge: collect every shard rooted inside the region's subtree (v's own
    // shard is among them; so are residual singletons on v's root path that
    // now fit under the region root).
    for (std::uint32_t id = 0; id < slots_.size(); ++id) {
      if (!live_[id]) continue;
      if (tree_->isAncestor(region, slots_[id].root)) detach(id);
    }
  }
  rebuildRegion();
  return churn_;
}

}  // namespace rmrn::core
