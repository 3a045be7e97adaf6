// Subtree sharding of a multicast group (hierarchical planning, layer 1).
//
// Following the hierarchical-reliable-multicast line of work, the client set
// is partitioned by multicast subtree: a *shard root* is a shallowest tree
// node whose subtree holds at most K clients, and a shard is the client set
// of one such subtree.  Because subtree client counts are monotone
// non-decreasing towards the root, shard roots are unique and their subtrees
// pairwise disjoint — every client belongs to exactly one shard.  A client
// sitting at an internal node whose own subtree already exceeds K clients
// has no qualifying ancestor; it forms a *residual* singleton shard (its
// subtree may contain other shards, which is the only nesting that exists).
//
// The partition is canonical: it depends only on (tree, client set, K), not
// on the order of joins and leaves.  addClient/removeClient maintain it
// incrementally in O(depth) for the common case by updating the subtree
// counts along one root path and rebuilding the single affected region —
// a join can only split the shard region it lands in (counts grew), a leave
// can only merge the shards under the shallowest newly-qualifying ancestor
// (counts shrank).  All scratch state is reused, so steady-state churn
// performs no heap allocations once warmed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "net/multicast_tree.hpp"
#include "net/types.hpp"

namespace rmrn::core {

/// One shard: the clients of the subtree rooted at `root`.
struct Shard {
  net::NodeId root = net::kInvalidNode;
  /// True when the shard is a forced singleton: `root` is itself the client
  /// and its subtree holds more than K clients.
  bool residual = false;
  std::vector<net::NodeId> clients;  // sorted ascending
};

class GroupPartition {
 public:
  static constexpr std::uint32_t kNoShard =
      std::numeric_limits<std::uint32_t>::max();

  /// IDs of shards changed by the last addClient/removeClient.
  struct Churn {
    std::vector<std::uint32_t> touched;  // created or membership changed
    std::vector<std::uint32_t> removed;  // freed (no longer live)
  };

  /// Partitions `clients` (tree members) with target shard size
  /// `max_shard_clients` >= 1.  The tree must outlive the partition.
  GroupPartition(const net::MulticastTree& tree,
                 std::span<const net::NodeId> clients,
                 std::uint32_t max_shard_clients);

  [[nodiscard]] std::uint32_t maxShardClients() const { return max_clients_; }
  [[nodiscard]] std::size_t numClients() const { return num_clients_; }
  [[nodiscard]] std::size_t numShards() const { return num_live_; }

  /// Shard slots are addressed by stable IDs in [0, numSlots()); freed slots
  /// are reused by later churn.  Iterate ascending and skip dead slots for a
  /// deterministic shard order.
  [[nodiscard]] std::size_t numSlots() const { return slots_.size(); }
  [[nodiscard]] bool isLive(std::uint32_t id) const {
    return id < slots_.size() && live_[id];
  }
  /// The shard in slot `id`; RMRN_REQUIRE(isLive(id)).
  [[nodiscard]] const Shard& shard(std::uint32_t id) const;

  /// Slot ID of the shard containing `client`; kNoShard when `client` is not
  /// a current group member.
  [[nodiscard]] std::uint32_t shardOf(net::NodeId client) const;

  [[nodiscard]] bool isClient(net::NodeId v) const;

  /// Current clients of the subtree rooted at `v` (the maintained counts).
  [[nodiscard]] std::uint32_t subtreeClients(net::NodeId v) const;

  /// Adds a receiver at tree member `v` and rebuilds the affected region.
  /// The returned churn report is valid until the next add/remove.
  /// RMRN_REQUIRE: v is a tree member, not the root, not already a client.
  const Churn& addClient(net::NodeId v);

  /// Removes receiver `v`.  RMRN_REQUIRE: v is a current client.
  const Churn& removeClient(net::NodeId v);

 private:
  [[nodiscard]] std::size_t idx(net::NodeId v) const {
    return tree_->memberIndex(v);
  }
  void adjustCounts(net::NodeId v, std::int32_t delta);
  /// Highest ancestor of v (inclusive) whose subtree count is <= limit;
  /// kInvalidNode when even v exceeds it.  64-bit so that K + 1 cannot wrap
  /// at K = UINT32_MAX.
  [[nodiscard]] net::NodeId highestWithin(net::NodeId v,
                                          std::uint64_t limit) const;
  /// Rebuilds shards for the clients currently staged in affected_,
  /// reusing `reusable` slot ids first.  Appends to churn_.touched.
  void rebuildRegion();
  std::uint32_t allocSlot();

  const net::MulticastTree* tree_;
  std::uint32_t max_clients_;
  std::size_t num_clients_ = 0;
  std::size_t num_live_ = 0;

  // Per-memberIndex state.
  std::vector<std::uint32_t> count_;           // clients in subtree
  std::vector<char> is_client_;
  std::vector<std::uint32_t> shard_of_;        // client -> slot id
  std::vector<std::uint32_t> root_shard_of_;   // shard root -> slot id

  std::vector<Shard> slots_;
  std::vector<char> live_;
  std::vector<std::uint32_t> free_ids_;  // sorted descending; pop smallest

  // Churn scratch (reused; zero allocations once warmed).
  Churn churn_;
  std::vector<net::NodeId> affected_;            // clients to re-place
  std::vector<std::uint32_t> reusable_;          // slot ids to fill first
  // (fresh shard root memberIndex, client) pairs, sorted to group.
  std::vector<std::pair<std::uint32_t, net::NodeId>> grouped_;
};

}  // namespace rmrn::core
