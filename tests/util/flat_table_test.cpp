#include "util/flat_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "util/rng.hpp"

namespace rmrn::util {
namespace {

using Key = std::uint64_t;

Key nodeSeq(std::uint64_t node, std::uint64_t seq) { return node << 32 | seq; }

/// The table's contents as an ordered map, for comparison.
std::map<Key, std::uint64_t> contents(const FlatTable<std::uint64_t>& table) {
  std::map<Key, std::uint64_t> out;
  for (const auto& [key, value] : table) {
    EXPECT_TRUE(out.emplace(key, value).second) << "key visited twice";
  }
  return out;
}

std::map<Key, std::uint64_t> contents(
    const std::unordered_map<Key, std::uint64_t>& reference) {
  return {reference.begin(), reference.end()};
}

TEST(FlatTableTest, EmptyTableFindsNothing) {
  FlatTable<int> table;
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.find(7), nullptr);
  EXPECT_FALSE(table.contains(7));
  EXPECT_FALSE(table.erase(7));
  EXPECT_EQ(table.eraseIf([](Key, int&) { return true; }), 0u);
  EXPECT_THROW((void)table.at(7), std::out_of_range);
  EXPECT_EQ(table.begin(), table.end());
}

TEST(FlatTableTest, TryEmplaceKeepsTheFirstValue) {
  FlatTable<int> table;
  auto [value, inserted] = table.tryEmplace(nodeSeq(3, 9));
  ASSERT_TRUE(inserted);
  EXPECT_EQ(*value, 0);  // default-constructed
  *value = 41;
  const auto again = table.tryEmplace(nodeSeq(3, 9));
  EXPECT_FALSE(again.second);
  EXPECT_EQ(*again.first, 41);
  ++table[nodeSeq(3, 9)];
  EXPECT_EQ(table.at(nodeSeq(3, 9)), 42);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlatTableTest, SetInsertsEachKeyOnce) {
  FlatSet set;
  EXPECT_TRUE(set.insert(5));
  EXPECT_FALSE(set.insert(5));
  EXPECT_TRUE(set.contains(5));
  EXPECT_TRUE(set.erase(5));
  EXPECT_FALSE(set.contains(5));
  EXPECT_TRUE(set.insert(5));
}

// Seeded differential test against std::unordered_map: random inserts,
// finds, erases and erase-ifs over a key universe small enough that keys
// recur, long probe chains form and erases shift them back, while the
// table grows through several doublings and is emptied and refilled.
TEST(FlatTableTest, MatchesUnorderedMapUnderRandomOperations) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    FlatTable<std::uint64_t> table;
    std::unordered_map<Key, std::uint64_t> reference;
    for (int round = 0; round < 4000; ++round) {
      // The universe widens then narrows: growth, then dense erase chains.
      const std::uint64_t nodes = 1 + (round < 2000 ? round / 40 : 20);
      const Key key = nodeSeq(rng.uniformInt(nodes), rng.uniformInt(64));
      switch (rng.uniformInt(10)) {
        case 0:
        case 1:
        case 2:
        case 3: {
          const auto [value, inserted] = table.tryEmplace(key);
          const auto [it, ref_inserted] = reference.try_emplace(key, 0);
          ASSERT_EQ(inserted, ref_inserted);
          *value += round;
          it->second += round;
          break;
        }
        case 4:
        case 5:
        case 6: {
          ASSERT_EQ(table.erase(key), reference.erase(key) == 1);
          break;
        }
        case 7:
        case 8: {
          const std::uint64_t* value = table.find(key);
          const auto it = reference.find(key);
          ASSERT_EQ(value != nullptr, it != reference.end());
          if (value != nullptr) {
            ASSERT_EQ(*value, it->second);
          }
          break;
        }
        default: {
          // Erase every key of one node (the crash sweep's shape), or an
          // odd-valued slice of everything.
          const std::uint64_t node = rng.uniformInt(nodes);
          const bool by_node = rng.uniformInt(2) == 0;
          const auto doomed = [&](Key k, std::uint64_t v) {
            return by_node ? (k >> 32) == node : (v % 7) == 3;
          };
          std::size_t expected = 0;
          for (auto it = reference.begin(); it != reference.end();) {
            if (doomed(it->first, it->second)) {
              it = reference.erase(it);
              ++expected;
            } else {
              ++it;
            }
          }
          std::size_t visits = 0;
          const std::size_t erased =
              table.eraseIf([&](Key k, std::uint64_t& v) {
                ++visits;
                return doomed(k, v);
              });
          ASSERT_EQ(erased, expected);
          ASSERT_EQ(visits, reference.size() + expected);  // each once
          break;
        }
      }
      ASSERT_EQ(table.size(), reference.size());
      if (round % 97 == 0) {
        ASSERT_EQ(contents(table), contents(reference));
      }
    }
    EXPECT_EQ(contents(table), contents(reference));
    for (const auto& [key, value] : reference) {
      ASSERT_NE(table.find(key), nullptr);
      EXPECT_EQ(*table.find(key), value);
    }
  }
}

// Keys that differ only in the node half, or only in the seq half, must
// spread over the table: a hash of one half alone would pile each set into
// one probe chain.
TEST(FlatTableTest, KeysDifferingInOneHalfSpread) {
  constexpr std::uint64_t kKeys = 4096;
  FlatTable<std::uint64_t> by_node;
  FlatTable<std::uint64_t> by_seq;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    by_node[nodeSeq(i, 17)] = i;
    by_seq[nodeSeq(17, i)] = i;
  }
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    ASSERT_EQ(by_node.at(nodeSeq(i, 17)), i);
    ASSERT_EQ(by_seq.at(nodeSeq(17, i)), i);
  }
  EXPECT_LT(by_node.longestProbe(), 64u);
  EXPECT_LT(by_seq.longestProbe(), 64u);
  // The node-only keys again, thinned by erase: every chain still resolves.
  const auto odd_node = [](Key k, std::uint64_t&) {
    return ((k >> 32) & 1) != 0;
  };
  EXPECT_EQ(by_node.eraseIf(odd_node), kKeys / 2);
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    EXPECT_EQ(by_node.contains(nodeSeq(i, 17)), i % 2 == 0) << i;
  }
}

TEST(FlatTableTest, IterationVisitsEveryEntryOnce) {
  FlatTable<int> table;
  for (int i = 0; i < 100; ++i) table[nodeSeq(i, i)] = i;
  std::vector<int> seen;
  for (const auto& [key, value] : table) {
    EXPECT_EQ(key, nodeSeq(value, value));
    seen.push_back(value);
  }
  std::sort(seen.begin(), seen.end());
  ASSERT_EQ(seen.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(seen[i], i);
}

}  // namespace
}  // namespace rmrn::util
