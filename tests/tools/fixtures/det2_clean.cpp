// DET-2 clean fixture: sorted key views in place of hash walks.
#include <algorithm>
#include <vector>

std::vector<int> sortedCopy(std::vector<int> keys) {
  std::sort(keys.begin(), keys.end());
  return keys;
}

// Point lookups into a flat table never walk it.
int lookup(util::FlatTable<int>& table, util::FlatSet& seen) {
  if (!seen.insert(7)) return 0;
  table.erase(3);
  const int* value = table.find(5);
  return value != nullptr ? *value : table[9];
}
