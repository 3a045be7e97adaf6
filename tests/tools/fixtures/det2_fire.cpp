// DET-2 firing fixture: hash-walk iteration over unordered containers.
#include <unordered_map>

int total(const std::unordered_map<int, int>& counts) {
  int sum = 0;
  for (const auto& [key, value] : counts) sum += value;
  return sum;
}

int first(const std::unordered_map<int, int>& counts) {
  return counts.begin()->second;
}

// util::FlatTable and util::FlatSet walk in hash-decided slot order too.
int flatTotal(const util::FlatTable<int>& table) {
  int sum = 0;
  for (const auto& [key, value] : table) sum += value;
  return sum;
}

void sweep(util::FlatTable<int>& table) {
  table.eraseIf([](std::uint64_t key, int&) { return key == 0; });
}

int flatCount(const util::FlatSet& keys) {
  int n = 0;
  for (const auto& [key, unused] : keys) ++n;
  return n;
}
