// perfbench_ref: a fixed amount of CPU work that shares no code with the
// library, run between the rounds of a measurement to gauge how fast the
// host is at that moment. run.py times it from outside, like the tools.
//
//   perfbench_ref
//
// The mix follows the tools' own: doubles printed and parsed back
// (render), a hash map under insert/lookup/erase churn (flow tables), a
// sort, and a pass over a buffer larger than the caches (trace reading).
// Prints a checksum so the work cannot be optimised away.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>
#include <vector>

namespace {

struct XorShift {
  std::uint64_t x = 88172645463325252ULL;
  std::uint64_t operator()() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  }
};

}  // namespace

int main() {
  XorShift rnd;
  std::uint64_t sum = 0;

  char buf[64];
  for (int i = 0; i < 40000; ++i) {
    const double d = static_cast<double>(rnd() % 1000000007) / 7.0;
    sum += static_cast<std::uint64_t>(std::snprintf(buf, sizeof buf, "%.17g", d));
    sum += static_cast<std::uint64_t>(std::strtod(buf, nullptr));
  }

  std::unordered_map<std::uint64_t, std::uint64_t> table;
  for (int i = 0; i < 400000; ++i) {
    const std::uint64_t key = rnd() % 60000;
    const auto it = table.find(key);
    if (it == table.end()) {
      table.emplace(key, i);
    } else {
      sum += it->second;
      if (i & 1) table.erase(it);
    }
  }

  std::vector<std::uint32_t> keys(400000);
  for (auto& k : keys) k = static_cast<std::uint32_t>(rnd());
  std::sort(keys.begin(), keys.end());
  sum += keys[keys.size() / 2];

  std::vector<std::uint64_t> stream(4 << 20);  // 32 MiB
  for (std::size_t i = 0; i < stream.size(); ++i) stream[i] = i * 2654435761u;
  for (const auto v : stream) sum += v >> 7;

  std::printf("%llu\n", static_cast<unsigned long long>(sum));
  return 0;
}
