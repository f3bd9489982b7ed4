#include "perfbench/src/reference.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "perfbench/src/trace.h"

namespace perfbench {
namespace {

uint64_t Next(uint64_t* x) {  // xorshift64*
  *x ^= *x >> 12;
  *x ^= *x << 25;
  *x ^= *x >> 27;
  return *x * 0x2545F4914F6CDD1Dull;
}

struct Event {
  uint64_t time;
  std::function<void()> fn;
};

volatile uint64_t g_sink = 0;

}  // namespace

double RunReferenceKernel() {
  constexpr uint64_t kSpace = 1 << 20;
  constexpr int kSteps = 250000;
  // The map keeps its size from call to call, so once it is built the
  // kernel allocates only what the allocator has just freed.
  static std::map<uint64_t, uint64_t> extents;
  if (extents.empty()) {
    for (uint64_t k = 0; k < kSpace; k += 8) {
      extents.emplace(k, k);
    }
  }
  auto later = [](const Event& a, const Event& b) { return a.time > b.time; };
  std::vector<Event> heap;
  heap.reserve(1024);
  // Bring the map back into the caches, so that the timed part does not
  // depend on how much of it the round before evicted.
  uint64_t sum = 0;
  for (const auto& [k, v] : extents) {
    sum += v;
  }

  const int64_t start = HostNowNs();
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 512; i++) {
    heap.push_back({Next(&x) % 1000, nullptr});
    std::push_heap(heap.begin(), heap.end(), later);
  }
  for (int i = 0; i < kSteps; i++) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Event e = std::move(heap.back());
    heap.pop_back();
    if (e.fn) {
      e.fn();
    }
    // Move one extent: the key toggles its low bit, so the size stays.
    const uint64_t key = Next(&x) % kSpace;
    auto it = extents.lower_bound(key);
    if (it != extents.end()) {
      const auto [k, v] = *it;
      extents.erase(it);
      extents.emplace(k ^ 1, v + e.time);
      sum += v;
    }
    auto payload = std::make_shared<std::vector<uint64_t>>(8, key);
    heap.push_back({e.time + 1 + Next(&x) % 1000,
                    [payload, &sum] { sum += (*payload)[3]; }});
    std::push_heap(heap.begin(), heap.end(), later);
  }
  g_sink = g_sink + sum;
  return static_cast<double>(HostNowNs() - start) * 1e-9;
}

}  // namespace perfbench
