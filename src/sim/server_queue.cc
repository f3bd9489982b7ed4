#include "src/sim/server_queue.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace lsvd {

ServerQueue::ServerQueue(Simulator* sim, int servers) : sim_(sim) {
  assert(servers > 0);
  free_at_.assign(static_cast<size_t>(servers), 0);
}

void ServerQueue::Submit(Nanos service, Simulator::Fn done) {
  assert(service >= 0);
  // Pick the server that frees up earliest (equivalent to a shared FIFO fed
  // to k identical servers).
  auto it = std::min_element(free_at_.begin(), free_at_.end());
  const Nanos start = std::max(sim_->now(), *it);
  const Nanos end = start + service;
  *it = end;
  busy_ += service;
  sim_->At(end, std::move(done));
}

}  // namespace lsvd
