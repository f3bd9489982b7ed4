// k-server FIFO service queue with busy-time accounting.
//
// Models any resource that serves requests with a known service time and
// bounded parallelism: SSD channels, a client CPU (k = 1), or a NIC link.
#ifndef SRC_SIM_SERVER_QUEUE_H_
#define SRC_SIM_SERVER_QUEUE_H_

#include <cstdint>
#include <vector>

#include "src/sim/simulator.h"
#include "src/util/units.h"

namespace lsvd {

class ServerQueue {
 public:
  // `servers` is the number of requests that may be in service concurrently.
  ServerQueue(Simulator* sim, int servers);

  // Enqueues a request needing `service` ns of exclusive server time;
  // `done` fires when it completes (scheduled directly on the simulator).
  void Submit(Nanos service, Simulator::Fn done);

  // Total server-nanoseconds spent busy so far (across all servers).
  Nanos busy_time() const { return busy_; }

  // Fraction of one server's capacity used over [t0, t1), given cumulative
  // busy-time samples taken by the caller at t0 and t1.
  static double Utilization(Nanos busy_delta, Nanos interval, int servers) {
    if (interval <= 0) {
      return 0.0;
    }
    return static_cast<double>(busy_delta) /
           static_cast<double>(interval * servers);
  }

 private:
  Simulator* sim_;
  // Earliest time each server becomes free; size = number of servers.
  std::vector<Nanos> free_at_;
  Nanos busy_ = 0;
};

}  // namespace lsvd

#endif  // SRC_SIM_SERVER_QUEUE_H_
