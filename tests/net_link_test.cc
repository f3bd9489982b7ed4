// Unit tests for the client NIC model: byte accounting on both queues
// (bytes_sent() was silently stuck at zero before the counters moved into
// SendToBackend/ReceiveFromBackend) and transfer timing.
#include <gtest/gtest.h>

#include "src/sim/net_link.h"
#include "src/sim/simulator.h"

namespace lsvd {
namespace {

TEST(NetLinkTest, CountsBytesOnBothQueues) {
  Simulator sim;
  NetLink link(&sim, NetParams{});
  EXPECT_EQ(link.bytes_sent(), 0u);
  EXPECT_EQ(link.bytes_received(), 0u);

  int done = 0;
  link.SendToBackend(1000, [&] { done++; });
  link.SendToBackend(24, [&] { done++; });
  link.ReceiveFromBackend(4096, [&] { done++; });
  // Counters register at submit time (queue admission), not completion.
  EXPECT_EQ(link.bytes_sent(), 1024u);
  EXPECT_EQ(link.bytes_received(), 4096u);

  sim.Run();
  EXPECT_EQ(done, 3);
  EXPECT_EQ(link.bytes_sent(), 1024u);
  EXPECT_EQ(link.bytes_received(), 4096u);
}

TEST(NetLinkTest, TransferTimeMatchesConfiguredBandwidth) {
  Simulator sim;
  NetLink link(&sim, NetParams{});  // 1.25e9 B/s (10 Gbit)
  EXPECT_EQ(link.TransferTime(1250000), Nanos{1000000});  // 1.25 MB in 1 ms
  EXPECT_EQ(link.TransferTime(0), Nanos{0});
}

TEST(NetLinkTest, TxAndRxSerializeIndependently) {
  Simulator sim;
  NetLink link(&sim, NetParams{});
  // Two same-size transfers per direction: the second on each queue waits
  // for the first, but tx and rx do not wait on each other.
  const uint64_t bytes = 1250000;  // 1 ms on the wire
  Nanos tx1 = -1, tx2 = -1, rx1 = -1, rx2 = -1;
  link.SendToBackend(bytes, [&] { tx1 = sim.now(); });
  link.SendToBackend(bytes, [&] { tx2 = sim.now(); });
  link.ReceiveFromBackend(bytes, [&] { rx1 = sim.now(); });
  link.ReceiveFromBackend(bytes, [&] { rx2 = sim.now(); });
  sim.Run();
  EXPECT_EQ(tx1, Nanos{1000000});
  EXPECT_EQ(tx2, Nanos{2000000});
  EXPECT_EQ(rx1, Nanos{1000000});
  EXPECT_EQ(rx2, Nanos{2000000});
}

}  // namespace
}  // namespace lsvd
