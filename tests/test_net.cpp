// Tests for the discrete-event simulator and the simulated p2p network:
// event ordering, repeating tasks, latency/jitter/loss, clock skew, and
// traffic accounting.
#include <gtest/gtest.h>

#include "common/expect.hpp"
#include "net/network.hpp"
#include "net/simulator.hpp"

namespace waku::net {
namespace {

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30u);
}

TEST(Simulator, FifoForEqualTimestamps) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(50, [&order, i] { order.push_back(i); });
  }
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  TimeMs fired_at = 0;
  sim.schedule_at(100, [&] {
    sim.schedule_after(25, [&] { fired_at = sim.now(); });
  });
  sim.run_all();
  EXPECT_EQ(fired_at, 125u);
}

TEST(Simulator, SchedulingInPastThrows) {
  Simulator sim;
  sim.schedule_at(10, [] {});
  sim.run_all();
  EXPECT_THROW(sim.schedule_at(5, [] {}), ContractViolation);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int count = 0;
  for (TimeMs t = 10; t <= 100; t += 10) {
    sim.schedule_at(t, [&] { ++count; });
  }
  sim.run_until(50);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.now(), 50u);
  sim.run_until(100);
  EXPECT_EQ(count, 10);
}

TEST(Simulator, RepeatingTaskFiresAtInterval) {
  Simulator sim;
  std::vector<TimeMs> fires;
  sim.schedule_every(10, [&] { fires.push_back(sim.now()); });
  sim.run_until(35);
  EXPECT_EQ(fires, (std::vector<TimeMs>{10, 20, 30}));
}

TEST(Simulator, CancelStopsRepeatingTask) {
  Simulator sim;
  int count = 0;
  const auto id = sim.schedule_every(10, [&] { ++count; });
  sim.run_until(25);
  sim.cancel(id);
  sim.run_until(100);
  EXPECT_EQ(count, 2);
}

TEST(Simulator, CancelOneShot) {
  Simulator sim;
  bool fired = false;
  const auto id = sim.schedule_at(10, [&] { fired = true; });
  sim.cancel(id);
  sim.run_all();
  EXPECT_FALSE(fired);
}

TEST(Simulator, NestedSchedulingDuringStep) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule_after(1, recurse);
  };
  sim.schedule_at(0, recurse);
  sim.run_all();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), 4u);
}

// Counts its copies; moves are free. An event's callback must reach its
// execution by moves alone (a copy duplicates the whole capture, a frame
// buffer for a network delivery).
struct CopyCounter {
  explicit CopyCounter(int* copies) : copies(copies) {}
  CopyCounter(const CopyCounter& other) : copies(other.copies) { ++*copies; }
  CopyCounter(CopyCounter&&) noexcept = default;
  CopyCounter& operator=(const CopyCounter&) = delete;
  CopyCounter& operator=(CopyCounter&&) = delete;
  int* copies;
};

TEST(Simulator, StepMovesCallbacks) {
  Simulator sim;
  int copies = 0;
  int ran = 0;
  // Enough events that the heap reorders them on push and on pop.
  for (TimeMs t : {50u, 10u, 40u, 20u, 30u, 10u, 60u}) {
    sim.schedule_at(t, [counter = CopyCounter(&copies), &ran] { ++ran; });
  }
  sim.schedule_every(25, [counter = CopyCounter(&copies), &ran] { ++ran; });
  while (sim.now() < 60 && sim.step()) {
  }
  EXPECT_EQ(ran, 7 + 2);
  EXPECT_EQ(copies, 0);
}

TEST(Simulator, RunUntilNeverRewindsClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(100, [&] { ++fired; });
  sim.run_until(100);
  sim.run_until(40);  // already past: a no-op, not a rewind
  EXPECT_EQ(sim.now(), 100u);
  EXPECT_THROW(sim.schedule_at(60, [] {}), ContractViolation);
  sim.schedule_after(0, [&] { ++fired; });
  sim.run_until(100);
  EXPECT_EQ(fired, 2);
}

// -- Network ---------------------------------------------------------------

class Recorder : public NetNode {
 public:
  struct Received {
    NodeId from;
    Bytes payload;
    TimeMs at;
  };
  explicit Recorder(Simulator& sim) : sim_(sim) {}
  void on_message(NodeId from, BytesView payload) override {
    received.push_back({from, Bytes(payload.begin(), payload.end()),
                        sim_.now()});
  }
  Simulator& sim_;
  std::vector<Received> received;
};

struct NetFixture : ::testing::Test {
  Simulator sim;
  LinkConfig link{.base_latency_ms = 40, .jitter_ms = 0, .loss_rate = 0.0};
  Network net{sim, link, 7};
  Recorder a{sim}, b{sim}, c{sim};
  NodeId ida = 0, idb = 0, idc = 0;

  void SetUp() override {
    ida = net.add_node(&a);
    idb = net.add_node(&b);
    idc = net.add_node(&c);
    net.connect(ida, idb);
    net.connect(idb, idc);
  }
};

TEST_F(NetFixture, DeliversWithLatency) {
  net.send(ida, idb, to_bytes("hello"));
  sim.run_all();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].from, ida);
  EXPECT_EQ(to_string(b.received[0].payload), "hello");
  EXPECT_EQ(b.received[0].at, 40u);
}

TEST_F(NetFixture, NoDeliveryWithoutLink) {
  net.send(ida, idc, to_bytes("x"));  // a and c are not connected
  sim.run_all();
  EXPECT_TRUE(c.received.empty());
}

TEST_F(NetFixture, DisconnectStopsTraffic) {
  net.disconnect(ida, idb);
  net.send(ida, idb, to_bytes("x"));
  sim.run_all();
  EXPECT_TRUE(b.received.empty());
}

TEST_F(NetFixture, JitterBoundsDelay) {
  LinkConfig jittery{.base_latency_ms = 40, .jitter_ms = 20, .loss_rate = 0.0};
  Simulator sim2;
  Network net2(sim2, jittery, 11);
  Recorder r1(sim2), r2(sim2);
  const NodeId n1 = net2.add_node(&r1);
  const NodeId n2 = net2.add_node(&r2);
  net2.connect(n1, n2);
  for (int i = 0; i < 100; ++i) net2.send(n1, n2, to_bytes("m"));
  sim2.run_all();
  ASSERT_EQ(r2.received.size(), 100u);
  for (const auto& rec : r2.received) {
    EXPECT_GE(rec.at, 40u);
    EXPECT_LE(rec.at, 60u);
  }
}

TEST_F(NetFixture, LossDropsSomeMessages) {
  LinkConfig lossy{.base_latency_ms = 10, .jitter_ms = 0, .loss_rate = 0.5};
  Simulator sim2;
  Network net2(sim2, lossy, 13);
  Recorder r1(sim2), r2(sim2);
  const NodeId n1 = net2.add_node(&r1);
  const NodeId n2 = net2.add_node(&r2);
  net2.connect(n1, n2);
  for (int i = 0; i < 1000; ++i) net2.send(n1, n2, to_bytes("m"));
  sim2.run_all();
  EXPECT_GT(r2.received.size(), 350u);
  EXPECT_LT(r2.received.size(), 650u);
}

TEST_F(NetFixture, ClockSkewShiftsLocalTime) {
  net.set_clock_skew(ida, +500);
  net.set_clock_skew(idb, -200);
  sim.schedule_at(1000, [] {});
  sim.run_all();
  EXPECT_EQ(net.local_time(ida), 1500u);
  EXPECT_EQ(net.local_time(idb), 800u);
  EXPECT_EQ(net.local_time(idc), 1000u);
}

TEST_F(NetFixture, NegativeSkewClampsAtZero) {
  net.set_clock_skew(ida, -5000);
  EXPECT_EQ(net.local_time(ida), 0u);
}

TEST_F(NetFixture, TrafficAccounting) {
  net.send(ida, idb, Bytes(100, 0));
  net.send(idb, ida, Bytes(50, 0));
  sim.run_all();
  EXPECT_EQ(net.stats(ida).messages_sent, 1u);
  EXPECT_EQ(net.stats(ida).bytes_sent, 100u);
  EXPECT_EQ(net.stats(ida).messages_received, 1u);
  EXPECT_EQ(net.stats(ida).bytes_received, 50u);
  const TrafficStats total = net.total_stats();
  EXPECT_EQ(total.bytes_sent, 150u);
  EXPECT_EQ(total.bytes_received, 150u);
  net.reset_stats();
  EXPECT_EQ(net.total_stats().bytes_sent, 0u);
}

TEST(NetworkTopology, RandomGraphMeetsDegree) {
  Simulator sim;
  Network net(sim, LinkConfig{}, 17);
  std::vector<std::unique_ptr<Recorder>> nodes;
  for (int i = 0; i < 50; ++i) {
    nodes.push_back(std::make_unique<Recorder>(sim));
    net.add_node(nodes.back().get());
  }
  Rng rng(19);
  net.connect_random(6, rng);
  for (NodeId i = 0; i < 50; ++i) {
    EXPECT_GE(net.neighbors(i).size(), 6u) << "node " << i;
  }
}

}  // namespace
}  // namespace waku::net
