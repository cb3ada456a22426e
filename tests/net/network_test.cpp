#include "net/network.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace edr::net {
namespace {

struct Fixture {
  Simulator sim;
  SimNetwork network{sim};
  std::vector<std::pair<NodeId, SimTime>> deliveries;

  void attach(NodeId node) {
    network.attach(node, [this, node](const Message&) {
      deliveries.emplace_back(node, sim.now());
    });
  }

  Message make(NodeId from, NodeId to, std::size_t bytes = 0) {
    Message msg;
    msg.from = from;
    msg.to = to;
    msg.type = 1;
    msg.bytes = bytes;
    return msg;
  }
};

TEST(SimNetwork, DeliveryAfterPropagationLatency) {
  Fixture f;
  f.attach(2);
  f.network.set_link(1, 2, {.latency = 2.0, .bandwidth_mbps = 100.0});
  f.network.send(f.make(1, 2, 0));
  f.sim.run();
  ASSERT_EQ(f.deliveries.size(), 1u);
  EXPECT_NEAR(f.deliveries[0].second, 0.002, 1e-12);
}

TEST(SimNetwork, TransmissionTimeScalesWithBytes) {
  Fixture f;
  f.attach(2);
  f.network.set_link(1, 2, {.latency = 0.0, .bandwidth_mbps = 1.0});  // 1 MB/s
  f.network.send(f.make(1, 2, 500'000));
  f.sim.run();
  ASSERT_EQ(f.deliveries.size(), 1u);
  EXPECT_NEAR(f.deliveries[0].second, 0.5, 1e-9);
}

TEST(SimNetwork, FifoSerializationOnSharedLink) {
  Fixture f;
  f.attach(2);
  f.network.set_link(1, 2, {.latency = 0.0, .bandwidth_mbps = 1.0});
  f.network.send(f.make(1, 2, 1'000'000));  // 1 s of transmission
  f.network.send(f.make(1, 2, 1'000'000));  // queues behind the first
  f.sim.run();
  ASSERT_EQ(f.deliveries.size(), 2u);
  EXPECT_NEAR(f.deliveries[0].second, 1.0, 1e-9);
  EXPECT_NEAR(f.deliveries[1].second, 2.0, 1e-9);
}

TEST(SimNetwork, DistinctLinksDoNotInterfere) {
  Fixture f;
  f.attach(2);
  f.attach(3);
  f.network.set_link(1, 2, {.latency = 0.0, .bandwidth_mbps = 1.0});
  f.network.set_link(1, 3, {.latency = 0.0, .bandwidth_mbps = 1.0});
  f.network.send(f.make(1, 2, 1'000'000));
  f.network.send(f.make(1, 3, 1'000'000));
  f.sim.run();
  ASSERT_EQ(f.deliveries.size(), 2u);
  EXPECT_NEAR(f.deliveries[0].second, 1.0, 1e-9);
  EXPECT_NEAR(f.deliveries[1].second, 1.0, 1e-9);  // parallel, not serial
}

TEST(SimNetwork, MessagesToDetachedNodeAreDropped) {
  Fixture f;
  f.attach(2);
  f.network.send(f.make(1, 2));
  f.network.detach(2);
  f.sim.run();
  EXPECT_TRUE(f.deliveries.empty());
  EXPECT_FALSE(f.network.attached(2));
}

TEST(SimNetwork, DetachMidFlightDropsInFlightMessages) {
  Fixture f;
  f.attach(2);
  f.network.set_link(1, 2, {.latency = 10.0, .bandwidth_mbps = 100.0});
  f.network.send(f.make(1, 2));
  f.sim.schedule_at(0.005, [&] { f.network.detach(2); });
  f.sim.run();
  EXPECT_TRUE(f.deliveries.empty());
}

TEST(SimNetwork, TrafficStatsCountBothEnds) {
  Fixture f;
  f.attach(2);
  f.network.send(f.make(1, 2, 100));
  f.network.send(f.make(1, 2, 50));
  f.sim.run();
  EXPECT_EQ(f.network.stats(1).messages_sent, 2u);
  EXPECT_EQ(f.network.stats(1).bytes_sent, 150u);
  EXPECT_EQ(f.network.stats(2).messages_received, 2u);
  EXPECT_EQ(f.network.stats(2).bytes_received, 150u);
  const auto total = f.network.total_stats();
  EXPECT_EQ(total.messages_sent, 2u);
  EXPECT_EQ(total.messages_received, 2u);
}

TEST(SimNetwork, DroppedDeliveriesNotCountedAsReceived) {
  Fixture f;
  f.network.send(f.make(1, 2, 100));  // 2 never attached
  f.sim.run();
  EXPECT_EQ(f.network.stats(1).messages_sent, 1u);
  EXPECT_EQ(f.network.stats(2).messages_received, 0u);
}

TEST(SimNetwork, NominalDelayMatchesLinkMath) {
  Fixture f;
  f.network.set_link(1, 2, {.latency = 1.0, .bandwidth_mbps = 2.0});
  EXPECT_NEAR(f.network.nominal_delay(1, 2, 1'000'000),
              0.001 + 0.5, 1e-12);
  // Unknown pairs use the default link.
  f.network.set_default_link({.latency = 5.0, .bandwidth_mbps = 100.0});
  EXPECT_NEAR(f.network.nominal_delay(7, 8, 0), 0.005, 1e-12);
}

TEST(SimNetwork, LossyLinkDropsRoughlyTheConfiguredFraction) {
  Fixture f;
  f.attach(2);
  f.network.seed_loss(7);
  f.network.set_link(1, 2, {.latency = 0.1, .bandwidth_mbps = 100.0,
                            .loss_probability = 0.3});
  constexpr int kMessages = 5000;
  for (int i = 0; i < kMessages; ++i) f.network.send(f.make(1, 2, 8));
  f.sim.run();
  const double delivered = static_cast<double>(f.deliveries.size());
  EXPECT_NEAR(delivered / kMessages, 0.7, 0.03);
  EXPECT_EQ(f.network.messages_lost() + f.deliveries.size(),
            static_cast<std::size_t>(kMessages));
  // The sender is charged for every transmission, lost or not.
  EXPECT_EQ(f.network.stats(1).messages_sent,
            static_cast<std::uint64_t>(kMessages));
}

TEST(SimNetwork, ReliableLinksNeverDrop) {
  Fixture f;
  f.attach(2);
  for (int i = 0; i < 1000; ++i) f.network.send(f.make(1, 2, 8));
  f.sim.run();
  EXPECT_EQ(f.deliveries.size(), 1000u);
  EXPECT_EQ(f.network.messages_lost(), 0u);
}

TEST(SimNetwork, LostMessagesStillOccupyTheLink) {
  // Even a 100%-lossy link serializes transmissions, so a later reliable
  // message queues behind the lost ones.
  Fixture f;
  f.attach(2);
  f.network.set_link(1, 2, {.latency = 0.0, .bandwidth_mbps = 1.0,
                            .loss_probability = 1.0});
  f.network.send(f.make(1, 2, 1'000'000));  // 1 s of wire time, lost
  f.network.set_link(1, 2, {.latency = 0.0, .bandwidth_mbps = 1.0,
                            .loss_probability = 0.0});
  f.network.send(f.make(1, 2, 1'000'000));
  f.sim.run();
  ASSERT_EQ(f.deliveries.size(), 1u);
  EXPECT_NEAR(f.deliveries[0].second, 2.0, 1e-9);
}

TEST(SimNetwork, DetachThenReattachBeforeDeliveryReceives) {
  // Crash/recovery inside one flight: the handler is looked up at delivery
  // time, so a node that detaches and reattaches while a message is on the
  // wire still receives it (the paper's recovered-replica semantics).
  Fixture f;
  f.attach(2);
  f.network.set_link(1, 2, {.latency = 10.0, .bandwidth_mbps = 100.0});
  f.network.send(f.make(1, 2));
  f.sim.schedule_at(0.002, [&] { f.network.detach(2); });
  f.sim.schedule_at(0.005, [&] { f.attach(2); });
  f.sim.run();
  ASSERT_EQ(f.deliveries.size(), 1u);
  EXPECT_EQ(f.network.stats(2).messages_received, 1u);
}

TEST(SimNetwork, DetachWithManyInFlightDropsAllAndCountsNone) {
  Fixture f;
  f.attach(2);
  f.network.set_link(1, 2, {.latency = 5.0, .bandwidth_mbps = 100.0});
  for (int i = 0; i < 10; ++i) f.network.send(f.make(1, 2, 64));
  f.network.detach(2);
  f.sim.run();
  EXPECT_TRUE(f.deliveries.empty());
  EXPECT_EQ(f.network.stats(1).messages_sent, 10u);
  EXPECT_EQ(f.network.stats(2).messages_received, 0u);
}

TEST(SimNetwork, StatsQueryForUnknownNodeDoesNotGrowState) {
  // stats() is a read-only query: asking about a node that never sent or
  // received returns zeros and must not insert a record (the old
  // mutable-map lazy insert grew state under const).
  Fixture f;
  f.attach(2);
  f.network.send(f.make(1, 2, 8));
  f.sim.run();
  const std::size_t tracked = f.network.tracked_nodes();
  const TrafficStats unknown = f.network.stats(999);
  EXPECT_EQ(unknown.messages_sent, 0u);
  EXPECT_EQ(unknown.messages_received, 0u);
  EXPECT_EQ(unknown.bytes_sent, 0u);
  EXPECT_EQ(unknown.bytes_received, 0u);
  EXPECT_EQ(f.network.tracked_nodes(), tracked);
  // Repeated probes stay free too.
  for (NodeId n = 100; n < 200; ++n) (void)f.network.stats(n);
  EXPECT_EQ(f.network.tracked_nodes(), tracked);
}

TEST(SimNetwork, TrafficInRangeEdgeCases) {
  Fixture f;
  f.attach(2);
  Message typed = f.make(1, 2, 100);
  typed.type = 5;
  f.network.send(std::move(typed));
  Message unnamed = f.make(1, 2, 40);
  unnamed.type = 7;  // no set_type_name call: still counted
  f.network.send(std::move(unnamed));
  f.sim.run();

  // Empty range: no registered traffic between the bounds.
  const auto empty = f.network.traffic_in_range(10, 20);
  EXPECT_EQ(empty.messages, 0u);
  EXPECT_EQ(empty.bytes, 0u);

  // Reversed bounds yield the empty aggregate, not a crash or a wrap.
  const auto reversed = f.network.traffic_in_range(7, 5);
  EXPECT_EQ(reversed.messages, 0u);
  EXPECT_EQ(reversed.bytes, 0u);

  // Unnamed types aggregate exactly like named ones.
  const auto both = f.network.traffic_in_range(5, 7);
  EXPECT_EQ(both.messages, 2u);
  EXPECT_EQ(both.bytes, 140u);
  const auto only_unnamed = f.network.traffic_in_range(7, 7);
  EXPECT_EQ(only_unnamed.messages, 1u);
  EXPECT_EQ(only_unnamed.bytes, 40u);

  // Degenerate single-point range at a type with no traffic.
  const auto none = f.network.traffic_in_range(6, 6);
  EXPECT_EQ(none.messages, 0u);

  // Ranges reaching below zero or past every type seen are clamped.
  const auto wide = f.network.traffic_in_range(-50, 5000);
  EXPECT_EQ(wide.messages, 2u);
  EXPECT_EQ(wide.bytes, 140u);

  // Types index the per-type table, so a negative one is rejected.
  EXPECT_THROW(f.network.set_type_name(-1, "bad"), std::invalid_argument);
}

// Star layout shared by the client-link tests: hubs 0 and 1, clients 2-4
// (client c is node 2 + c).  Hub bandwidth 1 MB/s so 1 MB takes 1 s.
struct StarFixture : Fixture {
  Matrix latency{3, 2, 0.0};
  std::vector<double> bandwidth{1.0, 1.0};

  StarFixture() {
    latency(0, 0) = 10.0;
    latency(0, 1) = 20.0;
    latency(1, 0) = 30.0;
    latency(1, 1) = 40.0;
    latency(2, 0) = 50.0;
    latency(2, 1) = 60.0;
    network.set_client_links(2, latency, bandwidth);
    for (NodeId node = 0; node < 5; ++node) attach(node);
  }
};

TEST(SimNetwork, ClientLinksAreSymmetricAndReadTheMatrixAtSendTime) {
  StarFixture f;
  EXPECT_DOUBLE_EQ(f.network.link(3, 1).latency, 40.0);
  EXPECT_DOUBLE_EQ(f.network.link(1, 3).latency, 40.0);
  EXPECT_DOUBLE_EQ(f.network.link(3, 1).bandwidth_mbps, 1.0);
  // Hub <-> hub and client <-> client pairs use the default link.
  f.network.set_default_link({.latency = 7.0, .bandwidth_mbps = 9.0});
  EXPECT_DOUBLE_EQ(f.network.link(0, 1).latency, 7.0);
  EXPECT_DOUBLE_EQ(f.network.link(2, 3).latency, 7.0);
  // The matrix is the link: writing an entry changes the next send.
  f.latency(1, 1) = 5.0;
  f.network.scale_client_bandwidth(3, 1, 2.0);
  EXPECT_DOUBLE_EQ(f.network.link(1, 3).latency, 5.0);
  EXPECT_DOUBLE_EQ(f.network.link(1, 3).bandwidth_mbps, 2.0);
  EXPECT_DOUBLE_EQ(f.network.link(3, 0).bandwidth_mbps, 1.0);
  f.network.send(f.make(3, 1, 1'000'000));  // 0.5 s + 5 ms
  f.sim.run();
  ASSERT_EQ(f.deliveries.size(), 1u);
  EXPECT_NEAR(f.deliveries[0].second, 0.505, 1e-12);
}

TEST(SimNetwork, ClientLinkSetupRejectsOverlapAndBadShapes) {
  Simulator sim;
  SimNetwork network{sim};
  const Matrix latency(3, 2, 1.0);
  const std::vector<double> two{1.0, 1.0};
  const std::vector<double> one{1.0};
  EXPECT_THROW(network.set_client_links(1, latency, two),
               std::invalid_argument);
  EXPECT_THROW(network.set_client_links(2, latency, one),
               std::invalid_argument);
  network.set_client_links(2, latency, two);
  EXPECT_THROW(network.scale_client_bandwidth(5, 0, 2.0), std::out_of_range);
  EXPECT_THROW(network.scale_client_bandwidth(2, 3, 2.0), std::out_of_range);
}

TEST(SimNetwork, OverrideBeatsClientLinksInOneDirectionOnly) {
  StarFixture f;
  f.network.set_link(0, 2, {.latency = 1.0, .bandwidth_mbps = 100.0});
  EXPECT_DOUBLE_EQ(f.network.link(0, 2).latency, 1.0);
  EXPECT_DOUBLE_EQ(f.network.link(2, 0).latency, 10.0);
  f.network.send(f.make(0, 2));
  f.network.send(f.make(2, 0));
  f.sim.run();
  ASSERT_EQ(f.deliveries.size(), 2u);
  EXPECT_EQ(f.deliveries[0].first, 2u);
  EXPECT_NEAR(f.deliveries[0].second, 0.001, 1e-12);
  EXPECT_EQ(f.deliveries[1].first, 0u);
  EXPECT_NEAR(f.deliveries[1].second, 0.010, 1e-12);
}

TEST(SimNetwork, FifoBusyTimeCarriesAcrossMidStreamOverride) {
  // Client 0 -> hub 0 at 1 MB/s, 10 ms: the first 1 MB frame holds the
  // wire until t = 1 s.  The override (2 MB/s, 1 ms) applies to the second
  // frame, which still waits for the wire: 1 + 0.5 s, then 1 ms.
  StarFixture f;
  f.network.send(f.make(2, 0, 1'000'000));
  f.network.set_link(2, 0, {.latency = 1.0, .bandwidth_mbps = 2.0});
  f.network.send(f.make(2, 0, 1'000'000));
  // The reverse direction has its own wire: no queueing behind the above.
  f.network.send(f.make(0, 2, 1'000'000));
  f.sim.run();
  ASSERT_EQ(f.deliveries.size(), 3u);
  EXPECT_EQ(f.deliveries[0].first, 0u);
  EXPECT_NEAR(f.deliveries[0].second, 1.010, 1e-12);
  EXPECT_EQ(f.deliveries[1].first, 2u);
  EXPECT_NEAR(f.deliveries[1].second, 1.010, 1e-12);
  EXPECT_EQ(f.deliveries[2].first, 0u);
  EXPECT_NEAR(f.deliveries[2].second, 1.501, 1e-12);
}

TEST(SimNetwork, DetachAndReattachInsideClientLinks) {
  StarFixture f;
  f.network.detach(3);
  EXPECT_FALSE(f.network.attached(3));
  f.network.send(f.make(0, 3, 8));
  f.sim.run();
  EXPECT_TRUE(f.deliveries.empty());
  EXPECT_EQ(f.network.stats(3).messages_received, 0u);
  f.attach(3);
  EXPECT_TRUE(f.network.attached(3));
  f.network.send(f.make(0, 3, 8));
  f.sim.run();
  ASSERT_EQ(f.deliveries.size(), 1u);
  EXPECT_EQ(f.deliveries[0].first, 3u);
  EXPECT_EQ(f.network.stats(3).messages_received, 1u);
  EXPECT_EQ(f.network.stats(0).messages_sent, 2u);
}

TEST(SimNetwork, StatsQueryFarBeyondStoredNodesIsReadOnly) {
  StarFixture f;
  f.network.send(f.make(0, 4, 8));
  f.sim.run();
  const std::size_t tracked = f.network.tracked_nodes();
  EXPECT_EQ(f.network.stats(4'000'000'000u).messages_received, 0u);
  EXPECT_FALSE(f.network.attached(4'000'000'000u));
  EXPECT_EQ(f.network.tracked_nodes(), tracked);
  EXPECT_EQ(f.network.stats(4).messages_received, 1u);
}

TEST(SimNetwork, PayloadSurvivesDelivery) {
  Simulator sim;
  SimNetwork network{sim};
  int received = 0;
  network.attach(2, [&](const Message& msg) {
    received = std::any_cast<int>(msg.payload);
  });
  Message msg;
  msg.from = 1;
  msg.to = 2;
  msg.payload = 42;
  network.send(std::move(msg));
  sim.run();
  EXPECT_EQ(received, 42);
}

}  // namespace
}  // namespace edr::net
