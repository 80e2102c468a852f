// Tests for the MatrixServer state machine: routing, range verification,
// split/reclaim lifecycle, hysteresis, pool interaction, non-proximal
// lookups — all driven through fake game servers (test_helpers.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "test_helpers.h"

namespace matrix {
namespace {

using namespace time_literals;

Config fast_config() {
  Config config;
  config.world = Rect(0, 0, 1000, 1000);
  config.visibility_radius = 50.0;
  config.overload_clients = 300;
  config.underload_clients = 150;
  config.sustain_reports_to_split = 2;
  config.topology_cooldown = 500_ms;
  config.load_report_interval = 100_ms;
  config.peer_load_interval = 100_ms;
  return config;
}

class MatrixServerTest : public ::testing::Test {
 protected:
  MatrixServerTest() : harness_(4, fast_config()) {}

  MatrixServer& server(std::size_t i) { return *harness_.matrix_servers[i]; }
  CaptureNode& game(std::size_t i) { return *harness_.games[i]; }

  /// Activates server 0 over the whole world; parks the rest.
  void boot_single_root() {
    for (std::size_t i = 1; i < harness_.matrix_servers.size(); ++i) {
      harness_.park(i);
    }
    server(0).activate_root(Rect(0, 0, 1000, 1000), {50.0});
    harness_.run_for(50_ms);
  }

  /// Drives server `index` to overload until a split completes (grant +
  /// adopt + shed handshake).
  void force_split(std::size_t parent, std::size_t expected_child) {
    harness_.report_load(parent, 400);
    harness_.run_for(10_ms);
    harness_.report_load(parent, 400);
    harness_.run_for(50_ms);  // grant + adopt + MapRange round trips
    harness_.ack_shed(parent);
    harness_.run_for(50_ms);
    ASSERT_TRUE(server(expected_child).active());
  }

  ControlHarness harness_;
};

// ---------------------------------------------------------------------------
// Activation and registration
// ---------------------------------------------------------------------------

TEST_F(MatrixServerTest, RootActivationRegistersAndInformsGame) {
  boot_single_root();
  EXPECT_TRUE(server(0).active());
  EXPECT_EQ(server(0).range(), Rect(0, 0, 1000, 1000));
  EXPECT_EQ(harness_.coordinator.partition_map().size(), 1u);
  const MapRange* range = game(0).last<MapRange>();
  ASSERT_NE(range, nullptr);
  EXPECT_EQ(range->new_range, Rect(0, 0, 1000, 1000));
  EXPECT_TRUE(range->shed_range.empty());
}

TEST_F(MatrixServerTest, InactiveServerIgnoresTraffic) {
  // Server 1 was never activated: packets to it go nowhere.
  boot_single_root();
  TaggedPacket packet;
  packet.origin = {10, 10};
  packet.peer_forwarded = true;
  game(1).inject(server(1).node_id(), packet);
  harness_.run_for(20_ms);
  EXPECT_EQ(server(1).stats().peer_packets_received, 0u);
}

// ---------------------------------------------------------------------------
// Split lifecycle (paper §3.2.3)
// ---------------------------------------------------------------------------

TEST_F(MatrixServerTest, SustainedOverloadTriggersSplit) {
  boot_single_root();
  force_split(0, 1);

  // Split-to-left: child gets the left half.
  EXPECT_EQ(server(1).range(), Rect(0, 0, 500, 1000));
  EXPECT_EQ(server(0).range(), Rect(500, 0, 1000, 1000));
  EXPECT_EQ(server(0).child_count(), 1u);
  EXPECT_EQ(server(1).parent(), ServerId(1));
  EXPECT_EQ(server(0).stats().splits_completed, 1u);
  EXPECT_EQ(harness_.pool.grants(), 1u);

  // MC saw both ranges; map still tiles the world.
  EXPECT_TRUE(harness_.coordinator.partition_map().tiles(
      Rect(0, 0, 1000, 1000)));

  // Parent's game server was ordered to shed the left half to the child.
  bool shed_seen = false;
  for (const auto& msg : game(0).messages) {
    if (const auto* range = std::get_if<MapRange>(&msg)) {
      if (!range->shed_range.empty()) {
        EXPECT_EQ(range->shed_range, Rect(0, 0, 500, 1000));
        EXPECT_EQ(range->shed_to_game, game(1).node_id());
        shed_seen = true;
      }
    }
  }
  EXPECT_TRUE(shed_seen);
}

TEST_F(MatrixServerTest, SingleOverloadReportIsNotEnough) {
  boot_single_root();
  harness_.report_load(0, 400);
  harness_.run_for(100_ms);
  EXPECT_EQ(server(0).stats().splits_initiated, 0u);
  // A normal report resets the sustain counter.
  harness_.report_load(0, 100);
  harness_.report_load(0, 400);
  harness_.run_for(100_ms);
  EXPECT_EQ(server(0).stats().splits_initiated, 0u);
}

TEST_F(MatrixServerTest, CooldownBlocksBackToBackSplits) {
  boot_single_root();
  force_split(0, 1);
  const auto splits = server(0).stats().splits_initiated;
  // Immediately overloaded again — but inside the cooldown window.
  harness_.report_load(0, 400);
  harness_.report_load(0, 400);
  harness_.run_for(10_ms);
  EXPECT_EQ(server(0).stats().splits_initiated, splits);
  // After the cooldown, the same load splits again.
  harness_.run_for(600_ms);
  harness_.report_load(0, 400);
  harness_.run_for(10_ms);
  harness_.report_load(0, 400);
  harness_.run_for(50_ms);
  EXPECT_EQ(server(0).stats().splits_initiated, splits + 1);
}

TEST_F(MatrixServerTest, PoolDenialBacksOff) {
  // No servers parked: pool denies, server records it and does not wedge.
  server(0).activate_root(Rect(0, 0, 1000, 1000), {50.0});
  harness_.run_for(50_ms);
  harness_.report_load(0, 400);
  harness_.report_load(0, 400);
  harness_.run_for(50_ms);
  EXPECT_EQ(server(0).stats().split_denied_no_server, 1u);
  EXPECT_EQ(server(0).child_count(), 0u);
  EXPECT_EQ(harness_.pool.denies(), 1u);
  EXPECT_TRUE(server(0).active());
}

TEST_F(MatrixServerTest, RecursiveSplitsBuildATree) {
  boot_single_root();
  force_split(0, 1);
  harness_.run_for(600_ms);  // cooldown
  force_split(0, 2);
  // Server 0 kept splitting.  Its post-first-split half [500,1000)×[0,1000)
  // is taller than wide, so the second cut is horizontal: the bottom piece
  // goes to the new child.
  EXPECT_EQ(server(0).range(), Rect(500, 500, 1000, 1000));
  EXPECT_EQ(server(2).range(), Rect(500, 0, 1000, 500));
  EXPECT_EQ(server(0).child_count(), 2u);
  EXPECT_TRUE(harness_.coordinator.partition_map().tiles(
      Rect(0, 0, 1000, 1000)));
}

TEST_F(MatrixServerTest, MinExtentRefusesToSplit) {
  // World 1000×1000 with min extent 400: the longer dimension halves to
  // 500 (≥400, allowed) twice, but a 500×500 partition would halve to 250
  // (<400) — the third split must be refused.
  Config config = fast_config();
  config.min_partition_extent = 400.0;
  ControlHarness harness(3, config);
  harness.park(1);
  harness.park(2);
  harness.matrix_servers[0]->activate_root(Rect(0, 0, 1000, 1000), {50.0});
  harness.run_for(50_ms);

  for (int split = 0; split < 2; ++split) {
    harness.report_load(0, 400);
    harness.report_load(0, 400);
    harness.run_for(50_ms);
    harness.ack_shed(0);
    harness.run_for(600_ms);
  }
  EXPECT_EQ(harness.matrix_servers[0]->stats().splits_completed, 2u);
  EXPECT_EQ(harness.matrix_servers[0]->range(), Rect(500, 500, 1000, 1000));

  harness.report_load(0, 400);
  harness.report_load(0, 400);
  harness.run_for(50_ms);
  EXPECT_EQ(harness.matrix_servers[0]->stats().splits_initiated, 2u);
}

TEST_F(MatrixServerTest, SplitDisabledInStaticMode) {
  Config config = fast_config();
  config.allow_split = false;
  ControlHarness harness(2, config);
  harness.park(1);
  harness.matrix_servers[0]->activate_root(Rect(0, 0, 1000, 1000), {50.0});
  harness.run_for(50_ms);
  harness.report_load(0, 2000);
  harness.report_load(0, 2000);
  harness.report_load(0, 2000);
  harness.run_for(100_ms);
  EXPECT_EQ(harness.matrix_servers[0]->stats().splits_initiated, 0u);
}

TEST_F(MatrixServerTest, QueueTriggerAlsoSplits) {
  Config config = fast_config();
  config.overload_queue_length = 50;
  ControlHarness harness(2, config);
  harness.park(1);
  harness.matrix_servers[0]->activate_root(Rect(0, 0, 1000, 1000), {50.0});
  harness.run_for(50_ms);
  // Low client count but a huge reported queue ("system performance
  // measurements", §3.2.3).
  harness.report_load(0, 10, 80);
  harness.report_load(0, 10, 80);
  harness.run_for(50_ms);
  EXPECT_EQ(harness.matrix_servers[0]->stats().splits_initiated, 1u);
}

// ---------------------------------------------------------------------------
// Reclamation (paper §3.2.3)
// ---------------------------------------------------------------------------

TEST_F(MatrixServerTest, UnderloadReclaimsChild) {
  boot_single_root();
  force_split(0, 1);
  harness_.run_for(600_ms);  // cooldown

  // Child heartbeats low load; parent reports underload.
  harness_.report_load(1, 40);  // child's game reports...
  harness_.run_for(200_ms);     // ...heartbeat relays to parent
  harness_.report_load(0, 60);
  harness_.run_for(50_ms);
  // Child was told to reclaim; its game sheds everything.
  harness_.ack_shed(1);
  harness_.run_for(100_ms);

  EXPECT_EQ(server(0).stats().reclaims_completed, 1u);
  EXPECT_EQ(server(0).range(), Rect(0, 0, 1000, 1000));
  EXPECT_EQ(server(0).child_count(), 0u);
  EXPECT_FALSE(server(1).active());
  EXPECT_EQ(harness_.pool.releases(), 1u);
  EXPECT_EQ(harness_.coordinator.partition_map().size(), 1u);
  EXPECT_TRUE(harness_.coordinator.partition_map().tiles(
      Rect(0, 0, 1000, 1000)));
}

TEST_F(MatrixServerTest, ReclaimRequiresUnderloadedChild) {
  boot_single_root();
  force_split(0, 1);
  harness_.run_for(600_ms);
  harness_.report_load(1, 250);  // child busy (>= underload threshold)
  harness_.run_for(200_ms);
  harness_.report_load(0, 60);
  harness_.run_for(50_ms);
  EXPECT_EQ(server(0).stats().reclaims_initiated, 0u);
}

TEST_F(MatrixServerTest, ReclaimRequiresCombinedHeadroom) {
  boot_single_root();
  force_split(0, 1);
  harness_.run_for(600_ms);
  // Child underloaded (149) but parent at 149 too: 298 > 0.8 × 300 = 240.
  harness_.report_load(1, 149);
  harness_.run_for(200_ms);
  harness_.report_load(0, 149);
  harness_.run_for(50_ms);
  EXPECT_EQ(server(0).stats().reclaims_initiated, 0u);
}

TEST_F(MatrixServerTest, ReclaimedServerCanBeReused) {
  boot_single_root();
  force_split(0, 1);
  harness_.run_for(600_ms);
  harness_.report_load(1, 10);
  harness_.run_for(200_ms);
  harness_.report_load(0, 10);
  harness_.run_for(50_ms);
  harness_.ack_shed(1);
  harness_.run_for(600_ms);

  // Overload again: the pool should hand server 1 (or another spare) back.
  const auto grants_before = harness_.pool.grants();
  harness_.report_load(0, 400);
  harness_.report_load(0, 400);
  harness_.run_for(50_ms);
  harness_.ack_shed(0);
  harness_.run_for(50_ms);
  EXPECT_EQ(harness_.pool.grants(), grants_before + 1);
  EXPECT_EQ(server(0).child_count(), 1u);
}

TEST_F(MatrixServerTest, LifoReclaimMergesExactly) {
  boot_single_root();
  force_split(0, 1);  // S1 gets left half [0,500)
  harness_.run_for(600_ms);
  force_split(0, 2);  // S2 gets [500,750)
  harness_.run_for(600_ms);

  // Both children idle, parent idle: reclaims must go S2 then S1.
  harness_.report_load(1, 10);
  harness_.report_load(2, 10);
  harness_.run_for(200_ms);
  harness_.report_load(0, 10);
  harness_.run_for(50_ms);
  harness_.ack_shed(2);  // most recent child first
  harness_.run_for(600_ms);
  EXPECT_EQ(server(0).range(), Rect(500, 0, 1000, 1000));

  harness_.report_load(1, 10);
  harness_.run_for(200_ms);
  harness_.report_load(0, 10);
  harness_.run_for(50_ms);
  harness_.ack_shed(1);
  harness_.run_for(100_ms);
  EXPECT_EQ(server(0).range(), Rect(0, 0, 1000, 1000));
  EXPECT_EQ(server(0).stats().reclaims_completed, 2u);
}

TEST_F(MatrixServerTest, ChildDeclinesReclaimWhileSplitting) {
  // The race the churn tests exposed: parent asks to reclaim a child whose
  // own split is in flight.  The child must decline (shedding mid-split
  // would hand back a non-complementary rectangle), and the parent must
  // clear its pending state and stay functional.
  boot_single_root();
  force_split(0, 1);
  harness_.run_for(600_ms);

  // Drive the CHILD into a split of its own, but do not ack its shed yet —
  // the child is now split_pending_.
  harness_.report_load(1, 400);
  harness_.run_for(10_ms);
  harness_.report_load(1, 400);
  harness_.run_for(50_ms);
  ASSERT_TRUE(server(2).active());  // child's child adopted

  // Parent now decides to reclaim the (apparently idle) child.
  harness_.report_load(1, 10);  // stale low heartbeat value
  harness_.run_for(200_ms);
  harness_.report_load(0, 10);
  harness_.run_for(100_ms);

  // The reclaim was declined, not executed: child still active with its
  // (halved) range, parent not stuck pending (can split again later).
  EXPECT_TRUE(server(1).active());
  EXPECT_EQ(server(0).stats().reclaims_completed, 0u);
  EXPECT_TRUE(harness_.coordinator.partition_map().tiles(
      Rect(0, 0, 1000, 1000)));

  // Finish the child's split; the system reaches a clean 3-server state.
  harness_.ack_shed(1);
  harness_.run_for(200_ms);
  EXPECT_TRUE(harness_.coordinator.partition_map().tiles(
      Rect(0, 0, 1000, 1000)));
}

TEST_F(MatrixServerTest, StaleReclaimTokenIsDeclined) {
  boot_single_root();
  force_split(0, 1);
  harness_.run_for(600_ms);
  // Forge a reclaim request with a bogus token directly to the child.
  game(0).inject(server(1).node_id(), ReclaimRequest{9999});
  harness_.run_for(100_ms);
  EXPECT_TRUE(server(1).active());  // not reclaimed
  EXPECT_EQ(server(1).range(), Rect(0, 0, 500, 1000));
}

TEST_F(MatrixServerTest, McAnnounceSwitchesCoordinator) {
  boot_single_root();
  force_split(0, 1);
  harness_.run_for(100_ms);

  // Stand up a second coordinator and announce it.
  Coordinator standby(fast_config());
  const NodeId standby_node = harness_.network.attach(&standby);
  for (auto& server : harness_.matrix_servers) {
    McAnnounce announce;
    announce.mc_node = standby_node;
    announce.generation = 2;
    harness_.network.send(standby_node, server->node_id(),
                          encode_message(Message{announce}));
  }
  harness_.run_for(100_ms);

  // The standby rebuilt the two-server map from re-registrations.
  EXPECT_EQ(standby.partition_map().size(), 2u);
  EXPECT_TRUE(standby.partition_map().tiles(Rect(0, 0, 1000, 1000)));

  // A stale (lower-generation) announce is ignored afterwards.
  Coordinator impostor(fast_config());
  const NodeId impostor_node = harness_.network.attach(&impostor);
  McAnnounce stale;
  stale.mc_node = impostor_node;
  stale.generation = 1;
  harness_.network.send(impostor_node, server(0).node_id(),
                        encode_message(Message{stale}));
  harness_.run_for(100_ms);
  EXPECT_EQ(impostor.partition_map().size(), 0u);
}

TEST_F(MatrixServerTest, GrantArrivingDuringReclaimIsReturned) {
  // A pool grant that lands after the server started being reclaimed must
  // be released, not used for a split.
  boot_single_root();
  force_split(0, 1);
  harness_.run_for(600_ms);

  // Child requests a split (grant will be in flight)...
  harness_.report_load(1, 400);
  harness_.report_load(1, 400);
  // ...and in the same instant the parent reclaims it.  The reclaim
  // request races the pool grant.
  harness_.report_load(1, 10);
  harness_.run_for(5_ms);
  const auto releases_before = harness_.pool.releases();
  harness_.run_for(500_ms);
  // Either ordering is legal; the invariant is no leaked grant: every
  // grant is adopted (active child) or released back.
  std::size_t active = 0;
  for (const auto& server : harness_.matrix_servers) {
    if (server->active()) ++active;
  }
  EXPECT_EQ(active + harness_.pool.idle_count(),
            harness_.matrix_servers.size());
  (void)releases_before;
}

// ---------------------------------------------------------------------------
// Relay legs
// ---------------------------------------------------------------------------

TEST_F(MatrixServerTest, RelayForwardsValidFramesAndDropsMalformedTails) {
  // StateTransfer, ClientStateTransfer and QueueHandoff frames are relayed
  // to the game server they name.  A frame whose leading ids parse but
  // whose tail does not (a trailing byte, a blob cut short) is counted as
  // malformed and dropped at the relay, not forwarded.
  boot_single_root();
  const NodeId to = game(1).node_id();
  StateTransfer state;
  state.from_server = ServerId(1);
  state.to_game = to;
  state.object_count = 1;
  state.blob = {1, 2, 3};
  ClientStateTransfer client_state;
  client_state.client = ClientId(5);
  client_state.to_game = to;
  client_state.blob = {4, 5};
  QueueHandoff handoff;
  handoff.from_server = ServerId(1);
  handoff.to_game = to;
  handoff.entries.push_back(
      {ClientId(6), NodeId(90), {1.0, 2.0}, 1, SimTime::from_ms(3)});
  const Message relayed[] = {state, client_state, handoff};
  const NodeId from = game(0).node_id();
  const NodeId relay = server(0).node_id();
  for (const Message& message : relayed) {
    const std::vector<std::uint8_t> frame = encode_message(message);
    std::vector<std::uint8_t> overlong = frame;
    overlong.push_back(7);
    const std::vector<std::uint8_t> cut(frame.begin(), frame.end() - 1);
    const std::size_t received = game(1).messages.size();
    const std::uint64_t malformed = server(0).malformed_count();
    harness_.network.send(from, relay, overlong);
    harness_.network.send(from, relay, cut);
    harness_.network.send(from, relay, frame);
    harness_.run_for(10_ms);
    EXPECT_EQ(server(0).malformed_count(), malformed + 2)
        << message_name(message);
    ASSERT_EQ(game(1).messages.size(), received + 1) << message_name(message);
    EXPECT_TRUE(game(1).messages.back() == message) << message_name(message);
  }
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

class RoutingTest : public MatrixServerTest {
 protected:
  void SetUp() override {
    boot_single_root();
    force_split(0, 1);
    harness_.run_for(100_ms);  // let the new overlap tables land
  }

  TaggedPacket packet_at(Vec2 origin) {
    TaggedPacket packet;
    packet.client = ClientId(7);
    packet.entity = EntityId(7);
    packet.origin = origin;
    packet.payload.assign(24, 0);
    return packet;
  }
};

TEST_F(RoutingTest, InteriorPacketNotForwarded) {
  // Deep inside server 0's half: empty consistency set.
  game(0).inject(server(0).node_id(), packet_at({900, 500}));
  harness_.run_for(20_ms);
  EXPECT_EQ(server(0).stats().packets_from_game, 1u);
  EXPECT_EQ(server(0).stats().packets_fanned_out, 0u);
  EXPECT_EQ(server(1).stats().peer_packets_received, 0u);
}

TEST_F(RoutingTest, BoundaryPacketForwardedAndDelivered) {
  // Server 0 owns [500,1000); origin at 510 is within R=50 of server 1.
  game(0).inject(server(0).node_id(), packet_at({510, 500}));
  harness_.run_for(20_ms);
  EXPECT_EQ(server(0).stats().packets_fanned_out, 1u);
  EXPECT_EQ(server(1).stats().peer_packets_received, 1u);
  EXPECT_EQ(server(1).stats().peer_packets_delivered, 1u);
  // The peer's game server received the range-verified packet.
  const TaggedPacket* delivered = game(1).last<TaggedPacket>();
  ASSERT_NE(delivered, nullptr);
  EXPECT_TRUE(delivered->peer_forwarded);
  EXPECT_EQ(delivered->origin, (Vec2{510, 500}));
}

TEST_F(RoutingTest, EmptyPayloadPacketKeepsItsPeerFlagWhenForwarded) {
  // With no payload the packet's frame ends in the zero flag and the zero
  // length byte, all zero tail; the forwarding server must set the flag
  // before it trims, or the peer would take the packet for its own game
  // server's and fan it out again instead of verifying and delivering it.
  TaggedPacket packet = packet_at({510, 500});
  packet.payload.clear();
  game(0).inject(server(0).node_id(), packet);
  harness_.run_for(20_ms);
  EXPECT_EQ(server(0).stats().packets_fanned_out, 1u);
  EXPECT_EQ(server(1).stats().peer_packets_received, 1u);
  EXPECT_EQ(server(1).stats().peer_packets_delivered, 1u);
  EXPECT_EQ(server(1).stats().packets_from_game, 0u);
  const TaggedPacket* delivered = game(1).last<TaggedPacket>();
  ASSERT_NE(delivered, nullptr);
  EXPECT_TRUE(delivered->peer_forwarded);
  EXPECT_TRUE(delivered->payload.empty());
}

TEST_F(RoutingTest, PeerRejectsIrrelevantPacket) {
  // Forge a peer-forwarded packet whose origin is nowhere near server 1.
  TaggedPacket forged = packet_at({990, 990});
  forged.peer_forwarded = true;
  game(0).inject(server(1).node_id(), forged);
  harness_.run_for(20_ms);
  EXPECT_EQ(server(1).stats().peer_packets_received, 1u);
  EXPECT_EQ(server(1).stats().peer_packets_rejected, 1u);
  EXPECT_EQ(server(1).stats().peer_packets_delivered, 0u);
}

TEST_F(RoutingTest, LookupAgreesWithConsistencyScan) {
  // The O(1) table and the O(N) scan must agree across the partition.
  const auto& map = harness_.coordinator.partition_map();
  Rng rng(5);
  for (int probe = 0; probe < 300; ++probe) {
    const Vec2 p{rng.next_double_in(500.0, 999.9),
                 rng.next_double_in(0.0, 999.9)};
    const auto truth = consistency_set_scan(map, p, 50.0, Metric::kChebyshev);
    const OverlapRegionWire* region = server(0).lookup(p);
    const std::size_t table_size =
        region != nullptr ? region->peer_servers.size() : 0;
    EXPECT_EQ(table_size, truth.size()) << "at " << p;
  }
}

TEST_F(RoutingTest, NonProximalTargetUsesCoordinator) {
  // Origin interior to server 0, target deep in server 1's half.
  TaggedPacket packet = packet_at({900, 500});
  packet.target = Vec2{100, 500};
  const auto lookups_before = harness_.coordinator.lookups_served();
  game(0).inject(server(0).node_id(), packet);
  harness_.run_for(50_ms);
  EXPECT_EQ(server(0).stats().nonproximal_lookups, 1u);
  EXPECT_EQ(harness_.coordinator.lookups_served(), lookups_before + 1);
  // Packet reached server 1's game server via the MC-resolved forward.
  const TaggedPacket* delivered = game(1).last<TaggedPacket>();
  ASSERT_NE(delivered, nullptr);
  ASSERT_TRUE(delivered->target.has_value());
  EXPECT_EQ(*delivered->target, (Vec2{100, 500}));
}

TEST_F(RoutingTest, ProximalTargetDoesNotLookup) {
  // Target within R of origin: the origin fan-out already covers it.
  TaggedPacket packet = packet_at({510, 500});
  packet.target = Vec2{505, 495};
  game(0).inject(server(0).node_id(), packet);
  harness_.run_for(50_ms);
  EXPECT_EQ(server(0).stats().nonproximal_lookups, 0u);
}

TEST_F(RoutingTest, OriginOutsideRangeForwardedToOwner) {
  // A stray: server 0's game tags a packet at a point server 1 now owns
  // (client mid-handoff).  It must end up at server 1's game server.
  game(0).inject(server(0).node_id(), packet_at({100, 100}));
  harness_.run_for(50_ms);
  EXPECT_EQ(server(0).stats().origin_outside_range, 1u);
  const TaggedPacket* delivered = game(1).last<TaggedPacket>();
  ASSERT_NE(delivered, nullptr);
  EXPECT_EQ(delivered->origin, (Vec2{100, 100}));
}

TEST_F(RoutingTest, OwnerQueryAnsweredViaMc) {
  OwnerQuery query;
  query.point = {100, 100};
  query.client = ClientId(3);
  query.seq = 11;
  game(0).inject(server(0).node_id(), query);
  harness_.run_for(50_ms);
  const OwnerReply* reply = game(0).last<OwnerReply>();
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->seq, 11u);
  EXPECT_TRUE(reply->found);
  EXPECT_EQ(reply->game_node, game(1).node_id());
}

// ---------------------------------------------------------------------------
// Parked MC lookups: seq-indexed ring, expired lazily after tau1
// ---------------------------------------------------------------------------

/// Server 0 talks to a fake coordinator (announced as generation 2) that
/// records every PointLookup and answers only when a test tells it to.
class ParkedLookupTest : public RoutingTest {
 protected:
  void SetUp() override {
    RoutingTest::SetUp();
    fake_mc_node_ = harness_.network.attach(&fake_mc_);
    announce(fake_mc_node_, 2);
  }

  void announce(NodeId mc_node, std::uint64_t generation) {
    McAnnounce announce;
    announce.mc_node = mc_node;
    announce.generation = generation;
    harness_.network.send(mc_node, server(0).node_id(),
                          encode_message(Message{announce}));
    harness_.run_for(5_ms);
  }

  // One lookup down each path; each returns the PointLookup it caused.
  PointLookup stray() {
    game(0).inject(server(0).node_id(), packet_at({100, 100}));
    return last_lookup();
  }
  PointLookup nonproximal() {
    TaggedPacket packet = packet_at({900, 500});
    packet.target = Vec2{100, 500};
    game(0).inject(server(0).node_id(), packet);
    return last_lookup();
  }
  PointLookup owner_query() {
    OwnerQuery query;
    query.point = {100, 100};
    query.client = ClientId(3);
    query.seq = 11;
    game(0).inject(server(0).node_id(), query);
    return last_lookup();
  }

  PointLookup last_lookup() {
    harness_.run_for(5_ms);
    const PointLookup* lookup = fake_mc_.last<PointLookup>();
    EXPECT_NE(lookup, nullptr);
    return lookup != nullptr ? *lookup : PointLookup{};
  }

  /// Answers `lookup`: server 1 owns every point these tests ask about.
  void reply(const PointLookup& lookup) {
    PointOwner owner;
    owner.lookup_seq = lookup.lookup_seq;
    owner.found = true;
    owner.server = server(1).server_id();
    owner.matrix_node = server(1).node_id();
    owner.game_node = game(1).node_id();
    fake_mc_.inject(server(0).node_id(), owner);
    harness_.run_for(5_ms);
  }

  const SimTime tau1_ = kFailsafeTau1;
  CaptureNode fake_mc_{"fake-mc"};
  CaptureNode standby_mc_{"standby-mc"};
  NodeId fake_mc_node_;
};

TEST_F(ParkedLookupTest, LongOutageParksOnlyTheLastTau1OfLookups) {
  // The coordinator is dead for 10 x tau1 while strays, non-proximal
  // packets and owner queries keep coming: nothing answers, yet the ring
  // never holds more than what was issued within the last tau1.
  harness_.network.detach(fake_mc_node_);
  const SimTime step = 100_ms;
  std::deque<SimTime> issued;  // issue times of the lookups not yet expired
  std::uint64_t total = 0;
  std::size_t peak = 0;
  for (SimTime start = harness_.network.now();
       harness_.network.now() < start + tau1_ * 10;) {
    const SimTime at = harness_.network.now();
    for (int i = 0; i < 3; ++i) issued.push_back(at);
    total += 3;
    TaggedPacket far = packet_at({900, 500});
    far.target = Vec2{100, 500};
    OwnerQuery query;
    query.point = {100, 100};
    query.client = ClientId(3);
    game(0).inject(server(0).node_id(), packet_at({100, 100}));
    game(0).inject(server(0).node_id(), far);
    game(0).inject(server(0).node_id(), query);
    harness_.run_for(step);
    while (issued.front() + tau1_ <= at) issued.pop_front();
    ASSERT_LE(server(0).parked_lookups(), issued.size());
    peak = std::max(peak, server(0).parked_lookups());
  }
  const MatrixServer::Stats& stats = server(0).stats();
  EXPECT_EQ(total, 900u);
  EXPECT_EQ(stats.nonproximal_lookups, total);
  EXPECT_EQ(stats.lookups_expired, total - server(0).parked_lookups());
  EXPECT_EQ(stats.pending_lookups_peak, peak);
  EXPECT_LE(peak, 90u);  // 30 lookups per second for tau1 = 3 s
  EXPECT_LT(stats.lookup_age_peak_us, static_cast<std::uint64_t>(tau1_.us()));
  EXPECT_EQ(stats.late_lookup_replies, 0u);
  EXPECT_GT(server(0).parked_lookup_bytes(), 0u);
  EXPECT_GE(server(0).parked_lookup_peak_bytes(),
            server(0).parked_lookup_bytes());
}

TEST_F(ParkedLookupTest, RingBytesCountTheParkedFrames) {
  // An owner query is a bare slot; a parked packet adds its encoded frame.
  const PointLookup to_query = owner_query();
  const std::size_t slot = server(0).parked_lookup_bytes();
  ASSERT_GT(slot, 0u);
  const PointLookup to_stray = stray();
  const std::size_t with_frame = server(0).parked_lookup_bytes();
  EXPECT_GT(with_frame, 2 * slot);
  EXPECT_EQ(server(0).parked_lookup_peak_bytes(), with_frame);

  // Served behind the unanswered query, the packet's slot stays in the ring
  // but its frame is gone; the peak keeps the frame.
  reply(to_stray);
  EXPECT_EQ(game(1).count<TaggedPacket>(), 1u);
  EXPECT_EQ(server(0).parked_lookups(), 2u);
  EXPECT_EQ(server(0).parked_lookup_bytes(), 2 * slot);
  EXPECT_EQ(server(0).parked_lookup_peak_bytes(), with_frame);
  reply(to_query);
  EXPECT_EQ(server(0).parked_lookup_bytes(), 0u);
}

TEST_F(ParkedLookupTest, ReplyInsideTheDeadlineIsServedOnEveryPath) {
  const PointLookup to_stray = stray();
  const PointLookup to_far = nonproximal();
  const PointLookup to_query = owner_query();
  EXPECT_EQ(server(0).parked_lookups(), 3u);

  // A lookup parked later runs the expiry; none of the three is old enough.
  harness_.run_for(tau1_ - 100_ms);
  stray();
  reply(to_stray);
  reply(to_far);
  reply(to_query);

  // Stray re-targeted at its origin, non-proximal packet forwarded, owner
  // query answered — each at server 1, the owner the MC named.
  std::size_t packets = 0;
  for (const Message& message : game(1).messages) {
    if (const auto* packet = std::get_if<TaggedPacket>(&message)) {
      ++packets;
      EXPECT_TRUE(packet->peer_forwarded);
      ASSERT_TRUE(packet->target.has_value());
    }
  }
  EXPECT_EQ(packets, 2u);
  const OwnerReply* answer = game(0).last<OwnerReply>();
  ASSERT_NE(answer, nullptr);
  EXPECT_EQ(answer->seq, 11u);
  EXPECT_EQ(answer->game_node, game(1).node_id());
  EXPECT_EQ(server(0).stats().lookups_expired, 0u);
  EXPECT_EQ(server(0).stats().late_lookup_replies, 0u);
  // Served slots are freed: only the unanswered later stray is left.
  EXPECT_EQ(server(0).parked_lookups(), 1u);
}

TEST_F(ParkedLookupTest, ReplyAfterExpiryIsDroppedAndCounted) {
  const PointLookup to_query = owner_query();
  const PointLookup to_stray = stray();
  harness_.run_for(tau1_);

  // Past tau1 but nothing parked since: expiry is lazy, the reply is served.
  reply(to_query);
  EXPECT_NE(game(0).last<OwnerReply>(), nullptr);

  // The next lookup expires the stray; its reply then finds nothing.
  const PointLookup fresh = nonproximal();
  EXPECT_EQ(server(0).stats().lookups_expired, 1u);
  EXPECT_EQ(server(0).parked_lookups(), 1u);
  reply(to_stray);
  EXPECT_EQ(game(1).count<TaggedPacket>(), 0u);
  EXPECT_EQ(server(0).stats().late_lookup_replies, 1u);

  reply(fresh);
  EXPECT_EQ(game(1).count<TaggedPacket>(), 1u);
  EXPECT_EQ(server(0).stats().late_lookup_replies, 1u);
  EXPECT_EQ(server(0).parked_lookups(), 0u);
}

TEST_F(ParkedLookupTest, McAnnounceEmptiesTheRing) {
  const PointLookup to_stray = stray();
  nonproximal();
  owner_query();
  EXPECT_EQ(server(0).parked_lookups(), 3u);

  announce(harness_.network.attach(&standby_mc_), 3);
  EXPECT_EQ(server(0).parked_lookups(), 0u);

  // A reply the dead coordinator had in flight is neither served nor late.
  reply(to_stray);
  EXPECT_EQ(game(1).count<TaggedPacket>(), 0u);
  EXPECT_EQ(server(0).stats().late_lookup_replies, 0u);
  EXPECT_EQ(server(0).stats().lookups_expired, 0u);
}

}  // namespace
}  // namespace matrix
