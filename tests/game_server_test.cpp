// Tests for the game-side half of the contract: sessions, spatial tagging,
// acks, shed/handoff behaviour, state transfer, client migration — driven
// with a CaptureNode standing in for the Matrix server and for clients.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "game/bot_client.h"
#include "game/game_server.h"
#include "test_helpers.h"

namespace matrix {
namespace {

using namespace time_literals;

class GameServerTest : public ::testing::Test {
 protected:
  GameServerTest()
      : network_(3),
        game_(ServerId(1), bzflag_like(), Config{}),
        matrix_("fake-matrix"),
        client_("fake-client"),
        client2_("fake-client-2"),
        peer_game_("fake-peer-game") {
    network_.attach(&game_);
    network_.attach(&matrix_);
    network_.attach(&client_);
    network_.attach(&client2_);
    network_.attach(&peer_game_);
    game_.wire(matrix_.node_id());
    // Give the game server authority over the left half.
    MapRange range;
    range.new_range = Rect(0, 0, 500, 1000);
    matrix_.inject(game_.node_id(), range);
    run(50_ms);
  }

  void run(SimTime dt) { network_.run_until(network_.now() + dt); }

  void hello(CaptureNode& client, ClientId id, Vec2 pos) {
    ClientHello msg;
    msg.client = id;
    msg.position = pos;
    client.inject(game_.node_id(), msg);
    run(10_ms);
  }

  void act(CaptureNode& client, ClientId id, Vec2 pos,
           ActionKind kind = ActionKind::kMove,
           std::optional<Vec2> target = std::nullopt, std::uint32_t seq = 1) {
    ClientAction action;
    action.client = id;
    action.kind = static_cast<std::uint8_t>(kind);
    action.position = pos;
    action.target = target;
    action.seq = seq;
    action.sent_at = network_.now();
    action.payload.assign(24, 0);
    client.inject(game_.node_id(), action);
    run(10_ms);
  }

  Network network_;
  GameServer game_;
  CaptureNode matrix_;
  CaptureNode client_;
  CaptureNode client2_;
  CaptureNode peer_game_;
};

TEST_F(GameServerTest, HelloCreatesSessionAndWelcomes) {
  hello(client_, ClientId(10), {100, 100});
  EXPECT_EQ(game_.client_count(), 1u);
  const Welcome* welcome = client_.last<Welcome>();
  ASSERT_NE(welcome, nullptr);
  EXPECT_EQ(welcome->client, ClientId(10));
  EXPECT_EQ(welcome->avatar, avatar_entity_id(ClientId(10)));
  EXPECT_EQ(welcome->authority, Rect(0, 0, 500, 1000));
}

TEST_F(GameServerTest, ActionIsTaggedAndForwardedToMatrix) {
  hello(client_, ClientId(10), {100, 100});
  act(client_, ClientId(10), {120, 130}, ActionKind::kFire,
      Vec2{140, 150}, 42);
  const TaggedPacket* packet = matrix_.last<TaggedPacket>();
  ASSERT_NE(packet, nullptr);
  EXPECT_EQ(packet->client, ClientId(10));
  EXPECT_EQ(packet->origin, (Vec2{120, 130}));
  ASSERT_TRUE(packet->target.has_value());
  EXPECT_EQ(*packet->target, (Vec2{140, 150}));
  EXPECT_EQ(packet->seq, 42u);
  EXPECT_FALSE(packet->peer_forwarded);
  // Payload sized by the model's fire payload.
  EXPECT_EQ(packet->payload.size(), bzflag_like().fire_payload);
}

TEST_F(GameServerTest, ActionGetsImmediateAck) {
  hello(client_, ClientId(10), {100, 100});
  const auto updates_before = client_.count<ServerUpdate>();
  act(client_, ClientId(10), {101, 100}, ActionKind::kMove, std::nullopt, 7);
  bool acked = false;
  for (const auto& m : client_.messages) {
    if (const auto* u = std::get_if<ServerUpdate>(&m)) {
      if (u->ack_seq == 7) acked = true;
    }
  }
  EXPECT_TRUE(acked);
  EXPECT_GT(client_.count<ServerUpdate>(), updates_before);
}

TEST_F(GameServerTest, UnknownClientActionIsCountedAndDropped) {
  act(client_, ClientId(99), {10, 10});
  EXPECT_EQ(game_.stats().unknown_client_actions, 1u);
  EXPECT_EQ(matrix_.count<TaggedPacket>(), 0u);
}

TEST_F(GameServerTest, ByeRemovesSession) {
  hello(client_, ClientId(10), {100, 100});
  client_.inject(game_.node_id(), ClientBye{ClientId(10)});
  run(10_ms);
  EXPECT_EQ(game_.client_count(), 0u);
}

TEST_F(GameServerTest, UpdateTickSendsDigestsToClients) {
  hello(client_, ClientId(10), {100, 100});
  hello(client2_, ClientId(11), {120, 110});
  act(client_, ClientId(10), {100, 100});
  const auto before = client2_.count<ServerUpdate>();
  run(300_ms);  // several 100ms ticks
  EXPECT_GT(client2_.count<ServerUpdate>(), before);
  EXPECT_GT(game_.stats().updates_sent, 0u);
}

TEST_F(GameServerTest, DigestSizesMatchABruteForceNeighbourCount) {
  // Each digest's payload is 12 + 8·min(visible, 32) bytes, where visible
  // counts the sessions and ghosts in the 3×3 block of R-sized cells around
  // the client.  The grid behind that count is sized by distinct cells:
  // the first tick below sees one cell, the measured tick ~60, so the grid
  // grows in the middle of it — and must still count every cell.
  hello(client_, ClientId(1), {10, 10});
  run(100_ms);  // one tick over a single cell
  const std::size_t grid_small = game_.memory_bytes().grid;
  Rng rng(99);
  std::map<std::pair<double, double>, std::uint32_t> visible;
  std::vector<Vec2> entities{{10, 10}};
  for (std::uint64_t id = 2; id <= 80; ++id) {
    const Vec2 pos{rng.next_double_in(0.0, 500.0),
                   rng.next_double_in(0.0, 1000.0)};
    ClientHello msg;
    msg.client = ClientId(id);
    msg.position = pos;
    client_.inject(game_.node_id(), msg);
    entities.push_back(pos);
  }
  for (std::uint64_t id = 0; id < 4; ++id) {
    TaggedPacket remote;
    remote.client = ClientId(500 + id);
    remote.entity = EntityId(500 + id);
    remote.origin = {rng.next_double_in(400.0, 560.0),
                     rng.next_double_in(0.0, 1000.0)};
    remote.peer_forwarded = true;
    matrix_.inject(game_.node_id(), remote);
    entities.push_back(remote.origin);
  }
  run(10_ms);  // all joined, no tick yet
  ASSERT_EQ(game_.client_count(), 80u);
  ASSERT_EQ(game_.ghost_count(), 4u);
  ASSERT_EQ(game_.memory_bytes().grid, grid_small);
  const double cell = bzflag_like().visibility_radius;
  auto bucket = [cell](double v) {
    return static_cast<std::int64_t>(std::floor(v / cell));
  };
  for (std::size_t i = 0; i < 80; ++i) {
    std::uint32_t count = 0;
    for (const Vec2& other : entities) {
      if (std::abs(bucket(other.x) - bucket(entities[i].x)) <= 1 &&
          std::abs(bucket(other.y) - bucket(entities[i].y)) <= 1) {
        ++count;
      }
    }
    visible[{entities[i].x, entities[i].y}] = count;
  }
  client_.messages.clear();
  run(100_ms);  // exactly one tick
  EXPECT_GT(game_.memory_bytes().grid, grid_small);
  std::size_t digests = 0;
  for (const Message& m : client_.messages) {
    const auto* update = std::get_if<ServerUpdate>(&m);
    if (update == nullptr || update->ack_seq != 0) continue;
    ++digests;
    const auto it = visible.find({update->position.x, update->position.y});
    ASSERT_NE(it, visible.end());
    EXPECT_EQ(update->payload.size(),
              12 + 8 * std::min<std::uint32_t>(it->second, 32));
  }
  EXPECT_EQ(digests, 80u);
}

TEST_F(GameServerTest, RemoteEventCreatesGhostAndReachesClients) {
  hello(client_, ClientId(10), {490, 100});
  TaggedPacket remote;
  remote.client = ClientId(77);
  remote.entity = EntityId(77);
  remote.origin = {505, 100};  // across the boundary, within R=60
  remote.kind = static_cast<std::uint8_t>(ActionKind::kMove);
  remote.peer_forwarded = true;
  remote.client_sent_at = network_.now();
  matrix_.inject(game_.node_id(), remote);
  run(10_ms);
  EXPECT_EQ(game_.ghost_count(), 1u);
  EXPECT_EQ(game_.stats().remote_events, 1u);
}

TEST_F(GameServerTest, LoadReportsFlowPeriodically) {
  hello(client_, ClientId(10), {100, 100});
  run(2_sec);
  EXPECT_GE(matrix_.count<LoadReport>(), 3u);
  const LoadReport* report = matrix_.last<LoadReport>();
  ASSERT_NE(report, nullptr);
  EXPECT_EQ(report->client_count, 1u);
}

TEST_F(GameServerTest, MedianPositionReported) {
  hello(client_, ClientId(10), {100, 100});
  hello(client2_, ClientId(11), {300, 400});
  run(1_sec);
  const LoadReport* report = matrix_.last<LoadReport>();
  ASSERT_NE(report, nullptr);
  // Median of two values (nth_element at index 1) = upper value.
  EXPECT_DOUBLE_EQ(report->median_position.x, 300.0);
  EXPECT_DOUBLE_EQ(report->median_position.y, 400.0);
}

TEST_F(GameServerTest, ShedTransfersObjectsAndRedirectsClients) {
  Rng rng(4);
  game_.spawn_map_objects(50, Rect(0, 0, 500, 1000), rng);
  hello(client_, ClientId(10), {100, 100});   // in shed range
  hello(client2_, ClientId(11), {400, 100});  // stays

  MapRange shed;
  shed.new_range = Rect(250, 0, 500, 1000);
  shed.shed_range = Rect(0, 0, 250, 1000);
  shed.shed_to_game = peer_game_.node_id();
  shed.shed_to_server = ServerId(2);
  shed.topology_epoch = 1;
  matrix_.inject(game_.node_id(), shed);
  run(50_ms);

  // ShedDone went back to Matrix with the right epoch.
  const ShedDone* done = matrix_.last<ShedDone>();
  ASSERT_NE(done, nullptr);
  EXPECT_EQ(done->topology_epoch, 1u);
  EXPECT_EQ(done->clients_redirected, 1u);

  // Client in the shed range was redirected; the other kept.
  const Redirect* redirect = client_.last<Redirect>();
  ASSERT_NE(redirect, nullptr);
  EXPECT_EQ(redirect->new_game_node, peer_game_.node_id());
  EXPECT_EQ(client2_.count<Redirect>(), 0u);
  EXPECT_EQ(game_.client_count(), 1u);

  // Avatar state went server→server via Matrix.
  const ClientStateTransfer* cst = matrix_.last<ClientStateTransfer>();
  ASSERT_NE(cst, nullptr);
  EXPECT_EQ(cst->client, ClientId(10));
  EXPECT_EQ(cst->to_game, peer_game_.node_id());

  // Map objects in the shed range went out as one StateTransfer; the rest
  // stayed.  Object split is random-uniform, so just check conservation.
  const StateTransfer* st = matrix_.last<StateTransfer>();
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->object_count + game_.map_object_count(), 50u);
  EXPECT_EQ(decode_entities(st->blob).size(), st->object_count);
  for (const Entity& e : decode_entities(st->blob)) {
    EXPECT_TRUE(shed.shed_range.contains(e.position));
  }
}

TEST_F(GameServerTest, ReclaimShedsEverything) {
  Rng rng(4);
  game_.spawn_map_objects(20, Rect(0, 0, 500, 1000), rng);
  hello(client_, ClientId(10), {100, 100});
  hello(client2_, ClientId(11), {400, 900});

  MapRange reclaim;
  reclaim.reclaim = true;
  reclaim.shed_range = Rect(0, 0, 500, 1000);
  reclaim.shed_to_game = peer_game_.node_id();
  reclaim.shed_to_server = ServerId(1);
  reclaim.topology_epoch = 2;
  matrix_.inject(game_.node_id(), reclaim);
  run(50_ms);

  EXPECT_EQ(game_.client_count(), 0u);
  EXPECT_EQ(game_.map_object_count(), 0u);
  EXPECT_TRUE(game_.authority().empty());
  const ShedDone* done = matrix_.last<ShedDone>();
  ASSERT_NE(done, nullptr);
  EXPECT_EQ(done->clients_redirected, 2u);
}

TEST_F(GameServerTest, StateTransferInstallsObjects) {
  std::vector<Entity> entities;
  for (int i = 0; i < 5; ++i) {
    Entity e;
    e.id = EntityId(1000 + i);
    e.kind = EntityKind::kMapObject;
    e.position = {10.0 * i, 5.0};
    entities.push_back(e);
  }
  StateTransfer st;
  st.from_server = ServerId(2);
  st.to_game = game_.node_id();
  st.object_count = 5;
  st.blob = encode_entities(entities);
  matrix_.inject(game_.node_id(), st);
  run(10_ms);
  EXPECT_EQ(game_.map_object_count(), 5u);
  EXPECT_EQ(game_.stats().state_objects_received, 5u);
}

TEST_F(GameServerTest, PendingAvatarConsumedByHello) {
  Entity avatar;
  avatar.id = avatar_entity_id(ClientId(10));
  avatar.kind = EntityKind::kAvatar;
  avatar.position = {50, 60};
  avatar.owner = ClientId(10);
  ClientStateTransfer cst;
  cst.client = ClientId(10);
  cst.entity = avatar.id;
  cst.to_game = game_.node_id();
  ByteWriter w;
  avatar.encode(w);
  cst.blob = w.take();
  matrix_.inject(game_.node_id(), cst);
  run(10_ms);

  ClientHello resume;
  resume.client = ClientId(10);
  resume.position = {51, 60};
  resume.resume = true;
  resume.redirect_seq = 4;
  client_.inject(game_.node_id(), resume);
  run(10_ms);
  EXPECT_EQ(game_.client_count(), 1u);
  const Welcome* welcome = client_.last<Welcome>();
  ASSERT_NE(welcome, nullptr);
  EXPECT_EQ(welcome->redirect_seq, 4u);
}

TEST_F(GameServerTest, WalkOutOfRangeTriggersOwnerQuery) {
  hello(client_, ClientId(10), {490, 100});
  // Client reports a position well outside authority (authority is
  // [0,500); margin is 0.25·R = 15 for bzflag-like).
  act(client_, ClientId(10), {520, 100});
  const OwnerQuery* query = matrix_.last<OwnerQuery>();
  ASSERT_NE(query, nullptr);
  EXPECT_EQ(query->client, ClientId(10));
  EXPECT_EQ(query->point, (Vec2{520, 100}));

  // The reply redirects the client to the owner.
  OwnerReply reply;
  reply.client = ClientId(10);
  reply.seq = query->seq;
  reply.found = true;
  reply.server = ServerId(2);
  reply.game_node = peer_game_.node_id();
  matrix_.inject(game_.node_id(), reply);
  run(10_ms);
  EXPECT_EQ(game_.client_count(), 0u);
  EXPECT_EQ(game_.stats().clients_migrated, 1u);
  const Redirect* redirect = client_.last<Redirect>();
  ASSERT_NE(redirect, nullptr);
  EXPECT_EQ(redirect->new_game_node, peer_game_.node_id());
}

TEST_F(GameServerTest, SmallBoundaryExcursionDoesNotMigrate) {
  hello(client_, ClientId(10), {490, 100});
  act(client_, ClientId(10), {505, 100});  // only 5 beyond; margin is 15
  EXPECT_EQ(matrix_.count<OwnerQuery>(), 0u);
}

TEST_F(GameServerTest, StaleOwnerReplyIgnored) {
  hello(client_, ClientId(10), {490, 100});
  act(client_, ClientId(10), {520, 100});
  const OwnerQuery* query = matrix_.last<OwnerQuery>();
  ASSERT_NE(query, nullptr);
  OwnerReply reply;
  reply.client = ClientId(10);
  reply.seq = query->seq + 17;  // wrong seq
  reply.found = true;
  reply.game_node = peer_game_.node_id();
  matrix_.inject(game_.node_id(), reply);
  run(10_ms);
  EXPECT_EQ(game_.client_count(), 1u);  // not migrated
}

TEST_F(GameServerTest, UnansweredOwnerQueryBlocksLaterMigration) {
  // Pins a known liveness bug (ROADMAP): while a session's owner query is
  // outstanding no new one is sent, and nothing ever clears it if the reply
  // never comes (its MC lookup died with the coordinator, was dropped on
  // the link, or expired).  The client keeps walking outside authority and
  // is never migrated.  A fix re-queries after a deadline; this test then
  // flips to expect the second query.
  hello(client_, ClientId(10), {490, 100});
  act(client_, ClientId(10), {520, 100});
  ASSERT_EQ(matrix_.count<OwnerQuery>(), 1u);
  run(10_sec);  // well past any lookup deadline (tau1 = 3 s)
  act(client_, ClientId(10), {700, 100}, ActionKind::kMove, std::nullopt, 2);
  act(client_, ClientId(10), {800, 100}, ActionKind::kMove, std::nullopt, 3);
  EXPECT_EQ(matrix_.count<OwnerQuery>(), 1u);
  EXPECT_EQ(game_.client_count(), 1u);
  EXPECT_EQ(game_.stats().clients_migrated, 0u);
}

TEST(GameServerAdmissionTest, OneUpdateAppliesStateRateAndDrain) {
  // The Matrix server sends everything the game enforces in one seq-gated
  // AdmissionUpdate: a reordered older one — stale state and stale rate —
  // is dropped whole, and a newer one applies state, join-bucket rate and
  // directive flag, then drains the waiting room, in one step.
  Config config;
  config.admission.enabled = true;
  config.admission.priority.queue_enabled = true;
  config.admission.token_burst = 1.0;  // one banked token: one admit
  Network network(3);
  GameServer game(ServerId(1), bzflag_like(), config);
  CaptureNode matrix("fake-matrix");
  CaptureNode first("fake-client");
  CaptureNode second("fake-client-2");
  network.attach(&game);
  network.attach(&matrix);
  network.attach(&first);
  network.attach(&second);
  game.wire(matrix.node_id());
  const auto run = [&](SimTime dt) { network.run_until(network.now() + dt); };
  MapRange range;
  range.new_range = Rect(0, 0, 1000, 1000);
  matrix.inject(game.node_id(), range);
  run(50_ms);

  const auto update = [&](std::uint64_t seq, AdmissionState state,
                          double token_rate, bool directive_active) {
    AdmissionUpdate u;
    u.seq = seq;
    u.state = static_cast<std::uint8_t>(state);
    u.token_rate = token_rate;
    u.directive_active = directive_active;
    matrix.inject(game.node_id(), u);
    run(10_ms);
  };
  const auto hello = [&](CaptureNode& client, ClientId id) {
    ClientHello msg;
    msg.client = id;
    msg.position = {100, 100};
    client.inject(game.node_id(), msg);
    run(10_ms);
  };

  update(5, AdmissionState::kHard, config.admission.token_rate_per_sec,
         false);
  ASSERT_EQ(game.admission_state(), AdmissionState::kHard);
  hello(first, ClientId(10));
  hello(second, ClientId(11));
  ASSERT_EQ(game.surge_queue().size(), 2u);

  // Reordered: an older seq that would reopen the valve at a fat share.
  update(4, AdmissionState::kNormal, 100.0, true);
  EXPECT_EQ(game.admission_state(), AdmissionState::kHard);
  EXPECT_FALSE(game.directive_active());
  EXPECT_EQ(game.surge_queue().size(), 2u);
  EXPECT_EQ(game.control_plane().stats().stale_seq_drops, 1u);

  // Newer: SOFT at a 0.5 joins/s share.  The one banked token admits the
  // first parked client at once; the second waits at the new rate.
  update(6, AdmissionState::kSoft, 0.5, true);
  EXPECT_EQ(game.admission_state(), AdmissionState::kSoft);
  EXPECT_TRUE(game.directive_active());
  EXPECT_EQ(first.count<Welcome>(), 1u);
  EXPECT_EQ(second.count<Welcome>(), 0u);
  EXPECT_EQ(game.surge_queue().size(), 1u);

  // The next drain tick quotes the wait at the new rate: 1 / 0.5 = 2 s.
  run(config.admission.priority.update_interval);
  const QueueUpdate* position = second.last<QueueUpdate>();
  ASSERT_NE(position, nullptr);
  EXPECT_EQ(position->position, 1u);
  EXPECT_EQ(position->eta, 2_sec);
  EXPECT_EQ(second.count<Welcome>(), 0u);
}

TEST_F(GameServerTest, EntityRoundTrip) {
  Entity e;
  e.id = EntityId(55);
  e.kind = EntityKind::kAvatar;
  e.position = {1.5, -2.5};
  e.owner = ClientId(3);
  e.variant = 4;
  ByteWriter w;
  e.encode(w);
  ByteReader r(w.bytes());
  const Entity out = Entity::decode(r);
  EXPECT_EQ(out.id, e.id);
  EXPECT_EQ(out.kind, e.kind);
  EXPECT_EQ(out.position, e.position);
  EXPECT_EQ(out.owner, e.owner);
  EXPECT_EQ(out.variant, 4u);
}

TEST_F(GameServerTest, AvatarIdsAreDisjointFromObjectIds) {
  Rng rng(1);
  game_.spawn_map_objects(100, Rect(0, 0, 500, 1000), rng);
  hello(client_, ClientId(1), {10, 10});
  // Avatar ids have the top bit set; object ids use a different prefix.
  EXPECT_NE(avatar_entity_id(ClientId(1)).value() & (1ULL << 63), 0u);
}

// ---------------------------------------------------------------------------
// Bot self-latency ack window
// ---------------------------------------------------------------------------

/// Stands in for a bot's game server: records every action's send time and,
/// on the action with seq `trigger`, answers with one ServerUpdate per entry
/// of `acks`.  The answers reach the bot ~1 ms later, long before its next
/// action (≥25 ms at bzflag rates), so the bot's newest seq is `trigger`.
class AckScript : public ProtocolNode {
 public:
  AckScript(std::uint32_t trigger, std::vector<std::uint32_t> acks)
      : trigger_(trigger), acks_(std::move(acks)) {}
  [[nodiscard]] std::string name() const override { return "ack-script"; }

  std::map<std::uint32_t, SimTime> sent_at;
  SimTime answered_at{};

 protected:
  void on_message(const Message& message, const Envelope& envelope) override {
    const auto* action = std::get_if<ClientAction>(&message);
    if (action == nullptr) return;
    sent_at[action->seq] = action->sent_at;
    if (action->seq != trigger_) return;
    answered_at = now();
    for (const std::uint32_t ack : acks_) {
      ServerUpdate update;
      update.ack_seq = ack;
      send(envelope.src, update);
    }
  }

 private:
  std::uint32_t trigger_;
  std::vector<std::uint32_t> acks_;
};

/// What a bot records when, right after sending action `kNewest`, it
/// receives acks for `acks` in order.
constexpr std::uint32_t kNewest = 300;
struct AckRun {
  Histogram samples;
  std::map<std::uint32_t, SimTime> sent_at;
  SimTime answered_at{};
};
AckRun run_acks(std::vector<std::uint32_t> acks) {
  Network network(11);
  const GameModelSpec spec = bzflag_like();
  AckScript script(kNewest, std::move(acks));
  BotClient bot(ClientId(1), spec, Config{}.world, Rng(5));
  network.attach(&script);
  network.attach(&bot);
  bot.join(script.node_id(), {100, 100});
  network.run_until(60_sec);  // ~600 actions at 10 Hz
  EXPECT_GT(script.sent_at.size(), kNewest);
  EXPECT_GT(script.answered_at.us(), 0);
  return {bot.metrics().self_latency_ms, script.sent_at, script.answered_at};
}

TEST(BotAckWindowTest, AckTrailing127NewerActionsIsSampled) {
  const AckRun run = run_acks({kNewest - 127});
  ASSERT_EQ(run.samples.count(), 1u);
  // The sample pairs with action kNewest-127's own send time: its round
  // trip to the script plus the ~1 ms reply leg, nothing older or newer.
  const double floor_ms =
      (run.answered_at - run.sent_at.at(kNewest - 127)).ms();
  EXPECT_GE(run.samples.min(), floor_ms);
  EXPECT_LT(run.samples.min(), floor_ms + 5.0);
}

TEST(BotAckWindowTest, AckTrailing128NewerActionsIsNotSampled) {
  EXPECT_EQ(run_acks({kNewest - 128}).samples.count(), 0u);
  EXPECT_EQ(run_acks({kNewest - 200}).samples.count(), 0u);
}

TEST(BotAckWindowTest, NewestActionAckIsSampled) {
  EXPECT_EQ(run_acks({kNewest}).samples.count(), 1u);
}

TEST(BotAckWindowTest, DuplicateAckIsSampledOnce) {
  EXPECT_EQ(run_acks({kNewest - 127, kNewest - 127}).samples.count(), 1u);
  EXPECT_EQ(run_acks({kNewest - 3, kNewest - 4, kNewest - 3}).samples.count(),
            2u);
}

TEST(BotAckWindowTest, AckForUnsentSeqIsIgnored) {
  EXPECT_EQ(run_acks({kNewest + 1}).samples.count(), 0u);
  EXPECT_EQ(run_acks({kNewest + 128}).samples.count(), 0u);
}

// ---------------------------------------------------------------------------
// AckWindow vs the fixed 128-slot ring it replaced
// ---------------------------------------------------------------------------

/// The bot's previous ack ring, kept as the reference: slot seq % 128
/// holds action `seq` while seq < next_seq <= seq + 128 and the slot is not
/// consumed.
class ReferenceAckRing {
 public:
  std::uint32_t push(SimTime sent_at) {
    const std::uint32_t seq = next_seq_++;
    sent_at_[seq % kWindow] = sent_at;
    return seq;
  }
  std::optional<SimTime> take(std::uint32_t ack_seq) {
    const std::uint64_t seq = ack_seq;
    if (seq >= next_seq_ || next_seq_ > seq + kWindow) return std::nullopt;
    SimTime& sent_at = sent_at_[seq % kWindow];
    if (sent_at == kConsumed) return std::nullopt;
    const SimTime result = sent_at;
    sent_at = kConsumed;
    return result;
  }

 private:
  static constexpr std::size_t kWindow = 128;
  static constexpr SimTime kConsumed = SimTime::from_us(-1);
  std::uint32_t next_seq_ = 1;
  std::array<SimTime, kWindow> sent_at_{};
};

/// Drives both windows with one random op stream: sends, prompt acks,
/// late acks, duplicates, lost acks (never sent), acks past the window
/// edge and acks for unsent seqs.  Returns each window's (seq, send time)
/// samples in pairing order.
using AckSamples = std::vector<std::pair<std::uint32_t, std::int64_t>>;
std::pair<AckSamples, AckSamples> run_ack_windows(std::uint64_t seed) {
  Rng rng(seed);
  AckWindow window;
  ReferenceAckRing reference;
  AckSamples got, want;
  std::uint32_t newest = 0;
  std::int64_t clock_us = 0;
  auto ack = [&](std::uint32_t seq) {
    if (const auto at = window.take(seq)) got.emplace_back(seq, at->us());
    if (const auto at = reference.take(seq)) want.emplace_back(seq, at->us());
  };
  // Phases of "bad network": stretches where most acks go missing.
  for (int op = 0; op < 20'000; ++op) {
    const bool lossy = (op / 2'000) % 3 == 1;
    clock_us += static_cast<std::int64_t>(rng.next_below(50'000));
    newest = window.push(SimTime::from_us(clock_us));
    EXPECT_EQ(reference.push(SimTime::from_us(clock_us)), newest);
    EXPECT_LE(window.capacity(), AckWindow::kSpan);
    if (lossy && rng.next_below(10) < 8) continue;  // lost ack
    const std::uint64_t roll = rng.next_below(100);
    std::uint32_t lag = 0;
    if (roll < 60) {
      lag = 0;  // prompt
    } else if (roll < 80) {
      lag = static_cast<std::uint32_t>(rng.next_below(8));
    } else if (roll < 95) {
      lag = static_cast<std::uint32_t>(rng.next_below(200));  // near the edge
    } else {
      // Unsent seq, ahead of the newest.  (ack_seq 0 marks a digest, not
      // an ack; the bot never pairs it.)
      ack(newest + 1 + static_cast<std::uint32_t>(rng.next_below(200)));
      continue;
    }
    if (lag >= newest) continue;
    ack(newest - lag);
    if (rng.next_below(10) == 0) ack(newest - lag);  // duplicate
  }
  return {got, want};
}

TEST(BotAckWindowTest, MatchesReferenceRingOnRandomAckStreams) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const auto [got, want] = run_ack_windows(seed);
    ASSERT_EQ(got, want) << "seed " << seed;
    EXPECT_GT(got.size(), 1'000u) << "seed " << seed;
  }
}

/// Pins a window open: prompt acks first (no spill), then one action whose
/// ack is lost while every newer one is acked, until the ring spans the
/// full window.  Returns the lost action's seq (sent at t = 1,000 us).
std::uint32_t pin_open(AckWindow& window, ReferenceAckRing& reference) {
  auto push_acked = [&](std::int64_t us) {
    const std::uint32_t seq = window.push(SimTime::from_us(us));
    EXPECT_EQ(reference.push(SimTime::from_us(us)), seq);
    EXPECT_TRUE(window.take(seq).has_value());
    EXPECT_TRUE(reference.take(seq).has_value());
  };
  for (std::int64_t t = 1; t <= 50; ++t) push_acked(t);
  EXPECT_EQ(window.capacity(), AckWindow::kInlineSlots);
  EXPECT_EQ(window.heap_bytes(), 0u);

  const std::uint32_t lost = window.push(SimTime::from_us(1'000));
  EXPECT_EQ(reference.push(SimTime::from_us(1'000)), lost);
  for (std::uint32_t i = 1; i < AckWindow::kSpan; ++i) push_acked(1'000 + i);
  EXPECT_EQ(window.capacity(), AckWindow::kSpan);
  EXPECT_EQ(window.heap_bytes(), AckWindow::kSpan * sizeof(SimTime));
  return lost;
}

TEST(BotAckWindowTest, LostAckPinsWindowOpenToFullSpan) {
  // 127 newer actions later the lost ack is still inside the window: a
  // late ack pairs in both windows, exactly once.
  AckWindow window;
  ReferenceAckRing reference;
  const std::uint32_t lost = pin_open(window, reference);
  const auto at = window.take(lost);
  ASSERT_TRUE(at.has_value());
  EXPECT_EQ(at->us(), 1'000);
  EXPECT_EQ(reference.take(lost), at);
  EXPECT_FALSE(window.take(lost).has_value());
  EXPECT_FALSE(reference.take(lost).has_value());
}

TEST(BotAckWindowTest, PinnedAckExpiresAtWindowEdge) {
  // One more action pushes the lost one past the window edge: it expires
  // in both windows, and newer actions keep pairing.
  AckWindow window;
  ReferenceAckRing reference;
  const std::uint32_t lost = pin_open(window, reference);
  const std::uint32_t newest = window.push(SimTime::from_us(5'000));
  EXPECT_EQ(reference.push(SimTime::from_us(5'000)), newest);
  EXPECT_FALSE(window.take(lost).has_value());
  EXPECT_FALSE(reference.take(lost).has_value());
  const auto at = window.take(newest);
  ASSERT_TRUE(at.has_value());
  EXPECT_EQ(at->us(), 5'000);
  EXPECT_EQ(reference.take(newest), at);
  EXPECT_LE(window.capacity(), AckWindow::kSpan);
}

}  // namespace
}  // namespace matrix
