// Tests for the game-side half of the contract: sessions, spatial tagging,
// acks, shed/handoff behaviour, state transfer, client migration — driven
// with a CaptureNode standing in for the Matrix server and for clients.
#include <gtest/gtest.h>

#include <map>
#include <memory>

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

}  // namespace
}  // namespace matrix
