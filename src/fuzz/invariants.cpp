#include "fuzz/invariants.h"

#include <sstream>

#include "obs/collect.h"
#include "obs/registry.h"
#include "sim/deployment.h"

namespace matrix::fuzz {

bool InvariantReport::fired(std::string_view invariant) const {
  return fired_counts.find(std::string(invariant)) != fired_counts.end();
}

void InvariantReport::add(std::string invariant, std::string detail) {
  const std::uint64_t seen = ++fired_counts[invariant];
  if (seen <= kMaxDetailsPerInvariant) {
    violations.push_back({std::move(invariant), std::move(detail)});
  }
}

std::string InvariantReport::summary() const {
  std::ostringstream out;
  if (ok()) {
    out << "all invariants hold (" << events_checked << " events, "
        << clients_tracked << " clients";
    if (anomalies > 0) out << ", " << anomalies << " tolerated races";
    out << ")";
    return out.str();
  }
  out << "INVARIANT VIOLATIONS (" << events_checked << " events, "
      << clients_tracked << " clients):\n";
  for (const auto& [name, count] : fired_counts) {
    out << "  " << name << " x" << count << "\n";
  }
  for (const InvariantViolation& v : violations) {
    out << "  [" << v.invariant << "] " << v.detail << "\n";
  }
  return out.str();
}

namespace {

/// Per-client lifecycle state, replayed from the event stream.  The grammar
/// deliberately tolerates the known benign races (a ClientBye overtaken by
/// the client's own queue handoff or redirect resurrects the client at the
/// new home as a "zombie"); everything else is a conservation bug.
enum class CState : std::uint8_t {
  kOut,           ///< no session, not parked, no join pending
  kAdmitPending,  ///< fresh hello sent, outcome not yet recorded
  kQueued,        ///< parked in `node`'s waiting room
  kPlaying,       ///< session live at `node`
  kRedirected,    ///< told to resume at `node`, resume not yet recorded
};

const char* cstate_name(CState s) {
  switch (s) {
    case CState::kOut: return "out";
    case CState::kAdmitPending: return "admit-pending";
    case CState::kQueued: return "queued";
    case CState::kPlaying: return "playing";
    case CState::kRedirected: return "redirected";
  }
  return "?";
}

struct ClientTrack {
  CState state = CState::kOut;
  std::uint64_t node = 0;  ///< queued/playing node, or redirect target
  /// A waiting-room entry for this client is traveling between servers.
  bool handoff_in_flight = false;
  std::int64_t handoff_age_us = 0;
  std::uint64_t handoff_dst = 0;
  std::uint64_t adoptions = 0;
  /// A hello was recorded and no verdict has followed yet.  The gate is
  /// synchronous: every hello is resolved (admit / deny / defer / queue)
  /// within the same handle_hello call, i.e. at the same trace instant —
  /// so a hello still pending at ANY later instant was swallowed.
  bool hello_pending = false;
  SimTime hello_at{};
};

std::string client_detail(std::uint64_t client, const ClientTrack& track,
                          const obs::TraceEvent& event) {
  std::ostringstream out;
  out << "client " << client << " [" << cstate_name(track.state) << "@"
      << track.node << (track.handoff_in_flight ? ", handoff in flight" : "")
      << "] got " << obs::trace_kind_name(event.kind) << " at t="
      << event.at.us() << "us actor=" << event.actor << " a=" << event.a
      << " b=" << event.b;
  return out.str();
}

/// Last applied control update per (node, ControlKind) — the watermark the
/// control-monotonic invariant checks kControlApplied events against.
struct ControlTrack {
  bool seen = false;
  std::int64_t epoch = 0;
  std::int64_t seq = 0;
};

/// Legal failsafe edges (control_plane.h): NORMAL→HOLD, HOLD→FALLBACK,
/// HOLD→NORMAL, FALLBACK→NORMAL.
bool failsafe_edge_legal(std::int64_t from, std::int64_t to) {
  return (from == 0 && to == 1) || (from == 1 && to == 2) ||
         (from == 1 && to == 0) || (from == 2 && to == 0);
}

/// Lossy-control-links mode: drop the conservation invariants that assume
/// reliable delivery, keep the state-machine ones (see InvariantOptions).
void strip_delivery_invariants(InvariantReport& report) {
  const auto suppressed = [](const std::string& name) {
    return name == kInvBlackhole || name == kInvClientConservation ||
           name == kInvQueueConservation || name == kInvAgeConservation;
  };
  std::vector<InvariantViolation> kept;
  for (InvariantViolation& violation : report.violations) {
    if (!suppressed(violation.invariant)) kept.push_back(std::move(violation));
  }
  report.violations = std::move(kept);
  for (auto it = report.fired_counts.begin();
       it != report.fired_counts.end();) {
    it = suppressed(it->first) ? report.fired_counts.erase(it) : ++it;
  }
}

}  // namespace

InvariantReport check_trace(const std::vector<obs::TraceEvent>& events,
                            const InvariantOptions& options,
                            const EndState* expected) {
  InvariantReport report;
  std::map<std::uint64_t, ClientTrack> clients;

  // Control-plane failsafe (src/control/control_plane.h).
  std::map<std::pair<std::uint64_t, std::uint64_t>, ControlTrack> control;
  std::map<std::uint64_t, std::int64_t> failsafe_state;  // node → state

  std::uint64_t sheds = 0;  // split + reclaim completions seen so far
  // Contiguous same-instant same-source run of handoff-sent events — one
  // extract_range/extract_all burst.
  std::uint64_t burst = 0;
  std::uint64_t burst_actor = 0;
  SimTime burst_at{};
  bool burst_reported = false;

  for (const obs::TraceEvent& event : events) {
    ++report.events_checked;
    ++report.kind_counts[static_cast<std::size_t>(event.kind)];

    if (event.kind == obs::TraceKind::kQueueHandoffSent) {
      if (burst > 0 && event.actor == burst_actor && event.at == burst_at) {
        ++burst;
      } else {
        burst = 1;
        burst_actor = event.actor;
        burst_at = event.at;
        burst_reported = false;
      }
      if (options.max_handoff_burst > 0 &&
          burst > options.max_handoff_burst && !burst_reported) {
        burst_reported = true;
        std::ostringstream out;
        out << "node " << burst_actor << " shed more than "
            << options.max_handoff_burst
            << " waiting-room entries in one burst at t=" << burst_at.us()
            << "us";
        report.add(kInvHandoffChurn, out.str());
      }
    } else {
      burst = 0;
    }

    // Synchronous-gate rule: a recorded hello is resolved within the same
    // handle_hello call, so its verdict event carries the same timestamp.
    // A pending hello surviving to any later instant was swallowed.
    switch (event.kind) {
      case obs::TraceKind::kClientAdmitted:
      case obs::TraceKind::kClientDenied:
      case obs::TraceKind::kClientDeferred:
      case obs::TraceKind::kClientQueued: {
        ClientTrack& c = clients[event.subject];
        if (c.hello_pending) {
          if (event.at != c.hello_at) {
            std::ostringstream out;
            out << "client " << event.subject << " hello at t="
                << c.hello_at.us() << "us sat unresolved until "
                << obs::trace_kind_name(event.kind) << " at t="
                << event.at.us() << "us (the gate is synchronous)";
            report.add(kInvBlackhole, out.str());
          }
          c.hello_pending = false;
        }
        break;
      }
      case obs::TraceKind::kClientBye:
      case obs::TraceKind::kClientRedirected:
      case obs::TraceKind::kQueueHandoffSent:
      case obs::TraceKind::kQueueHandoff:
      case obs::TraceKind::kQueueHandoffDrop: {
        ClientTrack& c = clients[event.subject];
        if (c.hello_pending) {
          std::ostringstream out;
          out << "client " << event.subject << " hello at t="
              << c.hello_at.us() << "us was never resolved (next event "
              << obs::trace_kind_name(event.kind) << " at t=" << event.at.us()
              << "us)";
          report.add(kInvBlackhole, out.str());
          c.hello_pending = false;
        }
        break;
      }
      default:
        break;
    }

    switch (event.kind) {
      case obs::TraceKind::kSplitCompleted:
      case obs::TraceKind::kReclaimCompleted:
        ++sheds;
        break;

      case obs::TraceKind::kClientHello: {
        ClientTrack& c = clients[event.subject];
        if (c.hello_pending) {
          std::ostringstream out;
          out << "client " << event.subject << " hello at t="
              << c.hello_at.us()
              << "us was never resolved (another hello followed at t="
              << event.at.us() << "us)";
          report.add(kInvBlackhole, out.str());
        }
        c.hello_pending = true;
        c.hello_at = event.at;
        if (event.a == 0 && (c.state == CState::kOut ||
                             c.state == CState::kAdmitPending)) {
          c.state = CState::kAdmitPending;
          c.node = event.actor;
        }
        // Resume hellos and duplicate hellos while queued/playing change
        // nothing; the admitted/queued outcome events carry the state.
        break;
      }

      case obs::TraceKind::kClientAdmitted: {
        ClientTrack& c = clients[event.subject];
        if (event.a != 0) {
          // Resume after a redirect.
          if (c.state == CState::kRedirected) {
            if (c.node != event.actor) {
              report.add(kInvClientConservation,
                         client_detail(event.subject, c, event) +
                             " (resumed at a node it was not redirected to)");
            }
          } else if (c.state == CState::kPlaying) {
            if (c.node != event.actor) {
              report.add(kInvClientConservation,
                         client_detail(event.subject, c, event) +
                             " (second live session)");
            }
          } else if (c.state == CState::kQueued) {
            report.add(kInvQueueConservation,
                       client_detail(event.subject, c, event) +
                           " (resume admit for a parked client)");
          } else {
            ++report.anomalies;  // zombie resume after a racing bye
          }
        } else {
          // Fresh admit: direct or drained from the waiting room.
          switch (c.state) {
            case CState::kAdmitPending:
              break;
            case CState::kQueued:
              if (c.node != event.actor) {
                report.add(kInvQueueConservation,
                           client_detail(event.subject, c, event) +
                               " (drained by a node that does not hold it)");
              }
              break;
            case CState::kPlaying:
              if (c.node != event.actor) {
                report.add(kInvClientConservation,
                           client_detail(event.subject, c, event) +
                               " (second live session)");
              }
              break;
            case CState::kRedirected:
            case CState::kOut:
              ++report.anomalies;  // zombie drain/admit after a racing bye
              break;
          }
        }
        c.state = CState::kPlaying;
        c.node = event.actor;
        break;
      }

      case obs::TraceKind::kClientDenied:
      case obs::TraceKind::kClientDeferred: {
        ClientTrack& c = clients[event.subject];
        if (c.state == CState::kPlaying) {
          report.add(kInvClientConservation,
                     client_detail(event.subject, c, event) +
                         " (valve refused a client with a live session)");
        }
        // A deferred handed-off entry (destination could not adopt) resolves
        // the in-flight handoff.
        if (c.handoff_in_flight &&
            event.kind == obs::TraceKind::kClientDeferred) {
          c.handoff_in_flight = false;
        }
        c.state = CState::kOut;
        break;
      }

      case obs::TraceKind::kClientQueued: {
        ClientTrack& c = clients[event.subject];
        if (c.state == CState::kPlaying) {
          report.add(kInvClientConservation,
                     client_detail(event.subject, c, event) +
                         " (parked while holding a live session)");
        } else if (c.state == CState::kQueued) {
          report.add(kInvQueueConservation,
                     client_detail(event.subject, c, event) +
                         " (parked twice)");
        }
        c.state = CState::kQueued;
        c.node = event.actor;
        break;
      }

      case obs::TraceKind::kClientRedirected: {
        ClientTrack& c = clients[event.subject];
        if (c.state != CState::kPlaying || c.node != event.actor) {
          report.add(kInvClientConservation,
                     client_detail(event.subject, c, event) +
                         " (redirect of a session the actor does not hold)");
        }
        c.state = CState::kRedirected;
        c.node = static_cast<std::uint64_t>(event.a);
        break;
      }

      case obs::TraceKind::kClientBye: {
        ClientTrack& c = clients[event.subject];
        if (c.state == CState::kPlaying && c.node == event.actor &&
            event.a == 0) {
          report.add(kInvClientConservation,
                     client_detail(event.subject, c, event) +
                         " (bye found no session where the trace says one "
                         "lives — the session vanished untraced)");
        }
        c.state = CState::kOut;  // in-flight handoffs resolve later
        break;
      }

      case obs::TraceKind::kQueueHandoffSent: {
        ClientTrack& c = clients[event.subject];
        if (c.state != CState::kQueued || c.node != event.actor) {
          report.add(kInvQueueConservation,
                     client_detail(event.subject, c, event) +
                         " (handed off an entry the source does not hold)");
        }
        if (c.handoff_in_flight) {
          report.add(kInvQueueConservation,
                     client_detail(event.subject, c, event) +
                         " (second handoff while one is in flight)");
        }
        c.state = CState::kOut;
        c.handoff_in_flight = true;
        c.handoff_age_us = event.b;
        c.handoff_dst = static_cast<std::uint64_t>(event.a);
        break;
      }

      case obs::TraceKind::kQueueHandoff: {  // adopted at the destination
        ClientTrack& c = clients[event.subject];
        if (!c.handoff_in_flight) {
          report.add(kInvQueueConservation,
                     client_detail(event.subject, c, event) +
                         " (adopted with no handoff in flight)");
        } else {
          if (event.b != c.handoff_age_us) {
            std::ostringstream out;
            out << "client " << event.subject
                << " lost accrued age across handoff: enqueued_at "
                << c.handoff_age_us << "us sent, " << event.b
                << "us adopted (node " << event.a << ")";
            report.add(kInvAgeConservation, out.str());
          }
          if (static_cast<std::uint64_t>(event.a) != c.handoff_dst) {
            report.add(kInvQueueConservation,
                       client_detail(event.subject, c, event) +
                           " (adopted by a node it was not sent to)");
          }
          c.handoff_in_flight = false;
        }
        if (c.state != CState::kOut) {
          report.add(kInvQueueConservation,
                     client_detail(event.subject, c, event) +
                         " (adopted while already queued or playing)");
        }
        c.state = CState::kQueued;
        c.node = static_cast<std::uint64_t>(event.a);
        ++c.adoptions;
        if (c.adoptions > sheds + 2) {
          std::ostringstream out;
          out << "client " << event.subject << " adopted " << c.adoptions
              << " times across only " << sheds
              << " topology sheds (handoff ping-pong)";
          report.add(kInvHandoffChurn, out.str());
        }
        break;
      }

      case obs::TraceKind::kQueueHandoffDrop: {
        ClientTrack& c = clients[event.subject];
        if (!c.handoff_in_flight) {
          report.add(kInvQueueConservation,
                     client_detail(event.subject, c, event) +
                         " (duplicate-drop with no handoff in flight)");
        }
        c.handoff_in_flight = false;
        break;
      }

      case obs::TraceKind::kControlApplied: {
        // subject=node, actor=ControlKind, a=epoch, b=seq.  Heartbeats and
        // announces are freshness signals with their own epoch rule; the
        // sequenced kinds recorded here must be strictly increasing.
        ControlTrack& track = control[{event.subject, event.actor}];
        if (track.seen && (event.a < track.epoch ||
                           (event.a == track.epoch && event.b <= track.seq))) {
          std::ostringstream out;
          out << "node " << event.subject << " applied control kind "
              << event.actor << " (epoch " << event.a << ", seq " << event.b
              << ") at t=" << event.at.us() << "us after (epoch "
              << track.epoch << ", seq " << track.seq
              << ") — a stale or duplicate update changed state";
          report.add(kInvControlMonotonic, out.str());
        }
        track.seen = true;
        track.epoch = event.a;
        track.seq = event.b;
        break;
      }

      case obs::TraceKind::kFailsafeTransition: {
        // subject=node, a=new state, b=old state.
        std::int64_t& state = failsafe_state[event.subject];
        std::ostringstream where;
        where << "node " << event.subject << " failsafe " << event.b << "→"
              << event.a << " at t=" << event.at.us() << "us";
        if (event.a == event.b) {
          report.add(kInvFailsafeTimeline,
                     where.str() + " (self-transition)");
        } else if (event.b != state) {
          std::ostringstream out;
          out << where.str() << " does not chain from the tracked state "
              << state;
          report.add(kInvFailsafeTimeline, out.str());
        } else if (!failsafe_edge_legal(event.b, event.a)) {
          report.add(kInvFailsafeTimeline,
                     where.str() + " (illegal edge — states may not be "
                                   "skipped)");
        }
        state = event.a;
        break;
      }

      default:
        break;  // engine / partition / admission events: censused above
    }
  }

  report.clients_tracked = clients.size();

  // The synchronous-gate rule also holds at stream end: a hello's verdict
  // is recorded by the same call that recorded the hello, so a pending
  // hello here (quiesced or not) was swallowed.
  for (const auto& [client, c] : clients) {
    if (c.hello_pending) {
      std::ostringstream out;
      out << "client " << client << " hello at t=" << c.hello_at.us()
          << "us was never resolved (stream ended)";
      report.add(kInvBlackhole, out.str());
    }
  }

  if (options.expect_quiesced) {
    for (const auto& [client, c] : clients) {
      if (c.state == CState::kAdmitPending) {
        std::ostringstream out;
        out << "client " << client << " hello at node " << c.node
            << " never resolved (no admit/deny/defer/queue/bye)";
        report.add(kInvBlackhole, out.str());
      } else if (c.state == CState::kQueued) {
        std::ostringstream out;
        out << "client " << client << " still parked at node " << c.node
            << " after quiesce";
        report.add(kInvBlackhole, out.str());
      } else if (c.state == CState::kRedirected) {
        std::ostringstream out;
        out << "client " << client << " redirected toward node " << c.node
            << " and never resumed or left";
        report.add(kInvBlackhole, out.str());
      }
      if (c.handoff_in_flight) {
        std::ostringstream out;
        out << "client " << client
            << " waiting-room handoff toward node " << c.handoff_dst
            << " never adopted, deferred, or dropped";
        report.add(kInvQueueConservation, out.str());
      }
    }
  }

  if (expected != nullptr) {
    EndState derived;
    for (const auto& [client, c] : clients) {
      if (c.state == CState::kPlaying) ++derived.playing_by_node[c.node];
      if (c.state == CState::kQueued) ++derived.queued_by_node[c.node];
    }
    const auto compare = [&report](const char* what, const char* invariant,
                                   const std::map<std::uint64_t,
                                                  std::uint64_t>& trace_side,
                                   const std::map<std::uint64_t,
                                                  std::uint64_t>& live_side) {
      auto value = [](const std::map<std::uint64_t, std::uint64_t>& m,
                      std::uint64_t k) {
        auto it = m.find(k);
        return it == m.end() ? std::uint64_t{0} : it->second;
      };
      std::map<std::uint64_t, std::uint64_t> nodes;
      for (const auto& [node, n] : trace_side) nodes[node] = n;
      for (const auto& [node, n] : live_side) nodes.emplace(node, 0);
      for (const auto& [node, unused] : nodes) {
        (void)unused;
        const std::uint64_t t = value(trace_side, node);
        const std::uint64_t l = value(live_side, node);
        if (t != l) {
          std::ostringstream out;
          out << what << " mismatch at node " << node << ": trace says " << t
              << ", deployment holds " << l;
          report.add(invariant, out.str());
        }
      }
    };
    compare("playing count", kInvClientConservation, derived.playing_by_node,
            expected->playing_by_node);
    compare("queued count", kInvQueueConservation, derived.queued_by_node,
            expected->queued_by_node);
  }

  if (options.lossy_control_links) strip_delivery_invariants(report);

  return report;
}

InvariantReport check_deployment(Deployment& deployment,
                                 InvariantOptions options) {
  const obs::Tracer& tracer = deployment.network().tracer();
  if (options.max_handoff_burst == 0 &&
      deployment.options().config.admission.priority.queue_enabled) {
    options.max_handoff_burst =
        deployment.options().config.admission.priority.queue_capacity;
  }

  const std::vector<obs::TraceEvent> events = tracer.ring_snapshot();
  const bool truncated = tracer.events_recorded() > events.size();

  InvariantReport report;
  if (truncated) {
    // A wrapped ring means the lifecycle story has no beginning; judging
    // conservation on a suffix would produce nonsense either way.
    std::ostringstream out;
    out << "flight recorder wrapped: " << tracer.events_recorded()
        << " events recorded, ring holds " << events.size()
        << " — raise Config::obs.ring_capacity for invariant checking";
    report.add(kInvSetup, out.str());
  } else {
    EndState actual;
    const EndState* expected = nullptr;
    if (options.check_end_state) {
      for (const GameServer* game : deployment.game_servers()) {
        const std::uint64_t node = game->node_id().value();
        if (game->client_count() > 0) {
          actual.playing_by_node[node] = game->client_count();
        }
        if (game->surge_queue().size() > 0) {
          actual.queued_by_node[node] = game->surge_queue().size();
        }
      }
      expected = &actual;
    }
    report = check_trace(events, options, expected);

    // Registry/trace cross-check: the aggregated waiting-room counters must
    // tell the same handoff story as the event stream.
    const obs::Registry registry = obs::collect_registry(deployment);
    const auto handed_off =
        static_cast<std::uint64_t>(registry.value("admission.queue.handed_off"));
    const auto adopted =
        static_cast<std::uint64_t>(registry.value("admission.queue.adopted"));
    if (handed_off != report.count(obs::TraceKind::kQueueHandoffSent)) {
      std::ostringstream out;
      out << "registry handed_off=" << handed_off << " but trace recorded "
          << report.count(obs::TraceKind::kQueueHandoffSent)
          << " handoff-sent events";
      report.add(kInvQueueConservation, out.str());
    }
    if (adopted != report.count(obs::TraceKind::kQueueHandoff)) {
      std::ostringstream out;
      out << "registry adopted=" << adopted << " but trace recorded "
          << report.count(obs::TraceKind::kQueueHandoff)
          << " handoff-adopt events";
      report.add(kInvQueueConservation, out.str());
    }
  }

  // Span accounting: nothing dropped for capacity, and — after a quiesced
  // run — nothing left open.
  if (tracer.span_drops() > 0) {
    std::ostringstream out;
    out << tracer.span_drops()
        << " span opens dropped at capacity — raise Config::obs.span_capacity";
    report.add(kInvSpanAccounting, out.str());
  }
  if (options.expect_quiesced) {
    const auto note_open = [&](obs::SpanKind kind, const char* invariant) {
      const std::size_t open = tracer.open_span_count(kind);
      if (open == 0) return;
      std::ostringstream out;
      out << open << " " << obs::span_kind_name(kind)
          << " spans still open after quiesce; keys:";
      const auto keys = tracer.open_span_keys(kind);
      for (std::size_t i = 0; i < keys.size() && i < 8; ++i) {
        out << " " << keys[i];
      }
      if (keys.size() > 8) out << " ...";
      report.add(invariant, out.str());
    };
    note_open(obs::SpanKind::kAdmit, kInvBlackhole);
    note_open(obs::SpanKind::kQueueWait, kInvBlackhole);
    note_open(obs::SpanKind::kHandoff, kInvBlackhole);
    note_open(obs::SpanKind::kSplit, kInvSpanAccounting);
    note_open(obs::SpanKind::kReclaim, kInvSpanAccounting);
  }

  // Hysteresis validity, everywhere an admission timeline lives: each
  // server's valve (admission_timeline_valid over the whole lifetime,
  // resets included) and the coordinator's directive floor.
  for (const MatrixServer* server : deployment.matrix_servers()) {
    if (!server->admission().lifetime_timeline_valid()) {
      std::ostringstream out;
      out << "server " << server->server_id().value()
          << " admission timeline violates the dwell/recover_min contract";
      report.add(kInvAdmissionTimeline, out.str());
    }
  }
  if (!deployment.coordinator().global_admission().timeline_valid()) {
    report.add(kInvAdmissionTimeline,
               "coordinator directive-floor timeline violates the "
               "dwell/recover_min contract");
  }

  // Failsafe timeline validity: each matrix server runs its pair's one
  // machine, and each recorded heartbeat age must justify the transition
  // it triggered.  A game server's plane is a seq gate only and must
  // never transition.
  for (const MatrixServer* server : deployment.matrix_servers()) {
    if (!failsafe_timeline_valid(server->control_plane().transitions())) {
      std::ostringstream out;
      out << "matrix server " << server->server_id().value()
          << " failsafe timeline violates the tau1/tau2 contract";
      report.add(kInvFailsafeTimeline, out.str());
    }
  }
  for (const GameServer* game : deployment.game_servers()) {
    if (!game->control_plane().transitions().empty()) {
      std::ostringstream out;
      out << "game server " << game->server_id().value()
          << " recorded failsafe transitions of its own";
      report.add(kInvFailsafeTimeline, out.str());
    }
  }

  // Parked lookups: bounded by tau1 at every insert, and no reply lost to
  // an expiry.
  for (const MatrixServer* server : deployment.matrix_servers()) {
    const MatrixServer::Stats& s = server->stats();
    if (s.lookup_age_peak_us >=
            static_cast<std::uint64_t>(kFailsafeTau1.us()) ||
        s.late_lookup_replies > 0) {
      std::ostringstream out;
      out << "matrix server " << server->server_id().value()
          << " parked a lookup " << s.lookup_age_peak_us / 1000
          << " ms old (tau1 " << kFailsafeTau1.ms() << " ms); "
          << s.late_lookup_replies << " late replies";
      report.add(kInvLookupBound, out.str());
    }
  }

  if (options.lossy_control_links) strip_delivery_invariants(report);

  return report;
}

bool quiesce(Deployment& deployment, SimTime max_extra) {
  for (BotClient* bot : deployment.bots()) {
    bot->leave();  // no-op for bots that already gave up
  }
  const obs::Tracer& tracer = deployment.network().tracer();
  const SimTime start = deployment.network().now();
  const SimTime step = SimTime::from_sec(1.0);

  const auto quiet = [&deployment, &tracer] {
    for (const GameServer* game : deployment.game_servers()) {
      if (game->surge_queue().size() > 0) return false;
    }
    if (!tracer.enabled()) return true;
    for (const obs::SpanKind kind :
         {obs::SpanKind::kAdmit, obs::SpanKind::kQueueWait,
          obs::SpanKind::kHandoff, obs::SpanKind::kSplit,
          obs::SpanKind::kReclaim}) {
      if (tracer.open_span_count(kind) != 0) return false;
    }
    return true;
  };

  for (SimTime elapsed{}; elapsed < max_extra; elapsed = elapsed + step) {
    deployment.run_until(start + elapsed + step);
    if (quiet()) return true;
  }
  return quiet();
}

}  // namespace matrix::fuzz
