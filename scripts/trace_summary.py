#!/usr/bin/env python3
"""Digest a flight-recorder trace (Tracer::dump_jsonl) into timelines.

Usage:
    trace_summary.py TRACE.jsonl [--client ID] [--server ID] [--top 10]

Input is the JSONL the obs layer dumps (src/obs/trace.cpp, quickstart, or a
test's TraceDumpOnFailure guard): one event per line,
    {"t_us": ..., "kind": "...", "subject": ..., "actor": ..., "a": ..., "b": ...}

Output:
  * an event-kind census (what the recorder saw);
  * per-client lifecycle timelines (hello -> admitted/denied/deferred/bye),
    with time-to-admit where both ends are in the ring;
  * per-server partition timelines (split/reclaim/adopt/deactivate);
  * --client/--server print one subject's full event list for debugging.

Stdlib only — runs anywhere CI can run python3.
"""
import argparse
import collections
import json
import sys

CLIENT_KINDS = {
    "client_hello", "client_admitted", "client_denied", "client_deferred",
    "client_queued", "client_redirected", "client_bye", "queue_handoff",
    "queue_handoff_sent", "queue_handoff_drop",
}
SERVER_KINDS = {
    "split_requested", "pool_granted", "pool_denied", "pool_arbitrated",
    "split_completed", "reclaim_requested", "reclaim_declined",
    "reclaim_completed", "adopted", "deactivated", "admission_transition",
    "directive_broadcast", "directive_applied",
}


def load_events(path):
    events = []
    with open(path) as f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                print(f"  (skipping unparseable line {line_no})",
                      file=sys.stderr)
    events.sort(key=lambda e: e.get("t_us", 0))
    return events


def fmt_t(us):
    return f"{us / 1e6:.6f}s"


def census(events):
    counts = collections.Counter(e["kind"] for e in events)
    print(f"\n[census] {len(events)} events, "
          f"{fmt_t(events[0]['t_us'])} .. {fmt_t(events[-1]['t_us'])}")
    for kind, n in counts.most_common():
        print(f"  {kind:24s} {n}")
    return counts


def client_timelines(events, top):
    by_client = collections.defaultdict(list)
    for e in events:
        if e["kind"] in CLIENT_KINDS:
            by_client[e["subject"]].append(e)

    admits, outcomes = [], collections.Counter()
    open_hellos = []
    for client, trail in by_client.items():
        hello_t = None
        outcome = "none"
        for e in trail:
            if e["kind"] == "client_hello" and e.get("a", 0) == 0:
                hello_t = hello_t if hello_t is not None else e["t_us"]
            elif e["kind"] == "client_admitted":
                if hello_t is not None:
                    admits.append((e["t_us"] - hello_t, client))
                    hello_t = None
                outcome = "admitted"
            elif e["kind"] in ("client_denied", "client_deferred",
                               "client_bye"):
                hello_t = None
                outcome = e["kind"].replace("client_", "")
        outcomes[outcome] += 1
        if hello_t is not None:
            open_hellos.append(client)

    print(f"\n[clients] {len(by_client)} clients with lifecycle events")
    for outcome, n in outcomes.most_common():
        print(f"  final outcome {outcome:10s} {n}")
    if admits:
        admits.sort()
        n = len(admits)
        print(f"  time-to-admit ({n} measured in-ring): "
              f"p50 {admits[n // 2][0] / 1000:.2f} ms, "
              f"max {admits[-1][0] / 1000:.2f} ms")
        worst = ", ".join(f"C{c}={us / 1000:.1f}ms"
                          for us, c in admits[-top:][::-1])
        print(f"  slowest admits: {worst}")
    if open_hellos:
        print(f"  BLACKHOLE SUSPECTS ({len(open_hellos)}) — hello with no "
              f"admit/deny/defer/bye in the ring: "
              f"{sorted(open_hellos)[:top]}")


def server_timelines(events, top):
    by_server = collections.defaultdict(list)
    for e in events:
        if e["kind"] in SERVER_KINDS:
            by_server[e["subject"]].append(e)
    if not by_server:
        print("\n[servers] no partition-lifecycle events in the ring")
        return
    print(f"\n[servers] {len(by_server)} servers with lifecycle events")
    for server in sorted(by_server)[:top]:
        trail = by_server[server]
        kinds = collections.Counter(e["kind"] for e in trail)
        summary = ", ".join(f"{k}×{n}" for k, n in kinds.most_common())
        print(f"  S{server}: {summary}")


def dump_subject(events, subject, kinds):
    trail = [e for e in events
             if e["kind"] in kinds and e["subject"] == subject]
    if not trail:
        print(f"  no events for subject {subject}")
        return
    for e in trail:
        print(f"  {fmt_t(e['t_us'])} {e['kind']:24s} actor={e['actor']} "
              f"a={e['a']} b={e['b']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="JSONL trace dump")
    parser.add_argument("--client", type=int,
                        help="print one client's full timeline")
    parser.add_argument("--server", type=int,
                        help="print one server's full timeline")
    parser.add_argument("--top", type=int, default=10,
                        help="rows in ranked lists (default 10)")
    args = parser.parse_args()

    events = load_events(args.trace)
    if not events:
        print("no events in trace", file=sys.stderr)
        return 1

    census(events)
    if args.client is not None:
        print(f"\n[client C{args.client}]")
        dump_subject(events, args.client, CLIENT_KINDS)
        return 0
    if args.server is not None:
        print(f"\n[server S{args.server}]")
        dump_subject(events, args.server, SERVER_KINDS)
        return 0
    client_timelines(events, args.top)
    server_timelines(events, args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
