#!/usr/bin/env python3
"""Smoke tests for trace_summary.py (stdlib unittest; CI runs this).

Feeds a small synthetic flight-recorder dump through the CLI and asserts the
three things the tool exists for: the event census, the blackhole-suspect
report (a hello with no verdict in the ring), and the per-subject timeline
dump.  Run from anywhere:

    python3 scripts/test_trace_summary.py
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "trace_summary.py")


def event(t_us, kind, subject, actor=0, a=0, b=0):
    return {"t_us": t_us, "kind": kind, "subject": subject, "actor": actor,
            "a": a, "b": b}


SYNTHETIC = [
    # Client 1: clean hello -> admitted -> bye.
    event(1000, "client_hello", 1, 10),
    event(1000, "client_admitted", 1, 10),
    event(900000, "client_bye", 1, 10, a=1),
    # Client 2: parked, handed off to node 11, adopted, drained, bye.
    event(2000, "client_hello", 2, 10),
    event(2000, "client_queued", 2, 10),
    event(50000, "queue_handoff_sent", 2, 10, a=11, b=2000),
    event(60000, "queue_handoff", 2, 5, a=11, b=2000),
    event(200000, "client_admitted", 2, 11),
    event(950000, "client_bye", 2, 11, a=1),
    # Client 3: the planted blackhole — hello with no verdict, ever.
    event(3000, "client_hello", 3, 10),
    # Server 10 sheds once.
    event(40000, "split_requested", 10),
    event(45000, "split_completed", 10, 11),
]


class TraceSummaryTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        fd, cls.trace_path = tempfile.mkstemp(suffix=".jsonl")
        with os.fdopen(fd, "w") as f:
            for e in SYNTHETIC:
                f.write(json.dumps(e) + "\n")

    @classmethod
    def tearDownClass(cls):
        os.unlink(cls.trace_path)

    def run_tool(self, *extra):
        return subprocess.run(
            [sys.executable, SCRIPT, self.trace_path, *extra],
            capture_output=True, text=True)

    def test_census_counts_every_kind(self):
        result = self.run_tool()
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("[census] 12 events", result.stdout)
        self.assertIn("client_hello", result.stdout)
        self.assertIn("queue_handoff_sent", result.stdout)
        self.assertIn("split_completed", result.stdout)

    def test_blackhole_suspect_is_reported(self):
        result = self.run_tool()
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("BLACKHOLE SUSPECTS (1)", result.stdout)
        self.assertIn("[3]", result.stdout)  # client 3 is the suspect
        self.assertIn("final outcome bye", result.stdout)

    def test_client_dump_shows_handoff_trail(self):
        result = self.run_tool("--client", "2")
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("[client C2]", result.stdout)
        self.assertIn("queue_handoff_sent", result.stdout)
        self.assertIn("queue_handoff", result.stdout)
        self.assertIn("client_bye", result.stdout)
        # Client 1's trail must not bleed into the dump.
        self.assertNotIn("0.001000s client_hello", result.stdout)

    def test_server_dump_shows_shed(self):
        result = self.run_tool("--server", "10")
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("[server S10]", result.stdout)
        self.assertIn("split_completed", result.stdout)

    def test_empty_trace_fails_cleanly(self):
        with tempfile.NamedTemporaryFile(suffix=".jsonl") as empty:
            result = subprocess.run(
                [sys.executable, SCRIPT, empty.name],
                capture_output=True, text=True)
        self.assertEqual(result.returncode, 1)
        self.assertIn("no events", result.stderr)


if __name__ == "__main__":
    unittest.main()
