"""The live-path benchmark's own tests.

  python3 livebench/tests/test_livebench.py

Builds the livebench binary (as run.py does) and checks that a tiny run of
every workload prints every metric BENCHMARK.json names with its unit, that
the response checker fails a run whose origin corrupts one body, and that
the request stream is a function of the seed.
"""

import io
import json
import subprocess
import sys
import unittest
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402

BENCHMARK = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
TINY_SECONDS = 4


def run_bench(*argv):
    """run.main with argv; returns (exit code, the last stdout line as JSON)."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(list(argv))
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-1])


class TinyRuns(unittest.TestCase):
    def check(self, trace, expected):
        for workload in BENCHMARK["workloads"]:
            with self.subTest(workload=workload["name"], trace=trace):
                code, result = run_bench("--workload", workload["name"], "--seed", "3",
                                         "--seconds", str(TINY_SECONDS), "--trace", str(trace))
                self.assertEqual(code, 0)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                for metric in expected:
                    self.assertIn(metric["name"], result["metrics"])
                    self.assertEqual(result["metrics"][metric["name"]]["unit"], metric["unit"])

    def test_untraced_run_emits_every_end_to_end_metric(self):
        self.check(0, BENCHMARK["end_to_end"])

    def test_traced_run_emits_every_per_layer_metric(self):
        self.check(1, BENCHMARK["per_layer"])


class ResponseChecker(unittest.TestCase):
    def test_one_corrupted_body_fails_the_run(self):
        # A zero-delay origin admits almost no prefetch, so the corrupted
        # body goes to a client.
        code, result = run_bench("--workload", "wish_local", "--seed", "3",
                                 "--seconds", str(TINY_SECONDS), "--corrupt", "2")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)


class RequestStream(unittest.TestCase):
    def digest(self, seed):
        binary = run.build()
        out = subprocess.run([str(binary), "gen", "--app", "wish", "--seed", str(seed),
                              "--users", "8", "--warmup", "1", "--ref-seconds", "10",
                              "--digest", "1"], check=True, capture_output=True, text=True)
        return json.loads(out.stdout)["digest"]

    def test_same_seed_same_stream_other_seed_other_stream(self):
        self.assertEqual(self.digest(5), self.digest(5))
        self.assertNotEqual(self.digest(5), self.digest(6))


if __name__ == "__main__":
    unittest.main()
