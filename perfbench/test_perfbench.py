#!/usr/bin/env python3
"""Self-tests of the benchmark (tiny cells, a minute or two).

    python3 perfbench/test_perfbench.py

Run from the root of a source checkout; builds like run.py does.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary, cls.sim = run.build()
        cls.tmp = tempfile.TemporaryDirectory(dir=run.build_dir())
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def run_driver(self, digests, *args):
        """Run the driver on tiny cells; returns (exit code, stdout)."""
        cmd = [self.binary, "--tiny", "--sim", self.sim, "--work",
               os.path.join(self.tmp.name, "work"), "--digests", digests]
        r = subprocess.run(cmd + list(args), stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True,
                           timeout=300)
        return r.returncode, r.stdout

    def result(self, digests, workload, trace):
        code, out = self.run_driver(digests, "--workload", workload,
                                    "--seed", "3", "--seconds", "0",
                                    "--trace", str(trace))
        self.assertEqual(code, 0, out)
        last = out.strip().splitlines()[-1]
        return json.loads(last)

    def pinned(self, name, workload):
        path = os.path.join(self.tmp.name, name)
        code, out = self.run_driver(path, "--pin", "--workload",
                                    workload, "--seed", "3")
        self.assertEqual(code, 0, out)
        return path

    def test_traced_and_untraced_digests_are_equal(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                code, out = self.run_driver(
                    os.path.join(self.tmp.name, "unused"), "--selftest",
                    "--workload", workload, "--seed", "3")
                self.assertEqual(code, 0, out)
                self.assertNotIn("DIFFERENT", out)
                self.assertGreater(out.count("same "), 0, out)

    def test_corrupted_pinned_digest_counts_as_failed(self):
        path = self.pinned("digests-corrupt.txt", "mix16-morph")
        ok = self.result(path, "mix16-morph", 0)
        self.assertTrue(ok["correct"])
        self.assertEqual(ok["failed"], 0)
        self.assertEqual(ok["metrics"]["ok_frac"]["value"], 1.0)

        with open(path) as f:
            lines = f.read().splitlines()
        i = next(k for k, line in enumerate(lines)
                 if line.startswith("mix16-morph 3 morph/mix:4 "))
        digest = lines[i].split()[-1]
        flipped = ("1" if digest[0] != "1" else "2") + digest[1:]
        lines[i] = lines[i][:-len(digest)] + flipped
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")

        bad = self.result(path, "mix16-morph", 0)
        self.assertFalse(bad["correct"])
        self.assertEqual(bad["failed"], 1)
        self.assertEqual(bad["attempted"], ok["attempted"])
        self.assertLess(bad["metrics"]["ok_frac"]["value"], 1.0)

    def test_metric_names_match_benchmark_json(self):
        wanted = {0: self.spec["end_to_end"], 1: self.spec["per_layer"]}
        for workload in run.WORKLOADS:
            path = self.pinned("digests-%s.txt" % workload, workload)
            for trace, metrics in wanted.items():
                with self.subTest(workload=workload, trace=trace):
                    got = self.result(path, workload, trace)
                    self.assertTrue(got["correct"])
                    self.assertEqual(
                        list(got["metrics"]),
                        [m["name"] for m in metrics])
                    for m in metrics:
                        self.assertEqual(
                            got["metrics"][m["name"]]["unit"], m["unit"])

    def test_benchmark_json_lists_the_workloads(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
