#!/usr/bin/env python3
"""The flow benchmark's own test.

    python3 flowbench/test_flowbench.py [-v]

Checks, with short runs of flowbench/run.py:
  - the simulated-statistics fingerprint is identical across two runs of
    one seed, between traced and untraced runs, and for fabric at one
    worker thread (the default) versus four;
  - a corrupted reference (transcript, VCD, expected grant digest or
    expected state digest) fails every job: failed_frac rises to 1 and the command exits non-zero;
  - the development and held-out seeds of seeds.json pass every gate;
  - in a directory holding only BENCHMARK.json and flowbench/, the
    command exits non-zero without printing a result.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("ladder", "equiv", "lt", "fabric")
SHORT_S = "0.5"  # every run still makes at least 24 jobs


def run(workload, seed=1, trace=0, extra=(), root=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "flowbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", SHORT_S,
         "--trace", str(trace), *extra],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    record = next((json.loads(l) for l in lines
                   if l.startswith('{"record"')), None)
    result = json.loads(lines[-1]) if lines and "correct" in lines[-1] else None
    return proc.returncode, record, result


class Fingerprint(unittest.TestCase):
    def test_repeatable_and_unperturbed_by_tracing(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code1, rec1, _ = run(w, seed=5)
                code2, rec2, _ = run(w, seed=5)
                code3, rec3, _ = run(w, seed=5, trace=1)
                self.assertEqual((code1, code2, code3), (0, 0, 0))
                self.assertTrue(rec1["fingerprint"])
                self.assertEqual(rec1["fingerprint"], rec2["fingerprint"])
                self.assertEqual(rec1["fingerprint"], rec3["fingerprint"])

    def test_fabric_thread_count_invariant(self):
        code1, one, _ = run("fabric", seed=5)
        code2, many, _ = run("fabric", seed=5, extra=("--threads", "4"))
        self.assertEqual((code1, code2), (0, 0))
        self.assertEqual(one["fingerprint"], many["fingerprint"])

    def test_seed_changes_inputs(self):
        _, a, _ = run("lt", seed=5)
        _, b, _ = run("lt", seed=6)
        self.assertNotEqual(a["fingerprint"], b["fingerprint"])


class Gates(unittest.TestCase):
    def test_injected_fault_fails_every_job(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, rec, res = run(w, extra=("--inject-fault",))
                self.assertNotEqual(code, 0)
                self.assertEqual(rec["failed_frac"], 1)
                self.assertFalse(res["correct"])
                self.assertEqual(res["failed"], res["attempted"])

    def test_fixed_seeds_pass_every_gate(self):
        with open(os.path.join(ROOT, "flowbench", "seeds.json")) as f:
            seeds = json.load(f)
        for w in WORKLOADS:
            for name in ("development", "held_out"):
                with self.subTest(workload=w, seed=name):
                    code, rec, res = run(w, seed=seeds[name])
                    self.assertEqual(code, 0, rec and rec["first_failure"])
                    self.assertEqual(rec["failed_frac"], 0)
                    self.assertTrue(res["correct"])

    def test_fails_without_the_program_sources(self):
        build = os.path.join(ROOT, ".bench_build")
        os.makedirs(build, exist_ok=True)
        bare = tempfile.mkdtemp(prefix="bare-", dir=build)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "flowbench"),
                            os.path.join(bare, "flowbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, _, res = run("lt", root=bare)
            self.assertNotEqual(code, 0)
            self.assertIsNone(res)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
