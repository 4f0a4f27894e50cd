#!/usr/bin/env python3
"""The benchmark's own tests: every workload runs in a tiny mode, every
metric named in BENCHMARK.json is printed with its unit, an injected wrong
result lowers ok_frac and fails the command, the seed alone decides the
inputs, and a tree without the library sources fails without a result.

    python3 perfbench/test_perfbench.py
"""
import json
import pathlib
import shutil
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, *extra, seed=7, seconds="0.3"):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", seconds, "--trace", str(trace),
           "--tiny", *extra]
    res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, timeout=170)
    return res.returncode, json.loads(res.stdout.strip().split("\n")[-1])


class Metrics(unittest.TestCase):
    def check_names(self, got, defs):
        self.assertEqual(list(got), [d["name"] for d in defs])
        for d in defs:
            self.assertEqual(got[d["name"]]["unit"], d["unit"], d["name"])
            self.assertIsInstance(got[d["name"]]["value"], (int, float))

    def test_every_workload_prints_every_metric(self):
        names = [w["name"] for w in SPEC["workloads"]]
        self.assertLessEqual(set(names), set(run.WORKLOADS))
        for w in run.WORKLOADS:
            with self.subTest(workload=w, trace=0):
                rc, out = bench(w, 0)
                self.assertEqual(rc, 0)
                self.assertTrue(out["correct"])
                self.assertEqual(out["failed"], 0)
                self.assertGreaterEqual(out["attempted"], 1)
                self.check_names(out["metrics"], SPEC["end_to_end"])
                for d in SPEC["end_to_end"]:
                    self.assertGreater(out["metrics"][d["name"]]["value"], 0, d["name"])
            with self.subTest(workload=w, trace=1):
                rc, out = bench(w, 1)
                self.assertEqual(rc, 0)
                self.assertTrue(out["correct"])
                self.check_names(out["metrics"], SPEC["per_layer"])

    def test_injected_wrong_result_fails_the_command(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                rc, out = bench(w, 0, "--inject-wrong", "3")
                self.assertEqual(rc, 2)
                self.assertFalse(out["correct"])
                self.assertGreaterEqual(out["failed"], 1)
                self.assertLess(out["metrics"]["ok_frac"]["value"], 1.0)


class Inputs(unittest.TestCase):
    def inputs(self, seed):
        binary = run.build()
        self.assertIsNotNone(binary)
        res = subprocess.run([str(binary), "--print-inputs", "--seed", str(seed)],
                             stdout=subprocess.PIPE, text=True, check=True)
        return json.loads(res.stdout)

    def test_seed_decides_inputs(self):
        a, b, c = self.inputs(5), self.inputs(5), self.inputs(6)
        self.assertEqual(a, b)
        for key in a:
            self.assertNotEqual(a[key], c[key], key)


class Checkout(unittest.TestCase):
    def test_fails_without_library_sources(self):
        tmp = run.build_dir().parent / "test-bare-checkout"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            for p in SPEC["paths"]:
                shutil.copytree(ROOT / p, tmp / p,
                                ignore=shutil.ignore_patterns("__pycache__"))
            res = subprocess.run(SPEC["command"] + ["--workload", "fib-fine", "--seed", "1",
                                                    "--seconds", "1", "--trace", "0"],
                                 cwd=tmp, stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, text=True, timeout=170)
            self.assertNotEqual(res.returncode, 0)
            self.assertNotIn('"metrics"', res.stdout)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
