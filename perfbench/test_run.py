"""Tests of the benchmark itself: its checks can fail and its counters repeat.

Run from the repository root:

    python3 -m unittest perfbench/test_run.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
    )


def traced_counts(workload: str, seed: int) -> dict:
    proc = run_bench("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1")
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise AssertionError(proc.stdout)
    counted = {m for m, _, source, _ in bench.LAYER_METRICS if source in ("calls", "count")}
    counted.add("solver.paths_used_ratio")
    return {m: v["value"] for m, v in result["metrics"].items() if m in counted}


class CountersRepeat(unittest.TestCase):
    def test_two_traced_runs_give_identical_counts(self):
        for workload in ("verify-unsat", "compile-large"):
            with self.subTest(workload=workload):
                first = traced_counts(workload, 5)
                self.assertEqual(first, traced_counts(workload, 5))
                self.assertTrue(any(first.values()))


class ChecksCanFail(unittest.TestCase):
    def setUp(self):
        bench.OUT.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(dir=bench.OUT))
        self.addCleanup(shutil.rmtree, self.workdir)
        self.lib = bench.Lib()

    def test_wrong_reference_answer_is_reported(self):
        w = bench.WORKLOADS["verify-sat"]
        inp = next(bench.verify_inputs(w, 3))
        report = bench.verify_op(self.lib, w, inp)
        ref = bench.max_satisfied(w.n, inp.clauses)
        self.assertEqual(bench.check_verify(w, inp, report, ref), [])
        self.assertNotEqual(bench.check_verify(w, inp, report, ref - 1), [])
        wrong_seed = dataclasses.replace(inp, trial_seed=inp.trial_seed + 1)
        self.assertNotEqual(bench.check_verify(w, wrong_seed, report, ref), [])

    def test_wrong_verdict_or_exit_code_is_reported(self):
        inp = next(bench.compile_inputs(6, 8, 3, 3, self.workdir))
        outcome = bench.compile_op(self.lib, inp, self.workdir)
        self.assertEqual(bench.check_compile(inp, outcome), [])
        for change in (
            {"path_rc": 0},
            {"assignment_rc": 1},
            {"audit_ok": False},
            {"path_out": outcome.assignment_out},
        ):
            with self.subTest(change=change):
                broken = dataclasses.replace(outcome, **change)
                self.assertNotEqual(bench.check_compile(inp, broken), [])


class InputMix(unittest.TestCase):
    def test_strata_follow_population_shares(self):
        for w in bench.WORKLOADS.values():
            if not w.strata:
                continue
            with self.subTest(workload=w.name):
                self.assertEqual(sum(slots for *_, slots in w.strata), bench.BLOCK)
                stream = bench.formula_stream(w, 99)
                counts = [bench.conflict_pairs(next(stream).clauses) for _ in range(20000)]
                for lo, hi, slots in w.strata:
                    share = sum(lo <= c <= hi for c in counts) / len(counts)
                    self.assertLessEqual(abs(slots - bench.BLOCK * share), 1, (lo, hi))


class Calibration(unittest.TestCase):
    def test_reference_time_ignores_a_uniform_slowdown(self):
        cal, wall = [0.0008, 0.0012, 0.001], 2.5
        for slowdown in (1.0, 1.7):
            with self.subTest(slowdown=slowdown):
                scale = bench.ref_scale([t * slowdown for t in cal])
                self.assertAlmostEqual(wall * slowdown * scale, 2.5)

    def test_calibrate_times_an_item_and_restores_the_collector(self):
        for enabled in (True, False):
            with self.subTest(enabled=enabled):
                (bench.gc.enable if enabled else bench.gc.disable)()
                self.addCleanup(bench.gc.enable)
                times = bench.calibrate(0.0)
                self.assertEqual(len(times), 1)
                self.assertGreater(times[0], 0)
                self.assertEqual(bench.gc.isenabled(), enabled)


class RefusesWithoutProgram(unittest.TestCase):
    def test_exits_nonzero_without_a_result(self):
        bench.OUT.mkdir(exist_ok=True)
        tmp = Path(tempfile.mkdtemp(dir=bench.OUT))
        self.addCleanup(shutil.rmtree, tmp)
        (tmp / "perfbench").mkdir()
        shutil.copy(BENCH_DIR / "run.py", tmp / "perfbench" / "run.py")
        shutil.copy(ROOT / "BENCHMARK.json", tmp / "BENCHMARK.json")
        proc = run_bench("--workload", "verify-sat", "--seed", "1", "--seconds", "1", cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
