#!/usr/bin/env python3
"""Benchmark for satnc: seeded verify trials and a large compile/audit pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload verify-sat --seed 1 --seconds 25 --trace 0

The program under test is imported from ``src/`` next to this directory; the
benchmark itself uses only the standard library, one process and one thread.

Workloads (parameters in ``WORKLOADS``; reasons in BENCHMARK.json):

* ``verify-sat``    one op is ``run_verification(4, 3, 3, trials=1, seed=s)``.
* ``verify-unsat``  the same at (3, 7, 2), keeping only seeds whose formula is
  unsatisfiable, so every op is a proof that no main-flow route exists.
* ``verify-wide``   the same at (12, 3, 3): the harness's 2^n assignment walk.
* ``compile-large`` one op compiles a planted-satisfiable (20, 75, 3) formula
  through ``satnc compile --dot``, audits the loaded instance, and checks the
  planted assignment (must be feasible, exit 0) and a route crossing clause 1
  over its bypass (must overload B1, exit 1).

``--trace 0`` runs a closed loop (one client, next op after the previous one
returns) for ``--seconds`` and reports the end-to-end metrics.  On a shared
2-vCPU virtual machine the speed of fixed work drifted by a third and more
within a minute, so after every op the loop also times a fixed stdlib
calibration item for a tenth of the op's time, and the gated throughput and
latency are stated in reference seconds (see ``ref_scale``); the wall-clock
figures are printed in the header.  ``--trace 1``
runs a fixed list of ops once untraced and once with span-recording wrappers
installed on the module attributes the program's callers look up, and reports
per-layer metrics as per-op means over the traced pass.  Spans are kept in
memory and written to ``perfbench/out/spans-<workload>.jsonl.gz`` at the end.

Every op is checked against references computed here, outside the timed
region: brute-force SAT/MAX-SAT on each trial's regenerated formula, and the
planted assignment plus expected verdicts and exit codes for compile-large.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a header
(machine, run parameters, sample counts) and one line per metric.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import importlib
import io
import itertools
import json
import os
import platform
import random
import resource
import statistics
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

MODULES = ("cnf", "model", "gadget", "solver", "instance_io", "harness", "cli")
SETUP_REPEATS = 9
# Inputs per block of a verify workload's input mix (see Workload.strata).
# Peak RSS is read after this many ops, so it does not grow with the number
# of ops that fit in --seconds.
BLOCK = 40
# A percentile is reported only with at least ten samples beyond it.
P90_MIN_SAMPLES = 100
# The traced pass runs slower than the untraced one; both share --seconds.
TRACE_SLOWDOWN = 1.3
# After each timed op the loop runs calibration items for this share of the
# op's latency (at least one item).  One reference second is the time
# REF_ITEMS calibration items take on the same machine in the same run.
CAL_SHARE = 0.1
CAL_SIZE = 2000
REF_ITEMS = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "verify" or "compile"
    n: int
    m: int
    k: int
    unsat_only: bool
    # Ops per second at the parent commit on a 2-core machine.  It sizes the
    # inputs generated during set-up and the traced run's fixed op list; the
    # end-to-end loop itself is bounded by --seconds only.
    rate: float
    # The input mix of a verify workload: (lowest, highest conflict-pair
    # count, slots in a block of BLOCK inputs).  Op cost falls steeply with
    # the number of conflict pairs, so each block holds every count in the
    # share it has among 20,000 formulas drawn the way the workload draws
    # them, and only the formulas within a count vary with the seed.
    strata: tuple[tuple[int, int, int], ...] = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-sat", "verify", 4, 3, 3, False, 16.0,
            ((0, 0, 1), (1, 1, 2), (2, 2, 7), (3, 3, 9), (4, 4, 12), (5, 5, 8), (6, 99, 1)),
        ),
        Workload(
            "verify-unsat", "verify", 3, 7, 2, True, 5.0,
            ((0, 13, 1), (14, 14, 3), (15, 15, 8), (16, 16, 13), (17, 17, 8),
             (18, 18, 4), (19, 19, 2), (20, 99, 1)),
        ),
        Workload(
            "verify-wide", "verify", 12, 3, 3, False, 3.0,
            ((0, 0, 12), (1, 1, 15), (2, 2, 10), (3, 99, 3)),
        ),
        Workload("compile-large", "compile", 20, 75, 3, False, 2.0),
    )
}


# ---------------------------------------------------------------- references


def random_clauses(n: int, m: int, k: int, seed: int) -> tuple[tuple[int, ...], ...]:
    """The formula a verify trial with this trial seed solves.

    Mirrors the documented input generator: m clauses of k distinct
    variables with uniform polarities, all drawn from ``random.Random(seed)``.
    """
    rng = random.Random(seed)
    clauses = []
    for _ in range(m):
        variables = rng.sample(range(1, n + 1), k)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
    return tuple(clauses)


def max_satisfied(n: int, clauses) -> int:
    """Brute-force MAX-SAT optimum; the formula is satisfiable iff it equals m."""
    masks = []
    for clause in clauses:
        pos = neg = 0
        for lit in clause:
            if lit > 0:
                pos |= 1 << (lit - 1)
            else:
                neg |= 1 << (-lit - 1)
        masks.append((pos, neg))
    full = (1 << n) - 1
    best = 0
    for bits in range(1 << n):
        off = full ^ bits
        count = sum(1 for pos, neg in masks if bits & pos or off & neg)
        if count > best:
            best = count
            if best == len(masks):
                break
    return best


def conflict_pairs(clauses) -> int:
    """Cross-clause complementary occurrence pairs: the gadget's conflict nodes.

    Counted here rather than by satnc, so the input mix cannot change with
    the program under test.
    """
    pos: dict[int, list[int]] = {}
    neg: dict[int, list[int]] = {}
    for i, clause in enumerate(clauses):
        for lit in clause:
            (pos if lit > 0 else neg).setdefault(abs(lit), []).append(i)
    return sum(1 for v, ps in pos.items() for p in ps for q in neg.get(v, ()) if p != q)


# ------------------------------------------------------------------- inputs


@dataclass(frozen=True)
class VerifyInput:
    run_seed: int  # the seed passed to run_verification
    trial_seed: int  # the seed its single trial derives from run_seed
    clauses: tuple[tuple[int, ...], ...]


def trial_seed_of(run_seed: int) -> int:
    # run_verification draws one 32-bit trial seed per trial from Random(seed).
    return random.Random(run_seed).randrange(2**32)


def formula_stream(w: Workload, seed: int):
    """Every input of the workload's population, in seed order."""
    rng = random.Random(seed)
    while True:
        run_seed = rng.randrange(2**32)
        trial_seed = trial_seed_of(run_seed)
        clauses = random_clauses(w.n, w.m, w.k, trial_seed)
        if w.unsat_only and max_satisfied(w.n, clauses) == w.m:
            continue
        yield VerifyInput(run_seed, trial_seed, clauses)


def block_order(strata) -> list[int]:
    """Stratum of each slot in a block, each stratum spread evenly over it."""
    keys = sorted(
        ((j + 0.5) / slots, s) for s, (_, _, slots) in enumerate(strata) for j in range(slots)
    )
    return [s for _, s in keys]


def verify_inputs(w: Workload, seed: int):
    stream = formula_stream(w, seed)
    for s in itertools.cycle(block_order(w.strata)):
        lo, hi, _ = w.strata[s]
        yield next(inp for inp in stream if lo <= conflict_pairs(inp.clauses) <= hi)


@dataclass(frozen=True)
class CompileInput:
    clauses: tuple[tuple[int, ...], ...]
    planted: tuple[bool, ...]  # value of variable v at index v - 1
    cnf_path: Path


def planted_clauses(rng: random.Random, n: int, m: int, k: int, planted):
    clauses = []
    for _ in range(m):
        lits = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), k)]
        if not any(planted[abs(lit) - 1] == (lit > 0) for lit in lits):
            j = rng.randrange(k)
            lits[j] = -lits[j]
        clauses.append(tuple(lits))
    return tuple(clauses)


def write_cnf(path: Path, n: int, clauses) -> None:
    lines = [f"p cnf {n} {len(clauses)}"]
    lines += [" ".join(map(str, c)) + " 0" for c in clauses]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def compile_inputs(n: int, m: int, k: int, seed: int, workdir: Path):
    rng = random.Random(seed)
    for index in itertools.count():
        planted = tuple(rng.random() < 0.5 for _ in range(n))
        clauses = planted_clauses(rng, n, m, k, planted)
        path = workdir / f"input-{index}.cnf"
        write_cnf(path, n, clauses)
        yield CompileInput(clauses, planted, path)


def bypass_route(inp: CompileInput) -> list[str]:
    """Main-flow route over clause 1's bypass, then planted literals onward."""
    route = ["E1", "B1", "X1"]
    for i, clause in enumerate(inp.clauses[1:], 2):
        j = next(
            j for j, lit in enumerate(clause, 1) if inp.planted[abs(lit) - 1] == (lit > 0)
        )
        route += [f"E{i}", f"P{i}.{j}", f"L{i}.{j}", f"Q{i}.{j}", f"X{i}"]
    return route + ["T"]


# ---------------------------------------------------------------------- ops


class Lib:
    """The satnc modules, imported from this checkout's src/."""

    def __init__(self) -> None:
        for name in [n for n in sys.modules if n == "satnc" or n.startswith("satnc.")]:
            del sys.modules[name]
        self.modules = {
            name: importlib.import_module(f"satnc.{name}") for name in MODULES
        }
        origin = Path(self.modules["cli"].__file__).resolve()
        if SRC.resolve() not in origin.parents:
            raise ImportError(f"satnc imported from {origin}, not from {SRC}")
        self.__dict__.update(self.modules)


def verify_op(lib: Lib, w: Workload, inp: VerifyInput):
    # Looked up at call time, so the traced run sees its wrapper.
    return lib.harness.run_verification(w.n, w.m, w.k, trials=1, seed=inp.run_seed)


@dataclass(frozen=True)
class CompileOutcome:
    compile_rc: int
    audit_ok: bool
    assignment_rc: int
    assignment_out: str
    path_rc: int
    path_out: str
    json_bytes: int


def run_cli(lib: Lib, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = lib.cli.main(argv)
    return rc, out.getvalue()


def compile_op(lib: Lib, inp: CompileInput, workdir: Path) -> CompileOutcome:
    inst_path = str(workdir / "instance.json")
    compile_rc, _ = run_cli(
        lib,
        ["compile", "--cnf", str(inp.cnf_path), "--out", inst_path,
         "--dot", str(workdir / "instance.dot")],
    )
    inst = lib.instance_io.load_instance(inst_path)
    audit_ok = lib.gadget.audit(inst).ok
    literals = " ".join(str(v if b else -v) for v, b in enumerate(inp.planted, 1))
    assignment_rc, assignment_out = run_cli(
        lib, ["check", "--instance", inst_path, "--assignment", literals, "--json"]
    )
    path_rc, path_out = run_cli(
        lib,
        ["check", "--instance", inst_path, "--path", ",".join(bypass_route(inp)), "--json"],
    )
    return CompileOutcome(
        compile_rc, audit_ok, assignment_rc, assignment_out, path_rc, path_out,
        os.path.getsize(inst_path),
    )


# ------------------------------------------------------------------- checks


def check_verify(w: Workload, inp: VerifyInput, report, max_sat_ref: int) -> list[str]:
    """Disagreements between one verify op and the benchmark's own reference."""
    records = getattr(report, "records", ())
    if len(records) != 1:
        return [f"expected 1 trial record, got {len(records)}"]
    r = records[0]
    sat_ref = max_sat_ref == w.m
    problems = []
    if r.seed != inp.trial_seed:
        problems.append(f"trial seed {r.seed} != {inp.trial_seed}")
    if r.satisfiable != sat_ref:
        problems.append(f"satisfiable={r.satisfiable}, reference {sat_ref}")
    if r.solver_optimal and (r.nc_accepted == w.m + 1) != sat_ref:
        problems.append(f"nc_accepted={r.nc_accepted} but satisfiable={sat_ref}")
    if not r.audit_ok:
        problems.append("gadget audit failed")
    if r.max_sat != max_sat_ref:
        problems.append(f"max_sat={r.max_sat}, reference {max_sat_ref}")
    if r.max_traversable != max_sat_ref:
        problems.append(f"max_traversable={r.max_traversable}, reference {max_sat_ref}")
    return problems


def _verdict(text: str) -> dict:
    try:
        data = json.loads(text)
    except ValueError:
        return {}
    return data if isinstance(data, dict) else {}


def check_compile(inp: CompileInput, out: CompileOutcome) -> list[str]:
    """Disagreements between one compile-large op and its planted answer."""
    problems = []
    if out.compile_rc != 0:
        problems.append(f"compile exited {out.compile_rc}")
    if not out.audit_ok:
        problems.append("gadget audit failed")
    verdict = _verdict(out.assignment_out)
    if out.assignment_rc != 0 or verdict.get("verdict") != "feasible":
        problems.append(
            f"planted assignment: exit {out.assignment_rc}, {verdict.get('verdict')}"
        )
    verdict = _verdict(out.path_out)
    overloaded = {o[0] for o in verdict.get("overloads", ())}
    if out.path_rc != 1 or verdict.get("verdict") != "overloaded" or "B1" not in overloaded:
        problems.append(
            f"bypass route: exit {out.path_rc}, {verdict.get('verdict')}, "
            f"overloads {sorted(overloaded)}"
        )
    return problems


# ------------------------------------------------------------------ runner


class Run:
    """One workload's inputs and ops over a set-up library."""

    def __init__(self, w: Workload, seed: int, workdir: Path, prefetch: int):
        self.w = w
        self.workdir = workdir
        self.lib = Lib()
        if w.kind == "verify":
            stream = verify_inputs(w, seed)
        else:
            stream = compile_inputs(w.n, w.m, w.k, seed, workdir)
        self.inputs = list(itertools.islice(stream, prefetch))
        self.stream = stream
        self._warm_up(seed)

    def _warm_up(self, seed: int) -> None:
        # A small op of the same kind, so first-call costs stay out of timing.
        if self.w.kind == "verify":
            self.lib.harness.run_verification(3, 2, 2, trials=1, seed=seed)
        else:
            small = next(compile_inputs(4, 4, 3, seed, self.workdir / "warm"))
            compile_op(self.lib, small, self.workdir / "warm")

    def all_inputs(self):
        return itertools.chain(self.inputs, self.stream)

    def op(self, inp):
        if self.w.kind == "verify":
            return verify_op(self.lib, self.w, inp)
        return compile_op(self.lib, inp, self.workdir)

    def judge(self, inp, result) -> tuple[list[str], bool]:
        """(problems, undecided) for one op's result or raised exception."""
        if isinstance(result, Exception):
            return [f"raised {result!r}"], False
        if self.w.kind == "verify":
            ref = max_satisfied(self.w.n, inp.clauses)
            undecided = not all(r.solver_optimal for r in result.records)
            return check_verify(self.w, inp, result, ref), undecided
        return check_compile(inp, result), False


# ------------------------------------------------------------- calibration


def _mix(a: int, b: int) -> int:
    return (a * 31 + b) & 1023


def calibration_item() -> int:
    """Fixed interpreter work of the solver's kind: tuple-keyed dict, small
    lists, calls and int arithmetic.  About 1 ms on a 2.1 GHz Xeon vCPU."""
    table = {}
    for i in range(CAL_SIZE):
        table[(i, i % 7)] = [i, i + 1]
    total = 0
    for (a, b), v in table.items():
        total += _mix(a, b) + len(v)
    return total


def calibrate(budget: float) -> list[float]:
    """Time calibration items for ``budget`` seconds (at least one item).

    The collector is off meanwhile, so the items' cost does not depend on
    how much memory the program under test keeps alive.
    """
    times = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        end = time.perf_counter() + budget
        while not times or time.perf_counter() < end:
            t0 = time.perf_counter()
            calibration_item()
            times.append(time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return times


def ref_scale(cal_times: list[float]) -> float:
    """Reference seconds per wall second in this run.

    Calibration items ran interleaved with the ops, a fixed share of each
    op's time, so their mean time follows the host's speed over the same
    stretch of the run as the ops.  A wall time multiplied by this scale
    reads the same on a fast or a slowed-down host, while a change that
    makes an op cheaper lowers its reference time and leaves the scale alone.
    """
    return 1 / (REF_ITEMS * statistics.fmean(cal_times))


def timed_ops(op, inputs, deadline: float | None, cal_times: list[float] | None = None):
    """Run ops one after another; returns (inputs, results, latencies, peak
    RSS in MB after each op).

    Only the op call is timed: input generation, the collection after each
    op and the calibration items (appended to ``cal_times`` when it is
    given) stay outside every latency and throughput figure.
    """
    used, results, latencies, peaks = [], [], [], []
    for inp in inputs:
        if deadline is not None and used and time.perf_counter() >= deadline:
            break
        t0 = time.perf_counter()
        try:
            result = op(inp)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            result = exc
        latencies.append(time.perf_counter() - t0)
        used.append(inp)
        results.append(result)
        # The solver's path lists sit in reference cycles; collecting after
        # every op makes peak RSS the largest op's live memory instead of
        # depending on when the cyclic collector happened to run.
        gc.collect()
        peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        if cal_times is not None:
            cal_times += calibrate(CAL_SHARE * latencies[-1])
    return used, results, latencies, peaks


def judge_all(run: Run, used, results) -> tuple[list[str], int, int]:
    problems, failed, undecided = [], 0, 0
    for index, (inp, result) in enumerate(zip(used, results)):
        try:
            found, unsure = run.judge(inp, result)
        except Exception as exc:  # output the checks cannot read is wrong output
            found, unsure = [f"check raised {exc!r}"], False
        failed += bool(found)
        undecided += unsure
        problems += [f"op {index}: {p}" for p in found]
    return problems, failed, undecided


def set_up(w: Workload, seed: int, workdir: Path, prefetch: int) -> tuple[Run, list[float]]:
    """Import, generate inputs and warm up SETUP_REPEATS times; keep the last."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        run = Run(w, seed, workdir, prefetch)
        times.append(time.perf_counter() - t0)
    return run, times


# ------------------------------------------------------------------ tracing


def _count_solve(counts: Counter, result) -> None:
    counts["solver.bnb_nodes"] += getattr(result, "nodes_explored", 0)
    counts["solver.truncations"] += len(getattr(result, "warnings", ()))
    counts["solver.accepted_copies"] += getattr(result, "accepted_count", 0)


def _count_paths(counts: Counter, result) -> None:
    counts["solver.candidate_paths"] += len(result[0])


def _count_instance(counts: Counter, result) -> None:
    counts["gadget.instance_nodes"] += len(result.network.nodes)
    counts["gadget.instance_edges"] += len(result.network.edges())
    counts["gadget.conflict_pairs"] += len(result.conflicts)


# (module, attribute, span name, result counter).  Each entry is the name a
# caller looks up at call time, so wrapping it there records the call.
TRACE_POINTS = (
    ("harness", "run_verification", "harness.run_verification", None),
    ("harness", "random_formula", "cnf.random_formula", None),
    ("harness", "compile_formula", "gadget.compile", _count_instance),
    ("harness", "audit", "gadget.audit", None),
    ("harness", "brute_sat", "cnf.brute_sat", None),
    ("harness", "solve_exact", "solver.solve_exact", _count_solve),
    ("harness", "max_sat_brute", "cnf.max_sat", None),
    ("harness", "traversable_clauses", "gadget.traversable", None),
    ("solver", "enum_paths", "solver.enum_paths", _count_paths),
    ("gadget", "hops_load", "model.hops_load", None),
    ("model", "hops_load", "model.hops_load", None),
    ("gadget", "audit", "gadget.audit", None),
    ("cli", "main", "cli.main", None),
    ("cli", "parse_dimacs", "cnf.parse", None),
    ("instance_io", "parse_dimacs", "cnf.parse", None),
    ("cli", "compile_formula", "gadget.compile", _count_instance),
    ("cli", "save_instance", "instance_io.save", None),
    ("cli", "load_instance", "instance_io.load", None),
    ("instance_io", "load_instance", "instance_io.load", None),
    ("cli", "to_dot", "instance_io.dot", None),
    ("cli", "check_feasible", "model.check_feasible", None),
)


class Tracer:
    """Span recorder installed from outside the program under test."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn, count):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.op])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if count is not None:
                try:
                    count(counts, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # a result of another shape: its counters read zero
            return result

        return traced

    def install(self, lib: Lib) -> None:
        for module_name, attr, name, count in TRACE_POINTS:
            module = lib.modules[module_name]
            fn = getattr(module, attr, None)
            if fn is None:  # removed by a later change: its metrics read zero
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn, count))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def wrap_ops(self, op):
        """``op`` as a root span, numbering the ops it runs from 0."""
        traced = self.wrap("bench.op", op, None)

        def numbered(inp):
            self.op += 1
            return traced(inp)

        return numbered

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: total time, self time (minus direct children), calls."""
        total, child, calls = Counter(), Counter(), Counter()
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        self_time = Counter()
        for index, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name] += end - start - child[index]
        return total, self_time, calls

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# Per-layer metrics of the traced run: (metric, unit, source, key).  Sources:
# "total"/"self"/"calls" of a span name, or a result "count" (see _count_*).
# Values are per op of the traced pass, except the two ratios.
LAYER_METRICS = (
    ("solver.solve_exact_s", "s/op", "total", "solver.solve_exact"),
    ("solver.enum_paths_s", "s/op", "total", "solver.enum_paths"),
    ("solver.enum_paths_calls", "count/op", "calls", "solver.enum_paths"),
    ("solver.candidate_paths", "count/op", "count", "solver.candidate_paths"),
    ("solver.bnb_self_s", "s/op", "self", "solver.solve_exact"),
    ("solver.bnb_nodes", "count/op", "count", "solver.bnb_nodes"),
    ("solver.paths_used_ratio", "ratio", "ratio", None),
    ("solver.truncations", "count/op", "count", "solver.truncations"),
    ("gadget.traversable_s", "s/op", "total", "gadget.traversable"),
    ("gadget.traversable_calls", "count/op", "calls", "gadget.traversable"),
    ("cnf.brute_sat_s", "s/op", "total", "cnf.brute_sat"),
    ("cnf.max_sat_s", "s/op", "total", "cnf.max_sat"),
    ("gadget.audit_s", "s/op", "total", "gadget.audit"),
    ("model.hops_load_s", "s/op", "total", "model.hops_load"),
    ("model.hops_load_calls", "count/op", "calls", "model.hops_load"),
    ("gadget.compile_s", "s/op", "total", "gadget.compile"),
    ("cnf.parse_s", "s/op", "total", "cnf.parse"),
    ("instance_io.save_s", "s/op", "total", "instance_io.save"),
    ("instance_io.load_s", "s/op", "total", "instance_io.load"),
    ("instance_io.dot_s", "s/op", "total", "instance_io.dot"),
    ("model.check_feasible_s", "s/op", "total", "model.check_feasible"),
    ("cli.self_s", "s/op", "self", "cli.main"),
    ("gadget.instance_nodes", "count/op", "count", "gadget.instance_nodes"),
    ("gadget.instance_edges", "count/op", "count", "gadget.instance_edges"),
    ("gadget.conflict_pairs", "count/op", "count", "gadget.conflict_pairs"),
    ("instance_io.json_bytes", "bytes/op", "count", "instance_io.json_bytes"),
    ("harness.self_s", "s/op", "self", "harness.run_verification"),
    ("cnf.random_formula_s", "s/op", "total", "cnf.random_formula"),
    ("harness.run_verification_s", "s/op", "total", "harness.run_verification"),
    ("cli.main_s", "s/op", "total", "cli.main"),
    ("trace.overhead_ratio", "ratio", "ratio", None),
)


def layer_values(tracer: Tracer, ops: int, untraced_s: float, traced_s: float) -> dict:
    total, self_time, calls = tracer.totals()
    sources = {"total": total, "self": self_time, "calls": calls, "count": tracer.counts}
    values = {
        metric: sources[source][key] / ops
        for metric, _, source, key in LAYER_METRICS
        if source != "ratio"
    }
    candidates = tracer.counts["solver.candidate_paths"]
    values["solver.paths_used_ratio"] = (
        tracer.counts["solver.accepted_copies"] / candidates if candidates else 0.0
    )
    values["trace.overhead_ratio"] = traced_s / untraced_s
    return {metric: values[metric] for metric, *_ in LAYER_METRICS}


# -------------------------------------------------------------------- main


def header(w: Workload, args) -> None:
    print("satnc benchmark")
    print(
        f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
        f"implementation={platform.python_implementation()}"
    )
    print(
        f"run: workload={w.name} kind={w.kind} n={w.n} m={w.m} k={w.k} "
        f"unsat_only={w.unsat_only} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace}"
    )


def emit(metrics: dict, units: dict, correct: bool, attempted: int, failed: int) -> None:
    for name, value in metrics.items():
        print(f"metric {name} = {value!r} {units[name]}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )


def report_problems(problems: list[str]) -> None:
    for line in problems[:10]:
        print(f"problem: {line}")
    if len(problems) > 10:
        print(f"problem: ... {len(problems) - 10} more")


def run_end_to_end(w: Workload, args, workdir: Path) -> None:
    # Set-up generates up to one block of inputs; the loop draws the rest.
    prefetch = max(1, min(BLOCK, round(w.rate * args.seconds)))
    run, setup_times = set_up(w, args.seed, workdir, prefetch)
    cal_times: list[float] = []
    used, results, latencies, peaks = timed_ops(
        run.op, run.all_inputs(), time.perf_counter() + args.seconds, cal_times
    )
    problems, failed, undecided = judge_all(run, used, results)
    ops = len(used)
    peak_ops = min(ops, BLOCK)
    scale = ref_scale(cal_times)
    print(f"setup: repeats={SETUP_REPEATS} seconds={[round(t, 4) for t in setup_times]}")
    print(
        f"wall clock: ops_per_s={ops / sum(latencies)!r} 1/s "
        f"op_p50_s={statistics.median(latencies)!r} s"
    )
    print(
        f"calibration: items={len(cal_times)} mean={statistics.fmean(cal_times)!r} s "
        f"ref_s per wall s={scale!r}"
    )
    print(f"peak_rss_mb: after set-up and {peak_ops} ops; {peaks[-1]!r} MB after all {ops}")
    print(f"samples: op_p50_ref_s n={ops}; op_p90_ref_s n={ops}", end="")
    if ops >= P90_MIN_SAMPLES:
        p90 = statistics.quantiles(latencies, n=10)[-1]
        print(f" value={p90 * scale!r} ref_s ({p90!r} s wall)")
    else:
        print(f" not reported (fewer than {P90_MIN_SAMPLES} ops)")
    print(f"failed_ratio = {failed / ops!r} ratio; undecided_ratio = {undecided / ops!r} ratio")
    report_problems(problems)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_ref_s": ops / (sum(latencies) * scale),
        "op_p50_ref_s": statistics.median(latencies) * scale,
        "ok_ratio": 1 - failed / ops,
        "certified_ratio": 1 - undecided / ops,
        "peak_rss_mb": peaks[peak_ops - 1],
    }
    units = {
        "setup_s": "s", "ops_per_ref_s": "1/ref_s", "op_p50_ref_s": "ref_s", "ok_ratio": "ratio",
        "certified_ratio": "ratio", "peak_rss_mb": "MB",
    }
    emit(metrics, units, failed == 0, ops, failed)


def trace_ops(w: Workload, seconds: int) -> int:
    return max(1, round(w.rate * seconds / (1 + TRACE_SLOWDOWN)))


def run_traced(w: Workload, args, workdir: Path) -> None:
    ops = trace_ops(w, args.seconds)
    run, _ = set_up(w, args.seed, workdir, ops)
    inputs = run.inputs
    _, plain_results, untraced, _ = timed_ops(run.op, inputs, None)
    tracer = Tracer()
    tracer.install(run.lib)
    try:
        _, traced_results, traced, _ = timed_ops(tracer.wrap_ops(run.op), inputs, None)
    finally:
        tracer.uninstall()
    problems, failed, undecided = judge_all(run, inputs + inputs, plain_results + traced_results)
    print(f"samples: ops={ops} (untraced pass, then traced pass); spans={len(tracer.spans)}")
    print(f"undecided ops: {undecided}")
    report_problems(problems)
    for result in traced_results:
        tracer.counts["instance_io.json_bytes"] += getattr(result, "json_bytes", 0)
    metrics = layer_values(tracer, ops, sum(untraced), sum(traced))
    tracer.write(OUT / f"spans-{w.name}.jsonl.gz")
    units = {metric: unit for metric, unit, *_ in LAYER_METRICS}
    emit(metrics, units, failed == 0, 2 * ops, failed)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    w = WORKLOADS[args.workload]
    if not (SRC / "satnc" / "__init__.py").is_file():
        print(f"error: no satnc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    header(w, args)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{w.name}-", dir=OUT) as tmp:
        workdir = Path(tmp)
        (workdir / "warm").mkdir()
        if args.trace:
            run_traced(w, args, workdir)
        else:
            run_end_to_end(w, args, workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
