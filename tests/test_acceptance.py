"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines as they print).
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction

import pytest

from satnc import (
    CapacityPreset,
    FlowRequest,
    RouteAssignment,
    RoutePlan,
    assignment_plan,
    audit,
    check_feasible,
    classify_path,
    compile_formula,
    dumps_instance,
    emit_dimacs,
    inapprox_bound,
    load_instance,
    loads_instance,
    parse_dimacs,
    plain_instance,
    preload_plan,
    solve_exact,
    solve_greedy,
)
from satnc.cli import main
from satnc.harness import run_verification
from satnc.model import hops_load
from conftest import (
    A1,
    A2,
    BROKEN_PATH_RAW,
    FIXTURES,
    omitted_preloads,
    random_connected_network,
)
from oracles import naive_best_accept, pipelined_frame_load


def _report(criterion: int, label: str) -> None:
    print(f"criterion {criterion}: PASS — {label}")


@pytest.fixture(scope="module")
def trial_report():
    # Shared 200-trial run for criteria 3, 4 and 5.
    return run_verification(var_count=4, clause_count=3, k=3, trials=200, seed=1)


def test_criterion_1_worked_example_fixture(worked_instance):
    started = time.perf_counter()
    counts = worked_instance.subset_counts()
    assert counts["V1"] == 6
    assert counts["V2"] == 12
    assert counts["V3"] == 24
    assert counts["V4"] == 3
    assert counts["V5"] == 6

    path = assignment_plan(worked_instance, A1).assignments[-1].path
    names = [worked_instance.paper_name(v) or v for v in path]
    seg1 = names[names.index("n_1^1") : names.index("n_4^1") + 1]
    seg2 = names[names.index("n_1^2") : names.index("n_4^2") + 1]
    seg3 = names[names.index("n_1^3") : names.index("n_4^3") + 1]
    assert seg1 == ["n_1^1", "n_5^1", "n_6^1", "n_9^1", "n_12^1", "n_13^1", "n_4^1"]
    assert seg2 == ["n_1^2", "n_8^2", "n_9^2", "n_10^2", "n_4^2"]
    assert seg3 == ["n_1^3", "n_14^3", "n_15^3", "n_16^3", "n_4^3"]

    plan = RoutePlan(
        preload_plan(worked_instance).assignments
        + (RouteAssignment(worked_instance.flows[-1], 0, path),)
    )
    verdict = check_feasible(worked_instance.network, plan)
    assert verdict.ok and not verdict.overloads

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(1, f"worked example reproduced in {elapsed:.3f}s")


def test_criterion_2_negative_fixture(worked_instance):
    started = time.perf_counter()
    # A2 falsifies clause 3 alone, so its plan leaves out preload 3 alone.
    plan = assignment_plan(worked_instance, A2)
    assert omitted_preloads(worked_instance, plan) == ["preload-3"]

    raw = BROKEN_PATH_RAW.split()
    path = tuple(worked_instance.resolve_node(n) for n in raw)
    result = classify_path(worked_instance, path)
    assert result.kind == "malformed"
    bad = tuple(worked_instance.paper_name(v) for v in result.defects[0].bad_hop)
    assert bad == ("n_4^2", "n_8^3")

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(2, f"negative fixtures classified in {elapsed:.3f}s")


def test_criterion_3_reduction_equivalence(trial_report):
    started = time.perf_counter()
    assert trial_report.trials == 200
    disagreements = [r for r in trial_report.records if not r.agree]
    assert disagreements == []
    assert trial_report.agreed == 200
    assert trial_report.audits_passed == 200
    for r in trial_report.records:
        expected = r.clause_count + 1 if r.satisfiable else r.clause_count
        assert r.nc_accepted == expected
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    _report(3, "200/200 trials agree, audits pass")


def test_criterion_4_max_correspondence(trial_report):
    # max_traversable is the admission optimum with the main flow required,
    # minus the main flow itself.
    mismatches = [r for r in trial_report.records if r.max_traversable != r.max_sat]
    assert mismatches == []
    assert trial_report.max_matches == 200 and trial_report.all_ok
    _report(
        4,
        "admission optimum with main required equals 1 + MAX-SAT on all 200 trials",
    )


def test_criterion_5_gadget_audit(trial_report, worked_formula):
    assert all(r.audit_ok for r in trial_report.records)

    relaxed_bypass = audit(compile_formula(worked_formula, CapacityPreset(bypass=5)))
    assert not relaxed_bypass.ok
    assert any("bypass not blocked" in f for f in relaxed_bypass.failures)

    relaxed_conflict = audit(
        compile_formula(worked_formula, CapacityPreset(conflict=2))
    )
    assert not relaxed_conflict.ok
    assert any(
        f.endswith(")") and "conflict not blocked" in f
        for f in relaxed_conflict.failures
    )
    assert any(
        "conflict through-route not blocked" in f for f in relaxed_conflict.failures
    )

    squeezed_literal = audit(compile_formula(worked_formula, CapacityPreset(literal=3)))
    assert any("intended segment overloads" in f for f in squeezed_literal.failures)
    _report(5, "audits pass on trials; perturbed capacities fail the named checks")


def test_criterion_6_bound_arithmetic():
    assert inapprox_bound(3) == Fraction(8, 7)
    assert inapprox_bound(2) == Fraction(4, 3)
    _report(6, "bound constants exact: 8/7 and 4/3")


def test_criterion_7_model_oracle():
    rng = random.Random(123)
    for _ in range(1000):
        net = random_connected_network(rng, rng.randint(2, 10), cap_range=(0, 9))
        trail = [rng.choice(net.nodes)]
        while rng.random() < 0.75:
            options = [w for w in sorted(net.adjacency(trail[-1])) if w not in trail]
            if not options:
                break
            trail.append(rng.choice(options))
        p = tuple(trail)
        loads = dict.fromkeys(net.nodes, 0) | hops_load(net, zip(p, p[1:]))
        assert loads == pipelined_frame_load(net.nodes, net.edges(), p)
    _report(7, "1000 random (graph, path) pairs match the pipelined simulation")


def test_criterion_8_solver_sanity():
    rng = random.Random(77)
    for index in range(100):
        net = random_connected_network(rng, rng.randint(4, 12), cap_range=(0, 4))
        demands = []
        for _ in range(rng.randint(1, 3)):
            s, t = rng.sample(net.nodes, 2)
            demands.append((s, t, 1))
        flows = tuple(
            FlowRequest(s, t, c, f"d{j}") for j, (s, t, c) in enumerate(demands)
        )
        inst = plain_instance(net, flows)
        exact = solve_exact(inst)
        greedy = solve_greedy(inst)
        oracle = naive_best_accept(net.nodes, net.edges(), dict(net.capacity), demands)
        assert exact.optimal, f"instance {index} not solved to optimality"
        assert exact.accepted_count == oracle, f"instance {index} off the oracle"
        assert greedy.accepted_count <= exact.accepted_count

    gap = load_instance(FIXTURES / "greedy_gap.json")
    assert solve_greedy(gap).accepted_count == 1
    assert solve_exact(gap).accepted_count == 3
    _report(8, "100 instances match the exhaustive enumerator; gap fixture strict")


def test_criterion_9_formats(worked_instance, capsys):
    # DIMACS round-trip on the shipped CNF fixture
    text = (FIXTURES / "worked_example.cnf").read_text()
    formula = parse_dimacs(text)
    assert parse_dimacs(emit_dimacs(formula)) == formula

    # instance JSON round-trips, compiled and plain
    assert loads_instance(dumps_instance(worked_instance)) == worked_instance
    gap = load_instance(FIXTURES / "greedy_gap.json")
    assert loads_instance(dumps_instance(gap)) == gap
    assert (FIXTURES / "greedy_gap.json").read_text() == dumps_instance(gap)

    # byte-identical verification reports for a fixed seed
    args = [
        "verify", "--vars", "4", "--clauses", "3", "--k", "3",
        "--trials", "12", "--seed", "9", "--json",
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second and json.loads(first)["ok"] is True
    _report(9, "round-trips are identity; verification output byte-stable")
