from __future__ import annotations

import importlib.metadata
import itertools
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10; pytest depends on tomli there
    import tomli as tomllib

import satnc
import satnc.harness
from satnc import (
    FlowRequest,
    Formula,
    Network,
    assignment_plan,
    audit,
    compile_formula,
    dumps_instance,
    eval_formula,
    instance_to_dict,
    load_instance,
    max_sat_brute,
    plain_instance,
    random_formula,
    save_instance,
)
from satnc.cli import build_parser, main
from conftest import BROKEN_PATH_RAW, FIXTURES, WORKED_CLAUSES

A1_LITERALS = "1 2 3 -4 -5 -6"
A2_LITERALS = "1 2 3 4 -5 -6"
# The main route A1_LITERALS induces on the worked example.
A1_ROUTE = "E1,P1.1,L1.1,L1.2,L1.3,Q1.3,X1,E2,P2.2,L2.2,Q2.2,X2,E3,P3.4,L3.4,Q3.4,X3,T"
# The same route by raw construction indices, as the README gives it.
A1_RAW_ROUTE = (
    "n_1^1,n_5^1,n_6^1,n_9^1,n_12^1,n_13^1,n_4^1,n_1^2,n_8^2,n_9^2,n_10^2,"
    "n_4^2,n_1^3,n_14^3,n_15^3,n_16^3,n_4^3,T"
)


@pytest.fixture()
def compiled(tmp_path):
    cnf = FIXTURES / "worked_example.cnf"
    out = tmp_path / "worked.json"
    code = main(["compile", "--cnf", str(cnf), "--out", str(out)])
    assert code == 0
    return out


class TestCompile:
    def test_node_and_edge_counts(self, compiled, capsys):
        inst = load_instance(compiled)
        assert len(inst.network.nodes) == 55  # 51 construction nodes + 4 auxiliary
        counts = inst.subset_counts()
        assert counts["V1"] == 6 and counts["V5"] == 6 and counts["aux"] == 4

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code = main(
            ["compile", "--cnf", str(tmp_path / "nope.cnf"), "--out", str(tmp_path / "x")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_dot_edge_lines(self, tmp_path):
        out = tmp_path / "i.json"
        dot = tmp_path / "i.dot"
        main(
            [
                "compile",
                "--cnf",
                str(FIXTURES / "worked_example.cnf"),
                "--out",
                str(out),
                "--dot",
                str(dot),
            ]
        )
        inst = load_instance(out)
        edge_lines = [l for l in dot.read_text().splitlines() if " -- " in l]
        assert len(edge_lines) == len(inst.network.edges())

    @pytest.mark.parametrize(
        ("caps", "stem"), [(None, "mid_formula"), ("v4=5,v5=2", "mid_formula_caps")]
    )
    def test_output_matches_golden_bytes(self, tmp_path, caps, stem):
        # 8 variables, 20 clauses of widths 1-4 with repeated and tautological
        # literals; the instance JSON and DOT drawing as written before the
        # compiler named each node once and the network kept one table per
        # node.  The JSON must also load and write back to the same bytes.
        out, dot = tmp_path / "i.json", tmp_path / "i.dot"
        argv = ["compile", "--cnf", str(FIXTURES / "mid_formula.cnf"),
                "--out", str(out), "--dot", str(dot)]
        assert main(argv + (["--caps", caps] if caps else [])) == 0
        golden = (FIXTURES / f"{stem}.json").read_bytes()
        assert out.read_bytes() == golden
        assert dot.read_bytes() == (FIXTURES / f"{stem}.dot").read_bytes()
        assert dumps_instance(load_instance(out)).encode() == golden

    def test_work_not_sized_by_header_variable_count(self, tmp_path, capsys):
        # One two-literal clause under a header declaring 10**8 variables: an
        # 11-node instance, compiled and audited in well under a second (a
        # walk over every declared variable took about 11 s).
        cnf, out = tmp_path / "wide.cnf", tmp_path / "wide.json"
        cnf.write_text("p cnf 100000000 1\n1 -2 0\n")
        started = time.perf_counter()
        assert main(["compile", "--cnf", str(cnf), "--out", str(out)]) == 0
        assert audit(load_instance(out)).ok
        assert time.perf_counter() - started < 3
        assert "11 nodes" in capsys.readouterr().out

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cnf"
        bad.write_text("p cnf 2 1\n3 0\n")
        code = main(["compile", "--cnf", str(bad), "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "line 2" in capsys.readouterr().err


class TestCheck:
    def test_good_assignment_feasible(self, compiled, capsys):
        code = main(
            ["check", "--instance", str(compiled), "--assignment", A1_LITERALS]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.endswith("\nverdict: feasible\n")

    def test_all_true_width_5_clause_feasible(self, tmp_path, capsys):
        # Its segment runs through all five literal nodes; L1.1 and L1.5 each
        # hear six transmitters, which the width's literal capacity holds.
        cnf, out = tmp_path / "w5.cnf", tmp_path / "w5.json"
        cnf.write_text("p cnf 5 1\n1 2 3 4 5 0\n")
        assert main(["compile", "--cnf", str(cnf), "--out", str(out)]) == 0
        capsys.readouterr()
        code = main(["check", "--instance", str(out), "--assignment", "1 2 3 4 5"])
        assert code == 0
        assert capsys.readouterr().out.endswith("\nverdict: feasible\n")

    def test_wrong_assignment_fails_clause_3(self, compiled, capsys):
        code = main(
            ["check", "--instance", str(compiled), "--assignment", A2_LITERALS]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "failure at clause 3" in out

    def test_broken_path_malformed(self, compiled, capsys):
        path_arg = ",".join(BROKEN_PATH_RAW.split())
        code = main(["check", "--instance", str(compiled), "--path", path_arg])
        out = capsys.readouterr().out
        assert code == 1
        assert "malformed" in out
        assert "n_4^2 -> n_8^3" in out

    @pytest.mark.parametrize("path", ["", "E1", "T", "E1,P1.1", "X1,E2", "T,X3"])
    def test_path_missing_an_endpoint_malformed(self, compiled, capsys, path):
        code = main(["check", "--instance", str(compiled), "--path", path, "--json"])
        assert code == 1
        assert json.loads(capsys.readouterr().out) == {
            "verdict": "malformed",
            "reason": "path does not run from 'E1' to 'T'",
        }

    def test_unknown_node_exit_2(self, compiled, capsys):
        code = main(["check", "--instance", str(compiled), "--path", "n_1^1,n_9^9"])
        assert code == 2

    def test_json_output(self, compiled, capsys):
        code = main(
            [
                "check",
                "--instance",
                str(compiled),
                "--assignment",
                A1_LITERALS,
                "--json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and payload["verdict"] == "feasible"

    @pytest.mark.parametrize(
        ("plan", "edges"),
        [
            (["--assignment", A1_LITERALS], [["A1", "B1"]]),
            (["--path", A1_ROUTE], [["A1", "B1"]]),
            (["--assignment", A1_LITERALS], [["E2", "X1"]]),
            (["--path", A1_ROUTE], [["E2", "X1"]]),
            (["--assignment", A1_LITERALS], [["A1", "B1"], ["E2", "X1"]]),
            (["--path", A1_ROUTE], [["A1", "B1"], ["E2", "X1"]]),
            (["--path", A1_RAW_ROUTE], [["A1", "B1"]]),
            (["--path", A1_RAW_ROUTE], [["E2", "X1"]]),
            (["--path", A1_RAW_ROUTE], [["A1", "B1"], ["E2", "X1"]]),
        ],
        ids=[
            "assignment",
            "path",
            "assignment-main-hop",
            "path-main-hop",
            "assignment-both",
            "path-both",
            "raw-path",
            "raw-path-main-hop",
            "raw-path-both",
        ],
    )
    def test_plan_over_a_removed_edge_malformed(self, compiled, capsys, plan, edges):
        # Preload 1's one-hop path A1 -> B1, or main's hop X1 -> E2, is no
        # path once its edge is gone: a defect of the plan, not an overload,
        # whether the plan comes from an assignment or from a main route that
        # assumes every preload.  Both modes name a preload's defect by its
        # flow label, and main's own bad hop as `bad_hop`, in text by paper
        # names; with both edges gone, main's own fault is named first.
        data = json.loads(compiled.read_text())
        for edge in edges:
            data["edges"].remove(edge)
        compiled.write_text(json.dumps(data))
        argv = ["check", "--instance", str(compiled), *plan]
        if ["E2", "X1"] not in edges:
            text = "preload-1: hop ('A1', 'B1') is not an edge"
            detail = {"reason": text}
        else:
            text = "hop n_4^1 -> n_1^2 is not an edge"
            reason = "hop ('X1', 'E2') is not an edge"
            detail = {"bad_hop": ["X1", "E2"], "reason": reason}
        assert main(argv) == 1
        assert capsys.readouterr().out.endswith(f"verdict: malformed ({text})\n")
        assert main([*argv, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        payload.pop("path", None)  # the assignment's route, in paper names
        assert payload == {"verdict": "malformed", **detail}

    def test_plain_instance_refused_alike_in_both_modes(self, tmp_path, capsys):
        # Without a formula there are no preloads to route and no clauses to
        # satisfy: both modes refuse the instance with one and the same line.
        net = Network("AB", [("A", "B")], {"A": 3, "B": 3})
        inst = tmp_path / "plain.json"
        save_instance(plain_instance(net, [FlowRequest("A", "B", 1, "x")]), inst)
        errors = []
        for plan in (["--assignment", "1"], ["--path", "A,B"]):
            code = main(["check", "--instance", str(inst), *plan])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            errors.append(captured.err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("error: ") and errors[0].count("\n") == 1
        assert "--path" not in errors[0]

    @pytest.mark.parametrize(
        ("kind", "keys"),
        [
            ("feasible", {"verdict", "overloads"}),
            ("overloaded", {"verdict", "overloads"}),
            ("malformed", {"verdict", "bad_hop", "reason"}),
        ],
    )
    def test_json_verdict_one_shape_in_both_modes(self, tmp_path, kind, keys, capsys):
        # A1's plan is its route plus every preload, the plan `--path`
        # assumes: both modes print one payload for it, `path` aside, and so
        # does its route by raw indices.  A loaded plan carries `overloads`
        # (`[]` when feasible); a malformed one carries the defect instead.
        inst = tmp_path / "worked.json"
        caps = ["--caps", "v2=2"] if kind == "overloaded" else []
        cnf = str(FIXTURES / "worked_example.cnf")
        assert main(["compile", "--cnf", cnf, "--out", str(inst), *caps]) == 0
        if kind == "malformed":
            data = json.loads(inst.read_text())
            data["edges"].remove(["E2", "X1"])
            inst.write_text(json.dumps(data))
        capsys.readouterr()
        payloads = []
        plans = (
            ["--assignment", A1_LITERALS],
            ["--path", A1_ROUTE],
            ["--path", A1_RAW_ROUTE],
        )
        for plan in plans:
            code = main(["check", "--instance", str(inst), *plan, "--json"])
            assert code == (kind != "feasible")
            payloads.append(json.loads(capsys.readouterr().out))
        del payloads[0]["path"]  # the assignment's route, in paper names
        assert payloads[0] == payloads[1] == payloads[2]
        assert payloads[0]["verdict"] == kind and set(payloads[0]) == keys
        assert (payloads[0].get("overloads") == []) == (kind == "feasible")

    @pytest.mark.parametrize("literals", ["1 2", "-1 2"])
    def test_partial_assignment_exit_2(self, tmp_path, capsys, literals):
        # Exit 2 whether or not a clause fails, with the count and the first
        # few missing variables: not all of the 99,999,998.
        cnf, out = tmp_path / "wide.cnf", tmp_path / "wide.json"
        cnf.write_text("p cnf 100000000 1\n1 -2 0\n")
        assert main(["compile", "--cnf", str(cnf), "--out", str(out)]) == 0
        capsys.readouterr()
        code = main(["check", "--instance", str(out), "--assignment", literals])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            "error: assignment missing 99999998 of 100000000 variables: "
            "3, 4, 5, 6, 7, ...\n"
        )

    def test_variable_outside_formula_exit_2(self, compiled, capsys):
        code = main(
            ["check", "--instance", str(compiled), "--assignment", A1_LITERALS + " 99"]
        )
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error:") and "[99]" in captured.err


@given(
    st.integers(2, 3),
    st.integers(1, 4),
    st.integers(0, 10_000),
    st.data(),
)
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_check_modes_agree(tmp_path, capsys, var_count, clause_count, seed, data):
    # Every satisfying assignment's plan is its main route plus all m
    # preloads, the plan `check --path` assumes for that route: both modes
    # must give one verdict, and name its defect alike, also once any edge is
    # gone (a preload, chain, clique, bypass or conflict edge).
    formula = random_formula(var_count, clause_count, 2, seed)
    inst = compile_formula(formula)
    intact = instance_to_dict(inst)
    edited = instance_to_dict(inst)
    edited["edges"].remove(data.draw(st.sampled_from(intact["edges"])))
    for name, payload in [("intact", intact), ("edited", edited)]:
        file = tmp_path / f"{name}.json"
        file.write_text(json.dumps(payload))
        for bits in itertools.product((False, True), repeat=var_count):
            a = dict(enumerate(bits, 1))
            if eval_formula(formula, a) < clause_count:
                continue
            literals = " ".join(str(v if a[v] else -v) for v in sorted(a))
            route = ",".join(assignment_plan(inst, a).assignments[-1].path)
            runs = []
            for plan in (["--assignment", literals], ["--path", route]):
                code = main(["check", "--instance", str(file), *plan, "--json"])
                out = json.loads(capsys.readouterr().out)
                runs.append((code, *map(out.get, ("verdict", "reason", "bad_hop"))))
            assert runs[0] == runs[1], (name, literals)


_GOLDEN = json.loads((FIXTURES / "cli_check_solve.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(_GOLDEN))
def test_check_and_solve_match_golden(compiled, capsys, case):
    # Exit code, stdout and stderr of `check` and `solve` on the worked
    # example, byte for byte, as written before the load, path and overload
    # rules were merged into one definition each.
    spec = _GOLDEN[case]
    code = main([spec["command"], "--instance", str(compiled), *spec["args"]])
    captured = capsys.readouterr()
    assert code == spec["exit"]
    assert captured.out == spec["stdout"]
    assert captured.err == spec["stderr"]


class TestSolve:
    def test_exact_worked_example(self, compiled, capsys):
        code = main(["solve", "--instance", str(compiled), "--mode", "exact"])
        out = capsys.readouterr().out
        assert code == 0
        assert "accepted: 4 (optimal)" in out

    def test_exact_unsat_pair(self, tmp_path, capsys):
        cnf = tmp_path / "pair.cnf"
        cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
        out = tmp_path / "pair.json"
        main(["compile", "--cnf", str(cnf), "--out", str(out)])
        capsys.readouterr()
        code = main(["solve", "--instance", str(out), "--mode", "exact", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["accepted"] == 2 and payload["optimal"]

    def test_exact_long_formula_without_recursion(self, tmp_path, capsys):
        # 601 flows; a branch-and-bound recursion two frames deep per flow
        # ran past the interpreter's recursion limit here.
        inst = tmp_path / "long.json"
        save_instance(compile_formula(Formula.from_clauses(3, [(1, 2, 3)] * 600)), inst)
        code = main(["solve", "--instance", str(inst), "--mode", "exact", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["accepted"] == 601 and payload["optimal"]

    def test_greedy_below_exact_on_gap_fixture(self, capsys):
        gap = FIXTURES / "greedy_gap.json"
        main(["solve", "--instance", str(gap), "--mode", "greedy", "--json"])
        greedy = json.loads(capsys.readouterr().out)
        main(["solve", "--instance", str(gap), "--mode", "exact", "--json"])
        exact = json.loads(capsys.readouterr().out)
        assert greedy["accepted"] == 1 and exact["accepted"] == 3

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_budget_below_one_exit_2(self, compiled, capsys, budget):
        # Such a budget ran out before the root and reported 0 accepted.
        code = main(["solve", "--instance", str(compiled), f"--budget={budget}"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: node budget must be at least 1, got {budget}\n"

    def test_duplicate_demand_exit_2(self, tmp_path, capsys):
        # A plan tells copies apart by flow value, so two equal demands were
        # loaded and then broke both solvers after their search.
        net = Network("AB", [("A", "B")], {"A": 3, "B": 3})
        flow = FlowRequest("A", "B", 1, "x")
        message = "flow 'x' (A -> B) is listed twice"
        with pytest.raises(ValueError) as raised:
            plain_instance(net, [flow, flow])
        assert str(raised.value) == message
        data = instance_to_dict(plain_instance(net, [flow]))
        data["flows"] *= 2
        inst = tmp_path / "twice.json"
        inst.write_text(json.dumps(data))
        for mode in ("exact", "greedy"):
            code = main(["solve", "--instance", str(inst), "--mode", mode])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert captured.err == f"error: {message}\n"


def test_parser_built_once():
    assert build_parser() is build_parser()


def _worked_dict() -> dict:
    return instance_to_dict(compile_formula(Formula.from_clauses(6, WORKED_CLAUSES)))


def _malformed_cases() -> dict[str, object]:
    cases: dict[str, object] = {
        "top level a list": [1, 2],
        "nodes an int": {"schema_version": 1, "nodes": 5},
    }
    for key in ("nodes", "edges", "flows"):
        data = _worked_dict()
        del data[key]
        cases[f"missing {key}"] = data
        data = _worked_dict()
        data[key] = {"not": "a list"}
        cases[f"{key} not a list"] = data
    for edge in (["E1"], ["E1", "B1", "X1"], "E1-B1", [["E1"], "B1"]):
        data = _worked_dict()
        data["edges"][0] = edge
        cases[f"edge {edge!r}"] = data
    data = _worked_dict()
    data["nodes"][0] = "E1"
    cases["node not an object"] = data
    for name, copies in (("a word", "many"), ("a float", 2.5), ("null", None)):
        data = _worked_dict()
        data["flows"][0]["copies"] = copies
        cases[f"copies {name}"] = data
    data = _worked_dict()
    data["flows"][0]["copies"] = True
    cases["copies a bool"] = data
    data = _worked_dict()
    data["nodes"].append(dict(data["nodes"][3]))
    cases["duplicate node id"] = data
    data = _worked_dict()
    data["edges"].append(["E1", "Z9"])
    cases["edge to an unknown node"] = data
    data = _worked_dict()
    data["edges"].append(["B2", "B2"])
    cases["self-loop"] = data
    data = _worked_dict()
    data["nodes"][5]["capacity"] = True
    cases["capacity a bool"] = data
    for name, capacity in (("negative", -1), ("a float", 3.0), ("a string", "3")):
        data = _worked_dict()
        data["nodes"][5]["capacity"] = capacity
        cases[f"capacity {name}"] = data
    data = _worked_dict()
    data["flows"][1]["dst"] = "Z9"
    cases["flow to an unknown node"] = data
    for version in (True, 1.0):
        data = _worked_dict()
        data["schema_version"] = version
        cases[f"schema_version {version!r}"] = data
    data = _worked_dict()
    data["formula"] = ""
    cases["formula empty"] = data
    return cases


_NODES_SHAPE = (
    "error: malformed instance: each of 'nodes' must be an object with fields "
    "id, paper_index, subset, capacity\n"
)
_EDGES_SHAPE = "error: malformed instance: 'edges' must be a list of node-id pairs\n"
_NOT_A_LIST = "error: malformed instance: {!r} must be a list\n"
_COPIES = 'error: malformed instance: flow copies must be an integer or "unbounded"\n'

# The whole stderr of every malformed case, as the loader wrote it before it
# read each field with one subscript and the network kept one table per node;
# a float or null copy count then got the flow-shape message instead.
_MALFORMED_ERRORS = {
    "capacity a bool": "error: capacity of 'P1.2' must be a non-negative integer\n",
    "capacity negative": "error: capacity of 'P1.2' must be a non-negative integer\n",
    "capacity a float": "error: capacity of 'P1.2' must be a non-negative integer\n",
    "capacity a string": "error: capacity of 'P1.2' must be a non-negative integer\n",
    "copies a bool": "error: flow 'preload-1': copies must be a positive integer\n",
    "copies a float": _COPIES,
    "copies null": _COPIES,
    "copies a word": _COPIES,
    "duplicate node id": "error: duplicate node ids\n",
    "edge 'E1-B1'": _EDGES_SHAPE,
    "edge ['E1', 'B1', 'X1']": _EDGES_SHAPE,
    "edge ['E1']": _EDGES_SHAPE,
    "edge [['E1'], 'B1']": _EDGES_SHAPE,
    "edge to an unknown node": "error: edge ('E1', 'Z9') references an unknown node\n",
    "edges not a list": _EDGES_SHAPE,
    "flow to an unknown node": "error: flow 'preload-2' references unknown nodes\n",
    "flows not a list": _NOT_A_LIST.format("flows"),
    "formula empty": "error: missing header at line 1\n",
    "missing edges": _EDGES_SHAPE,
    "missing flows": _NOT_A_LIST.format("flows"),
    "missing nodes": _NOT_A_LIST.format("nodes"),
    "node not an object": _NODES_SHAPE,
    "nodes an int": _NOT_A_LIST.format("nodes"),
    "nodes not a list": _NOT_A_LIST.format("nodes"),
    "schema_version 1.0": "error: unsupported schema_version 1.0\n",
    "schema_version True": "error: unsupported schema_version True\n",
    "self-loop": "error: self-loop on 'B2'\n",
    "top level a list": "error: malformed instance: the top level must be an object\n",
}


def test_every_malformed_case_has_its_message_pinned():
    assert set(_MALFORMED_ERRORS) == set(_malformed_cases())


class TestMalformedInstance:
    @pytest.mark.parametrize("name", sorted(_malformed_cases()))
    @pytest.mark.parametrize(
        "command",
        [["solve", "--mode", "exact"], ["check", "--path", "E1,B1"]],
        ids=["solve", "check"],
    )
    def test_exit_2_without_traceback(self, tmp_path, capsys, name, command):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(_malformed_cases()[name]))
        code = main([command[0], "--instance", str(bad), *command[1:]])
        err = capsys.readouterr().err
        assert code == 2
        assert err == _MALFORMED_ERRORS[name]


@pytest.mark.parametrize(
    "command",
    [["solve", "--mode", "exact"], ["check", "--path", "E1,T"]],
    ids=["solve", "check"],
)
def test_deeply_nested_json_exit_2(tmp_path, capsys, command):
    # The decoder recurses once per level; this ended in a RecursionError
    # traceback with exit 1.  Raw text, since json.dumps would recurse too.
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    code = main([command[0], "--instance", str(deep), *command[1:]])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: malformed instance: JSON nested too deeply\n"


def _flows_of(name: str, flows: list) -> list:
    return {
        "none": [],
        "main dropped": flows[:-1],
        "main first": flows[-1:] + flows[:-1],
    }[name]


@pytest.mark.parametrize("flows", ["none", "main dropped", "main first"])
@pytest.mark.parametrize(
    "command",
    [
        ["check", "--assignment", A1_LITERALS],
        ["check", "--path", "E1,B1,X1"],
        ["solve", "--mode", "exact"],
    ],
    ids=["check-assignment", "check-path", "solve"],
)
def test_compiled_instance_with_other_flows_exit_2(tmp_path, capsys, flows, command):
    # A compiled instance's flows are its preloads, then main.  Without main
    # both check modes read a preload as main: --assignment ended in an
    # IndexError traceback and --path judged routes from A3 to B3.
    data = _worked_dict()
    data["flows"] = _flows_of(flows, data["flows"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code = main([command[0], "--instance", str(bad), *command[1:]])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        "error: a compiled instance's flows must be the 3 preloads "
        "A_i -> B_i, then main E1 -> T\n"
    )


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.sampled_from(["E1", "B1", ""]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["id", "src", "x"]), inner, max_size=2),
    max_leaves=6,
)


@given(
    st.sampled_from(["nodes", "edges", "flows", "formula", "schema_version"]),
    st.integers(0, 200),
    _JSON_VALUES,
)
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_fuzzed_instance_keeps_exit_contract(tmp_path, capsys, key, index, value):
    data = _worked_dict()
    if isinstance(data[key], list) and data[key]:
        data[key][index % len(data[key])] = value
    else:
        data[key] = value
    bad = tmp_path / "fuzz.json"
    bad.write_text(json.dumps(data))
    code = main(["check", "--instance", str(bad), "--path", "E1,B1,X1"])
    assert code in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err


_DIMACS_TOKENS = st.sampled_from(
    ["0", "1", "-1", "2", "-3", "4", "-0", "+2", "1.5", "x", "p", "c", "%", "9" * 20]
) | st.text(max_size=3)


@st.composite
def _dimacs_texts(draw) -> str:
    """Well-formed DIMACS with up to two lines inserted, replaced or deleted."""
    n = draw(st.integers(1, 4))
    literals = [v * sign for v in range(1, n + 1) for sign in (1, -1)]
    clause = st.lists(st.sampled_from(literals), min_size=1, max_size=3)
    clauses = draw(st.lists(clause, max_size=4))
    lines = [f"p cnf {n} {len(clauses)}"]
    lines += [" ".join(map(str, clause)) + " 0" for clause in clauses]
    for _ in range(draw(st.integers(0, 2))):
        junk = " ".join(draw(st.lists(_DIMACS_TOKENS, max_size=5)))
        at = draw(st.integers(0, len(lines)))
        edit = draw(st.sampled_from(["insert", "replace", "delete"]))
        if edit == "insert" or not lines:
            lines.insert(at, junk)
        elif edit == "replace":
            lines[min(at, len(lines) - 1)] = junk
        else:
            del lines[min(at, len(lines) - 1)]
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n%\n0\n"]))


@given(
    _dimacs_texts(),
    st.lists(
        st.sampled_from(["1", "-1", "2", "-3", "4", "5", "0", "x", "1,2"]), max_size=5
    ).map(" ".join),
)
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_fuzzed_dimacs_keeps_exit_contract(tmp_path, capsys, text, literals):
    cnf = tmp_path / "fuzz.cnf"
    cnf.write_text(text, encoding="utf-8")
    out = tmp_path / "fuzz.json"
    out.unlink(missing_ok=True)
    codes = [main(["compile", "--cnf", str(cnf), "--out", str(out)])]
    if codes[0] == 0:
        codes.append(main(["check", "--instance", str(out), "--assignment", literals]))
    assert set(codes) <= {0, 1, 2}
    assert "Traceback" not in capsys.readouterr().err


class TestVerify:
    def test_zero_trials_ok(self, capsys):
        code = main(
            ["verify", "--vars", "3", "--clauses", "2", "--k", "2",
             "--trials", "0", "--seed", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "trials=0" in out

    def test_small_run_agrees(self, capsys, tmp_path):
        code = main(
            ["verify", "--vars", "3", "--clauses", "2", "--k", "2",
             "--trials", "10", "--seed", "3",
             "--witness-dir", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "agreed=10" in out and "verdict: OK" in out

    def test_width_5_run_agrees(self, capsys):
        code = main(
            ["verify", "--vars", "6", "--clauses", "3", "--k", "5",
             "--trials", "8", "--seed", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "agreed=8 audits_passed=8 max_matches=8" in out

    def test_unsat_run_at_25_clauses_certified(self, capsys):
        # Every trial is unsatisfiable, so each one is a proof that main
        # crosses no more than 24 of the 25 clause gadgets.
        code = main(
            ["verify", "--vars", "5", "--clauses", "25", "--k", "3",
             "--trials", "5", "--seed", "1", "--json"]
        )
        report = json.loads(capsys.readouterr().out)
        assert code == 0 and report["ok"] and report["agreed"] == 5
        assert all(r["solver_optimal"] for r in report["records"])
        assert not any(r["satisfiable"] for r in report["records"])

    def test_terminal_without_room_fails_at_once(self, capsys, tmp_path):
        # Main has no path, so the solve with main required is settled at
        # its root: the audit fails and the run exits 1 without a search.
        code = main(
            ["verify", "--vars", "5", "--clauses", "12", "--k", "3",
             "--trials", "1", "--seed", "1", "--caps", "terminal=0",
             "--witness-dir", str(tmp_path), "--json"]
        )
        (record,) = json.loads(capsys.readouterr().out)["records"]
        assert code == 1
        assert not record["audit_ok"] and record["solver_optimal"]

    def test_byte_identical_runs(self, capsys):
        args = ["verify", "--vars", "3", "--clauses", "3", "--k", "3",
                "--trials", "8", "--seed", "11", "--json"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize(
        ("fixture", "args"),
        [
            ("verify_4_3_3_seed1.json", ["4", "3", "3", "30", "1"]),
            ("verify_3_7_2_seed2.json", ["3", "7", "2", "30", "2"]),
            # Every warm start overloads a literal node and is solved cold;
            # with main the optimum is 1 < m, and the preloads are feasible.
            ("verify_3_3_2_seed1_caps_v2_2.json", ["3", "3", "2", "10", "1", "v2=2"]),
            # The start and the preload plan both overload: the whole
            # instance is solved without main required.
            ("verify_3_3_2_seed1_caps_src_0.json", ["3", "3", "2", "10", "1", "src=0"]),
        ],
    )
    def test_matches_golden_report(self, capsys, tmp_path, fixture, args):
        # The fixtures hold reports written before the solver searched paths
        # on demand, and before it owned the warm start's feasibility check;
        # the report must not drift byte for byte.
        n, m, k, trials, seed, *caps = args
        code = main(["verify", "--vars", n, "--clauses", m, "--k", k,
                     "--trials", trials, "--seed", seed, "--json",
                     "--witness-dir", str(tmp_path),
                     *(["--caps", *caps] if caps else [])])
        golden = (FIXTURES / fixture).read_text()
        assert code == (0 if json.loads(golden)["ok"] else 1)
        assert capsys.readouterr().out == golden

    @pytest.mark.parametrize("caps", ["v4=5", "src=0"])
    def test_matches_golden_witnesses(self, capsys, tmp_path, caps):
        # Every trial fails under these overrides, so each writes a witness:
        # the trial's record fields, its audit failures and its instance.
        code = main(["verify", "--vars", "3", "--clauses", "3", "--k", "2",
                     "--trials", "4", "--seed", "1", "--json", "--caps", caps,
                     "--witness-dir", str(tmp_path)])
        assert code == 1
        golden = FIXTURES / f"witness_caps_{caps.replace('=', '_')}"
        names = sorted(p.name for p in golden.iterdir())
        assert names == [f"witness-trial-{i:03d}.json" for i in range(4)]
        assert sorted(p.name for p in tmp_path.iterdir()) == names
        for name in names:
            assert (tmp_path / name).read_bytes() == (golden / name).read_bytes()

    def test_corrupted_capacities_fail_audit(self, capsys, tmp_path):
        code = main(
            ["verify", "--vars", "3", "--clauses", "2", "--k", "3",
             "--trials", "2", "--seed", "5", "--caps", "v4=5",
             "--witness-dir", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "audit=FAIL" in out
        witnesses = list(tmp_path.glob("witness-trial-*.json"))
        assert witnesses
        payload = json.loads(witnesses[0].read_text())
        assert any("bypass not blocked" in f for f in payload["audit_failures"])

    @pytest.mark.parametrize("caps", ["v9=1", "v4=abc", "v4=", "v4=²"])
    def test_malformed_caps_exit_2(self, capsys, caps):
        code = main(
            ["verify", "--vars", "3", "--clauses", "1", "--k", "3",
             "--trials", "1", "--seed", "1", "--caps", caps]
        )
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: bad capacity override {caps!r}\n"

    def test_max_sat_mismatch_fails(self, capsys, tmp_path, monkeypatch):
        # A MAX-SAT oracle that undercounts by one fails every trial's
        # max_match.  Satisfiability is that count reaching m, so on the
        # golden run's satisfiable trials it fails agreement too: the network
        # still admits m + 1 flows.  Its unsatisfiable trials still agree.
        def undercount(formula):
            count, best = max_sat_brute(formula)
            return count - 1, best

        monkeypatch.setattr(satnc.harness, "max_sat_brute", undercount)
        code = main(
            ["verify", "--vars", "3", "--clauses", "7", "--k", "2",
             "--trials", "30", "--seed", "2", "--witness-dir", str(tmp_path)]
        )
        out = capsys.readouterr().out.splitlines()
        golden = json.loads((FIXTURES / "verify_3_7_2_seed2.json").read_text())
        records = golden["records"]
        assert code == 1 and len(out) == len(records) + 2
        assert {r["satisfiable"] for r in records} == {True, False}
        for line, r in zip(out, records):
            assert line.startswith(f"trial {r['trial']:03d}: seed={r['seed']} ")
            agree = "NO" if r["satisfiable"] else "yes"
            assert f" sat=no nc={r['nc_accepted']} expected=7 " in line
            assert line.endswith(
                f" agree={agree} max={r['max_traversable']}/{r['max_sat'] - 1}"
            )
        agreed = sum(not r["satisfiable"] for r in records)
        assert out[-2:] == [
            f"summary: trials=30 agreed={agreed} audits_passed=30 max_matches=0",
            "verdict: FAIL",
        ]
        assert len(list(tmp_path.glob("witness-trial-*.json"))) == 30

    def test_vars_over_bound_exit_2(self, capsys):
        code = main(
            ["verify", "--vars", "30", "--clauses", "2", "--k", "2",
             "--trials", "1", "--seed", "1"]
        )
        assert code == 2


class TestBound:
    def test_k3_text(self, capsys):
        assert main(["bound", "--k", "3"]) == 0
        assert capsys.readouterr().out.strip() == "8/7 ≈ 1.142857"

    def test_k2_text(self, capsys):
        assert main(["bound", "--k", "2"]) == 0
        assert capsys.readouterr().out.startswith("4/3")

    def test_k1_exit_2(self, capsys):
        assert main(["bound", "--k", "1"]) == 2

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_too_many_digits_exit_2(self, capsys, mode):
        # 2**14285 is the first power of two with more than 4,300 digits.
        if getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300:
            pytest.skip("the interpreter's digit limit is not the default")
        assert main(["bound", "--k", "14284", *mode]) == 0
        capsys.readouterr()
        assert main(["bound", "--k", "14285", *mode]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --k 14285 is too large: 2**k has more than 4300 digits, "
            "Python's limit for printing an integer\n"
        )


def test_export_list_names_each_attribute_once():
    exported = satnc.__all__
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(satnc, name)] == []


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _declared_script() -> importlib.metadata.EntryPoint:
    scripts = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]
    return importlib.metadata.EntryPoint(
        name="satnc", value=scripts["satnc"], group="console_scripts"
    )


def _installed_distribution() -> importlib.metadata.Distribution | None:
    try:
        return importlib.metadata.distribution("satnc")
    except importlib.metadata.PackageNotFoundError:
        return None


def test_console_script_installed(tmp_path):
    """The declared `satnc` script resolves to the CLI and runs as a command.

    Installing the package writes a launcher like the one below onto PATH;
    here it is written into a private bin directory, so the check holds on a
    checkout that was never installed.
    """
    entry = _declared_script()
    assert entry.load() is main

    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    launcher = bin_dir / "satnc"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {entry.module} import {entry.attr}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({entry.attr}())\n"
    )
    launcher.chmod(0o755)
    command = shutil.which("satnc", path=str(bin_dir))
    assert command is not None

    env = dict(
        os.environ,
        PYTHONPATH=str(Path(satnc.__file__).resolve().parents[1]),
        PYTHONIOENCODING="utf-8",  # `bound` prints "≈"
    )

    def run(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [command, *args], capture_output=True, encoding="utf-8", env=env,
            cwd=tmp_path, timeout=60,
        )

    bound = run("bound", "--k", "3")
    assert bound.returncode == 0, bound.stderr
    assert "1.142857" in bound.stdout

    missing = run("check", "--instance", str(tmp_path / "missing.json"),
                  "--assignment", "1")
    assert missing.returncode == 2
    assert "error:" in missing.stderr
    assert "Traceback" not in missing.stderr


@pytest.mark.skipif(
    _installed_distribution() is None, reason="satnc distribution is not installed"
)
def test_installed_console_script_on_path():
    dist = _installed_distribution()
    command = shutil.which("satnc")
    assert command is not None
    installed = [
        ep for ep in dist.entry_points
        if ep.group == "console_scripts" and ep.name == "satnc"
    ]
    assert [ep.value for ep in installed] == [_declared_script().value]
    bound = subprocess.run(
        [command, "bound", "--k", "3"], capture_output=True, text=True, timeout=60
    )
    assert bound.returncode == 0, bound.stderr
