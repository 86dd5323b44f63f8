from __future__ import annotations

import json

import pytest

from satnc import (
    FlowRequest,
    Formula,
    Network,
    compile_formula,
    dumps_instance,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    loads_instance,
    plain_instance,
    random_formula,
    to_dot,
)
from conftest import FIXTURES


def _writer_cases() -> dict[str, object]:
    cases: dict[str, object] = {
        f"compiled ({n}, {m}, {k}) seed {seed}": compile_formula(
            random_formula(n, m, k, seed)
        )
        for n, m, k, seed in [(3, 1, 2, 0), (4, 5, 3, 1), (6, 12, 3, 2), (5, 8, 4, 3)]
    }
    cases["compiled with repeated literals"] = compile_formula(
        Formula.from_clauses(2, [(1, 1, -1), (-2, 2), (1, -2, -2)])
    )
    cases["greedy_gap.json"] = load_instance(FIXTURES / "greedy_gap.json")
    # Plain instances carry a null paper_index on every node.
    net = Network(["s", "m", "t"], [("m", "s"), ("t", "m")], {"s": 1, "m": 2, "t": 0})
    cases["no flows"] = plain_instance(net, [])
    cases["non-ASCII label"] = plain_instance(
        net, [FlowRequest("s", "t", None, 'débit "é→ü" \\ 🚀\n')]
    )
    data = instance_to_dict(cases["no flows"])
    data["nodes"][1].update(id="μ", paper_index="n_μ\t")
    data["edges"] = [["μ" if v == "m" else v for v in e] for e in data["edges"]]
    cases["non-ASCII node"] = instance_from_dict(data)
    return cases


class TestJson:
    def test_round_trip_compiled(self, worked_instance):
        text = dumps_instance(worked_instance)
        back = loads_instance(text)
        assert back == worked_instance
        assert dumps_instance(back) == text

    def test_round_trip_plain_fixture(self):
        inst = load_instance(FIXTURES / "greedy_gap.json")
        assert loads_instance(dumps_instance(inst)) == inst
        assert inst.formula is None

    def test_schema_fields(self, worked_instance):
        data = instance_to_dict(worked_instance)
        assert data["schema_version"] == 1
        assert {"id", "paper_index", "subset", "capacity"} == set(data["nodes"][0])
        assert data["formula"].startswith("p cnf 6 3")
        # edges appear once, as sorted pairs, lexicographically sorted
        edges = [tuple(e) for e in data["edges"]]
        assert edges == sorted(edges)
        assert all(a < b for a, b in edges)
        assert len(set(edges)) == len(edges)

    def test_unbounded_copies_encoding(self, worked_instance):
        data = instance_to_dict(worked_instance)
        assert data["flows"][-1]["copies"] == "unbounded"
        back = instance_from_dict(data)
        assert back.flows[-1].copies is None

    def test_rejects_unknown_schema_version(self, worked_instance):
        data = instance_to_dict(worked_instance)
        data["schema_version"] = 99
        try:
            instance_from_dict(data)
        except ValueError as exc:
            assert "schema_version" in str(exc)
        else:
            raise AssertionError("expected a ValueError")

    @pytest.mark.parametrize("name", sorted(_writer_cases()))
    def test_writer_matches_json_dumps(self, name):
        inst = _writer_cases()[name]
        text = dumps_instance(inst)
        # instance_to_dict reads the text back: this pins its layout to json's.
        assert text == json.dumps(instance_to_dict(inst), indent=2) + "\n"
        assert loads_instance(text) == inst

    @pytest.mark.parametrize(
        "path",
        sorted(FIXTURES.glob("witness_caps_*/witness-trial-*.json")),
        ids=lambda p: f"{p.parent.name}/{p.name}",
    )
    def test_witness_instance_round_trips(self, path):
        # The committed witness bytes pin the dict that instance_to_dict
        # derives from dumps_instance.
        data = json.loads(path.read_text(encoding="utf-8"))["instance"]
        assert instance_to_dict(instance_from_dict(data)) == data

    def test_id_map_round_trips(self, worked_instance):
        back = loads_instance(dumps_instance(worked_instance))
        assert back.resolve_node("n_17^1") == "B1"
        assert back.paper_name("L1.2") == "n_9^1"
        assert back.paper_name("T") is None


class TestDot:
    def test_one_line_per_edge(self, worked_instance):
        dot = to_dot(worked_instance)
        edge_lines = [l for l in dot.splitlines() if " -- " in l]
        assert len(edge_lines) == len(worked_instance.network.edges())
        assert len(set(edge_lines)) == len(edge_lines)

    def test_capacity_labels_and_shapes(self, worked_instance):
        dot = to_dot(worked_instance)
        assert '  "B1" [shape=hexagon, label="B1 n_17^1 [3]"];' in dot.splitlines()
        assert '  "T" [shape=diamond, label="T [2]"];' in dot.splitlines()
        assert dot.startswith("graph nc {")

    def test_deterministic(self, worked_instance):
        assert to_dot(worked_instance) == to_dot(worked_instance)
