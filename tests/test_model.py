from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satnc import (
    FlowRequest,
    Network,
    PathDefect,
    RouteAssignment,
    RoutePlan,
    check_feasible,
    is_elementary,
    plan_load,
)
from satnc.model import hops_load, validate_path
from conftest import make_network, path_graph, random_connected_network
from oracles import naive_path_fault, pipelined_frame_load


def plan_of(net: Network, *paths: tuple[str, ...]) -> RoutePlan:
    assignments = []
    for idx, p in enumerate(paths):
        flow = FlowRequest(p[0], p[-1], copies=None, label=f"f{p[0]}{p[-1]}")
        assignments.append(RouteAssignment(flow, idx, p))
    return RoutePlan(tuple(assignments))


class TestNeighbors:
    def test_path_graph_middle(self):
        net = path_graph("ABC")
        assert net.adjacency("B") == {"A", "C"}

    def test_isolated_node(self):
        net = make_network(["X"], [], 1)
        assert net.adjacency("X") == frozenset()

    def test_complete_graph_symmetry(self):
        net = make_network(["A", "B", "C"], [("A", "B"), ("B", "C"), ("A", "C")], 1)
        for v in net.nodes:
            assert net.adjacency(v) == set(net.nodes) - {v}
            for u in net.adjacency(v):
                assert v in net.adjacency(u)

    def test_unknown_node(self):
        with pytest.raises(ValueError):
            path_graph("AB").adjacency("Z")


class TestOneTable:
    EDGES = [("A", "B"), ("B", "C"), ("A", "C"), ("C", "D")]

    def test_edge_listed_twice_is_one_edge(self):
        once = make_network("ABCD", self.EDGES, 3)
        twice = make_network("ABCD", self.EDGES + [("B", "A"), ("C", "D")], 3)
        for v in once.nodes:
            assert twice.transmit_sets[v] == once.transmit_sets[v]
            assert len(set(twice.transmit_sets[v])) == len(twice.transmit_sets[v])
            assert twice.adjacency(v) == once.adjacency(v)
        route = ("A", "B", "C", "D")
        assert plan_load(twice, plan_of(twice, route)) == plan_load(
            once, plan_of(once, route)
        )
        assert twice.edges() == once.edges() == (
            ("A", "B"), ("A", "C"), ("B", "C"), ("C", "D")
        )
        assert twice == once

    def test_no_node_is_its_own_neighbour(self):
        net = make_network("ABCD", self.EDGES, 3)
        assert not any(net.has_edge(v, v) for v in net.nodes)
        assert all(v in net.transmit_sets[v] for v in net.nodes)
        assert net.has_edge("A", "B") and net.has_edge("B", "A")
        assert not net.has_edge("A", "D") and not net.has_edge("Z", "A")

    def test_equality_ignores_edge_order(self):
        forward = make_network("ABCD", self.EDGES, 3)
        backward = make_network("ABCD", [(v, u) for u, v in reversed(self.EDGES)], 3)
        assert forward.transmit_sets["C"] != backward.transmit_sets["C"]  # listed order
        assert forward == backward
        assert forward != make_network("ABCD", self.EDGES[:-1] + [("B", "D")], 3)
        assert forward != make_network("ABCD", self.EDGES, 4)


def snapshot(net: Network):
    """Everything a network holds, orders included, and its row objects."""
    rows = list(net.transmit_sets.items())
    return net.nodes, list(net.capacity.items()), rows, [id(t) for _, t in rows]


class TestExtended:
    """``extended`` checks only what it adds, by the constructor's rules."""

    BASE = (("A", "B", "D"), (("A", "B"), ("B", "D")), {"A": 1, "B": 2, "D": 0})

    @pytest.mark.parametrize(
        "nodes, edges, caps",
        [
            (["C", "C"], [], {"C": 1}),  # duplicate among the added ids
            (["C", "A"], [], {"C": 1, "A": 1}),  # duplicate of a base id
            (["C"], [("C", "Z")], {"C": 1}),  # unknown endpoint
            (["C"], [("Z", "A")], {"C": 1}),
            (["C"], [("Z", "Z")], {"C": 1}),  # unknown before self-loop
            (["C"], [("C", "C")], {"C": 1}),  # self-loop on an added node
            (["C"], [("C", "A"), ("A", "A")], {"C": 1}),  # ... on a base node
            (["C"], [], {}),  # missing capacity
            (["C"], [], {"A": 1}),
            (["C"], [], {"C": True}),
            (["C"], [], {"C": 1.0}),
            (["C"], [], {"C": -1}),
            (["C", "E"], [("C", "Q")], {"C": -1}),  # edges before capacities
        ],
    )
    def test_each_fault_raises_as_the_constructor(self, nodes, edges, caps):
        base_nodes, base_edges, base_caps = self.BASE
        with pytest.raises(ValueError) as whole:
            Network(
                [*base_nodes, *nodes], [*base_edges, *edges], {**base_caps, **caps}
            )
        base = Network(*self.BASE)
        before = snapshot(base)
        with pytest.raises(ValueError) as grown:
            base.extended(nodes, edges, caps)
        assert str(grown.value) == str(whole.value)
        assert type(grown.value) is ValueError
        assert snapshot(base) == before

    def test_repeated_and_base_edges_are_one_edge(self):
        base = Network(*self.BASE)
        before = snapshot(base)
        edges = [("B", "A"), ("C", "A"), ("A", "C"), ("C", "A"), ("D", "B")]
        net = base.extended("C", edges, {"C": 3})
        assert snapshot(base) == before
        assert dict(net.transmit_sets) == {
            "A": ("A", "B", "C"),
            "B": ("B", "A", "D"),
            "D": ("D", "B"),
            "C": ("C", "A"),
        }
        assert net.edges() == (("A", "B"), ("A", "C"), ("B", "D"))
        assert net.capacity == {"A": 1, "B": 2, "D": 0, "C": 3}
        assert net == Network("ABDC", [*self.BASE[1], *edges], net.capacity)


@st.composite
def split_graph(draw):
    """Nodes, capacities, an edge list (repeats and both orientations
    allowed) and a split: the base takes a prefix of the nodes and the
    edges among them from a prefix of the list; the rest is added."""
    n = draw(st.integers(0, 8))
    nodes = [f"n{i}" for i in draw(st.permutations(range(n)))]
    caps = {v: draw(st.integers(0, 5)) for v in nodes}
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1]
    )
    drawn = draw(st.lists(pairs, max_size=20)) if n > 1 else []
    edges = [(nodes[i], nodes[j]) for i, j in drawn]
    a, b = draw(st.integers(0, n)), draw(st.integers(0, len(edges)))
    in_base = [max(map(nodes.index, e)) < a for e in edges[:b]]
    base_edges = [e for e, inside in zip(edges, in_base) if inside]
    added = [e for e, inside in zip(edges, in_base) if not inside] + edges[b:]
    return nodes, caps, a, base_edges, added


@given(split_graph())
@settings(max_examples=150, deadline=None)
def test_extended_equals_the_whole_build(case):
    nodes, caps, a, base_edges, added = case
    whole = Network(nodes, base_edges + added, caps)
    grown = Network((), (), {}).extended(nodes, base_edges + added, caps)
    assert snapshot(grown)[:3] == snapshot(whole)[:3]
    assert grown == whole
    base = Network(nodes[:a], base_edges, caps)
    before = snapshot(base)
    net = base.extended(nodes[a:], added, caps)
    assert snapshot(net)[:3] == snapshot(whole)[:3]
    assert net == whole
    assert snapshot(base) == before
    touched = {v for e in added for v in e}
    for v in base.nodes:
        if v not in touched:
            assert net.transmit_sets[v] is base.transmit_sets[v]


class TestInterferenceSet:
    """A transmission over a hop (u, x) loads u's transmit set: u and its
    whole neighbourhood, the receiver x included."""

    def test_isolated_edge(self):
        net = make_network(["A", "B"], [("A", "B")], 1)
        assert set(net.transmit_sets["A"]) == {"A", "B"}

    def test_path_graph(self):
        net = path_graph("ABC")
        assert set(net.transmit_sets["B"]) == {"A", "B", "C"}

    def test_star(self):
        net = make_network(
            ["S", "L1", "L2", "L3"], [("S", "L1"), ("S", "L2"), ("S", "L3")], 1
        )
        assert set(net.transmit_sets["S"]) == {"S", "L1", "L2", "L3"}


class TestPathLoad:
    """The load of one routed copy: ``plan_load`` of a one-path plan."""

    def test_three_node_path(self):
        net = path_graph("ABC")
        assert plan_load(net, plan_of(net, ("A", "B", "C"))) == {
            "A": 2, "B": 2, "C": 1
        }

    def test_prefix_of_longer_chain(self):
        # Frozen from the hop-enumeration oracle: only A's and B's
        # transmissions happen, so C is charged once as receiver and D
        # onwards not at all.
        net = path_graph("ABCDEF")
        expected = pipelined_frame_load(net.nodes, net.edges(), ("A", "B", "C"))
        assert expected == {"A": 2, "B": 2, "C": 1, "D": 0, "E": 0, "F": 0}
        assert plan_load(net, plan_of(net, ("A", "B", "C"))) == expected

    def test_invalid_path_raises(self):
        net = path_graph("ABC")
        with pytest.raises(ValueError):
            plan_load(net, plan_of(net, ("A", "C")))
        with pytest.raises(ValueError):
            plan_load(net, plan_of(net, ("A", "B", "A", "B")))


class TestFlowRequest:
    @pytest.mark.parametrize("copies", [0, -1, True, 2.5, 2.0, "2"])
    def test_invalid_copies(self, copies):
        with pytest.raises(ValueError) as got:
            FlowRequest("A", "B", copies, "f")
        assert str(got.value) == "flow 'f': copies must be a positive integer"


class TestPlanLoad:
    def test_empty_plan(self):
        net = path_graph("ABC")
        assert plan_load(net, RoutePlan()) == {"A": 0, "B": 0, "C": 0}

    def test_two_copies_double(self):
        net = path_graph("ABC")
        single = plan_load(net, plan_of(net, ("A", "B", "C")))
        double = plan_load(net, plan_of(net, ("A", "B", "C"), ("A", "B", "C")))
        assert double == {v: 2 * n for v, n in single.items()}

    def test_both_orientations(self):
        net = path_graph("ABC")
        plan = plan_of(net, ("A", "B", "C"), ("C", "B", "A"))
        assert plan_load(net, plan) == {"A": 3, "B": 4, "C": 3}


class TestCheckFeasible:
    def test_single_flow_ok(self):
        net = path_graph("ABC", cap=2)
        verdict = check_feasible(net, plan_of(net, ("A", "B", "C")))
        assert verdict.ok

    def test_two_copies_overload(self):
        net = path_graph("ABC", cap=2)
        verdict = check_feasible(net, plan_of(net, ("A", "B", "C"), ("A", "B", "C")))
        assert not verdict.ok
        report = {(o.node, o.load, o.capacity) for o in verdict.overloads}
        assert report == {("A", 4, 2), ("B", 4, 2)}  # C is at 2 <= 2, omitted

    def test_malformed_hop_named(self):
        net = path_graph("ABC", cap=9)
        flow = FlowRequest("A", "C", 1, "f")
        plan = RoutePlan((RouteAssignment(flow, 0, ("A", "C")),))
        verdict = check_feasible(net, plan)
        assert not verdict.ok
        assert verdict.defects and "('A', 'C')" in verdict.defects[0].reason


class TestIsElementary:
    def test_cases(self):
        assert is_elementary(("A", "B", "C"))
        assert not is_elementary(("A", "B", "A"))
        assert is_elementary(("A",))


# --- properties ---------------------------------------------------------


@st.composite
def random_net_and_paths(draw):
    seed = draw(st.integers(0, 10_000))
    rng = random.Random(seed)
    net = random_connected_network(rng, draw(st.integers(2, 8)), cap_range=(0, 6))
    paths = []
    for _ in range(draw(st.integers(0, 3))):
        start = rng.choice(net.nodes)
        trail = [start]
        while rng.random() < 0.7:
            options = [w for w in sorted(net.adjacency(trail[-1])) if w not in trail]
            if not options:
                break
            trail.append(rng.choice(options))
        paths.append(tuple(trail))
    return net, paths


@given(random_net_and_paths())
@settings(max_examples=150, deadline=None)
def test_additivity_and_per_hop_bound(net_and_paths):
    net, paths = net_and_paths
    combined = {v: 0 for v in net.nodes}
    for p in paths:
        single = hops_load(net, zip(p, p[1:]))
        hops = max(len(p) - 1, 0)
        assert all(n <= hops for n in single.values())
        for v, n in single.items():
            combined[v] += n
    if paths and all(len(p) >= 2 for p in paths):
        assert plan_load(net, plan_of(net, *paths)) == combined


@given(random_net_and_paths())
@settings(max_examples=150, deadline=None)
def test_total_load_is_interference_mass_both_ways(net_and_paths):
    net, paths = net_and_paths
    for p in paths:
        if len(p) < 2:
            continue
        for q in (p, tuple(reversed(p))):
            mass = sum(len(net.transmit_sets[u]) for u in q[:-1])
            assert sum(plan_load(net, plan_of(net, q)).values()) == mass


@given(random_net_and_paths())
@settings(max_examples=200, deadline=None)
def test_oracle_equivalence(net_and_paths):
    net, paths = net_and_paths
    for p in paths:
        loads = dict.fromkeys(net.nodes, 0) | hops_load(net, zip(p, p[1:]))
        assert loads == pipelined_frame_load(net.nodes, net.edges(), p)


@st.composite
def random_net_and_sequence(draw):
    """A small network and at most 8 node ids: a walk over unvisited
    neighbours, which is a path, then up to three faults, each an unknown
    id written over a step, a visited node inserted again, or a jump to an
    unvisited node (a non-edge unless it happens to be a neighbour)."""
    rng = random.Random(draw(st.integers(0, 10_000)))
    net = random_connected_network(rng, draw(st.integers(2, 7)))
    size = draw(st.integers(0, 8))
    seq = [draw(st.sampled_from(net.nodes))] if size else []
    for _ in range(size - 1):
        fresh = [w for w in sorted(net.adjacency(seq[-1])) if w not in seq]
        if not fresh:
            break
        seq.append(draw(st.sampled_from(fresh)))
    faults = ("unknown", "repeat", "jump")
    for fault in draw(st.lists(st.sampled_from(faults), max_size=3)):
        at = draw(st.integers(0, len(seq)))
        unvisited = [v for v in net.nodes if v not in seq]
        if fault == "unknown" and at < len(seq):
            seq[at] = draw(st.sampled_from(["x0", "x1"]))
        elif fault == "repeat" and seq and len(seq) < 8:
            seq.insert(at, draw(st.sampled_from(seq)))
        elif fault == "jump" and unvisited and at < len(seq):
            seq[at] = draw(st.sampled_from(unvisited))
    return net, tuple(seq)


@given(random_net_and_sequence())
@settings(max_examples=400, deadline=None)
def test_validate_path_matches_naive_reference(case):
    net, p = case
    try:
        validate_path(net, p)
    except ValueError as exc:
        got = (type(exc).__name__, str(exc), getattr(exc, "bad_hop", None))
    else:
        got = None
    assert got == naive_path_fault(net.nodes, net.edges(), p)
    # check_feasible reports the same fault, with its bad hop, as a defect.
    if len(p) >= 2 and p[0] != p[-1]:
        defects = check_feasible(net, plan_of(net, p)).defects
        assert defects == (() if got is None else (PathDefect(0, *got[1:]),))


@given(st.integers(0, 5000))
@settings(max_examples=100, deadline=None)
def test_feasibility_monotone(seed):
    rng = random.Random(seed)
    net = random_connected_network(rng, rng.randint(3, 7), cap_range=(2, 8))
    paths = []
    for _ in range(3):
        a, b = rng.sample(net.nodes, 2)
        trail = [a]
        while trail[-1] != b:
            options = [w for w in sorted(net.adjacency(trail[-1])) if w not in trail]
            if not options:
                break
            trail.append(rng.choice(options))
        if len(trail) >= 2:
            paths.append(tuple(trail))
    if not paths:
        return
    plan = plan_of(net, *paths)
    if check_feasible(net, plan).ok:
        for drop in range(len(plan.assignments)):
            kept = tuple(a for i, a in enumerate(plan.assignments) if i != drop)
            assert check_feasible(net, RoutePlan(kept)).ok
