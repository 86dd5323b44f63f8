from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import satnc.harness
import satnc.solver
from satnc import (
    CapacityPreset,
    FlowRequest,
    Formula,
    InfeasibleStart,
    RouteAssignment,
    RoutePlan,
    assignment_plan,
    check_feasible,
    compile_formula,
    inapprox_bound,
    load_instance,
    max_sat_brute,
    plain_instance,
    random_formula,
    run_verification,
    solve_exact,
    solve_greedy,
)
from satnc.solver import _Router
from conftest import FIXTURES, make_network, path_graph, random_connected_network
from oracles import (
    naive_best_accept,
    naive_plan_feasible,
    naive_separators,
    naive_simple_paths,
    reference_greedy,
)


def demand_instance(net, demands):
    flows = tuple(
        FlowRequest(s, t, copies, f"d{i}") for i, (s, t, copies) in enumerate(demands)
    )
    return plain_instance(net, flows)


def assert_unbounded_is_endpoint_capped(solve, net, demands):
    """An unbounded demand solves as the demand of min(cap[src], cap[dst])
    copies, at least one (a count must be positive; an endpoint without
    room carries none either way): the same plan, by flow label, the same
    certificate and the same node count."""
    cap = net.capacity
    capped = [(s, t, c or max(1, min(cap[s], cap[t]))) for s, t, c in demands]

    def shape(result):
        plan = [(a.flow.label, a.copy, a.path) for a in result.plan.assignments]
        return plan, result.optimal, result.nodes_explored, result.budget_hit

    unbounded = solve(demand_instance(net, demands))
    assert shape(unbounded) == shape(solve(demand_instance(net, capped)))
    return unbounded


def fitting_paths(net, s, t, limit=None):
    """The s-t paths whose own load fits the network's capacities, as
    ``_Router.paths`` lists them from the room ``solve_exact`` starts with:
    at most ``limit`` of them, plus whether more were left out."""
    router = _Router(net)
    found = router.paths(router.index[s], router.index[t], list(router.capacity))
    paths = [router.path_ids(p) for p in itertools.islice(found, limit)]
    return paths, next(found, None) is not None


def count_memo_hits(router, s, t):
    """Make every memo key of ``router``'s s-t search count the lookups
    that find it filed; the count is the returned list's one entry."""
    hits = [0]

    class Key(tuple):
        __hash__ = tuple.__hash__

        def __eq__(self, other):
            same = tuple.__eq__(self, other)
            hits[0] += same
            return same

    keys = router._separators(s, t)
    keys[:] = [key and (lambda room, key=key: Key(key(room))) for key in keys]
    return hits


def assert_floors_resume(net, s, t, routed=()):
    """With the ``routed`` paths charged, from each s-t path as ``floor``
    (and from none) ``_Router.paths`` lists the paths that fit beside them
    from that floor on, and gives the room back.  Returns how many pushes
    the failed-state memo refused."""
    every = sorted(naive_simple_paths(net.nodes, net.edges(), s, t))
    fitting = [
        p
        for p in every
        if naive_plan_feasible(net.nodes, net.edges(), dict(net.capacity), [*routed, p])
    ]
    router = _Router(net)
    si, ti = router.index[s], router.index[t]
    hits = count_memo_hits(router, si, ti)
    room = list(router.capacity)
    for p in routed:
        router.charge(room, map(router.index.__getitem__, p[:-1]), -1)
    before = list(room)
    for floor in [(), *every]:
        found = router.paths(si, ti, room, tuple(router.index[v] for v in floor))
        assert [router.path_ids(p) for p in found] == [p for p in fitting if p >= floor]
    assert room == before
    return hits[0]


def block_chain(rng):
    """Blocks of relays from s to t, each pair of neighbouring blocks joined
    by a cut node heard by most of both and by bridge nodes of capacity 0 or
    1 heard by one relay of each: graphs whose cut nodes separate s from t,
    where the failed-state memo keys on their own room and on bridges."""
    blocks = [
        [f"b{i}.{j}" for j in range(rng.randint(1, 3))] for i in range(rng.randint(2, 4))
    ]
    blocks[0].insert(0, "s")
    blocks[-1].append("t")
    edges = set()
    for block in blocks:
        edges |= {(u, v) for u in block for v in block if u < v and rng.random() < 0.5}
    for i, (a, b) in enumerate(itertools.pairwise(blocks)):
        edges |= {(u, f"c{i}") for u in a + b if rng.random() < 0.8}
        for j in range(rng.randint(0, 2)):
            edges |= {(rng.choice(a), f"q{i}.{j}"), (rng.choice(b), f"q{i}.{j}")}
    nodes = sorted({v for e in edges for v in e} | {"s", "t"})
    caps = {v: rng.randint(0, 1) if v[0] == "q" else rng.randint(3, 5) for v in nodes}
    return make_network(nodes, sorted(edges), caps)


def compiled_main_search(rng):
    """Main's search on a small compiled instance beside a random subset of
    the preloads: the network, main's ends and the preloads' paths."""
    inst = compile_formula(random_formula(rng.randint(2, 4), 3, 2, rng.randrange(10**6)))
    *preloads, main = inst.flows
    routed = [(f.src, f.dst) for f in preloads if rng.random() < 0.5]
    return inst.network, main.src, main.dst, routed


# Two triangles, s-a1-a2 and b1-b2-t, joined at the cut node c.
TRIANGLES = [
    ("s", "a1"), ("s", "a2"), ("a1", "a2"), ("a1", "c"), ("a2", "c"),
    ("c", "b1"), ("c", "b2"), ("b1", "b2"), ("b1", "t"), ("b2", "t"),
]
# ... and a bridge node q that a1 and b1 hear.
BRIDGED = [*TRIANGLES, ("a1", "q"), ("b1", "q")]


class TestEnumPaths:
    def test_unique_path(self):
        net = path_graph("ABC")
        paths, truncated = fitting_paths(net, "A", "C")
        assert paths == [("A", "B", "C")] and not truncated

    def test_cycle_order(self):
        net = make_network(
            ["A", "B", "C"], [("A", "B"), ("B", "C"), ("A", "C")], 10
        )
        paths, _ = fitting_paths(net, "A", "C")
        assert paths == [("A", "B", "C"), ("A", "C")]

    def test_tight_budget_empty(self):
        # B hears both A's and its own transmission: 2 > 1.
        caps = {"A": 9, "B": 1, "C": 9}
        net = make_network(["A", "B", "C"], [("A", "B"), ("B", "C")], caps)
        paths, _ = fitting_paths(net, "A", "C")
        assert paths == []

    def test_limit_truncation(self):
        net = make_network(
            ["A", "B", "C", "D"],
            [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D"), ("B", "C")],
            99,
        )
        paths, truncated = fitting_paths(net, "A", "D", limit=1)
        assert len(paths) == 1 and truncated

    def test_zero_capacity_source_admits_nothing(self):
        net = make_network(["A", "B"], [("A", "B")], {"A": 0, "B": 5})
        paths, _ = fitting_paths(net, "A", "B")
        assert paths == []

    def test_long_compiled_path_without_recursion(self):
        # 600 clauses put the terminal about 1,800 hops from the entry.
        inst = compile_formula(Formula.from_clauses(3, [(1, 2, 3)] * 600))
        paths, truncated = fitting_paths(inst.network, "E1", "T", limit=1)
        assert len(paths) == 1 and truncated
        assert paths[0][0] == "E1" and paths[0][-1] == "T"

    def test_walled_off_prefixes_cut_by_capacity(self):
        # Searched under unbounded room, this instance gave no E1-T path
        # within a minute: prefixes that wall T off were explored to the end.
        clauses = [(-2, 1), (-4, 1, 4, 4), (-1, 1), (-4, -1, 1, -3)]
        clauses += [(-4, -1, 4, -2), (-1, 2), (1, -1, 1, 2)]
        net = compile_formula(Formula.from_clauses(4, clauses)).network
        paths, truncated = fitting_paths(net, "E1", "T", limit=50)
        assert len(paths) == 50 and truncated
        caps = dict(net.capacity)
        assert all(naive_plan_feasible(net.nodes, net.edges(), caps, [p]) for p in paths)

    def test_zero_capacity_neighbor_blocks_transmission(self):
        # C never appears on the path but hears A transmit.
        net = make_network(
            ["A", "B", "C"], [("A", "B"), ("A", "C")], {"A": 5, "B": 5, "C": 0}
        )
        paths, _ = fitting_paths(net, "A", "B")
        assert paths == []


class TestSolveExact:
    def test_single_copy_fits(self):
        net = path_graph("ABC", cap=2)
        inst = demand_instance(net, [("A", "C", None)])
        result = solve_exact(inst)
        assert result.accepted_count == 1 and result.optimal

    def test_two_copies_fit_with_headroom(self):
        net = path_graph("ABC", cap=4)
        inst = demand_instance(net, [("A", "C", None)])
        result = solve_exact(inst)
        assert result.accepted_count == 2 and result.optimal

    def test_unbounded_copies_capped_by_capacity(self):
        # Each copy of a one-hop flow loads a and b by one, so ten fit.
        net = make_network(["a", "b"], [("a", "b")], 10)
        inst = demand_instance(net, [("a", "b", None)])
        result = solve_exact(inst)
        assert result.accepted_count == 10 and result.optimal
        assert check_feasible(net, result.plan).ok

    def test_compiled_single_clause(self):
        inst = compile_formula(Formula.from_clauses(2, [(1, -2)]))
        result = solve_exact(inst)
        assert result.accepted_count == 2 and result.optimal

    def test_compiled_unsat_pair(self):
        inst = compile_formula(Formula.from_clauses(1, [(1,), (-1,)]))
        result = solve_exact(inst)
        assert result.accepted_count == 2 and result.optimal  # preloads only

    def test_planted_width_4_core_certified(self):
        # All 16 sign patterns over 4 variables: every assignment falsifies
        # exactly one clause.  Main crosses at most 15 clause gadgets, and
        # the search must refute a 16th under every preload.
        clauses = [
            tuple(v if positive else -v for v, positive in zip((1, 2, 3, 4), signs))
            for signs in itertools.product((True, False), repeat=4)
        ]
        formula = Formula.from_clauses(4, clauses)
        inst = compile_formula(formula)
        max_sat, best = max_sat_brute(formula)
        main = len(inst.flows) - 1
        result = solve_exact(inst, required=(main,), start=assignment_plan(inst, best))
        assert max_sat == 15
        assert result.optimal and result.accepted_count == 1 + max_sat
        # As ``verify`` reads it: the optimum with main reaches m, so it is
        # the unconstrained one, and m is what an unsatisfiable formula
        # admits.
        assert result.accepted_count == len(clauses)

    def test_destination_in_another_component_rejected(self):
        # Two components: a-b-c and d-e.  Flows into the other component
        # have no path; the rest are routed.
        net = make_network(
            ["a", "b", "c", "d", "e"], [("a", "b"), ("b", "c"), ("d", "e")], 4
        )
        inst = demand_instance(net, [("a", "e", 1), ("a", "c", 1), ("d", "b", 1)])
        result = solve_exact(inst)
        assert result.accepted_count == 1 and result.optimal
        assert result.plan.paths() == [("a", "b", "c")]

    def test_budget_exhaustion_flagged(self):
        net = path_graph("ABCDE", cap=6)
        inst = demand_instance(net, [("A", "E", 2), ("B", "D", 2)])
        result = solve_exact(inst, budget=2)
        assert result.budget_hit and not result.optimal

    def test_required_flow_displaces_better_ones(self):
        # Two one-hop copies or the one two-hop copy fill A and B.
        net = path_graph("ABC", cap=2)
        inst = demand_instance(net, [("A", "B", 2), ("A", "C", 1)])
        assert solve_exact(inst).accepted_count == 2
        result = solve_exact(inst, required={1})
        assert result.accepted_count == 1 and result.optimal
        assert result.plan.paths() == [("A", "B", "C")]

    def test_unroutable_required_flow_accepts_nothing(self):
        net = make_network(["A", "B", "C"], [("A", "B")], 5)
        inst = demand_instance(net, [("A", "B", 1), ("A", "C", 1)])
        result = solve_exact(inst, required={1})
        assert result.accepted_count == 0 and result.optimal
        assert result.plan == RoutePlan()

    def test_unroutable_required_flow_settled_at_the_root(self):
        # Twenty one-hop optional flows ahead of a required flow into an
        # isolated node: a search for the required flow under every subset
        # of them would run 2**21 branches, past this budget.
        nodes = [f"{side}{i:02}" for i in range(20) for side in "ab"] + ["z"]
        edges = [(f"a{i:02}", f"b{i:02}") for i in range(20)]
        demands = [(a, b, 1) for a, b in edges] + [("a00", "z", 1)]
        inst = demand_instance(make_network(nodes, edges, 5), demands)
        result = solve_exact(inst, budget=10_000, required={20})
        assert result.plan == RoutePlan() and result.optimal
        assert result.nodes_explored == 1 and not result.budget_hit
        # Without the required flow every optional one is routed.
        assert solve_exact(inst, budget=10_000).accepted_count == 20

    def test_terminal_without_room_settled_at_the_root(self):
        # With no room at T, main has no path on a compiled instance.
        inst = compile_formula(random_formula(6, 12, 3, 5), CapacityPreset(terminal=0))
        main = len(inst.flows) - 1
        result = solve_exact(inst, budget=10_000, required={main})
        assert result.plan == RoutePlan() and result.optimal
        assert result.nodes_explored == 1

    def test_required_index_out_of_range(self):
        inst = demand_instance(path_graph("AB"), [("A", "B", 1)])
        with pytest.raises(ValueError, match="out of range"):
            solve_exact(inst, required={1})

    def test_optimal_start_is_kept(self):
        net = path_graph("ABC", cap=2)
        inst = demand_instance(net, [("A", "B", 2), ("A", "C", 1)])
        cold = solve_exact(inst)
        warm = solve_exact(inst, start=cold.plan)
        assert warm.plan == cold.plan and warm.optimal
        assert warm.nodes_explored < cold.nodes_explored

    def test_start_settles_routability_of_its_flows(self, monkeypatch):
        # Every sign pattern over two variables: x1 = x2 = True falsifies
        # only the last clause, so the start leaves out its preload alone.
        formula = Formula.from_clauses(2, [(1, 2), (1, -2), (-1, 2), (-1, -2)])
        inst = compile_formula(formula)
        start = assignment_plan(inst, {1: True, 2: True})
        routed = {a.flow for a in start.assignments}
        left_out = [f for f in inst.flows if f not in routed]
        assert left_out == [inst.flows[3]]
        seen = []
        search = _Router.paths

        def spy(router, s, t, *args, **kwargs):
            seen.append((router.ids[s], router.ids[t]))
            return search(router, s, t, *args, **kwargs)

        monkeypatch.setattr(_Router, "paths", spy)
        result = solve_exact(inst, required={len(inst.flows) - 1}, start=start)
        assert result.optimal and result.accepted_count == len(start)
        # One root search, for the left-out preload; the branch and bound
        # opens with flow 0.
        first = inst.flows[0]
        assert seen[:2] == [(left_out[0].src, left_out[0].dst), (first.src, first.dst)]

    def test_bad_start_rejected(self):
        net = path_graph("ABC", cap=2)
        inst = demand_instance(net, [("A", "B", 2), ("A", "C", 1)])
        short, long = inst.flows
        overloaded = RoutePlan(
            (
                RouteAssignment(short, 0, ("A", "B")),
                RouteAssignment(long, 0, ("A", "B", "C")),
            )
        )
        with pytest.raises(InfeasibleStart, match="^start plan is not feasible$"):
            solve_exact(inst, start=overloaded)
        no_long = RoutePlan((RouteAssignment(short, 0, ("A", "B")),))
        with pytest.raises(ValueError, match="required flow") as missing:
            solve_exact(inst, required={1}, start=no_long)
        extra_copy = RoutePlan((RouteAssignment(long, 1, ("A", "B", "C")),))
        with pytest.raises(ValueError, match="does not demand") as undemanded:
            solve_exact(inst, start=extra_copy)
        # Only an overloading start is one the caller may drop and solve cold.
        for shape_error in (missing.value, undemanded.value):
            assert not isinstance(shape_error, InfeasibleStart)
        # A copy index must be an int, not a bool, in range(copies), or any
        # int >= 0 for an unbounded demand; a negative one would let a
        # one-copy demand count two copies.
        for copies in (1, None):
            f = FlowRequest("s", "t", copies, "f")
            one_hop = plain_instance(make_network(["s", "t"], [("s", "t")], 5), [f])
            for bad in (-1, True, 0.5, "0"):
                bad_copy = RouteAssignment(f, bad, ("s", "t"))
                start = RoutePlan((bad_copy, RouteAssignment(f, 0, ("s", "t"))))
                with pytest.raises(ValueError, match="does not demand"):
                    solve_exact(one_hop, start=start)

    def test_unbounded_start_takes_any_copy_index(self):
        f = FlowRequest("s", "t", None, "f")
        inst = plain_instance(make_network(["s", "t"], [("s", "t")], 5), [f])
        start = RoutePlan((RouteAssignment(f, 7, ("s", "t")),))
        result = solve_exact(inst, start=start)
        assert result.optimal and result.accepted_count == 5

    def test_empty_path_is_no_accepted_copy(self):
        # a-b plus an isolated c: the a->c flow has no route, so the optimum
        # is 0; an empty path must not pass as a routed copy.
        net = make_network(["a", "b", "c"], [("a", "b")], 5)
        inst = demand_instance(net, [("a", "c", 1)])
        (flow,) = inst.flows
        for path in ((), ("a",)):
            with pytest.raises(ValueError, match="endpoints"):
                RoutePlan((RouteAssignment(flow, 0, path),))
        result = solve_exact(inst)
        assert result.accepted_count == 0 and result.optimal

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_rejected(self, budget):
        inst = demand_instance(path_graph("AB"), [("A", "B", 1)])
        with pytest.raises(ValueError, match="at least 1"):
            solve_exact(inst, budget=budget)

    def test_plan_always_feasible(self):
        inst = load_instance(FIXTURES / "greedy_gap.json")
        result = solve_exact(inst)
        assert check_feasible(inst.network, result.plan).ok
        assert result.accepted_count == len(result.plan.assignments)


class TestSeparators:
    """The failed-state memo of ``_Router.paths``: which nodes key it, what
    the keys read, and that it loses no path."""

    @staticmethod
    def bridged(**caps):
        nodes = sorted({v for e in BRIDGED for v in e})
        return make_network(nodes, BRIDGED, {v: caps.get(v, 3) for v in nodes})

    @staticmethod
    def separators(net, s="s", t="t"):
        router = _Router(net)
        keys = router._separators(router.index[s], router.index[t])
        return [router.ids[v] for v, key in enumerate(keys) if key is not None]

    def test_cut_node_is_the_one_separator(self):
        # A capacity-1 bridge cannot relay, so c cuts the blocks apart.
        assert self.separators(self.bridged(q=1)) == ["c"]
        # At capacity 2 it relays a1-q-b1 around c.
        assert self.separators(self.bridged(q=2)) == []

    def test_key_reads_only_boundary_rooms(self):
        router = _Router(self.bridged(q=1))
        c, q, a2, b2 = map(router.index.__getitem__, ("c", "q", "a2", "b2"))
        key = router._separators(router.index["s"], router.index["t"])[c]
        room = list(router.capacity)
        base = key(room)

        def moved(v, value):
            return key([value if u == v else r for u, r in enumerate(room)])

        # q, heard by a1 and by b1 alone on the t side, counts as blocking
        # b1 or not; c, heard by b1 and b2, by its room.
        assert moved(q, 0) != base
        assert moved(c, 1) != base
        # a2 relays on the s side and b2 on the t side: neither is read.
        assert moved(a2, 0) == moved(b2, 1) == base

    def test_key_names_each_blocked_relay_once(self):
        # Every path runs s, a, c, then b1 or b2.  The capacity-1 nodes p1
        # and p2 are heard by a and by b1 alone on c's t side, p3 by a and
        # by b2 alone.
        edges = [("s", "a"), ("a", "c"), ("c", "b1"), ("c", "b2"), ("b1", "t"),
                 ("b2", "t"), ("a", "p1"), ("a", "p2"), ("a", "p3"),
                 ("b1", "p1"), ("b1", "p2"), ("b2", "p3")]
        nodes = sorted({v for e in edges for v in e})
        caps = {v: 1 if v.startswith("p") else 3 for v in nodes}
        router = _Router(make_network(nodes, edges, caps))
        c = router.index["c"]
        key = router._separators(router.index["s"], router.index["t"])[c]

        def drained(v):
            room = list(router.capacity)
            room[router.index[v]] = 0
            return key(room)

        # p1 and p2 block the same relay, b1; p3 blocks b2.
        assert drained("p1") == drained("p2")
        assert drained("p1") != drained("p3")
        assert drained("p1") != key(list(router.capacity))

    @pytest.mark.parametrize(
        "edges, caps",
        [
            # c hears a1 and a2 when both are on the trail: none of its room
            # is left for b1 or b2, though with one of them there is.
            (BRIDGED, {"c": 3, "q": 1}),
            # The floor through the capacity-1 b2 does not fit, and nothing
            # after it through a1 and c does; through a2 and c, b1 does.
            (
                [("s", "a1"), ("s", "a2"), ("a1", "c"), ("a2", "c"),
                 ("c", "b1"), ("c", "b2"), ("b1", "t"), ("b2", "t")],
                {"b2": 1},
            ),
        ],
        ids=["room-of-boundary-node", "floor-resumed-level"],
    )
    def test_memo_loses_no_path(self, edges, caps):
        # Every other node has room to spare.
        nodes = sorted({v for e in edges for v in e})
        net = make_network(nodes, edges, {v: caps.get(v, 5) for v in nodes})
        assert_floors_resume(net, "s", "t")


class TestRelayReachability:
    """A path's inner nodes hear two transmissions, so only relays carry
    one: the relay walk at a search's first push decides reachability."""

    def test_capacity_one_junction_stops_at_first_push(self):
        # s reaches a clique of relays and, through q of capacity 1, t.
        clique = [f"k{i}" for i in range(6)]
        edges = [("s", v) for v in clique] + list(itertools.combinations(clique, 2))
        edges += [("k0", "q"), ("q", "t")]
        nodes = sorted({v for e in edges for v in e})
        net = make_network(nodes, edges, {v: 1 if v == "q" else 9 for v in nodes})
        router = _Router(net)
        s, t = router.index["s"], router.index["t"]
        assert router._separators(s, t) == []

        class Room(list):
            """A room list that counts its writes."""

            writes = 0

            def __setitem__(self, i, value):
                Room.writes += 1
                super().__setitem__(i, value)

        room = Room(router.capacity)
        assert list(router.paths(s, t, room)) == []
        assert room == list(router.capacity)
        # s took its room and gave it back; no clique node was pushed.
        assert Room.writes == 2 * len(router.tx[s])
        # At capacity 2, q relays and the search finds the clique's paths.
        net = make_network(nodes, edges, {v: 2 if v == "q" else 9 for v in nodes})
        paths, _ = fitting_paths(net, "s", "t")
        assert paths and all(p[-3:] == ("k0", "q", "t") for p in paths)

    def test_no_room_at_destination_ends_the_search(self):
        # B, which does not hear D, would fit.
        net = path_graph("ABCD", cap=2)
        router = _Router(net)
        room = list(router.capacity)
        room[router.index["D"]] = 0
        assert list(router.paths(router.index["A"], router.index["D"], room)) == []
        assert router._keys == {}  # the search never pushed


class TestRouterRoom:
    """The path search borrows the caller's ``room`` list and hands it back
    unchanged at every yield and at the end."""

    def test_restored_at_yield_exhaustion_and_close(self):
        rng = random.Random(8)
        suspended = 0
        for _ in range(20):
            net = random_connected_network(rng, rng.randint(3, 8), cap_range=(2, 8))
            router = _Router(net)
            room = list(router.capacity)
            s, t = rng.sample(range(len(net.nodes)), 2)
            every = list(router.paths(s, t, room))
            assert room == list(router.capacity)
            for floor in [(), *every]:
                suffix = every[every.index(floor) :] if floor else every
                gen = router.paths(s, t, room, floor)
                for _ in suffix:
                    next(gen)  # suspended at a yield
                    suspended += 1
                    assert room == list(router.capacity)
                    if rng.random() < 0.3:
                        break
                gen.close()
                assert room == list(router.capacity)
        assert suspended > 100

    def test_solve_exact_hands_back_full_room(self, monkeypatch, worked_instance):
        seen = []
        search = _Router.paths

        def spy(router, s, t, room, *args, **kwargs):
            seen.append((router, s, t, room))
            return search(router, s, t, room, *args, **kwargs)

        monkeypatch.setattr(_Router, "paths", spy)
        main = len(worked_instance.flows) - 1
        gap = load_instance(FIXTURES / "greedy_gap.json")
        for inst, required in ((worked_instance, {main}), (gap, set())):
            seen.clear()
            assert solve_exact(inst, required=required).optimal
            router, s, t, room = seen[-1]
            assert all(r is room for *_, r in seen)
            assert room == list(router.capacity)
            full = list(router.capacity)
            assert list(search(router, s, t, room)) == list(search(router, s, t, full))


class TestRootCertificate:
    """A warm start that meets the root bound is proven optimal by that
    bound alone, and returned as it is, before any router is built."""

    @pytest.mark.parametrize(
        "shape",  # (n, m, k, seed) of a random formula, or the worked example
        [None, *((4, 3, 3, s) for s in range(3)), *((5, 6, 3, s) for s in range(3))],
        ids=lambda shape: "worked" if shape is None else f"random{shape}",
    )
    def test_satisfiable_start_certified_without_path_search(
        self, monkeypatch, worked_formula, shape
    ):
        f = worked_formula if shape is None else random_formula(*shape)
        count, best = max_sat_brute(f)
        assert count == len(f.clauses)
        inst = compile_formula(f)
        start = assignment_plan(inst, best)
        assert len(start) == len(f.clauses) + 1  # the root bound: m + 1

        def no_router(*args, **kwargs):
            raise AssertionError("a router was built")

        monkeypatch.setattr(satnc.solver, "_Router", no_router)
        result = solve_exact(inst, required={len(inst.flows) - 1}, start=start)
        assert result.optimal and not result.budget_hit
        assert result.nodes_explored == 1
        assert result.plan is start

    # (nodes_explored, accepted_count, optimal) of each trial's warm-started
    # solve with main required, as the solver gave them before the root
    # bound was tested ahead of the routability search.
    @pytest.mark.parametrize(
        ("shape", "seed", "pinned"),
        [
            (
                (3, 7, 2),
                2,
                [(22, 7, True), (1, 8, True), (1, 8, True), (22, 7, True)]
                + [(1, 8, True)] * 3
                + [(22, 7, True), (1, 8, True), (22, 7, True)],
            ),
            ((4, 3, 3), 1, [(1, 4, True)] * 10),
        ],
    )
    def test_warm_started_trials_pinned(self, monkeypatch, shape, seed, pinned):
        seen = []

        def spy(inst, *args, **kwargs):
            result = solve_exact(inst, *args, **kwargs)
            if kwargs.get("required"):
                assert kwargs.get("start") is not None
                seen.append(
                    (result.nodes_explored, result.accepted_count, result.optimal)
                )
            return result

        monkeypatch.setattr(satnc.harness, "solve_exact", spy)
        assert run_verification(*shape, 10, seed=seed).all_ok
        assert seen == pinned


def budget_draw(kind, *args):
    """A fixed solve: a cold one on a 7-node plain graph with three demands
    of ``copies`` each, or a warm one with main required on a compiled
    unsatisfiable formula; the instance and the solve's keyword arguments."""
    if kind == "plain":
        seed, copies = args
        rng = random.Random(seed)
        net = random_connected_network(rng, 7, cap_range=(1, 5))
        flows = tuple(
            FlowRequest(*rng.sample(net.nodes, 2), copies, f"d{i}") for i in range(3)
        )
        return plain_instance(net, flows), {}
    formula = random_formula(*args)
    inst = compile_formula(formula)
    start = assignment_plan(inst, max_sat_brute(formula)[1])
    return inst, {"required": (len(inst.flows) - 1,), "start": start}


# Each draw's full node count and its accepted count under budgets 1-40,
# as the solver gave them before its B&B nodes kept their bound sums.  On
# each plain draw, a bound not tested again after a child returns, with a
# better incumbent, explores more nodes.
@pytest.mark.parametrize(
    ("draw", "nodes", "accepted"),
    [
        (("plain", 0, 1), 14, [0] * 4 + [1] * 7 + [2] * 29),
        (("plain", 20, 1), 12, [0] * 4 + [1] * 5 + [2] * 31),
        (("plain", 47, 1), 22, [0] * 4 + [1] * 5 + [2] * 9 + [3] * 22),
        (("plain", 31, 2), 21, [0] * 6 + [3] * 10 + [4] * 24),
        (("plain", 42, 2), 13, [0] * 6 + [3] * 34),
        (("plain", 113, 2), 15, [0] * 4 + [1] * 8 + [2] * 28),
        (("plain", 20, None), 21, [0] * 4 + [1] * 5 + [2] * 8 + [3] * 23),
        (("plain", 42, None), 25, [0] * 6 + [3] * 13 + [5] * 21),
        (("plain", 75, None), 31, [0] * 5 + [2] * 22 + [3] * 13),
        (("compiled", 3, 7, 2, 5), 22, [7] * 40),
        (("compiled", 3, 7, 2, 7), 22, [7] * 40),
        (("compiled", 5, 12, 3, 256), 37, [12] * 40),
        (("compiled", 5, 12, 3, 739), 37, [12] * 40),
    ],
    ids=str,
)
def test_budget_cutoffs_pinned(draw, nodes, accepted):
    # A budget below the node count stops the search one node past it.
    inst, kwargs = budget_draw(*draw)
    for budget, count in enumerate(accepted, 1):
        r = solve_exact(inst, budget=budget, **kwargs)
        got = (r.accepted_count, r.optimal, r.nodes_explored, r.budget_hit)
        assert got == (count, budget >= nodes, min(budget + 1, nodes), budget < nodes)
    assert solve_exact(inst, **kwargs).nodes_explored == nodes


@pytest.mark.parametrize("shape", [(4, 3, 3, 10, 1), (3, 7, 2, 10, 2)])
def test_one_feasibility_check_per_trial(monkeypatch, shape):
    # The solver checks the warm start; the harness checks nothing once the
    # optimum with main reaches m, as it does on every one of these trials.
    calls = []

    def counting(net, plan):
        calls.append(plan)
        return check_feasible(net, plan)

    monkeypatch.setattr(satnc.harness, "check_feasible", counting)
    monkeypatch.setattr(satnc.solver, "check_feasible", counting)
    *dims, trials, seed = shape
    assert run_verification(*dims, trials, seed=seed).all_ok
    assert len(calls) == trials


class TestSolveGreedy:
    def test_matches_exact_on_simple_chain(self):
        net = path_graph("ABC", cap=2)
        inst = demand_instance(net, [("A", "C", None)])
        assert solve_greedy(inst).accepted_count == 1

    def test_gap_fixture_strictly_worse(self):
        inst = load_instance(FIXTURES / "greedy_gap.json")
        greedy = solve_greedy(inst)
        exact = solve_exact(inst)
        assert exact.optimal
        assert greedy.accepted_count == 1
        assert exact.accepted_count == 3
        assert greedy.accepted_count < exact.accepted_count

    def test_empty_demand_list(self):
        inst = plain_instance(path_graph("AB"), ())
        assert solve_greedy(inst).accepted_count == 0

    def test_never_optimal_flag(self):
        inst = plain_instance(path_graph("AB"), (FlowRequest("A", "B", 1, "f"),))
        assert solve_greedy(inst).optimal is False

    def test_unreachable_demand_skipped(self):
        net = make_network("ABCD", [("A", "B"), ("C", "D")], 3)
        inst = demand_instance(net, [("A", "C", 1), ("C", "D", 1)])
        assert [a.flow.label for a in solve_greedy(inst).plan.assignments] == ["d1"]

    def test_worked_example_routes_only_the_preloads(self, worked_instance):
        # Main's shortest path jumps from clause 1 to clause 3 through the
        # conflict node n_2, which no route can cross.
        result = solve_greedy(worked_instance)
        assert [a.flow for a in result.plan.assignments] == list(
            worked_instance.flows[:-1]
        )

    @pytest.mark.parametrize(
        "inst",
        [
            pytest.param(lambda: load_instance(FIXTURES / "mid_formula.json"), id="mid"),
            pytest.param(
                lambda: compile_formula(random_formula(20, 80, 3, 1)), id="20-80-3"
            ),
        ],
    )
    def test_compiled_instance_routes_its_preloads(self, inst):
        inst = inst()
        result = solve_greedy(inst)
        assert [a.flow for a in result.plan.assignments] == list(inst.flows[:-1])
        assert result.accepted_count == len(inst.formula.clauses)


class TestInapproxBound:
    def test_k3(self):
        assert inapprox_bound(3) == Fraction(8, 7)

    def test_k2(self):
        assert inapprox_bound(2) == Fraction(4, 3)

    def test_strictly_decreasing_toward_one(self):
        values = [inapprox_bound(k) for k in range(2, 12)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v > 1 for v in values)

    def test_k_too_small(self):
        with pytest.raises(ValueError):
            inapprox_bound(1)


# --- properties ---------------------------------------------------------


def random_demand_instance(rng: random.Random, max_nodes=9, max_demands=3):
    net = random_connected_network(rng, rng.randint(3, max_nodes), cap_range=(0, 4))
    demands = []
    for _ in range(rng.randint(1, max_demands)):
        s, t = rng.sample(net.nodes, 2)
        demands.append((s, t, rng.randint(1, 2)))
    return net, demands


@given(st.integers(0, 100_000))
@settings(max_examples=60, deadline=None)
def test_exact_at_least_greedy_and_feasible(seed):
    rng = random.Random(seed)
    net, demands = random_demand_instance(rng)
    inst = demand_instance(net, demands)
    exact = solve_exact(inst)
    greedy = solve_greedy(inst)
    assert exact.optimal
    assert exact.accepted_count >= greedy.accepted_count
    assert check_feasible(net, exact.plan).ok
    assert check_feasible(net, greedy.plan).ok
    supply = sum(c for _, _, c in demands)
    assert exact.accepted_count <= supply


@given(st.integers(0, 100_000))
@settings(max_examples=60, deadline=None)
def test_greedy_matches_reference_greedy(seed):
    # Unbounded demands get one copy more than any capacity, as for exact.
    rng = random.Random(seed)
    net, demands = random_demand_instance(rng)
    demands = [(s, t, rng.choice([None, c])) for s, t, c in demands]
    inst = demand_instance(net, demands)
    spare = max(net.capacity.values()) + 1
    finite = [(s, t, c or spare) for s, t, c in demands]
    expected = reference_greedy(net.nodes, net.edges(), dict(net.capacity), finite)
    result = assert_unbounded_is_endpoint_capped(solve_greedy, net, demands)
    assert [(a.flow, a.path) for a in result.plan.assignments] == [
        (inst.flows[di], path) for di, path in expected
    ]


@given(st.integers(0, 100_000))
@settings(max_examples=40, deadline=None)
def test_enum_paths_equals_naive_enumerator(seed):
    rng = random.Random(seed)
    net = random_connected_network(rng, rng.randint(3, 7), cap_range=(0, 9))
    s, t = rng.sample(net.nodes, 2)
    ours, truncated = fitting_paths(net, s, t)
    assert not truncated
    naive = [
        p
        for p in naive_simple_paths(net.nodes, net.edges(), s, t)
        if naive_plan_feasible(net.nodes, net.edges(), dict(net.capacity), [p])
    ]
    assert sorted(ours) == sorted(naive)
    assert ours == sorted(ours)  # deterministic lexicographic emission order


@given(st.integers(0, 100_000))
@settings(max_examples=30, deadline=None)
def test_floor_resumes_the_naive_path_list(seed):
    # Node ids n0..n10 sort as strings (n10 before n2), so index order is
    # id order only if the router numbers nodes by sorted id.
    rng = random.Random(seed)
    net = random_connected_network(rng, rng.randint(3, 11), cap_range=(0, 9))
    assert_floors_resume(net, *rng.sample(net.nodes, 2))


@given(st.integers(0, 100_000))
@settings(max_examples=100, deadline=None)
def test_memo_loses_no_path_on_block_chains(seed):
    assert_floors_resume(block_chain(random.Random(seed)), "s", "t")


@given(st.integers(0, 100_000))
@settings(max_examples=10, deadline=None)
def test_memo_loses_no_path_on_compiled_instances(seed):
    assert_floors_resume(*compiled_main_search(random.Random(seed)))


def test_memo_hits_on_fixed_draws():
    # The two tests above check the memo only where it refuses pushes.  On
    # these draws it does, and a memo that forgets a cut node's room, or
    # files the states of floor-resumed levels, loses paths on some of them.
    chains = [
        assert_floors_resume(block_chain(random.Random(seed)), "s", "t") for seed in range(300)
    ]
    compiled = [
        assert_floors_resume(*compiled_main_search(random.Random(seed))) for seed in range(10)
    ]
    assert sum(map(bool, chains)) >= 10 and any(compiled)


def assert_separators_match_naive(net, s, t):
    """``_separators`` keys exactly the naive separators of s and t, and is
    empty exactly when no relay path joins them; returns the naive set."""
    expected = naive_separators(net.nodes, net.edges(), dict(net.capacity), s, t)
    router = _Router(net)
    keys = router._separators(router.index[s], router.index[t])
    if expected is None:
        assert keys == []
    else:
        assert keys and {router.ids[v] for v, key in enumerate(keys) if key} == expected
    return expected


@given(st.integers(0, 100_000))
@settings(max_examples=100, deadline=None)
def test_separators_match_naive_on_plain_graphs(seed):
    # Capacities 0-3, so capacity-1 junctions, which cannot relay, cut
    # some pairs apart and leave others joined only around them.
    rng = random.Random(seed)
    net = random_connected_network(rng, rng.randint(3, 10), cap_range=(0, 3))
    assert_separators_match_naive(net, *rng.sample(net.nodes, 2))


@given(st.integers(0, 100_000))
@settings(max_examples=10, deadline=None)
def test_separators_match_naive_on_compiled_instances(seed):
    net, s, t, _ = compiled_main_search(random.Random(seed))
    assert assert_separators_match_naive(net, s, t)


def test_separators_match_naive_on_fixed_draws():
    # The random tests above hold both outcomes only if the draws do: on
    # these, some pairs have no relay path, some have one with separators.
    found = []
    for seed in range(200):
        rng = random.Random(seed)
        net = random_connected_network(rng, rng.randint(3, 10), cap_range=(0, 3))
        found.append(assert_separators_match_naive(net, *rng.sample(net.nodes, 2)))
    assert found.count(None) >= 20 and sum(map(bool, found)) >= 20


def random_router_network(rng):
    """A plain graph with capacities 0-4, or a small compiled instance."""
    if rng.random() < 0.7:
        return random_connected_network(rng, rng.randint(2, 12), cap_range=(0, 4))
    n, m = rng.randint(2, 4), rng.randint(1, 4)
    return compile_formula(random_formula(n, m, 2, rng.randrange(10**6))).network


@given(st.integers(0, 100_000))
@settings(max_examples=60, deadline=None)
def test_router_tables_match_the_network(seed):
    net = random_router_network(random.Random(seed))
    router = _Router(net)
    ids, index = router.ids, router.index
    assert list(ids) == sorted(net.nodes)
    assert index == {v: i for i, v in enumerate(ids)}
    assert list(router.capacity) == [net.capacity[v] for v in ids]
    for i, v in enumerate(ids):
        assert tuple(ids[u] for u in router.tx[i]) == net.transmit_sets[v]
        assert list(router.adj[i]) == sorted(index[u] for u in net.adjacency(v))
    # The relay marks: 0 for capacity 2 or more.  The heard list: each other
    # node with two or more relay neighbours, and those neighbours.
    marks, heard = router._relays
    relay = [net.capacity[v] >= 2 for v in ids]
    assert [not mark for mark in marks] == relay
    expected = []
    for i, v in enumerate(ids):
        hearers = sorted(index[u] for u in net.adjacency(v) if relay[index[u]])
        if not relay[i] and len(hearers) > 1:
            expected.append((i, hearers))
    assert [(v, list(hearers)) for v, hearers in heard] == expected


@given(st.integers(0, 100_000))
@settings(max_examples=25, deadline=None)
def test_exact_matches_exhaustive_oracle(seed):
    rng = random.Random(seed)
    net, demands = random_demand_instance(rng, max_nodes=7, max_demands=2)
    inst = demand_instance(net, demands)
    result = solve_exact(inst)
    assert result.optimal
    expected = naive_best_accept(net.nodes, net.edges(), dict(net.capacity), demands)
    assert result.accepted_count == expected


@given(st.integers(0, 100_000))
@settings(max_examples=25, deadline=None)
def test_exact_unbounded_matches_oracle(seed):
    # The oracle gets one copy more than any capacity, so it can see a
    # copy cap that is too low.
    rng = random.Random(seed)
    net = random_connected_network(rng, rng.randint(2, 5), cap_range=(2, 5))
    demands = [
        (*rng.sample(net.nodes, 2), rng.choice([None, 1]))
        for _ in range(rng.randint(1, 2))
    ]
    result = assert_unbounded_is_endpoint_capped(solve_exact, net, demands)
    assert result.optimal
    spare = max(net.capacity.values()) + 1
    finite = [(s, t, c or spare) for s, t, c in demands]
    expected = naive_best_accept(net.nodes, net.edges(), dict(net.capacity), finite)
    assert result.accepted_count == expected


@given(st.integers(0, 100_000))
@settings(max_examples=25, deadline=None)
def test_required_matches_exhaustive_oracle(seed):
    rng = random.Random(seed)
    net, demands = random_demand_instance(rng, max_nodes=7, max_demands=2)
    inst = demand_instance(net, demands)
    required = {fi for fi in range(len(demands)) if rng.random() < 0.5} or {0}
    result = solve_exact(inst, required=required)
    assert result.optimal
    expected = naive_best_accept(
        net.nodes, net.edges(), dict(net.capacity), demands, required
    )
    assert result.accepted_count == expected == len(result.plan)
    assert check_feasible(net, result.plan).ok
    if expected:
        routed = {a.flow for a in result.plan.assignments}
        assert {inst.flows[fi] for fi in required} <= routed


@given(st.integers(0, 100_000))
@settings(max_examples=100, deadline=None)
def test_start_never_changes_the_optimum(seed):
    # A random plan as the start, mostly kept feasible: feasible ones that
    # route the required flow leave the optimum as it was and only prune,
    # every other one is refused.
    rng = random.Random(seed)
    net, demands = random_demand_instance(rng)
    inst = demand_instance(net, demands)
    required = {0} if rng.random() < 0.5 else set()
    routed: list[RouteAssignment] = []
    for flow in inst.flows:
        paths = naive_simple_paths(net.nodes, net.edges(), flow.src, flow.dst)
        for ci in range(flow.copies):
            if paths and rng.random() < 0.7:
                more = [*routed, RouteAssignment(flow, ci, rng.choice(paths))]
                fits = check_feasible(net, RoutePlan(tuple(more))).ok
                if fits or rng.random() < 0.15:
                    routed = more
    start = RoutePlan(tuple(routed))
    if check_feasible(net, start).ok and all(
        inst.flows[fi] in {a.flow for a in routed} for fi in required
    ):
        cold = solve_exact(inst, required=required)
        warm = solve_exact(inst, required=required, start=start)
        assert warm.optimal and warm.accepted_count == cold.accepted_count
        assert warm.nodes_explored <= cold.nodes_explored
        assert check_feasible(net, warm.plan).ok
    else:
        with pytest.raises(ValueError):
            solve_exact(inst, required=required, start=start)


@given(st.integers(0, 100_000))
@settings(max_examples=30, deadline=None)
def test_determinism(seed):
    rng = random.Random(seed)
    net, demands = random_demand_instance(rng)
    inst = demand_instance(net, demands)
    first = solve_exact(inst)
    second = solve_exact(inst)
    assert first == second
    assert solve_greedy(inst) == solve_greedy(inst)
