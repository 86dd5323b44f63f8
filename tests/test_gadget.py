from __future__ import annotations

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import satnc.gadget
from satnc import (
    AssignmentContradiction,
    CapacityPreset,
    Formula,
    NcInstance,
    Network,
    RouteAssignment,
    RoutePlan,
    assignment_plan,
    audit,
    check_feasible,
    classify_path,
    compile_formula,
    conflict_pairs,
    dumps_instance,
    eval_formula,
    loads_instance,
    max_sat_brute,
    parse_dimacs,
    path_to_assignment,
    preload_plan,
    random_formula,
    solve_exact,
    to_dot,
)
from satnc.cnf import realizable_true_sets
from conftest import A1, A2, BROKEN_PATH_RAW, FIXTURES, omitted_preloads
from oracles import reference_audit, reference_compile, subset_sizes


def paper_names(inst, path):
    return [inst.paper_name(v) or v for v in path]


def main_path(inst, a):
    """The main route of the plan a total assignment induces."""
    return assignment_plan(inst, a).assignments[-1].path


def segments(inst, path):
    """Split a main path into per-clause entry..exit runs."""
    out = []
    for i in range(1, len(inst.formula.clauses) + 1):
        start = path.index(f"E{i}")
        end = path.index(f"X{i}")
        out.append(path[start : end + 1])
    return out


class TestCompileCounts:
    def test_worked_example(self, worked_instance):
        counts = worked_instance.subset_counts()
        assert counts == {"V1": 6, "V2": 12, "V3": 24, "V4": 3, "V5": 6, "aux": 4}

    def test_single_clause(self):
        inst = compile_formula(Formula.from_clauses(2, [(1, -2)]))
        counts = inst.subset_counts()
        assert counts == {"V1": 2, "V2": 2, "V3": 4, "V4": 1, "aux": 2}

    def test_contradiction_pair_conflict_count(self):
        f = Formula.from_clauses(1, [(1,), (-1,)])
        inst = compile_formula(f)
        assert inst.subset_counts()["V5"] == 1

    def test_empty_formula_rejected(self):
        with pytest.raises(ValueError):
            compile_formula(Formula.from_clauses(2, []))

    def test_deterministic(self, worked_formula):
        assert compile_formula(worked_formula) == compile_formula(worked_formula)

    def test_capacities(self, worked_instance):
        net = worked_instance.network
        for info in worked_instance.node_table:
            # Literal nodes get their clause's width + 2; every clause is 4 wide.
            expected = {"V1": 3, "V2": 6, "V3": 3, "V4": 3, "V5": 1}.get(info.subset)
            if expected is not None:
                assert net.capacity_of(info.id) == expected
        assert net.capacity_of("A1") == 1
        assert net.capacity_of("T") == 2

    def test_flow_layout(self, worked_instance):
        flows = worked_instance.flows
        assert [f.label for f in flows] == [
            "preload-1", "preload-2", "preload-3", "main",
        ]
        for i, flow in enumerate(flows[:-1], 1):
            assert (flow.src, flow.dst, flow.copies) == (f"A{i}", f"B{i}", 1)
        main = flows[-1]
        assert (main.src, main.dst, main.copies) == ("E1", "T", None)


class TestLayoutTable:
    """Every clause gadget's layout (ids, rows, internal edges, audit roles)
    is shared through the widths' table (``_shape``); the compiled bytes
    must not depend on what the table holds."""

    def outputs(self, formula):
        inst = compile_formula(formula)
        return dumps_instance(inst).encode(), to_dot(inst).encode()

    def test_golden_bytes_cold_warm_and_after_eviction(self):
        # The mid formula has widths 1-4 and repeated literals; the goldens
        # are what `compile --dot` writes for it.
        table = satnc.gadget._shape
        mid = parse_dimacs((FIXTURES / "mid_formula.cnf").read_text(encoding="utf-8"))
        golden = (
            (FIXTURES / "mid_formula.json").read_bytes(),
            (FIXTURES / "mid_formula.dot").read_bytes(),
        )
        satnc.gadget._frame.cache_clear()
        table.cache_clear()
        assert self.outputs(mid) == golden
        assert table.cache_info().misses == 1
        assert self.outputs(mid) == golden
        assert table.cache_info().misses == 1  # every layout reused

        # A long formula of another shape, every literal positive so no
        # conflict node is made: it evicts the mid formula's layouts.
        big = Formula.from_clauses(3, [tuple(range(1, i % 3 + 2)) for i in range(300)])
        cold = compile_formula(big)
        assert cold == reference_compile(big)
        assert dumps_instance(compile_formula(big)) == dumps_instance(cold)
        info = table.cache_info()
        assert info.misses == 2 and info.currsize == 1
        assert self.outputs(mid) == golden
        assert table.cache_info().misses == info.misses + 1


class TestFrame:
    """A compile reads its clause widths' table (``_shape``) and extends
    the network of its shape and gadget capacities (``_frame``); audits and
    plans read the widths' table.  Each table holds one entry, and no
    result may depend on which shape they hold."""

    def test_golden_bytes_cold_warm_and_after_eviction(self, worked_formula):
        # The mid formula has widths 1-4 and repeated literals; the goldens
        # are what `compile --dot` writes for it, by default and under
        # `--caps v4=5,v5=2`.
        shape, frame = satnc.gadget._shape, satnc.gadget._frame
        mid = parse_dimacs((FIXTURES / "mid_formula.cnf").read_text(encoding="utf-8"))
        golden = {
            stem: (
                (FIXTURES / f"{stem}.json").read_bytes(),
                (FIXTURES / f"{stem}.dot").read_bytes(),
            )
            for stem in ("mid_formula", "mid_formula_caps")
        }
        # The bypass capacity keys the frame, so this evicts the default
        # frame; the widths' table keeps its entry.
        raised = CapacityPreset(bypass=5, conflict=2)

        def outputs(caps=CapacityPreset()):
            inst = compile_formula(mid, caps)
            return dumps_instance(inst).encode(), to_dot(inst).encode()

        shape.cache_clear()
        frame.cache_clear()
        assert outputs() == golden["mid_formula"]  # cold
        assert outputs() == golden["mid_formula"]  # warm
        assert frame.cache_info()[:2] == (1, 1)
        assert outputs(raised) == golden["mid_formula_caps"]
        assert frame.cache_info()[:2] == (1, 2)
        assert shape.cache_info().misses == 1
        worked = compile_formula(worked_formula)  # another shape
        assert worked == reference_compile(worked_formula)
        assert frame.cache_info()[:3] == (1, 3, 1)  # one entry, the last shape
        assert shape.cache_info()[1:4] == (2, 1, 1)
        assert outputs(raised) == golden["mid_formula_caps"]  # both built again
        assert outputs() == golden["mid_formula"]
        assert frame.cache_info()[:2] == (1, 5)
        assert shape.cache_info().misses == 3

    @pytest.mark.parametrize(
        "caps", [CapacityPreset(), CapacityPreset(literal=3)], ids=["default", "v2=3"]
    )
    def test_loaded_instance_audits_and_plans_whatever_the_table_holds(
        self, worked_formula, caps
    ):
        # A loaded instance has no compile of its own behind it: its audit
        # and plans read the widths' table, which holds another shape here.
        table = satnc.gadget._shape
        mid = parse_dimacs((FIXTURES / "mid_formula.cnf").read_text(encoding="utf-8"))
        inst = compile_formula(mid, caps)
        failures = reference_audit(inst).failures
        assert audit(inst).failures == failures
        assert audit(inst).ok == (caps == CapacityPreset())
        assignments = [
            dict(enumerate(bits, 1))
            for bits in itertools.product((False, True), repeat=mid.var_count)
        ]
        plans = [assignment_plan(inst, a) for a in assignments]
        paths = [plan.assignments[-1].path for plan in plans]
        loaded = loads_instance(dumps_instance(inst))
        reads = [
            (lambda: audit(loaded).failures, failures),
            (lambda: [assignment_plan(loaded, a) for a in assignments], plans),
            (
                lambda: [path_to_assignment(loaded, p) for p in paths],
                [path_to_assignment(inst, p) for p in paths],
            ),
        ]
        for read, expected in reads:
            compile_formula(worked_formula)
            misses = table.cache_info().misses
            assert read() == expected
            assert table.cache_info().misses == misses + 1  # another shape held

    # The first node of each field's role in the worked example, which has
    # conflict nodes: the node a whole-list build rejects first.
    FIRST = {
        "entry_exit": "E1",
        "literal": "L1.1",
        "bypass": "B1",
        "conflict": "K1",
        "preload_src": "A1",
        "terminal": "T",
    }

    @pytest.mark.parametrize("field", sorted(FIRST))
    @pytest.mark.parametrize("bad, valid", [(True, 1), (3.0, 3), (-1, 1)])
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_invalid_capacity_raises_whatever_the_frame_holds(
        self, worked_formula, field, bad, valid, warm
    ):
        # True == 1 and 3.0 == 3, with equal hashes: a frame keyed on the
        # values alone would hand the valid preset's network to the bad one.
        message = f"capacity of {self.FIRST[field]!r} must be a non-negative integer"
        invalid = dataclasses.replace(CapacityPreset(), **{field: bad})
        with pytest.raises(ValueError) as whole:
            reference_compile(worked_formula, invalid)
        assert str(whole.value) == message
        satnc.gadget._frame.cache_clear()
        if warm:
            valid_preset = dataclasses.replace(CapacityPreset(), **{field: valid})
            compile_formula(worked_formula, valid_preset)
        with pytest.raises(ValueError) as got:
            compile_formula(worked_formula, invalid)
        assert str(got.value) == message


def identical(inst, ref):
    """The compile matches the reference byte for byte and row for row."""
    assert dumps_instance(inst) == dumps_instance(ref)
    assert to_dot(inst) == to_dot(ref)
    assert list(inst.network.transmit_sets.items()) == list(
        ref.network.transmit_sets.items()
    )
    assert list(inst.network.capacity.items()) == list(ref.network.capacity.items())
    assert (inst.node_table, inst.flows) == (ref.node_table, ref.flows)
    assert audit(inst).failures == audit(ref).failures


PRESETS = st.builds(
    CapacityPreset,
    entry_exit=st.integers(0, 4),
    literal=st.none() | st.integers(0, 7),
    bypass=st.integers(0, 5),
    conflict=st.integers(0, 3),
    preload_src=st.integers(0, 2),
    terminal=st.integers(0, 3),
)


@st.composite
def interleaved_compiles(draw):
    """A few shapes (clause widths and capacities) and a sequence of
    formulas over them, so a frame is built, reused and evicted."""
    n = draw(st.integers(1, 4))
    shapes = draw(
        st.lists(
            st.tuples(
                st.lists(st.integers(1, 5), min_size=1, max_size=5),
                st.just(CapacityPreset()) | PRESETS,
            ),
            min_size=1,
            max_size=3,
        )
    )
    literal = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    out = []
    for pick in draw(st.lists(st.integers(0, len(shapes) - 1), min_size=2, max_size=6)):
        widths, caps = shapes[pick]
        clauses = [draw(st.lists(literal, min_size=w, max_size=w)) for w in widths]
        out.append((Formula.from_clauses(n, clauses), caps))
    return out


@given(interleaved_compiles())
@settings(max_examples=80, deadline=None)
def test_compile_matches_the_reference_compile(compiles):
    for formula, caps in compiles:
        identical(compile_formula(formula, caps), reference_compile(formula, caps))


class TestDegreeFacts:
    def test_conflict_degree_two(self, worked_instance):
        for pair in worked_instance.conflicts:
            assert len(worked_instance.network.adjacency(f"K{pair.index}")) == 2

    def test_bypass_degree_three(self, worked_instance):
        for i in (1, 2, 3):
            assert worked_instance.network.adjacency(f"B{i}") == {
                f"E{i}",
                f"X{i}",
                f"A{i}",
            }

    def test_literal_clique(self, worked_instance):
        net = worked_instance.network
        for i, clause in enumerate(worked_instance.formula.clauses, 1):
            lits = [f"L{i}.{j}" for j in range(1, len(clause) + 1)]
            for a, b in itertools.combinations(lits, 2):
                assert net.has_edge(a, b)


class TestAssignmentToPath:
    """The main route ``assignment_plan`` gives a total assignment: each
    satisfied clause crossed through its true literals, and each unsatisfied
    one over its bypass, its preload left out."""

    def test_true_literal_segments(self, worked_instance):
        path = main_path(worked_instance, A1)
        seg1, seg2, seg3 = segments(worked_instance, path)
        assert paper_names(worked_instance, seg1) == [
            "n_1^1", "n_5^1", "n_6^1", "n_9^1", "n_12^1", "n_13^1", "n_4^1",
        ]
        assert paper_names(worked_instance, seg2) == [
            "n_1^2", "n_8^2", "n_9^2", "n_10^2", "n_4^2",
        ]
        # canonical clause-3 run: only the fourth literal is true
        assert paper_names(worked_instance, seg3) == [
            "n_1^3", "n_14^3", "n_15^3", "n_16^3", "n_4^3",
        ]
        assert path[-1] == "T"

    def test_wrong_assignment_fails_at_clause_3(self, worked_instance):
        plan = assignment_plan(worked_instance, A2)
        assert omitted_preloads(worked_instance, plan) == ["preload-3"]

    def test_feasible_with_preloads(self, worked_instance):
        path = main_path(worked_instance, A1)
        plan = RoutePlan(
            preload_plan(worked_instance).assignments
            + (RouteAssignment(worked_instance.flows[-1], 0, path),)
        )
        verdict = check_feasible(worked_instance.network, plan)
        assert verdict.ok


class TestPathToAssignment:
    def test_inverts_canonical_path(self, worked_instance):
        path = main_path(worked_instance, A1)
        partial = path_to_assignment(worked_instance, path)
        assert partial == {1: True, 2: True, 3: True, 4: False}

    def test_contradictory_visits(self, worked_instance):
        # L1.1 carries variable 1 positive, L2.1 carries it negated.
        with pytest.raises(AssignmentContradiction) as exc:
            path_to_assignment(worked_instance, ("L1.1", "L2.1"))
        assert exc.value.var == 1

    def test_pure_bypass_route_empty(self, worked_instance):
        route = ("E1", "B1", "X1", "E2", "B2", "X2", "E3", "B3", "X3", "T")
        assert path_to_assignment(worked_instance, route) == {}


class TestAudit:
    def test_worked_example_ok(self, worked_instance):
        assert audit(worked_instance).ok
        slack = reference_audit(worked_instance).margins
        assert len(slack) == 3
        assert all(margin >= 0 for margins in slack for margin in margins.values())

    @pytest.mark.parametrize("width", range(1, 9))
    def test_literal_capacity_fits_every_width(self, monkeypatch, width):
        # The default width + 2 fits the peak bound, so no segment is walked;
        # max(width + 1, 3) is the least capacity the walk finds clean.  The
        # second clause negates the first: every literal has a conflict node.
        pos = tuple(range(1, width + 1))
        f = Formula.from_clauses(width, [pos, tuple(-v for v in pos)])
        walked = []

        def record(clause):
            walked.append(clause)
            return realizable_true_sets(clause)

        monkeypatch.setattr(satnc.gadget, "realizable_true_sets", record)
        assert audit(compile_formula(f)).ok
        assert walked == []
        least = max(width + 1, 3)
        assert audit(compile_formula(f, CapacityPreset(literal=least))).ok
        assert bool(walked) == (least < width + 2)
        failures = audit(compile_formula(f, CapacityPreset(literal=least - 1))).failures
        assert failures[0] == "clause 1: intended segment overloads L1.1"

    def test_raised_bypass_capacity_not_blocked(self, worked_formula):
        report = audit(compile_formula(worked_formula, CapacityPreset(bypass=5)))
        assert not report.ok
        for i in (1, 2, 3):
            assert f"clause {i}: bypass not blocked" in report.failures

    def test_raised_conflict_capacity_not_blocked(self, worked_formula):
        report = audit(compile_formula(worked_formula, CapacityPreset(conflict=2)))
        assert not report.ok
        assert any("conflict not blocked" in f for f in report.failures)
        assert any("through-route not blocked" in f for f in report.failures)

    def test_squeezed_literal_capacity_overloads_intended_path(self, worked_formula):
        report = audit(compile_formula(worked_formula, CapacityPreset(literal=3)))
        assert any("intended segment overloads" in f for f in report.failures)

    def test_rebuilt_instance_audits_as_the_original(self, worked_formula):
        # The conflict pairs come from the formula: an instance rebuilt from
        # its parts cannot lose them and pass an audit the original fails.
        inst = compile_formula(worked_formula, CapacityPreset(conflict=2))
        rebuilt = NcInstance(inst.network, inst.flows, inst.node_table, inst.formula)
        assert rebuilt == inst
        failures = audit(rebuilt).failures
        assert failures == audit(inst).failures
        assert any("conflict not blocked" in f for f in failures)


def test_audit_matches_reference_audit():
    """Random formulas of widths 2-5, repeated and tautological literals
    included, under the default capacities and under random presets that
    break the gadget: the failures, in order, equal the reference audit's.
    Half the instances are rebuilt with a few random extra edges among the
    gadget's nodes, so a load the audit reads off the heard node's transmit
    tuple must be the one the reference charges from the transmitter."""
    rng = random.Random(7)
    kinds = (
        "intended segment overloads",
        "bypass not blocked",
        "conflict not blocked",
        "through-route not blocked",
    )
    seen = set()
    for _ in range(200):
        n = rng.randint(2, 5)
        lits = [v * sign for v in range(1, n + 1) for sign in (1, -1)]
        clauses = [
            [rng.choice(lits) for _ in range(rng.randint(2, 5))]
            for _ in range(rng.randint(1, 6))
        ]
        caps = CapacityPreset()
        if rng.random() < 0.7:
            caps = CapacityPreset(*(rng.randint(0, 6) for _ in range(6)))
        inst = compile_formula(Formula.from_clauses(n, clauses), caps)
        extra = []
        if rng.random() < 0.5:
            nodes = inst.network.nodes
            extra = [tuple(rng.sample(nodes, 2)) for _ in range(rng.randint(1, 4))]
            edges = [*inst.network.edges(), *extra]
            net = Network(nodes, edges, inst.network.capacity)
            inst = NcInstance(net, inst.flows, inst.node_table, inst.formula)
        failures = audit(inst).failures
        assert failures == reference_audit(inst).failures, (clauses, caps, extra)
        seen.update(kind for f in failures for kind in kinds if kind in f)
    assert seen == set(kinds)


class TestAssignmentPlan:
    def test_all_satisfied(self, worked_instance):
        plan = assignment_plan(worked_instance, A1)
        assert plan.assignments[:-1] == preload_plan(worked_instance).assignments
        assert plan.assignments[-1].flow == worked_instance.flows[-1]
        assert check_feasible(worked_instance.network, plan).ok

    def test_falsified_clause_drops_its_preload(self, worked_instance):
        plan = assignment_plan(worked_instance, A2)
        labels = [a.flow.label for a in plan.assignments]
        assert labels == ["preload-1", "preload-2", "main"]
        assert plan.assignments[-1].path[-4:] == ("E3", "B3", "X3", "T")
        assert check_feasible(worked_instance.network, plan).ok

    def test_single_clause_falsified(self):
        inst = compile_formula(Formula.from_clauses(2, [(1, 2)]))
        plan = assignment_plan(inst, {1: False, 2: False})
        assert plan.paths() == [("E1", "B1", "X1", "T")]
        assert check_feasible(inst.network, plan).ok


class TestClassifyPath:
    def test_broken_route_malformed(self, worked_instance):
        raw = BROKEN_PATH_RAW.split()
        path = tuple(worked_instance.resolve_node(name) for name in raw)
        result = classify_path(worked_instance, path)
        assert result.kind == "malformed"
        assert result.defects[0].bad_hop == ("X2", "P3.2")

    def test_canonical_path_feasible(self, worked_instance):
        path = main_path(worked_instance, A1)
        assert classify_path(worked_instance, path).kind == "feasible"

    def test_bypass_route_overloaded(self, worked_instance):
        route = (
            "E1", "B1", "X1", "E2", "B2", "X2", "E3", "B3", "X3", "T",
        )
        result = classify_path(worked_instance, route)
        assert result.kind == "overloaded"
        assert any(o.node == "B1" for o in result.overloads)


# --- properties ---------------------------------------------------------

small_formulas = st.builds(
    random_formula,
    st.integers(2, 4),
    st.integers(1, 4),
    st.just(2),
    st.integers(0, 100_000),
) | st.builds(
    random_formula,
    st.integers(3, 4),
    st.integers(1, 3),
    st.just(3),
    st.integers(0, 100_000),
)


@given(small_formulas)
@settings(max_examples=150, deadline=None)
def test_subset_sizes_match_counting_oracle(f):
    inst = compile_formula(f)
    counts = inst.subset_counts()
    expected = subset_sizes(f.clauses, f.var_count)
    for subset, size in expected.items():
        assert counts.get(subset, 0) == size
    assert counts["aux"] == len(f.clauses) + 1


@given(small_formulas)
@settings(max_examples=75, deadline=None)
def test_soundness_and_completeness_exhaustive(f):
    inst = compile_formula(f)
    m = len(f.clauses)
    for bits in itertools.product((False, True), repeat=f.var_count):
        a = dict(enumerate(bits, 1))
        plan = assignment_plan(inst, a)
        if eval_formula(f, a) == m:
            assert plan.assignments[:-1] == preload_plan(inst).assignments
            assert check_feasible(inst.network, plan).ok
        else:
            assert omitted_preloads(inst, plan)


@given(small_formulas)
@settings(max_examples=75, deadline=None)
def test_inversion_consistent(f):
    inst = compile_formula(f)
    count, witness = max_sat_brute(f)
    if count < len(f.clauses):
        return
    path = main_path(inst, witness)
    partial = path_to_assignment(inst, path)
    for var, value in partial.items():
        assert witness[var] == value


def required_main_optimum(inst) -> int:
    """Admission optimum with the main flow required, solved cold."""
    result = solve_exact(inst, required={len(inst.flows) - 1})
    assert result.optimal
    return result.accepted_count


@given(small_formulas)
@settings(max_examples=50, deadline=None)
def test_max_correspondence_small_scale(f):
    inst = compile_formula(f)
    max_sat = max_sat_brute(f)[0]
    assert required_main_optimum(inst) == 1 + max_sat
    for bits in itertools.product((False, True), repeat=f.var_count):
        a = dict(enumerate(bits, 1))
        plan = assignment_plan(inst, a)
        assert check_feasible(inst.network, plan).ok
        assert len(plan) == 1 + eval_formula(f, a)


@given(small_formulas)
@settings(max_examples=50, deadline=None)
def test_conflict_pairs_are_cross_clause_complementary(f):
    for pair in conflict_pairs(f):
        ci, cj = pair.pos[0], pair.neg[0]
        assert ci != cj
        lit_pos = f.clauses[ci - 1][pair.pos[1] - 1]
        lit_neg = f.clauses[cj - 1][pair.neg[1] - 1]
        assert lit_pos > 0 and lit_neg < 0 and lit_pos == -lit_neg


def test_equivalence_exhaustive_over_tiny_clause_alphabet():
    """Every 1- and 2-clause formula over 2 variables with clause width <= 2,
    duplicate literals and tautological clauses included: the admission
    optimum must be m+1 exactly for the satisfiable ones, the optimum with
    the main flow required must be 1 + the MAX-SAT optimum, and the audit
    must hold."""
    lits = [1, -1, 2, -2]
    alphabet = [(l,) for l in lits] + [(a, b) for a in lits for b in lits]
    for m in (1, 2):
        for combo in itertools.product(alphabet, repeat=m):
            f = Formula.from_clauses(2, combo)
            inst = compile_formula(f)
            result = solve_exact(inst)
            max_sat = max_sat_brute(f)[0]
            expected = m + 1 if max_sat == m else m
            assert result.optimal and result.accepted_count == expected, combo
            assert required_main_optimum(inst) == 1 + max_sat, combo
            assert audit(inst).ok, combo
