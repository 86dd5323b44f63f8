from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satnc import (
    DimacsParseError,
    Formula,
    emit_dimacs,
    eval_formula,
    lint_formula,
    max_sat_brute,
    parse_dimacs,
    random_formula,
)
from conftest import A1, A2, WORKED_CLAUSES
from oracles import exhaustive_max_sat


class TestParseDimacs:
    def test_basic(self):
        f = parse_dimacs("p cnf 2 1\n1 -2 0")
        assert f.var_count == 2 and f.clauses == ((1, -2),)

    def test_two_unit_clauses(self):
        f = parse_dimacs("p cnf 1 2\n1 0\n-1 0")
        assert f.clauses == ((1,), (-1,))

    def test_literal_out_of_range(self):
        with pytest.raises(DimacsParseError, match="literal out of range at line 2"):
            parse_dimacs("p cnf 2 1\n3 0")

    def test_comments_and_multiline_clause(self):
        f = parse_dimacs("c hello\np cnf 3 1\n1 2\n3 0")
        assert f.clauses == ((1, 2, 3),)

    def test_count_mismatch(self):
        with pytest.raises(DimacsParseError, match="clause count mismatch"):
            parse_dimacs("p cnf 2 2\n1 0")

    def test_missing_terminator(self):
        with pytest.raises(DimacsParseError, match="missing clause terminator"):
            parse_dimacs("p cnf 2 1\n1 -2")

    def test_malformed_header(self):
        with pytest.raises(DimacsParseError, match="malformed header"):
            parse_dimacs("p cnf x 1\n1 0")


class TestEmitDimacs:
    def test_round_trip(self):
        f = Formula.from_clauses(2, [(1, -2)])
        assert parse_dimacs(emit_dimacs(f)) == f

    def test_empty_clause_list(self):
        f = Formula.from_clauses(3, [])
        assert emit_dimacs(f).splitlines()[0] == "p cnf 3 0"

    def test_whitespace_normalization(self):
        canonical = emit_dimacs(parse_dimacs("p cnf 1 1\n 1  0"))
        assert canonical == "p cnf 1 1\n1 0\n"


class TestEval:
    def test_contradiction_pair(self):
        f = Formula.from_clauses(1, [(1,), (-1,)])
        assert eval_formula(f, {1: True}) == 1
        assert eval_formula(f, {1: False}) == 1

    def test_worked_example_true_assignment(self):
        f = Formula.from_clauses(6, WORKED_CLAUSES)
        assert eval_formula(f, A1) == 3

    def test_worked_example_wrong_assignment(self):
        f = Formula.from_clauses(6, WORKED_CLAUSES)
        assert eval_formula(f, A2) == 2

    def test_partial_assignment_rejected(self):
        f = Formula.from_clauses(2, [(1, 2)])
        with pytest.raises(ValueError, match="missing"):
            eval_formula(f, {1: True})


class TestBruteSat:
    """Satisfiability by brute force: the MAX-SAT optimum reaches m."""

    def test_unsat_pair(self):
        f = Formula.from_clauses(1, [(1,), (-1,)])
        assert max_sat_brute(f)[0] < len(f.clauses)

    def test_worked_example_witness(self):
        f = Formula.from_clauses(6, WORKED_CLAUSES)
        count, witness = max_sat_brute(f)
        assert count == len(f.clauses) == 3
        assert eval_formula(f, witness) == 3
        assert eval_formula(f, A1) == 3  # the known witness also works

    def test_empty_clause_list_vacuous(self):
        f = Formula.from_clauses(2, [])
        assert max_sat_brute(f) == (0, {1: False, 2: False})

    def test_bound_refusal(self):
        f = Formula.from_clauses(30, [(1, 2)])
        with pytest.raises(ValueError, match="exhaustive bound"):
            max_sat_brute(f)


class TestMaxSatBrute:
    def test_tie_break_lexicographic(self):
        f = Formula.from_clauses(1, [(1,), (-1,)])
        count, witness = max_sat_brute(f)
        assert count == 1 and witness == {1: False}

    def test_worked_example(self):
        f = Formula.from_clauses(6, WORKED_CLAUSES)
        count, witness = max_sat_brute(f)
        assert count == 3
        assert eval_formula(f, witness) == 3

    def test_repeated_clause(self):
        f = Formula.from_clauses(1, [(1,), (1,), (1,)])
        assert max_sat_brute(f) == (3, {1: True})


class TestRandomFormula:
    def test_deterministic(self):
        assert random_formula(3, 2, 3, 7) == random_formula(3, 2, 3, 7)

    def test_k_larger_than_n(self):
        with pytest.raises(ValueError):
            random_formula(2, 1, 3, 0)

    def test_clause_shape(self):
        f = random_formula(6, 5, 3, 42)
        for clause in f.clauses:
            assert len(clause) == 3
            assert len({abs(lit) for lit in clause}) == 3


def test_lint_formula():
    f = Formula.from_clauses(2, [(1,), (1, 1), (1, -1)])
    warnings = lint_formula(f)
    assert "clause 1: width 1" in warnings
    assert "clause 2: duplicate literal 1" in warnings
    assert "clause 3: tautological" in warnings


# --- properties ---------------------------------------------------------

formulas = st.builds(
    random_formula,
    st.integers(2, 5),
    st.integers(0, 6),
    st.just(2),
    st.integers(0, 10_000),
) | st.builds(
    random_formula,
    st.integers(3, 5),
    st.integers(0, 5),
    st.just(3),
    st.integers(0, 10_000),
)


@given(formulas)
@settings(max_examples=200, deadline=None)
def test_round_trip_identity(f):
    # Clause-free formulas included: a formula holds nothing DIMACS drops.
    assert parse_dimacs(emit_dimacs(f)) == f


@given(formulas)
@settings(max_examples=150, deadline=None)
def test_sat_iff_maxsat_full(f):
    # The formula is satisfiable exactly when the optimum reaches m, and the
    # witness is then the first satisfying assignment in lexicographic order
    # (v1 most significant, false before true).
    count, witness = max_sat_brute(f)
    assert count <= len(f.clauses)
    assert eval_formula(f, witness) == count
    every = (
        dict(zip(range(1, f.var_count + 1), bits))
        for bits in itertools.product((False, True), repeat=f.var_count)
    )
    first = next((a for a in every if eval_formula(f, a) == len(f.clauses)), None)
    assert first == (witness if count == len(f.clauses) else None)


@given(formulas, st.integers(0, 1000))
@settings(max_examples=100, deadline=None)
def test_count_invariant_under_reordering(f, seed):
    import random as _random

    rng = _random.Random(seed)
    clauses = [list(c) for c in f.clauses]
    rng.shuffle(clauses)
    for c in clauses:
        rng.shuffle(c)
    g = Formula.from_clauses(f.var_count, clauses)
    assert max_sat_brute(g)[0] == max_sat_brute(f)[0]


@st.composite
def raw_formulas(draw):
    """Formulas with repeated, tautological and unit clauses allowed."""
    n = draw(st.integers(1, 5))
    literal = st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))
    clauses = draw(st.lists(st.lists(literal, min_size=1, max_size=3), max_size=7))
    return Formula.from_clauses(n, clauses)


@given(formulas | raw_formulas())
@settings(max_examples=200, deadline=None)
def test_max_sat_matches_independent_oracle(f):
    # The in-package oracle walks clause bitmasks; the test oracle
    # re-derives the optimum from the clause lists alone.
    expected = exhaustive_max_sat(f.clauses, f.var_count)
    count, witness = max_sat_brute(f)
    assert count == expected
    assert eval_formula(f, witness) == expected
