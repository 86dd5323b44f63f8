"""CNF formulas, DIMACS text, and an exhaustive MAX-SAT oracle.

Literals are DIMACS-style signed integers: variable ``v`` appears as ``v``
(positive) or ``-v`` (negated).  Assignments are plain dicts mapping the
variable index to a bool.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

Assignment = dict[int, bool]

EXHAUSTIVE_BOUND = 24


class DimacsParseError(ValueError):
    """Malformed DIMACS input; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"{message} at line {line}")
        self.line = line


@dataclass(frozen=True)
class Formula:
    """A CNF formula: ordered clauses of signed-integer literals."""

    var_count: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.var_count < 1:
            raise ValueError("var_count must be positive")
        for idx, clause in enumerate(self.clauses, 1):
            if not clause:
                raise ValueError(f"clause {idx} is empty")
            for lit in clause:
                if lit == 0 or abs(lit) > self.var_count:
                    raise ValueError(f"clause {idx}: literal {lit} out of range")

    @classmethod
    def from_clauses(cls, var_count: int, clauses: list | tuple) -> "Formula":
        return cls(var_count, tuple(tuple(c) for c in clauses))


def parse_dimacs(text: str) -> Formula:
    """Parse standard DIMACS CNF: ``c`` comments, ``p cnf n m`` header,
    clauses as signed integers terminated by 0 (clauses may span lines)."""
    var_count: int | None = None
    clause_count: int | None = None
    clauses: list[tuple[int, ...]] = []
    pending: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if var_count is not None:
                raise DimacsParseError("duplicate header", lineno)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsParseError("malformed header", lineno)
            try:
                var_count, clause_count = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsParseError("malformed header", lineno) from None
            if var_count < 0 or clause_count < 0:
                raise DimacsParseError("malformed header", lineno)
            continue
        if var_count is None:
            raise DimacsParseError("clause before header", lineno)
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise DimacsParseError(f"invalid token {tok!r}", lineno) from None
            if lit == 0:
                if not pending:
                    raise DimacsParseError("empty clause", lineno)
                clauses.append(tuple(pending))
                pending.clear()
            else:
                if abs(lit) > var_count:
                    raise DimacsParseError("literal out of range", lineno)
                pending.append(lit)
    last = len(text.splitlines())
    if var_count is None:
        raise DimacsParseError("missing header", max(last, 1))
    if pending:
        raise DimacsParseError("missing clause terminator", max(last, 1))
    if clause_count != len(clauses):
        raise DimacsParseError(
            f"clause count mismatch: header says {clause_count}, found {len(clauses)}",
            max(last, 1),
        )
    return Formula.from_clauses(max(var_count, 1), clauses)


def emit_dimacs(f: Formula) -> str:
    """Round-trip inverse of ``parse_dimacs`` up to comments and whitespace."""
    lines = [f"p cnf {f.var_count} {len(f.clauses)}"]
    for clause in f.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def _require_total(f: Formula, a: Assignment) -> None:
    # Counted off the assignment, so a total one costs no walk of 1..n.
    n = f.var_count
    missing = n - sum(map(range(1, n + 1).__contains__, a))
    if missing:
        first = itertools.islice((v for v in range(1, n + 1) if v not in a), 5)
        listed = ", ".join(map(str, first)) + (", ..." if missing > 5 else "")
        raise ValueError(f"assignment missing {missing} of {n} variables: {listed}")


def clause_satisfied(clause: tuple[int, ...], a: Assignment) -> bool:
    return any(a[abs(lit)] == (lit > 0) for lit in clause)


def true_positions(clause: tuple[int, ...], a: Assignment) -> tuple[int, ...]:
    """1-based positions of the literals made true by ``a``."""
    return tuple(j for j, lit in enumerate(clause, 1) if a[abs(lit)] == (lit > 0))


def realizable_true_sets(clause: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every non-empty true-position set some assignment induces on a clause."""
    variables = sorted({abs(lit) for lit in clause})
    seen: set[tuple[int, ...]] = set()
    for bits in itertools.product((False, True), repeat=len(variables)):
        a = dict(zip(variables, bits))
        trues = true_positions(clause, a)
        if trues:
            seen.add(trues)
    return sorted(seen)


def eval_formula(f: Formula, a: Assignment) -> int:
    """Number of clauses with at least one true literal under ``a``."""
    _require_total(f, a)
    return sum(1 for clause in f.clauses if clause_satisfied(clause, a))


def max_sat_brute(f: Formula) -> tuple[int, Assignment]:
    """Maximum satisfiable clause count with a lexicographically-first
    witness.  The formula is satisfiable exactly when the count is
    ``len(f.clauses)``, and the witness is then its first satisfying
    assignment.

    Scans all 2**n assignments, ground truth at desk scale only: refuses
    formulas with more than ``EXHAUSTIVE_BOUND`` variables.
    """
    n = f.var_count
    if n > EXHAUSTIVE_BOUND:
        raise ValueError(
            f"{n} variables exceed the exhaustive bound of {EXHAUSTIVE_BOUND}"
        )
    # Bit of variable v is 1 << (n - v), so the integer order of candidate
    # assignments is the lexicographic order with v1 most significant and
    # false < true.
    masks = []
    for clause in f.clauses:
        pos = neg = 0
        for lit in clause:
            if lit > 0:
                pos |= 1 << (n - lit)
            else:
                neg |= 1 << (n + lit)
        masks.append((pos, neg))
    full = (1 << n) - 1
    best_count, best_packed = -1, 0
    for packed in range(1 << n):
        count = sum(
            1 for pos, neg in masks if packed & pos or (~packed & full) & neg
        )
        if count > best_count:
            best_count, best_packed = count, packed
            if best_count == len(f.clauses):
                break
    return best_count, {v: bool(best_packed & (1 << (n - v))) for v in range(1, n + 1)}


def random_formula(n: int, m: int, k: int, seed: int) -> Formula:
    """m random clauses of exactly k distinct variables, uniform polarities."""
    if k < 2:
        raise ValueError("k must be at least 2")
    if n < k:
        raise ValueError("need at least k variables")
    if m < 0:
        raise ValueError("clause count must be non-negative")
    rng = random.Random(seed)
    clauses = []
    for _ in range(m):
        variables = rng.sample(range(1, n + 1), k)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
    return Formula(n, tuple(clauses))


def lint_formula(f: Formula) -> list[str]:
    """Non-fatal oddities: duplicate literals, width-1 clauses, tautologies."""
    warnings = []
    for idx, clause in enumerate(f.clauses, 1):
        if len(clause) == 1:
            warnings.append(f"clause {idx}: width 1")
        seen = set()
        for lit in clause:
            if lit in seen:
                warnings.append(f"clause {idx}: duplicate literal {lit}")
            seen.add(lit)
        if any(-lit in seen for lit in seen):
            warnings.append(f"clause {idx}: tautological")
    return warnings
