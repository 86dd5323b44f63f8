"""End-to-end verification: random formulas, one oracle, agreement records.

For each trial a random formula is compiled; the exhaustive MAX-SAT oracle
settles satisfiability (its optimum reaches m) and the exact admission
solver the network side.  The two agree when the admission optimum is
m+1 on satisfiable formulas (all m preloads plus the main flow) and exactly
m otherwise.  The per-trial record also carries the count correspondence
behind the gap constant: the admission optimum with the main flow required
equals 1 + the MAX-SAT optimum, because dropping preload i is exactly what
lets the main flow cross clause i over its bypass.

A plan without the main flow holds at most the m one-copy preloads, so once
the optimum with main required reaches m it is also the unconstrained
optimum, and a trial runs one solve and one feasibility check (the solver's,
of its warm start).  Only below m is the preload plan checked, and the whole
instance solved when that plan is not feasible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .cnf import max_sat_brute, random_formula
from .gadget import (
    CapacityPreset,
    assignment_plan,
    audit,
    compile_formula,
    preload_plan,
)
from .instance_io import instance_to_dict
from .model import check_feasible
from .solver import InfeasibleStart, solve_exact


# A trial's fields in the ``verify --json`` report, in order, after its index.
_REPORTED = (
    "seed", "satisfiable", "nc_accepted", "expected_accepted", "solver_optimal",
    "audit_ok", "agree", "max_sat", "max_traversable",
)


@dataclass(frozen=True)
class TrialRecord:
    index: int
    seed: int
    var_count: int
    clause_count: int
    k: int
    nc_accepted: int
    solver_optimal: bool
    audit_failures: tuple[str, ...]
    max_sat: int
    # The admission optimum with main required, less main; -1 when no plan
    # admits main at all.
    max_traversable: int
    max_match: bool
    witness: dict | None = None

    @property
    def audit_ok(self) -> bool:
        return not self.audit_failures

    @property
    def satisfiable(self) -> bool:
        return self.max_sat == self.clause_count

    @property
    def expected_accepted(self) -> int:
        return self.clause_count + 1 if self.satisfiable else self.clause_count

    @property
    def agree(self) -> bool:
        # An uncertified optimum cannot witness agreement; it counts as a
        # failure and the record says why via solver_optimal.
        return self.solver_optimal and self.nc_accepted == self.expected_accepted

    @property
    def ok(self) -> bool:
        return self.agree and self.max_match and self.audit_ok

    def summary(self) -> dict:
        """The trial's record in the ``verify --json`` report."""
        return {"trial": self.index, **{f: getattr(self, f) for f in _REPORTED}}


@dataclass(frozen=True)
class VerificationReport:
    records: tuple[TrialRecord, ...]

    @property
    def trials(self) -> int:
        return len(self.records)

    @property
    def agreed(self) -> int:
        return sum(1 for r in self.records if r.agree)

    @property
    def audits_passed(self) -> int:
        return sum(1 for r in self.records if r.audit_ok)

    @property
    def max_matches(self) -> int:
        return sum(1 for r in self.records if r.max_match)

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.records)

    @property
    def exit_status(self) -> int:
        return 0 if self.all_ok else 1


def run_verification(
    var_count: int,
    clause_count: int,
    k: int,
    trials: int,
    seed: int,
    caps: CapacityPreset = CapacityPreset(),
) -> VerificationReport:
    """Run seeded trials, every solve under the default budget of 10,000,000
    nodes; deterministic byte-for-byte for a fixed seed."""
    if trials < 0:
        raise ValueError("trials must be non-negative")
    if clause_count < 1 and trials > 0:
        raise ValueError("need at least one clause per trial")
    rng = random.Random(seed)
    trial_seeds = [rng.randrange(2**32) for _ in range(trials)]
    records: list[TrialRecord] = []
    for index, trial_seed in enumerate(trial_seeds):
        formula = random_formula(var_count, clause_count, k, trial_seed)
        inst = compile_formula(formula, caps)
        report = audit(inst)
        max_sat, best = max_sat_brute(formula)
        # The best assignment's plan accepts 1 + max_sat copies; as the first
        # incumbent it leaves the solver only the proof that none does better.
        # The solver checks it; a start that overloads a node (only under
        # capacity overrides) leaves the solve cold.
        main, start = len(inst.flows) - 1, assignment_plan(inst, best)
        try:
            with_main = solve_exact(inst, required=(main,), start=start)
        except InfeasibleStart:
            with_main = solve_exact(inst, required=(main,))
        max_traversable = with_main.accepted_count - 1
        if with_main.accepted_count >= clause_count:
            # A plan without main holds at most the m one-copy preloads, so
            # an optimum with main of at least m is the unconstrained one.
            nc_accepted = with_main.accepted_count
            optimal = with_main.optimal
        elif check_feasible(inst.network, preload_plan(inst)).ok:
            # Below m (every assignment leaves two clauses unsatisfied, or
            # capacity overrides) the m preloads are the optimum.
            nc_accepted = clause_count
            optimal = with_main.optimal
        else:  # overrides that also overload a preload hop: solve it all
            result = solve_exact(inst)
            nc_accepted = result.accepted_count
            optimal = with_main.optimal and result.optimal
        record = TrialRecord(
            index=index,
            seed=trial_seed,
            var_count=var_count,
            clause_count=clause_count,
            k=k,
            nc_accepted=nc_accepted,
            solver_optimal=optimal,
            audit_failures=report.failures,
            max_sat=max_sat,
            max_traversable=max_traversable,
            # An uncertified optimum cannot witness a match either.
            max_match=with_main.optimal and max_traversable == max_sat,
        )
        # A failing trial's witness: its summary less audit_ok and agree, plus
        # the audit failures and the instance.
        if not record.ok:
            witness = record.summary()
            del witness["audit_ok"], witness["agree"]
            witness["audit_failures"] = list(record.audit_failures)
            witness["instance"] = instance_to_dict(inst)
            record = replace(record, witness=witness)
        records.append(record)
    return VerificationReport(tuple(records))
