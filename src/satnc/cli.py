"""Command-line surface: compile, check, solve, verify, bound.

Exit codes are a stable contract: 0 success/agreement, 1 verification or
audit failure, 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from pathlib import Path as FsPath

from .cnf import EXHAUSTIVE_BOUND, lint_formula, parse_dimacs, true_positions
from .gadget import (
    CapacityPreset,
    NcInstance,
    assignment_plan,
    classify_path,
    compile_formula,
)
from .harness import run_verification
from .instance_io import load_instance, save_instance, to_dot
from .model import Path, RoutePlan, plan_load
from .solver import DEFAULT_NODE_BUDGET, inapprox_bound, solve_exact, solve_greedy

_CAP_FIELDS = {
    "v1v3": "entry_exit",
    "v2": "literal",
    "v4": "bypass",
    "v5": "conflict",
    "src": "preload_src",
    "terminal": "terminal",
}


def _parse_caps(text: str | None) -> CapacityPreset:
    overrides = {}
    for item in text.split(",") if text else ():
        key, _, value = item.partition("=")
        try:
            overrides[_CAP_FIELDS[key.strip().lower()]] = int(value)
        except (KeyError, ValueError):
            raise ValueError(f"bad capacity override {item!r}") from None
    return CapacityPreset(**overrides)


def _parse_literals(text: str) -> dict[int, bool]:
    tokens = [t for t in re.split(r"[,\s]+", text.strip()) if t]
    values: dict[int, bool] = {}
    for tok in tokens:
        try:
            lit = int(tok)
        except ValueError:
            raise ValueError(f"bad literal {tok!r}") from None
        if lit == 0:
            raise ValueError("literal 0 is not allowed")
        var = abs(lit)
        if var in values and values[var] != (lit > 0):
            raise ValueError(f"contradictory literals for variable {var}")
        values[var] = lit > 0
    return values


def _parse_node_list(inst: NcInstance, text: str) -> tuple[str, ...]:
    names = [t for t in re.split(r"[,\s]+", text.strip()) if t]
    return tuple(inst.resolve_node(name) for name in names)


def _print_loads(inst: NcInstance, plan: RoutePlan) -> None:
    loads = plan_load(inst.network, plan)
    print("loads:")
    for v in sorted(inst.network.nodes):
        print(f"  {v} {loads[v]}/{inst.network.capacity_of(v)}")


def cmd_compile(args: argparse.Namespace) -> int:
    text = FsPath(args.cnf).read_text(encoding="utf-8")
    formula = parse_dimacs(text)
    for warning in lint_formula(formula):
        print(f"warning: {warning}", file=sys.stderr)
    inst = compile_formula(formula, _parse_caps(args.caps))
    save_instance(inst, args.out)
    if args.dot:
        FsPath(args.dot).write_text(to_dot(inst), encoding="utf-8")
    counts = inst.subset_counts()
    summary = ", ".join(f"{k}={counts[k]}" for k in sorted(counts))
    print(
        f"wrote {args.out}: {len(inst.network.nodes)} nodes "
        f"({summary}), {len(inst.network.edges())} edges, {len(inst.flows)} flows"
    )
    return 0


def _judge(inst: NcInstance, path: Path, as_json: bool, shown: dict) -> int:
    """Print ``classify_path``'s verdict on ``path`` as main with every
    preload routed and return the exit code: the first defect, a preload's
    under its flow label and main's bad hop as ``bad_hop``, or else the
    ``overloads``.  ``shown`` (an assignment's route) precedes it in JSON."""
    verdict = classify_path(inst, path)
    detail: dict = {"overloads": verdict.overloads}
    for defect in verdict.defects[:1]:
        text = defect.reason
        detail = {"reason": text}
        if defect.index < len(inst.flows) - 1:
            text = detail["reason"] = f"{inst.flows[defect.index].label}: {text}"
        elif defect.bad_hop:
            detail = {"bad_hop": list(defect.bad_hop), "reason": text}
            u, x = (inst.paper_name(v) or v for v in defect.bad_hop)
            text = f"hop {u} -> {x} is not an edge"
    if as_json:
        print(json.dumps({"verdict": verdict.kind, **shown, **detail}))
    elif verdict.defects:
        print(f"verdict: malformed ({text})")
    else:
        for o in verdict.overloads:
            print(f"overload: {o.node} load {o.load} > capacity {o.capacity}")
        print(f"verdict: {verdict.kind}")
    return 0 if verdict.ok else 1


def _check_assignment(inst: NcInstance, raw: str, as_json: bool) -> int:
    assignment = _parse_literals(raw)
    formula = inst.formula
    unknown = sorted(v for v in assignment if v > formula.var_count)
    if unknown:
        raise ValueError(f"assignment names variables the formula lacks: {unknown}")
    plan = assignment_plan(inst, assignment)  # refuses a partial assignment
    per_clause = [true_positions(c, assignment) for c in formula.clauses]
    failed = next((i for i, trues in enumerate(per_clause, 1) if not trues), None)
    if not as_json:
        for i, trues in enumerate(per_clause, 1):
            state = f"true at positions {list(trues)}" if trues else "UNSATISFIED"
            print(f"clause {i}: {state}")
    if failed is not None:
        if as_json:
            print(json.dumps({"verdict": "unsatisfied", "clause": failed}))
        else:
            print(f"verdict: failure at clause {failed}")
        return 1
    # Every clause satisfied: the plan is every preload plus main, the plan
    # ``classify_path`` builds for main's route.
    route = plan.assignments[-1].path
    names = [inst.paper_name(v) or v for v in route]
    if not as_json:
        print("path:", " ".join(names))
    return _judge(inst, route, as_json, {"path": names})


def cmd_check(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    if inst.formula is None:
        raise ValueError("check needs an instance compiled from a formula")
    if args.assignment is not None:
        return _check_assignment(inst, args.assignment, args.json)
    return _judge(inst, _parse_node_list(inst, args.path), args.json, {})


def cmd_solve(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    # Greedy's plan is the first incumbent: a solve cut short prints at least it.
    result = solve_exact(inst, budget=args.budget, start=solve_greedy(inst).plan)
    if args.json:
        print(
            json.dumps(
                {
                    "accepted": result.accepted_count,
                    "optimal": result.optimal,
                    "nodes_explored": result.nodes_explored,
                    "budget_hit": result.budget_hit,
                    "plan": [
                        {
                            "flow": a.flow.label,
                            "copy": a.copy,
                            "path": list(a.path),
                        }
                        for a in result.plan.assignments
                    ],
                }
            )
        )
        return 0
    flag = "optimal" if result.optimal else "not proven optimal"
    print(f"accepted: {result.accepted_count} ({flag})")
    for a in result.plan.assignments:
        print(f"flow {a.flow.label} copy {a.copy + 1}: {' '.join(a.path)}")
    _print_loads(inst, result.plan)
    print(f"nodes explored: {result.nodes_explored}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.vars > EXHAUSTIVE_BOUND:
        raise ValueError(
            f"--vars exceeds the exhaustive bound of {EXHAUSTIVE_BOUND}"
        )
    if args.vars < args.k:
        raise ValueError("--vars must be at least --k")
    report = run_verification(
        args.vars,
        args.clauses,
        args.k,
        args.trials,
        args.seed,
        caps=_parse_caps(args.caps),
    )
    if args.json:
        payload = {
            "trials": report.trials,
            "agreed": report.agreed,
            "audits_passed": report.audits_passed,
            "max_matches": report.max_matches,
            "ok": report.all_ok,
            "records": [r.summary() for r in report.records],
        }
        print(json.dumps(payload, indent=2))
    else:
        for r in report.records:
            nc = str(r.nc_accepted) if r.solver_optimal else f"{r.nc_accepted}?"
            # max=: the admission optimum with main required, less main, over
            # the MAX-SAT optimum.
            print(
                f"trial {r.index:03d}: seed={r.seed} n={r.var_count} "
                f"m={r.clause_count} k={r.k} "
                f"sat={'yes' if r.satisfiable else 'no'} "
                f"nc={nc} expected={r.expected_accepted} "
                f"audit={'ok' if r.audit_ok else 'FAIL'} "
                f"agree={'yes' if r.agree else 'NO'} "
                f"max={r.max_traversable}/{r.max_sat}"
            )
        print(
            f"summary: trials={report.trials} agreed={report.agreed} "
            f"audits_passed={report.audits_passed} max_matches={report.max_matches}"
        )
        print(f"verdict: {'OK' if report.all_ok else 'FAIL'}")
    if not report.all_ok:
        out_dir = FsPath(args.witness_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for r in report.records:
            if r.witness is not None:
                target = out_dir / f"witness-trial-{r.index:03d}.json"
                target.write_text(
                    json.dumps(r.witness, indent=2) + "\n", encoding="utf-8"
                )
                print(f"witness written: {target}", file=sys.stderr)
    return report.exit_status


def cmd_bound(args: argparse.Namespace) -> int:
    # Python prints no int of more than ``limit`` digits (0: no limit, as
    # before 3.10.7), and 2**k has more exactly when it reaches 10**limit.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and args.k >= (10**limit).bit_length():
        raise ValueError(
            f"--k {args.k} is too large: 2**k has more than {limit} digits, "
            "Python's limit for printing an integer"
        )
    value = inapprox_bound(args.k)
    decimal = f"{float(value):.6f}"
    if args.json:
        print(
            json.dumps(
                {
                    "k": args.k,
                    "numerator": value.numerator,
                    "denominator": value.denominator,
                    "decimal": decimal,
                }
            )
        )
    else:
        print(f"{value.numerator}/{value.denominator} ≈ {decimal}")
    return 0


@functools.cache  # built on first use, so importing the module stays cheap
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satnc",
        description=(
            "Compile CNF formulas into interference-limited flow-admission "
            "instances, solve them, and verify the correspondence."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a DIMACS CNF file into an instance")
    p.add_argument("--cnf", required=True, help="input DIMACS CNF file")
    p.add_argument("--out", required=True, help="output instance JSON file")
    p.add_argument("--dot", help="also write a DOT drawing")
    p.add_argument("--caps", help="capacity overrides, e.g. v4=5,v5=2")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("check", help="check an assignment or a raw path")
    p.add_argument("--instance", required=True, help="instance JSON file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--assignment", help="signed literals, e.g. \"1 2 3 -4 -5 -6\""
    )
    group.add_argument(
        "--path", help="comma-separated node names (canonical or raw indices)"
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve", help="solve an instance exactly, from greedy's plan")
    p.add_argument("--instance", required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="random-trial equivalence harness")
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("--clauses", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--caps", help="capacity overrides, e.g. v4=5")
    p.add_argument("--witness-dir", default=".", help="where to write witnesses")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "bound", help="print the hardness constant for width k, main flow required"
    )
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bound)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
