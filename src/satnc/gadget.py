"""Clause-gadget compiler: formulas to flow-admission instances and back.

Each clause becomes a gadget chained between an entry and an exit node:
one pre/lit/post chain per literal, a clique over the literal nodes, and a
capacity-limited bypass that a dedicated preload flow keeps saturated.
Complementary literal occurrences in different clauses share a capacity-1
conflict node, so no feasible route can use both.  A single main flow from
the first entry to a terminal node is then admissible exactly when every
clause can be crossed through one of its true literals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .cnf import Assignment, Formula, _require_total
from .model import (
    FlowRequest,
    Hop,
    Network,
    Overload,
    Path,
    PathError,
    RouteAssignment,
    RoutePlan,
    hops_load,
    overloaded_nodes,
    validate_path,
)

TERMINAL = "T"


def entry_id(i: int) -> str:
    return f"E{i}"


def exit_id(i: int) -> str:
    return f"X{i}"


def prelit_id(i: int, j: int) -> str:
    return f"P{i}.{j}"


def lit_id(i: int, j: int) -> str:
    return f"L{i}.{j}"


def postlit_id(i: int, j: int) -> str:
    return f"Q{i}.{j}"


def bypass_id(i: int) -> str:
    return f"B{i}"


def preload_src_id(i: int) -> str:
    return f"A{i}"


def conflict_id(p: int) -> str:
    return f"K{p}"


@dataclass(frozen=True)
class CapacityPreset:
    """Per-role node capacities; the defaults make the reduction sound."""

    entry_exit: int = 3  # entry/exit nodes and the pre/post literal chain
    literal: int = 5
    bypass: int = 3
    conflict: int = 1
    preload_src: int = 1
    terminal: int = 2


@dataclass(frozen=True)
class NodeInfo:
    id: str
    paper_index: str | None
    subset: str  # "V1".."V5" or "aux"


@dataclass(frozen=True)
class ConflictPair:
    """A (positive, negated) occurrence pair of one variable, across clauses."""

    index: int  # 1-based
    pos: tuple[int, int]  # (clause, position) of the positive occurrence
    neg: tuple[int, int]


class ClauseUnsatisfied(Exception):
    """Raised when an assignment leaves a clause with no true literal."""

    def __init__(self, clause: int):
        super().__init__(f"clause {clause} has no true literal")
        self.clause = clause


class AssignmentContradiction(ValueError):
    """A path visits complementary literal occurrences of one variable."""

    def __init__(self, var: int):
        super().__init__(f"path requires variable {var} to be both true and false")
        self.var = var


@dataclass(frozen=True)
class NcInstance:
    """A capacity network plus its ordered flow demands.

    Compiled instances keep the source formula and a canonical-id table
    that maps every node back to its raw construction index; the conflict
    pairs are derived from the formula, and capacities live in the network.
    """

    network: Network
    flows: tuple[FlowRequest, ...]
    node_table: tuple[NodeInfo, ...]
    formula: Formula | None = None

    def __post_init__(self) -> None:
        ids = tuple(info.id for info in self.node_table)
        if ids != self.network.nodes:
            raise ValueError("node table does not match the network's node set")
        seen: set[FlowRequest] = set()
        for flow in self.flows:
            if not self.network.has_node(flow.src) or not self.network.has_node(
                flow.dst
            ):
                raise ValueError(f"flow {flow.label!r} references unknown nodes")
            if flow in seen:  # a plan tells copies apart by flow value
                raise ValueError(
                    f"flow {flow.label!r} ({flow.src} -> {flow.dst}) is listed twice"
                )
            seen.add(flow)

    @cached_property
    def conflicts(self) -> tuple[ConflictPair, ...]:
        return () if self.formula is None else conflict_pairs(self.formula)

    @cached_property
    def info(self) -> Mapping[str, NodeInfo]:
        return {n.id: n for n in self.node_table}

    @cached_property
    def paper_to_id(self) -> Mapping[str, str]:
        return {n.paper_index: n.id for n in self.node_table if n.paper_index}

    def paper_name(self, node_id: str) -> str | None:
        return self.info[node_id].paper_index

    def resolve_node(self, name: str) -> str:
        """Accept a canonical id or a raw construction index like ``n_17^1``."""
        if name in self.info:
            return name
        if name in self.paper_to_id:
            return self.paper_to_id[name]
        raise ValueError(f"unknown node name {name!r}")

    def subset_of(self, node_id: str) -> str:
        return self.info[node_id].subset

    def subset_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for info in self.node_table:
            counts[info.subset] = counts.get(info.subset, 0) + 1
        return counts

    @cached_property
    def pairs_by_clause(self) -> Mapping[int, tuple[ConflictPair, ...]]:
        """Conflict pairs with an occurrence in each clause, in pair order."""
        index: dict[int, list[ConflictPair]] = {}
        for pair in self.conflicts:
            for clause in (pair.pos[0], pair.neg[0]):
                index.setdefault(clause, []).append(pair)
        return {i: tuple(pairs) for i, pairs in index.items()}

    @property
    def clause_count(self) -> int:
        return len(_require_compiled(self).clauses)


def plain_instance(network: Network, flows: Iterable[FlowRequest]) -> NcInstance:
    """Wrap a hand-built network as an instance with no gadget metadata."""
    table = tuple(NodeInfo(v, None, "aux") for v in network.nodes)
    return NcInstance(network, tuple(flows), table)


def conflict_pairs(formula: Formula) -> tuple[ConflictPair, ...]:
    """All cross-clause complementary occurrence pairs, variable-major order."""
    pos: dict[int, list[tuple[int, int]]] = {}
    neg: dict[int, list[tuple[int, int]]] = {}
    for i, clause in enumerate(formula.clauses, 1):
        for j, lit in enumerate(clause, 1):
            bucket = pos if lit > 0 else neg
            bucket.setdefault(abs(lit), []).append((i, j))
    pairs: list[ConflictPair] = []
    for var in range(1, formula.var_count + 1):
        for p in pos.get(var, ()):
            for q in neg.get(var, ()):
                if p[0] != q[0]:
                    pairs.append(ConflictPair(len(pairs) + 1, p, q))
    return tuple(pairs)


def compile_formula(
    formula: Formula, caps: CapacityPreset = CapacityPreset()
) -> NcInstance:
    """Build the flow-admission instance whose optimum detects satisfiability.

    Accepting all preload flows plus one main copy is possible exactly when
    the formula is satisfiable; with any clause unsatisfied the main flow
    can only cross that clause by overloading its bypass.
    """
    if not formula.clauses:
        raise ValueError("cannot compile an empty formula")
    m = len(formula.clauses)
    table: list[NodeInfo] = []
    cap: dict[str, int] = {}
    edges: list[tuple[str, str]] = []

    def add(v: str, paper_index: str | None, subset: str, capacity: int) -> None:
        table.append(NodeInfo(v, paper_index, subset))
        cap[v] = capacity

    for i, clause in enumerate(formula.clauses, 1):
        width = len(clause)
        add(entry_id(i), f"n_1^{i}", "V1", caps.entry_exit)
        add(exit_id(i), f"n_4^{i}", "V1", caps.entry_exit)
        for j in range(1, width + 1):
            add(prelit_id(i, j), f"n_{3 * j + 2}^{i}", "V3", caps.entry_exit)
            add(lit_id(i, j), f"n_{3 * j + 3}^{i}", "V2", caps.literal)
            add(postlit_id(i, j), f"n_{3 * j + 4}^{i}", "V3", caps.entry_exit)
            edges.append((entry_id(i), prelit_id(i, j)))
            edges.append((prelit_id(i, j), lit_id(i, j)))
            edges.append((lit_id(i, j), postlit_id(i, j)))
            edges.append((postlit_id(i, j), exit_id(i)))
        add(bypass_id(i), f"n_{3 * width + 5}^{i}", "V4", caps.bypass)
        edges.append((entry_id(i), bypass_id(i)))
        edges.append((bypass_id(i), exit_id(i)))
        for j, j2 in itertools.combinations(range(1, width + 1), 2):
            edges.append((lit_id(i, j), lit_id(i, j2)))
        if i < m:
            edges.append((exit_id(i), entry_id(i + 1)))
    for pair in conflict_pairs(formula):
        add(conflict_id(pair.index), f"n_{pair.index}", "V5", caps.conflict)
        edges.append((conflict_id(pair.index), lit_id(*pair.pos)))
        edges.append((conflict_id(pair.index), lit_id(*pair.neg)))
    for i in range(1, m + 1):
        add(preload_src_id(i), f"A_{i}", "aux", caps.preload_src)
        edges.append((preload_src_id(i), bypass_id(i)))
    add(TERMINAL, None, "aux", caps.terminal)
    edges.append((exit_id(m), TERMINAL))

    network = Network((n.id for n in table), edges, cap)
    flows = tuple(
        FlowRequest(preload_src_id(i), bypass_id(i), 1, f"preload-{i}")
        for i in range(1, m + 1)
    ) + (FlowRequest(entry_id(1), TERMINAL, None, "main"),)
    return NcInstance(network, flows, tuple(table), formula)


def _require_compiled(inst: NcInstance) -> Formula:
    if inst.formula is None:
        raise ValueError("operation requires an instance compiled from a formula")
    return inst.formula


def true_positions(clause: tuple[int, ...], a: Assignment) -> tuple[int, ...]:
    """1-based positions of the literals made true by ``a``."""
    return tuple(j for j, lit in enumerate(clause, 1) if a[abs(lit)] == (lit > 0))


def clause_segment(i: int, positions: Iterable[int]) -> list[str]:
    """Entry-to-exit node run visiting the given literal positions ascending."""
    pos = sorted(positions)
    if not pos:
        raise ValueError("a clause segment needs at least one literal position")
    nodes = [entry_id(i), prelit_id(i, pos[0])]
    nodes.extend(lit_id(i, j) for j in pos)
    nodes.append(postlit_id(i, pos[-1]))
    nodes.append(exit_id(i))
    return nodes


def assignment_to_path(inst: NcInstance, a: Assignment) -> Path:
    """Canonical main-flow path induced by a total assignment.

    Each clause is crossed through every literal the assignment makes
    true; raises ClauseUnsatisfied on the first clause with none.
    """
    plan = assignment_plan(inst, a)
    # The plan routes preload i exactly when clause i is satisfied, so the
    # first flow it skips names the first unsatisfied clause.
    for i, (flow, routed) in enumerate(zip(inst.flows, plan.assignments), 1):
        if routed.flow != flow:
            raise ClauseUnsatisfied(i)
    return plan.assignments[-1].path


def path_to_assignment(inst: NcInstance, p: Path) -> Assignment:
    """Partial assignment read off the literal nodes a path visits."""
    formula = _require_compiled(inst)
    for v in p:
        inst.network._require(v)
    values: Assignment = {}
    for i, clause in enumerate(formula.clauses, 1):
        for j, lit in enumerate(clause, 1):
            if lit_id(i, j) not in p:
                continue
            var, wanted = abs(lit), lit > 0
            if values.get(var, wanted) != wanted:
                raise AssignmentContradiction(var)
            values[var] = wanted
    return values


def preload_plan(inst: NcInstance) -> RoutePlan:
    """All preload flows routed over their single one-hop path."""
    _require_compiled(inst)
    return RoutePlan(
        tuple(
            RouteAssignment(flow, 0, (flow.src, flow.dst))
            for flow in inst.flows[:-1]
        )
    )


def assignment_plan(inst: NcInstance, a: Assignment) -> RoutePlan:
    """The plan a total assignment induces: the preload of every clause it
    satisfies, plus the main flow crossing each satisfied clause through its
    true literals and each unsatisfied one over the freed bypass.

    It accepts 1 + (satisfied clauses) copies and, under the default
    capacities, is feasible for every assignment.
    """
    formula = _require_compiled(inst)
    _require_total(formula, a)
    m = len(formula.clauses)
    preloads = preload_plan(inst).assignments
    main = [entry_id(1)]
    routed: list[RouteAssignment] = []
    for i, clause in enumerate(formula.clauses, 1):
        trues = true_positions(clause, a)
        if trues:
            main.extend(clause_segment(i, trues)[1:])
            routed.append(preloads[i - 1])
        else:
            main.extend([bypass_id(i), exit_id(i)])
        if i < m:
            main.append(entry_id(i + 1))
    main.append(TERMINAL)
    routed.append(RouteAssignment(inst.flows[-1], 0, tuple(main)))
    return RoutePlan(tuple(routed))


@dataclass(frozen=True)
class PathClassification:
    kind: str  # "feasible" | "overloaded" | "malformed"
    bad_hop: Hop | None = None
    reason: str = ""
    overloads: tuple[Overload, ...] = ()


def classify_path(inst: NcInstance, p: Path) -> PathClassification:
    """Judge a candidate main-flow path with all preloads routed."""
    preloads = preload_plan(inst)
    try:
        validate_path(inst.network, p)
    except PathError as exc:
        return PathClassification("malformed", exc.bad_hop, str(exc))
    main = inst.flows[-1]
    if p[:1] + p[-1:] != (main.src, main.dst):
        return PathClassification(
            "malformed",
            reason=f"path does not run from {main.src!r} to {main.dst!r}",
        )
    hops = (hop for q in [*preloads.paths(), p] for hop in zip(q, q[1:]))
    overloads = overloaded_nodes(inst.network, hops_load(inst.network, hops))
    if overloads:
        return PathClassification("overloaded", overloads=overloads)
    return PathClassification("feasible")


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


@dataclass(frozen=True)
class ClauseAudit:
    clause: int
    margins: Mapping[str, int]  # min (capacity - load) per node subset
    bypass_blocked: bool
    conflict_blocked: bool
    through_route_blocked: bool


@dataclass(frozen=True)
class AuditReport:
    clauses: tuple[ClauseAudit, ...]
    failures: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures


def _clause_context(inst: NcInstance, i: int) -> list[Hop]:
    # Hops that load clause i's nodes whatever segment the main flow takes:
    # the preload, the chain hop in, the chain hop out, and the next entry's
    # first transmission (which reaches this clause's exit node).
    m = inst.clause_count
    hops = [(preload_src_id(i), bypass_id(i))]
    if i > 1:
        hops.append((exit_id(i - 1), entry_id(i)))
    if i < m:
        hops += [(exit_id(i), entry_id(i + 1)), (entry_id(i + 1), prelit_id(i + 1, 1))]
    else:
        hops.append((exit_id(m), TERMINAL))
    return hops


def _hits(
    tx: Mapping[str, tuple[str, ...]], v: str, transmitters: Iterable[str]
) -> int:
    """Load on ``v`` from one hop sent by each of the transmitters."""
    return sum(v in tx[u] for u in transmitters)


def audit(inst: NcInstance) -> AuditReport:
    """Check the gadget's blocking arithmetic clause by clause.

    With preloads routed: (1) a main route over the bypass overloads it;
    (2) every assignment-realizable literal segment fits; (3) routing
    through a conflict node overloads it; (4) transmitting from both
    literal nodes of a complementary pair overloads their conflict node.
    All computed by exact load arithmetic on the relevant hops: a clause's
    context load once, then each segment's transmitters on the watched
    nodes only.
    """
    formula = _require_compiled(inst)
    net = inst.network
    cap = net.capacity
    tx = net.transmit_sets
    info = inst.info
    m = len(formula.clauses)
    # Each pair is checked once; its failures are reported under both clauses.
    # Transmitting from both literal nodes, and the route la -> k -> lb
    # (transmitters la and k), must each overload the conflict node k.
    pair_blocks: dict[int, tuple[str, bool, bool]] = {}
    for pair in inst.conflicts:
        k = conflict_id(pair.index)
        la, lb = lit_id(*pair.pos), lit_id(*pair.neg)
        pair_blocks[pair.index] = (
            k,
            _hits(tx, k, (la, lb)) > cap[k],
            _hits(tx, k, (la, k)) > cap[k],
        )

    records: list[ClauseAudit] = []
    failures: list[str] = []
    for i, clause in enumerate(formula.clauses, 1):
        pairs = inst.pairs_by_clause.get(i, ())
        watch = [entry_id(i), exit_id(i), bypass_id(i), preload_src_id(i)]
        for j in range(1, len(clause) + 1):
            watch += [prelit_id(i, j), lit_id(i, j), postlit_id(i, j)]
        watch += [conflict_id(p.index) for p in pairs]
        if i == m:
            watch.append(TERMINAL)
        slot = {v: n for n, v in enumerate(watch)}
        context = hops_load(net, _clause_context(inst, i))
        room = [cap[v] - context.get(v, 0) for v in watch]
        reach: dict[str, list[int]] = {}  # transmitter -> watched slots it loads

        least = room[:]  # per watched node, its least margin over the segments
        overloaded: list[int] = []  # in the order the segments overload them
        for trues in realizable_true_sets(clause):
            margin = room[:]
            for u in clause_segment(i, trues)[:-1]:
                slots = reach.get(u)
                if slots is None:
                    slots = reach[u] = [slot[w] for w in tx[u] if w in slot]
                for n in slots:
                    margin[n] -= 1
            for n, left in enumerate(margin):
                if left < least[n]:
                    least[n] = left
                if left < 0 and n not in overloaded:
                    overloaded.append(n)
        margins: dict[str, int] = {}
        for v, left in zip(watch, least):
            subset = info[v].subset
            margins[subset] = min(margins.get(subset, left), left)
        failures += [
            f"clause {i}: intended segment overloads {watch[n]}" for n in overloaded
        ]

        bypass = bypass_id(i)
        load = context.get(bypass, 0) + _hits(tx, bypass, (entry_id(i), bypass))
        bypass_blocked = load > cap[bypass]
        if not bypass_blocked:
            failures.append(f"clause {i}: bypass not blocked")

        conflict_blocked = True
        through_blocked = True
        for pair in pairs:
            k, conflict, through = pair_blocks[pair.index]
            if not conflict:
                conflict_blocked = False
                failures.append(f"clause {i}: conflict not blocked ({k})")
            if not through:
                through_blocked = False
                failures.append(f"clause {i}: conflict through-route not blocked ({k})")

        records.append(
            ClauseAudit(i, margins, bypass_blocked, conflict_blocked, through_blocked)
        )
    return AuditReport(tuple(records), tuple(failures))
