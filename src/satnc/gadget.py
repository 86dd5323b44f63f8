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
from typing import Iterable, Mapping, NamedTuple

from .cnf import (
    Assignment,
    Formula,
    _require_total,
    realizable_true_sets,
    true_positions,
)
from .model import (
    FeasibilityVerdict,
    FlowRequest,
    Network,
    Path,
    PathDefect,
    PathError,
    RouteAssignment,
    RoutePlan,
    check_feasible,
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
    """Per-role node capacities; the defaults make the reduction sound.

    ``literal=None`` gives each clause's literal nodes its width + 2: on a
    segment through its clause, a literal node hears every literal of the
    clause plus its own pre and post nodes, and no more.
    """

    entry_exit: int = 3  # entry/exit nodes and the pre/post literal chain
    literal: int | None = None
    bypass: int = 3
    conflict: int = 1
    preload_src: int = 1
    terminal: int = 2


class NodeInfo(NamedTuple):
    id: str
    paper_index: str | None
    subset: str  # "V1".."V5" or "aux"


class ConflictPair(NamedTuple):
    """A (positive, negated) occurrence pair of one variable, across clauses."""

    index: int  # 1-based
    pos: tuple[int, int]  # (clause, position) of the positive occurrence
    neg: tuple[int, int]


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
    pairs are derived from the formula, capacities live in the network, and
    the flows must be the formula's preloads A_i -> B_i, then main E1 -> T.
    """

    network: Network
    flows: tuple[FlowRequest, ...]
    node_table: tuple[NodeInfo, ...]
    formula: Formula | None = None

    def __post_init__(self) -> None:
        if [info.id for info in self.node_table] != list(self.network.nodes):
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
        if self.formula is not None:
            m = len(self.formula.clauses)
            ends = [(preload_src_id(i), bypass_id(i)) for i in range(1, m + 1)]
            ends.append((entry_id(1), TERMINAL))
            if [(flow.src, flow.dst) for flow in self.flows] != ends:
                raise ValueError(
                    f"a compiled instance's flows must be the {m} preloads "
                    "A_i -> B_i, then main E1 -> T"
                )

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
    for var in sorted(pos.keys() & neg.keys()):  # never the header's whole range
        for p in pos[var]:
            for q in neg[var]:
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
    chain = caps.entry_exit
    rows: list[tuple[str, str | None, str]] = []  # the node table's rows
    cap: dict[str, int] = {}
    edges: list[tuple[str, str]] = []
    lits: list[list[str]] = []  # per clause, its literal nodes by position
    bypasses: list[str] = []
    for i, clause in enumerate(formula.clauses, 1):
        width = len(clause)
        literal = width + 2 if caps.literal is None else caps.literal
        e, x, b = entry_id(i), exit_id(i), bypass_id(i)
        if i > 1:
            edges.append((exit_id(i - 1), e))
        rows += ((e, f"n_1^{i}", "V1"), (x, f"n_4^{i}", "V1"))
        cap[e] = cap[x] = chain
        row = []
        for j in range(1, width + 1):
            p, lit, q = prelit_id(i, j), lit_id(i, j), postlit_id(i, j)
            rows += (
                (p, f"n_{3 * j + 2}^{i}", "V3"),
                (lit, f"n_{3 * j + 3}^{i}", "V2"),
                (q, f"n_{3 * j + 4}^{i}", "V3"),
            )
            cap[p] = cap[q] = chain
            cap[lit] = literal
            edges += ((e, p), (p, lit), (lit, q), (q, x))
            row.append(lit)
        rows.append((b, f"n_{3 * width + 5}^{i}", "V4"))
        cap[b] = caps.bypass
        edges += ((e, b), (b, x))
        edges += itertools.combinations(row, 2)
        lits.append(row)
        bypasses.append(b)
    pairs = conflict_pairs(formula)
    for index, (ci, cj), (ni, nj) in pairs:
        k = conflict_id(index)
        rows.append((k, f"n_{index}", "V5"))
        cap[k] = caps.conflict
        edges += ((k, lits[ci - 1][cj - 1]), (k, lits[ni - 1][nj - 1]))
    sources = [preload_src_id(i) for i in range(1, m + 1)]
    for i, (a, b) in enumerate(zip(sources, bypasses), 1):
        rows.append((a, f"A_{i}", "aux"))
        cap[a] = caps.preload_src
        edges.append((a, b))
    rows.append((TERMINAL, None, "aux"))
    cap[TERMINAL] = caps.terminal
    edges.append((exit_id(m), TERMINAL))

    network = Network([row[0] for row in rows], edges, cap)
    flows = tuple(
        FlowRequest(a, b, 1, f"preload-{i}")
        for i, (a, b) in enumerate(zip(sources, bypasses), 1)
    ) + (FlowRequest(entry_id(1), TERMINAL, None, "main"),)
    inst = NcInstance(network, flows, tuple(map(NodeInfo._make, rows)), formula)
    inst.__dict__["conflicts"] = pairs  # the cached property, built above
    return inst


def _require_compiled(inst: NcInstance) -> Formula:
    if inst.formula is None:
        raise ValueError("operation requires an instance compiled from a formula")
    return inst.formula


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

    It accepts 1 + (satisfied clauses) copies, and under the default
    capacities it is feasible for every assignment.
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


def classify_path(inst: NcInstance, p: Path) -> FeasibilityVerdict:
    """The route verdict of both ``check`` modes: a main-flow path judged
    with all preloads routed.  Main's own faults come before a preload's:
    its first bad hop or repeat, then endpoints other than E1 and T, each
    a defect at main's plan index.  Otherwise ``check_feasible`` judges the
    whole plan, preloads included."""
    preloads = preload_plan(inst).assignments
    main = inst.flows[-1]
    try:
        validate_path(inst.network, p)
    except PathError as exc:
        defect = PathDefect(len(preloads), str(exc), exc.bad_hop)
    else:
        if p[:1] + p[-1:] == (main.src, main.dst):
            plan = RoutePlan((*preloads, RouteAssignment(main, 0, p)))
            return check_feasible(inst.network, plan)
        reason = f"path does not run from {main.src!r} to {main.dst!r}"
        defect = PathDefect(len(preloads), reason)
    return FeasibilityVerdict(defects=(defect,))


@dataclass(frozen=True)
class AuditReport:
    """The audit's verdict, empty when the gadget holds.  Failures come in
    clause order; within a clause, the overloaded segment nodes in walk
    order, then the bypass, then each conflict pair."""

    failures: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures


def audit(inst: NcInstance) -> AuditReport:
    """Check the gadget's blocking arithmetic clause by clause.

    With preloads routed: (1) a main route over the bypass overloads it;
    (2) every assignment-realizable literal segment fits; (3) routing
    through a conflict node overloads it; (4) transmitting from both
    literal nodes of a complementary pair overloads their conflict node.
    All computed by exact load arithmetic on the relevant hops, on the
    watched nodes only.  A segment transmits from the entry, one pre node,
    some literal nodes and one post node, so (2) first takes one peak per
    watched node: the clause's context load, the entry's, the pre nodes'
    load counted once, the post nodes' counted once and every literal
    node's.  A node hears exactly the transmitters in its own transmit
    tuple, so each peak is read off that tuple in one pass.  Only when some
    node's peak does not fit are the realizable segments walked one by one,
    each node reported at its first overload; under the default capacities
    every peak fits, so only capacity overrides walk.
    """
    formula = _require_compiled(inst)
    cap = inst.network.capacity
    tx = inst.network.transmit_sets
    m = len(formula.clauses)
    lits = [
        [lit_id(i, j) for j in range(1, len(clause) + 1)]
        for i, clause in enumerate(formula.clauses, 1)
    ]
    # Each pair is checked once; its failures are reported under both clauses.
    # Transmitting from both literal nodes, and the route la -> k -> lb
    # (transmitters la and k), must each overload the conflict node k.  A
    # literal node's transmission loads k when it is k's neighbour.
    pair_blocks: dict[int, tuple[str, bool, bool]] = {}
    for index, (ci, cj), (ni, nj) in inst.conflicts:
        k = conflict_id(index)
        from_a = lits[ci - 1][cj - 1] in tx[k]
        pair_blocks[index] = (
            k,
            from_a + (lits[ni - 1][nj - 1] in tx[k]) > cap[k],
            from_a + 1 > cap[k],
        )

    failures: list[str] = []
    for i, clause in enumerate(formula.clauses, 1):
        pairs = inst.pairs_by_clause.get(i, ())
        e, x, bypass, a = entry_id(i), exit_id(i), bypass_id(i), preload_src_id(i)
        chains = [
            (prelit_id(i, j), lit, postlit_id(i, j))
            for j, lit in enumerate(lits[i - 1], 1)
        ]
        watch = [e, x, bypass, a, *itertools.chain(*chains)]
        watch += [pair_blocks[p.index][0] for p in pairs]
        if i == m:
            watch.append(TERMINAL)
        # The context: the preload, the chain hop in, the chain hop out, and
        # the next entry's first transmission (it reaches this clause's exit).
        context = [a, exit_id(i - 1), x] if i > 1 else [a, x]
        if i < m:
            context.append(entry_id(i + 1))
        # Each transmitter's role: 0 context, 1 entry or literal, 2 pre, 3
        # post; a node's room is left after the context, its peak after
        # every segment, pre and post nodes counted once.
        role = dict.fromkeys(context, 0)
        role[e] = 1
        for p, lit, q in chains:
            role[p], role[lit], role[q] = 2, 1, 3
        heard_by = role.get
        room, peak = [], []
        for v in watch:
            heard = list(map(heard_by, tx[v]))
            left = cap[v] - heard.count(0)
            room.append(left)
            peak.append(left - heard.count(1) - (2 in heard) - (3 in heard))
        overloaded: list[int] = []  # in the order the segments overload them
        if min(peak) < 0:  # some segment may overload: walk them all
            slot = {v: n for n, v in enumerate(watch)}
            # Per transmitter, the watched slots one transmission from it loads.
            reach = {
                u: [n for n in map(slot.get, tx[u]) if n is not None]
                for u in [e, *itertools.chain(*chains)]
            }
            for trues in realizable_true_sets(clause):
                # Transmitters e, the first true position's pre node, the
                # true literal nodes and the last one's post node.
                margin = room[:]
                hits = reach[e] + reach[chains[trues[0] - 1][0]]
                for j in trues:
                    hits += reach[chains[j - 1][1]]
                for n in hits + reach[chains[trues[-1] - 1][2]]:
                    margin[n] -= 1
                overloaded += [
                    n
                    for n, left in enumerate(margin)
                    if left < 0 and n not in overloaded
                ]
        failures += [
            f"clause {i}: intended segment overloads {watch[n]}" for n in overloaded
        ]

        # The route e -> bypass -> x: transmitters e and the bypass itself.
        if (bypass in tx[e]) + 1 <= room[2]:  # watch[2] is the bypass
            failures.append(f"clause {i}: bypass not blocked")
        for pair in pairs:
            k, conflict, through = pair_blocks[pair.index]
            if not conflict:
                failures.append(f"clause {i}: conflict not blocked ({k})")
            if not through:
                failures.append(f"clause {i}: conflict through-route not blocked ({k})")
    return AuditReport(tuple(failures))
