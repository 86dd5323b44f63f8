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
from functools import cached_property, lru_cache
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
    clause plus its own pre and post nodes, and no more.  The network
    decides what a capacity may be; a compile raises its error for any other.
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


class _Clause(NamedTuple):
    """One clause gadget's part of a shape; see ``_shape``."""

    entry: str
    exit: str
    bypass: str
    chains: tuple[tuple[str, str, str], ...]  # (pre, literal, post) by position
    lits: tuple[str, ...]
    watch: tuple[str, ...]  # entry, exit, bypass, source, then the chains
    last: tuple[str, ...]  # watched after the conflict nodes: T in clause m
    role: dict[str, int]  # the audit's role per transmitter


class _Shape(NamedTuple):
    """The part of a compile fixed by its clause widths; see ``_shape``."""

    clauses: tuple[_Clause, ...]
    rows: tuple[NodeInfo, ...]  # every clause gadget's own nodes
    edges: tuple[tuple[str, str], ...]  # their internal edges and cliques
    sources: tuple[str, ...]  # the preloads' sources
    tail_edges: tuple[tuple[str, str], ...]  # each preload's hop, then X_m -> T
    tail_rows: tuple[NodeInfo, ...]  # the sources' rows, then the terminal's
    flows: tuple[FlowRequest, ...]  # the preloads, then main


def _node_rows(rows: Iterable[tuple[str, str, str]]) -> tuple[NodeInfo, ...]:
    # NodeInfo._make on each row, without a Python-level call per row.
    return tuple(map(tuple.__new__, itertools.repeat(NodeInfo), rows))


@lru_cache(maxsize=1)
def _shape(widths: tuple[int, ...]) -> _Shape:
    """Every fact of a compile that the clause widths fix, never the
    literals or the capacities: each clause gadget's ids, watched nodes and
    audit roles, and the chain's node rows, edges, tail and flows, in
    compile order (each gadget's link from the previous exit first, its
    literal clique last).

    Compiles, audits and plans read it once per call.  The table has one
    entry, the shape read last: about 6 KB per width-3 clause.  Widths are
    ``len`` results, so exact ints key it.  No reader changes its values.
    """
    m = len(widths)
    clauses: list[_Clause] = []
    rows: list[tuple[str, str, str]] = []
    edges: list[tuple[str, str]] = []
    preloads: list[FlowRequest] = []
    for i, width in enumerate(widths, 1):
        e, x, b, a = entry_id(i), exit_id(i), bypass_id(i), preload_src_id(i)
        rows += ((e, f"n_1^{i}", "V1"), (x, f"n_4^{i}", "V1"))
        if i > 1:
            edges.append((exit_id(i - 1), e))
        chains = []
        flat: list[str] = []  # the chains' nodes in turn
        for j in range(1, width + 1):
            chain = p, lit, q = prelit_id(i, j), lit_id(i, j), postlit_id(i, j)
            rows += (
                (p, f"n_{3 * j + 2}^{i}", "V3"),
                (lit, f"n_{3 * j + 3}^{i}", "V2"),
                (q, f"n_{3 * j + 4}^{i}", "V3"),
            )
            edges += ((e, p), (p, lit), (lit, q), (q, x))
            chains.append(chain)
            flat += chain
        rows.append((b, f"n_{3 * width + 5}^{i}", "V4"))
        lits = tuple(flat[1::3])
        edges += ((e, b), (b, x), *itertools.combinations(lits, 2))
        # Each transmitter's role: 0 context, 1 entry or literal, 2 pre, 3
        # post.  The context: the preload, the chain hop in, the chain hop
        # out, and the next entry's first transmission (it reaches x); so
        # each end of the link X_{i-1} - E_i is in the other clause's context.
        role = {a: 0, x: 0, e: 1}
        role.update(zip(flat, (2, 1, 3) * width))
        if i > 1:
            role[exit_id(i - 1)] = 0
            clauses[-1].role[e] = 0
        watch = (e, x, b, a, *flat)
        last = (TERMINAL,) if i == m else ()
        clauses.append(_Clause(e, x, b, tuple(chains), lits, watch, last, role))
        preloads.append(FlowRequest(a, b, 1, f"preload-{i}"))
    sources = tuple(f.src for f in preloads)
    tail_rows = [NodeInfo(a, f"A_{i}", "aux") for i, a in enumerate(sources, 1)]
    return _Shape(
        tuple(clauses),
        _node_rows(rows),
        tuple(edges),
        sources,
        (*[(f.src, f.dst) for f in preloads], (exit_id(m), TERMINAL)),
        (*tail_rows, NodeInfo(TERMINAL, None, "aux")),
        (*preloads, FlowRequest(entry_id(1), TERMINAL, None, "main")),
    )


@lru_cache(maxsize=1, typed=True)
def _frame(
    widths: tuple[int, ...], entry_exit: int, literal: int | None, bypass: int
) -> Network:
    """The checked network of a shape's clause gadgets under the
    capacities of their own nodes: every gadget's nodes, internal edges
    and literal clique, validated once.  A compile extends it with the
    conflict nodes, the preloads' sources, the terminal and their edges.
    The table has one entry, the last (shape, capacities) compiled, whose
    transmit tuples compiled instances share: about 1.2 KB per width-3
    clause.  It is keyed by value and type, so ``True`` and ``3.0`` miss
    the entries of ``1`` and ``3`` and reach the network, which rejects them.
    """
    shape = _shape(widths)
    nodes = [row[0] for row in shape.rows]
    # Capacities by role; entry, exit, pre and post nodes keep the first.
    cap = dict.fromkeys(nodes, entry_exit)
    for c in shape.clauses:
        width_cap = len(c.lits) + 2 if literal is None else literal
        cap.update(dict.fromkeys(c.lits, width_cap))
        cap[c.bypass] = bypass
    return Network(nodes, shape.edges, cap)


def _gadgets(formula: Formula) -> tuple[_Clause, ...]:
    return _shape(tuple(map(len, formula.clauses))).clauses


def compile_formula(
    formula: Formula, caps: CapacityPreset = CapacityPreset()
) -> NcInstance:
    """Build the flow-admission instance whose optimum detects satisfiability.

    Accepting all preload flows plus one main copy is possible exactly when
    the formula is satisfiable; with any clause unsatisfied the main flow
    can only cross that clause by overloading its bypass.  The clause
    gadgets' network comes from ``_frame`` and their ids, rows, tail and
    flows from ``_shape``, each built when its key differs from the one
    it holds, capacities by value and type; only the conflict nodes, the
    preloads' sources, the terminal, their edges and their capacities are
    added per call.  The result is the network the whole node and edge
    lists would build, transmit order and capacity errors included.
    """
    if not formula.clauses:
        raise ValueError("cannot compile an empty formula")
    widths = tuple(map(len, formula.clauses))
    frame = _frame(widths, caps.entry_exit, caps.literal, caps.bypass)
    shape = _shape(widths)
    pairs = conflict_pairs(formula)
    lits = [c.lits for c in shape.clauses]
    edges: list[tuple[str, str]] = []
    found = []  # the conflict nodes' rows
    for index, (ci, cj), (ni, nj) in pairs:
        k = conflict_id(index)
        found.append((k, f"n_{index}", "V5"))
        edges += ((k, lits[ci - 1][cj - 1]), (k, lits[ni - 1][nj - 1]))
    edges += shape.tail_edges
    conflicts = [row[0] for row in found]
    cap = dict.fromkeys(conflicts, caps.conflict)
    cap.update(dict.fromkeys(shape.sources, caps.preload_src))
    cap[TERMINAL] = caps.terminal
    added = [*conflicts, *shape.sources, TERMINAL]
    network = frame.extended(added, edges, cap)
    rows = (*shape.rows, *_node_rows(found), *shape.tail_rows)
    inst = NcInstance(network, shape.flows, rows, formula)
    inst.__dict__["conflicts"] = pairs  # the cached property, built above
    return inst


def _require_compiled(inst: NcInstance) -> Formula:
    if inst.formula is None:
        raise ValueError("operation requires an instance compiled from a formula")
    return inst.formula


def path_to_assignment(inst: NcInstance, p: Path) -> Assignment:
    """Partial assignment read off the literal nodes a path visits."""
    formula = _require_compiled(inst)
    for v in p:
        inst.network._require(v)
    visited = set(p)
    values: Assignment = {}
    for gadget, clause in zip(_gadgets(formula), formula.clauses):
        for v, lit in zip(gadget.lits, clause):
            if v in visited:
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
    capacities it is feasible for every assignment.  Main's route is read
    off each clause's gadget in the formula's shape.
    """
    formula = _require_compiled(inst)
    _require_total(formula, a)
    main: list[str] = []
    routed: list[RouteAssignment] = []
    for gadget, clause, flow in zip(_gadgets(formula), formula.clauses, inst.flows):
        main.append(gadget.entry)
        trues = true_positions(clause, a)
        if trues:
            chains = gadget.chains
            main.append(chains[trues[0] - 1][0])
            main += [chains[j - 1][1] for j in trues]
            main += (chains[trues[-1] - 1][2], gadget.exit)
            routed.append(RouteAssignment(flow, 0, (flow.src, flow.dst)))
        else:
            main += (gadget.bypass, gadget.exit)
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
    every peak fits, so only capacity overrides walk.  A clause's ids,
    watched nodes and transmitter roles, context included, are read off
    its gadget in the formula's shape.  An instance that lacks one of its
    formula's gadget nodes raises ValueError.
    """
    formula = _require_compiled(inst)
    try:
        return AuditReport(_audit_failures(inst, formula))
    except KeyError as exc:  # only a node id can miss the network's tables
        raise ValueError(f"instance lacks gadget node {exc.args[0]!r}") from None


def _audit_failures(inst: NcInstance, formula: Formula) -> tuple[str, ...]:
    cap = inst.network.capacity
    tx = inst.network.transmit_sets
    gadgets = _gadgets(formula)
    # Each pair is checked once; its failures are reported under both clauses.
    # Transmitting from both literal nodes, and the route la -> k -> lb
    # (transmitters la and k), must each overload the conflict node k.  A
    # literal node's transmission loads k when it is k's neighbour.  Per
    # clause, (k, conflict blocked, through-route blocked) in pair order.
    blocks: list[list[tuple[str, bool, bool]]] = [[] for _ in gadgets]
    for index, (ci, cj), (ni, nj) in inst.conflicts:
        k = conflict_id(index)
        from_a = gadgets[ci - 1].lits[cj - 1] in tx[k]
        conflict = from_a + (gadgets[ni - 1].lits[nj - 1] in tx[k]) > cap[k]
        blocks[ci - 1].append((k, conflict, from_a + 1 > cap[k]))
        blocks[ni - 1].append(blocks[ci - 1][-1])

    failures: list[str] = []
    for i, (gadget, clause, pairs) in enumerate(
        zip(gadgets, formula.clauses, blocks), 1
    ):
        e, chains = gadget.entry, gadget.chains
        watch = [*gadget.watch, *[block[0] for block in pairs], *gadget.last]
        # A node's room is left after the context, its peak after every
        # segment, pre and post nodes counted once.
        heard_by = gadget.role.get
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
        if (gadget.bypass in tx[e]) + 1 <= room[2]:  # watch[2] is the bypass
            failures.append(f"clause {i}: bypass not blocked")
        for k, conflict, through in pairs:
            if not conflict:
                failures.append(f"clause {i}: conflict not blocked ({k})")
            if not through:
                failures.append(f"clause {i}: conflict through-route not blocked ({k})")
    return tuple(failures)
