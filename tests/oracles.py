"""Independent brute-force oracles the tests check the package against.

Everything here is written from the ground rules only: adjacency is an
edge-list scan, interference membership is re-derived per node, path
enumeration is plain recursion, the plan optimum is an exhaustive sweep,
and the greedy plan picks from the full path list.  Nothing imports the
package's load or search code; the reference audit borrows only the
compiler's node names, and the reference compile those names, the
conflict pairs and one ``Network`` built from the full edge list.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from satnc.gadget import (
    TERMINAL,
    CapacityPreset,
    NcInstance,
    NodeInfo,
    bypass_id,
    conflict_id,
    conflict_pairs,
    entry_id,
    exit_id,
    lit_id,
    postlit_id,
    preload_src_id,
    prelit_id,
)
from satnc.model import FlowRequest, Network


def edge_key(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u <= v else (v, u)


def pipelined_frame_load(nodes, edges, path) -> dict[str, int]:
    """One steady-state frame: every hop active once; each node is charged
    once per hop whose interference set contains it (transmitter, the
    transmitter's neighbors, and the receiver)."""
    edge_set = {edge_key(u, v) for u, v in edges}
    load = {v: 0 for v in nodes}
    for u, x in zip(path, path[1:]):
        for v in nodes:
            if v == u or v == x or edge_key(u, v) in edge_set:
                load[v] += 1
    return load


def naive_simple_paths(nodes, edges, s, t) -> list[tuple[str, ...]]:
    """Every elementary s-t path, by plain recursion over the edge list."""
    adjacency = {v: [] for v in nodes}
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    out: list[tuple[str, ...]] = []

    def walk(prefix: list[str]) -> None:
        here = prefix[-1]
        if here == t:
            out.append(tuple(prefix))
            return
        for nxt in adjacency[here]:
            if nxt not in prefix:
                walk(prefix + [nxt])

    walk([s])
    return out


def naive_separators(nodes, edges, caps, s, t) -> set[str] | None:
    """The relays other than s and t whose removal leaves no relay path
    from s to t, or None if no relay path joins them at all.  The relays are
    the nodes of capacity 2 or more, plus s and t; each test is a plain
    breadth-first search over the edge list."""
    relays = {v for v in nodes if caps[v] >= 2} | {s, t}

    def joined(removed) -> bool:
        seen, queue = {s}, [s]
        for here in queue:  # the queue grows as it is read
            for u, v in edges:
                for a, b in ((u, v), (v, u)):
                    if a == here and b in relays and b != removed and b not in seen:
                        seen.add(b)
                        queue.append(b)
        return t in seen

    if not joined(None):
        return None
    return {c for c in relays - {s, t} if not joined(c)}


def naive_path_fault(nodes, edges, p):
    """What a validator must report for the node sequence ``p``: None for an
    elementary path over edges, else (error class name, message, bad hop)
    of its fault: the first unknown node, else the first node that repeats,
    else the first hop that is not an edge."""
    for v in p:
        if v not in nodes:
            return ("ValueError", f"unknown node {v!r}", None)
    for i, v in enumerate(p):
        if v in p[:i]:
            return ("PathError", f"node {v!r} repeats", None)
    edge_set = {edge_key(u, v) for u, v in edges}
    for u, x in zip(p, p[1:]):
        if edge_key(u, x) not in edge_set:
            return ("PathError", f"hop ({u!r}, {x!r}) is not an edge", (u, x))
    return None


def naive_plan_feasible(nodes, edges, caps, paths) -> bool:
    total = {v: 0 for v in nodes}
    for p in paths:
        for v, n in pipelined_frame_load(nodes, edges, p).items():
            total[v] += n
    return all(total[v] <= caps[v] for v in nodes)


def naive_best_accept(nodes, edges, caps, demands, required=()) -> int:
    """Maximum number of copies acceptable over any choice of elementary
    paths, by exhaustive search.  ``demands`` is a list of (src, dst,
    copies) triples; only plans that accept a copy of every demand whose
    index is in ``required`` count, and 0 means there is none."""
    candidates = [naive_simple_paths(nodes, edges, s, t) for s, t, _ in demands]

    best = 0

    def recurse(di: int, ci: int, chosen: list[tuple[str, ...]], routed) -> None:
        nonlocal best
        if not naive_plan_feasible(nodes, edges, caps, chosen):
            return
        if len(chosen) > best and set(required) <= routed:
            best = len(chosen)
        if di == len(demands):
            return
        _, _, copies = demands[di]
        if ci < copies:
            for path in candidates[di]:
                recurse(di, ci + 1, chosen + [path], routed | {di})
        recurse(di + 1, 0, chosen, routed)

    recurse(0, 0, [], frozenset())
    return best


def reference_greedy(nodes, edges, caps, demands) -> list[tuple[int, tuple[str, ...]]]:
    """Greedy admission from the ground rules: each demand in turn takes its
    smallest elementary path by (length, node ids) and adds copies over it
    while the plan stays feasible.  ``demands`` is a list of (src, dst,
    copies) triples; the result lists (demand index, path) per copy."""
    chosen: list[tuple[int, tuple[str, ...]]] = []
    for di, (s, t, copies) in enumerate(demands):
        paths = naive_simple_paths(nodes, edges, s, t)
        if not paths:
            continue
        path = min(paths, key=lambda p: (len(p), p))
        for _ in range(copies):
            routed = [p for _, p in chosen] + [path]
            if not naive_plan_feasible(nodes, edges, caps, routed):
                break
            chosen.append((di, path))
    return chosen


def subset_sizes(clauses, var_count) -> dict[str, int]:
    """Node-subset cardinalities straight from the construction formulas."""
    m = len(clauses)
    widths = sum(len(c) for c in clauses)
    v5 = 0
    for var in range(1, var_count + 1):
        pos = sum(1 for c in clauses for lit in c if lit == var)
        neg = sum(1 for c in clauses for lit in c if lit == -var)
        v5 += pos * neg
    return {"V1": 2 * m, "V2": widths, "V3": 2 * widths, "V4": m, "V5": v5}


def satisfied_clauses(clauses, assignment) -> int:
    count = 0
    for clause in clauses:
        if any(assignment[abs(lit)] == (lit > 0) for lit in clause):
            count += 1
    return count


def exhaustive_max_sat(clauses, var_count) -> int:
    best = 0
    for bits in itertools.product((False, True), repeat=var_count):
        a = dict(zip(range(1, var_count + 1), bits))
        best = max(best, satisfied_clauses(clauses, a))
    return best


def _hop_loads(adjacency, hops) -> dict[str, int]:
    """Sparse load of a bag of hops: each charges its transmitter and every
    neighbor of the transmitter (the receiver among them)."""
    load: dict[str, int] = {}
    for u, _ in hops:
        for v in (u, *adjacency[u]):
            load[v] = load.get(v, 0) + 1
    return load


def _realizable_true_sets(clause) -> list[tuple[int, ...]]:
    variables = sorted({abs(lit) for lit in clause})
    seen = set()
    for bits in itertools.product((False, True), repeat=len(variables)):
        value = dict(zip(variables, bits))
        trues = tuple(
            j for j, lit in enumerate(clause, 1) if value[abs(lit)] == (lit > 0)
        )
        if trues:
            seen.add(trues)
    return sorted(seen)


class ReferenceAudit(NamedTuple):
    """The reference audit's failures plus its slack report: per clause,
    each node subset's least capacity-minus-load over the clause's
    realizable segments."""

    failures: tuple[str, ...]
    margins: tuple[dict[str, int], ...]


def reference_audit(inst) -> ReferenceAudit:
    """The gadget audit as first written: one full load sum per candidate
    route, every watched node read for every segment, and each conflict
    pair checked from both of its clauses."""
    formula = inst.formula
    net = inst.network
    adjacency = {v: net.adjacency(v) for v in net.nodes}
    cap = dict(net.capacity)
    subset_of = {n.id: n.subset for n in inst.node_table}
    m = len(formula.clauses)
    records = []
    failures: list[str] = []
    for i, clause in enumerate(formula.clauses, 1):
        pre = [(exit_id(i - 1), entry_id(i))] if i > 1 else []
        if i < m:
            post = [
                (exit_id(i), entry_id(i + 1)),
                (entry_id(i + 1), prelit_id(i + 1, 1)),
            ]
        else:
            post = [(exit_id(m), TERMINAL)]
        preload = [(preload_src_id(i), bypass_id(i))]
        pairs = [p for p in inst.conflicts if i in (p.pos[0], p.neg[0])]
        watch = [entry_id(i), exit_id(i), bypass_id(i), preload_src_id(i)]
        for j in range(1, len(clause) + 1):
            watch += [prelit_id(i, j), lit_id(i, j), postlit_id(i, j)]
        watch += [conflict_id(p.index) for p in pairs]
        if i == m:
            watch.append(TERMINAL)

        margins: dict[str, int] = {}
        for trues in _realizable_true_sets(clause):
            seg = [entry_id(i), prelit_id(i, trues[0])]
            seg += [lit_id(i, j) for j in trues]
            seg += [postlit_id(i, trues[-1]), exit_id(i)]
            load = _hop_loads(adjacency, preload + pre + list(zip(seg, seg[1:])) + post)
            for v in watch:
                margin = cap[v] - load.get(v, 0)
                subset = subset_of[v]
                margins[subset] = min(margins.get(subset, margin), margin)
                if margin < 0:
                    msg = f"clause {i}: intended segment overloads {v}"
                    if msg not in failures:
                        failures.append(msg)

        route = [entry_id(i), bypass_id(i), exit_id(i)]
        load = _hop_loads(adjacency, preload + pre + list(zip(route, route[1:])) + post)
        if load.get(bypass_id(i), 0) <= cap[bypass_id(i)]:
            failures.append(f"clause {i}: bypass not blocked")

        for pair in pairs:
            k = conflict_id(pair.index)
            la, lb = lit_id(*pair.pos), lit_id(*pair.neg)
            both_tx = _hop_loads(
                adjacency, [(la, prelit_id(*pair.pos)), (lb, prelit_id(*pair.neg))]
            )
            if both_tx.get(k, 0) <= cap[k]:
                failures.append(f"clause {i}: conflict not blocked ({k})")
            through = _hop_loads(adjacency, [(la, k), (k, lb)])
            if through.get(k, 0) <= cap[k]:
                failures.append(f"clause {i}: conflict through-route not blocked ({k})")

        records.append(margins)
    return ReferenceAudit(tuple(failures), tuple(records))


def reference_compile(formula, caps=CapacityPreset()) -> NcInstance:
    """The compiler without its per-shape tables: every id, row, edge and
    capacity built afresh from the public id functions, clause by clause,
    and one ``Network`` built from the full lists."""
    if not formula.clauses:
        raise ValueError("cannot compile an empty formula")
    m = len(formula.clauses)
    rows: list[tuple[str, str | None, str]] = []  # the node table's rows
    cap: dict[str, int] = {}
    edges: list[tuple[str, str]] = []
    lits: list[list[str]] = []  # per clause, its literal nodes by position
    for i, clause in enumerate(formula.clauses, 1):
        width = len(clause)
        literal = width + 2 if caps.literal is None else caps.literal
        e, x, b = entry_id(i), exit_id(i), bypass_id(i)
        if i > 1:
            edges.append((exit_id(i - 1), e))
        rows += ((e, f"n_1^{i}", "V1"), (x, f"n_4^{i}", "V1"))
        cap[e] = cap[x] = caps.entry_exit
        row = []
        for j in range(1, width + 1):
            p, lit, q = prelit_id(i, j), lit_id(i, j), postlit_id(i, j)
            rows += (
                (p, f"n_{3 * j + 2}^{i}", "V3"),
                (lit, f"n_{3 * j + 3}^{i}", "V2"),
                (q, f"n_{3 * j + 4}^{i}", "V3"),
            )
            cap[p] = cap[q] = caps.entry_exit
            cap[lit] = literal
            edges += ((e, p), (p, lit), (lit, q), (q, x))
            row.append(lit)
        rows.append((b, f"n_{3 * width + 5}^{i}", "V4"))
        cap[b] = caps.bypass
        edges += ((e, b), (b, x))
        edges += itertools.combinations(row, 2)
        lits.append(row)
    for index, (ci, cj), (ni, nj) in conflict_pairs(formula):
        k = conflict_id(index)
        rows.append((k, f"n_{index}", "V5"))
        cap[k] = caps.conflict
        edges += ((k, lits[ci - 1][cj - 1]), (k, lits[ni - 1][nj - 1]))
    flows = []
    for i in range(1, m + 1):
        a, b = preload_src_id(i), bypass_id(i)
        rows.append((a, f"A_{i}", "aux"))
        cap[a] = caps.preload_src
        edges.append((a, b))
        flows.append(FlowRequest(a, b, 1, f"preload-{i}"))
    rows.append((TERMINAL, None, "aux"))
    cap[TERMINAL] = caps.terminal
    edges.append((exit_id(m), TERMINAL))
    flows.append(FlowRequest(entry_id(1), TERMINAL, None, "main"))
    network = Network([row[0] for row in rows], edges, cap)
    table = tuple(NodeInfo(*row) for row in rows)
    return NcInstance(network, tuple(flows), table, formula)
