"""Independent brute-force oracles the tests check the package against.

Everything here is written from the ground rules only: adjacency is an
edge-list scan, interference membership is re-derived per node, path
enumeration is plain recursion, and the plan optimum is an exhaustive
sweep.  Nothing imports the package's load or search code.
"""

from __future__ import annotations

import itertools


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
