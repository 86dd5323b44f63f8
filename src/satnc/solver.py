"""Exact and greedy flow-admission solvers plus the hardness-bound constant."""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Iterator, Mapping

from .gadget import NcInstance
from .model import Network, Path, RouteAssignment, RoutePlan, check_feasible

DEFAULT_NODE_BUDGET = 10_000_000


@dataclass(frozen=True)
class SolveResult:
    accepted_count: int
    plan: RoutePlan
    optimal: bool
    nodes_explored: int = 0
    budget_hit: bool = False


class _Stop(Exception):
    pass


class _Router:
    """Elementary s-t paths of one network, searched on demand."""

    def __init__(self, net: Network, caps: Mapping[str, float]) -> None:
        self.adj = {v: sorted(net.adjacency(v)) for v in net.nodes}
        self.tx = net.transmit_sets
        self.caps = caps
        self.hops_to: dict[str, dict[str, int]] = {}  # per target, filled on use
        self.component: dict[str, dict[str, int]] = {}  # per node, filled on use

    def _hops(self, t: str) -> dict[str, int]:
        """Hops to ``t`` from every node that can reach it."""
        dist = {t: 0}
        queue = [t]
        for u in queue:  # breadth first; the queue grows as it is read
            for w in self.adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist

    def _component_of(self, t: str) -> dict[str, int]:
        """Every node of ``t``'s connected component, mapped to 0.  The
        first call labels all components, so the graph is walked once."""
        if not self.component:
            for v in self.adj:
                if v not in self.component:
                    members = dict.fromkeys(self._hops(v), 0)
                    for w in members:
                        self.component[w] = members
        return self.component[t]

    def paths(
        self,
        s: str,
        t: str,
        load: Mapping[str, int],
        floor: Path = (),
        max_hops: int | None = None,
    ) -> Iterator[tuple[Path, dict[str, int]]]:
        """Yield ``(path, load delta)`` for each path that fits on top of
        ``load``, in lexicographic order of node ids, from ``floor`` on and
        with at most ``max_hops`` hops.

        Depth-first without recursion.  A prefix is cut once some node's
        ``load`` plus the prefix's own load exceeds its capacity (a path's
        load depends only on its transmitters, so this is a lower bound), or
        once its hops plus the distance left to ``t`` exceed ``max_hops``;
        without a hop limit, once it leaves ``t``'s connected component.
        ``load`` is read live: a caller may change it between resumptions
        if it restores it first.  The delta may list nodes with 0.
        """
        adj, tx, caps = self.adj, self.tx, self.caps
        if max_hops is None:
            # Without a hop limit only reachability cuts: 0 hops for every
            # node of t's component stands in for its distance.
            dist = self._component_of(t)
            max_hops = len(adj)
        else:
            dist = self.hops_to.get(t)
            if dist is None:
                dist = self.hops_to[t] = self._hops(t)
        own: dict[str, int] = {}

        def fits(u: str) -> bool:
            for v in tx[u]:
                if load[v] + own.get(v, 0) >= caps[v]:
                    return False
            for v in tx[u]:
                own[v] = own.get(v, 0) + 1
            return True

        if not fits(s):
            return
        trail = [s]
        on_trail = {s}
        tight = 1 if floor else 0  # leading trail nodes equal to the floor's
        nxt = [adj[s].index(floor[1]) if floor else 0]
        while trail:
            u = trail[-1]
            i = nxt[-1]
            kids = adj[u]
            if i == len(kids):
                trail.pop()
                on_trail.discard(u)
                nxt.pop()
                tight = min(tight, len(trail))
                for v in tx[u]:
                    own[v] -= 1
                continue
            nxt[-1] = i + 1
            w = kids[i]
            if w == t:
                yield (*trail, t), dict(own)
            elif (
                w not in on_trail
                and len(trail) + dist.get(w, max_hops) <= max_hops
                and fits(w)
            ):
                if tight == len(trail) and floor[tight] == w:
                    tight += 1
                trail.append(w)
                on_trail.add(w)
                # While the trail follows the floor, resume at the floor's child.
                nxt.append(adj[w].index(floor[tight]) if tight == len(trail) else 0)


def enum_paths(
    net: Network,
    s: str,
    t: str,
    budget: dict[str, int] | None = None,
    limit: int | None = None,
) -> tuple[list[Path], bool]:
    """Elementary s-t paths whose own load fits the per-node budget (nodes
    missing from it are unconstrained), in lexicographic order: at most
    ``limit`` of them, plus a flag telling whether more were left out."""
    if s == t:
        raise ValueError("source equals destination")
    net._require(s)
    net._require(t)
    caps = {v: (budget or {}).get(v, math.inf) for v in net.nodes}
    found = (p for p, _ in _Router(net, caps).paths(s, t, dict.fromkeys(net.nodes, 0)))
    paths = list(itertools.islice(found, limit))
    return paths, next(found, None) is not None


def _effective_copies(inst: NcInstance) -> list[int]:
    # Every copy loads its source and its destination by at least one, so
    # an unbounded demand never has more copies than those capacities allow.
    caps = inst.network.capacity
    return [
        f.copies if f.copies is not None else min(caps[f.src], caps[f.dst])
        for f in inst.flows
    ]


def solve_exact(
    inst: NcInstance,
    budget: int = DEFAULT_NODE_BUDGET,
    required: Collection[int] = (),
    start: RoutePlan | None = None,
) -> SolveResult:
    """Maximize the number of accepted copies by branch and bound.

    Flows are considered in demand order, but acceptance subsets are
    searched: any copy may be rejected if that lets later flows through,
    except the first copy of each flow whose index is in ``required``.
    Each branch searches paths on demand under its residual capacity, and
    copies of one flow take non-decreasing paths.  Branches are cut with an
    admissible bound from the remaining copy supply, capped per flow by how
    many copies the residual capacity at its endpoints could still carry.
    ``start``, a feasible plan that routes every required flow, is the
    first incumbent, so the bound prunes against it from the root.  The
    result is optimal unless the node budget ran out; when no plan routes
    every required flow, it accepts 0 copies with an empty plan.
    """
    required = frozenset(required)
    if not required <= set(range(len(inst.flows))):
        raise ValueError(f"required flow indices out of range: {sorted(required)}")
    net = inst.network
    caps = dict(net.capacity)
    router = _Router(net, caps)
    copies = _effective_copies(inst)
    load = dict.fromkeys(net.nodes, 0)
    # Each flow's first path at the root, None when it has no path at all.
    root_path = [next(router.paths(f.src, f.dst, load), None) for f in inst.flows]
    # A copy loads its source twice unless s-t is one hop: the second
    # transmitter is in the source's range.  Its destination hears one.
    min_src = [1 if net.has_edge(f.src, f.dst) else 2 for f in inst.flows]
    plan: list[RouteAssignment] = []
    best_count = -1
    best_plan: tuple[RouteAssignment, ...] = ()
    if start is not None:
        _check_start(inst, start, required)
        best_count, best_plan = len(start), start.assignments
    explored = 0

    def endpoint_ub(fi: int) -> int:
        flow = inst.flows[fi]
        room_src = caps[flow.src] - load[flow.src]
        room_dst = caps[flow.dst] - load[flow.dst]
        if root_path[fi] is None or room_src <= 0 or room_dst <= 0:
            return 0
        return min(room_src // min_src[fi], room_dst)

    def supply_bound(fi: int, ci: int) -> int:
        total = min(copies[fi] - ci, endpoint_ub(fi))
        for g in range(fi + 1, len(inst.flows)):
            total += min(copies[g], endpoint_ub(g))
        return total

    # Depth-first without recursion.  A frame routes copy ``ci`` of flow
    # ``fi`` over each of its paths in turn, with copy ``ci + 1`` as the
    # child branch, then stops routing the flow and moves on in its place.
    stack: list[list] = []

    def enter(fi: int, ci: int, floor: Path, accepted: int) -> None:
        """Open a branch: settle it here or push its frame."""
        nonlocal best_count, best_plan, explored
        explored += 1
        if explored > budget:
            raise _Stop
        if fi == len(inst.flows):
            if accepted > best_count:
                best_count = accepted
                best_plan = tuple(plan)
            return
        if accepted + supply_bound(fi, ci) <= best_count:
            return
        flow = inst.flows[fi]
        # The search reads ``load`` live; it is restored before each resumption.
        paths = (
            router.paths(flow.src, flow.dst, load, floor)
            if ci < copies[fi]
            else iter(())
        )
        stack.append([fi, ci, accepted, paths, None])  # last: the routed delta

    with contextlib.suppress(_Stop):
        enter(0, 0, (), 0)
        while stack:
            frame = stack[-1]
            fi, ci, accepted, paths, delta = frame
            if delta is not None:  # back from the child branch
                plan.pop()
                for v, n in delta.items():
                    load[v] -= n
                frame[4] = None
                if accepted + supply_bound(fi, ci) <= best_count:
                    paths = frame[3] = iter(())
            found = next(paths, None)
            if found is not None:
                path, frame[4] = found
                for v, n in found[1].items():
                    load[v] += n
                plan.append(RouteAssignment(inst.flows[fi], ci, path))
                enter(fi, ci + 1, path, accepted + 1)
                continue
            stack.pop()
            if ci > 0 or fi not in required:
                enter(fi + 1, 0, (), accepted)
    return SolveResult(
        accepted_count=max(best_count, 0),
        plan=RoutePlan(best_plan),
        optimal=explored <= budget,
        nodes_explored=explored,
        budget_hit=explored > budget,
    )


def _check_start(inst: NcInstance, start: RoutePlan, required: Collection[int]) -> None:
    routed = {a.flow for a in start.assignments}
    for a in start.assignments:
        if a.flow not in inst.flows or (
            a.flow.copies is not None and a.copy >= a.flow.copies
        ):
            raise ValueError(
                f"start routes copy {a.copy} of flow {a.flow.label!r}, "
                "which the instance does not demand"
            )
    for fi in required:
        if inst.flows[fi] not in routed:
            raise ValueError(
                f"start does not route required flow {inst.flows[fi].label!r}"
            )
    if not check_feasible(inst.network, start).ok:
        raise ValueError("start plan is not feasible")


def solve_greedy(inst: NcInstance) -> SolveResult:
    """Admit copies in demand order, each over the feasible path with the
    fewest hops (node ids break ties); a demand stops at its first
    rejection.  Never certified optimal."""
    net = inst.network
    router = _Router(net, dict(net.capacity))
    load = dict.fromkeys(net.nodes, 0)
    plan: list[RouteAssignment] = []
    for flow, copies in zip(inst.flows, _effective_copies(inst)):
        for ci in range(copies):
            # Deepening on hop count: the first path at the smallest depth
            # is the shortest one, lexicographically first among its peers.
            tries = (
                next(router.paths(flow.src, flow.dst, load, max_hops=hops), None)
                for hops in range(1, len(net.nodes))
            )
            found = next(filter(None, tries), None)
            if found is None:
                break
            for v, n in found[1].items():
                load[v] += n
            plan.append(RouteAssignment(flow, ci, found[0]))
    return SolveResult(len(plan), RoutePlan(tuple(plan)), optimal=False)


def inapprox_bound(k: int) -> Fraction:
    """The approximation-hardness constant 1/(1 - 2**-k) as an exact rational."""
    if k < 2:
        raise ValueError("k must be at least 2")
    return Fraction(2**k, 2**k - 1)
