"""Exact and greedy flow-admission solvers plus the hardness-bound constant."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Collection, Iterable, Iterator

from .gadget import NcInstance
from .model import (
    FlowRequest,
    Network,
    Path,
    RouteAssignment,
    RoutePlan,
    check_feasible,
)

DEFAULT_NODE_BUDGET = 10_000_000


class InfeasibleStart(ValueError):
    """A start plan for ``solve_exact`` that is not feasible."""


@dataclass(frozen=True)
class SolveResult:
    plan: RoutePlan
    optimal: bool
    nodes_explored: int = 0
    budget_hit: bool = False

    @property
    def accepted_count(self) -> int:
        return len(self.plan)


class _Router:
    """Elementary s-t paths of one network, searched on demand.

    Nodes are numbered in sorted id order, so index tuples compare as the
    id tuples do; adjacency lists and transmit sets are tuples of indices.
    The search reads and writes a caller's ``room`` list, indexed the same
    way: ``room[v]`` is how many more transmissions node ``v`` can hear.

    A trail node after ``s`` hears its predecessor's transmission and its
    own, so with room never above capacity only nodes of capacity 2 or
    more, and ``s`` and ``t``, can carry a path: call them relays.  The
    separators of an ``s``-``t`` pair are the relays other than ``s`` and
    ``t`` that every relay path from ``s`` to ``t`` passes; ``_separators``
    finds them on first need and keeps them per pair, each with the key
    ``paths`` files its failed states under.  The same walk tells whether
    ``s`` reaches ``t`` over relays at all; where it does not, no path
    exists.
    """

    def __init__(self, net: Network) -> None:
        self.ids = ids = tuple(sorted(net.nodes))
        self.index = index = {v: i for i, v in enumerate(ids)}
        self.capacity = tuple(map(net.capacity.__getitem__, ids))
        tx = net.transmit_sets
        self.tx = tuple(tuple(map(index.__getitem__, tx[v])) for v in ids)
        self.adj = tuple(tuple(sorted(t[1:])) for t in self.tx)
        self._keys: dict[tuple[int, int], list] = {}
        self._unkeyed = (None,) * len(ids)

    def path_ids(self, path: tuple[int, ...]) -> Path:
        return tuple(map(self.ids.__getitem__, path))

    def charge(self, room: list, transmitters: Iterable[int], n: int) -> None:
        """Add ``n`` to the room of every node the transmitters load."""
        tx = self.tx
        for u in transmitters:
            for v in tx[u]:
                room[v] += n

    def _hops(self, t: int) -> list[int]:
        """Hops to ``t`` from every node, breadth first; ``len(adj)``, more
        than any path has, from nodes that cannot reach it."""
        adj, far = self.adj, len(self.adj)
        dist = [far] * far
        dist[t] = 0
        queue = [t]
        for u in queue:  # the queue grows as it is read
            for w in adj[u]:
                if dist[w] == far:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist

    @functools.cached_property
    def _relays(self) -> tuple[bytearray, tuple[tuple[int, tuple[int, ...]], ...]]:
        """Which nodes have the capacity to relay, and each other node that
        two or more of them hear, with those hearers."""
        relay = bytearray(c >= 2 for c in self.capacity)
        heard = []
        for v, kids in enumerate(self.adj):
            if not relay[v]:
                hearers = tuple(h for h in kids if relay[h])
                if len(hearers) > 1:
                    heard.append((v, hearers))
        return relay, tuple(heard)

    def _separators(self, s: int, t: int) -> list[Callable[[list], tuple] | None]:
        """Per node, the key of its failed states if it separates ``s`` from
        ``t`` among the relays, else None; an empty list if no relay path
        joins them, so no path does.

        One lowpoint depth-first walk from ``t`` over the relays (Hopcroft
        and Tarjan) numbers them in preorder.  A node ``c`` on ``s``'s tree
        path whose child toward ``s`` has low at least ``c``'s number cuts
        that child's subtree, the s side, from the t side: every other
        reached relay but ``c`` and ``t``.  A trail that reaches ``c`` got
        there over the s side, so only the room of a node heard by relays
        on both sides, a boundary node, can differ between two visits to
        ``c`` within one search.  Relays on opposite sides are never
        adjacent, so that is ``c`` itself or a node that cannot relay; ``s``,
        on every trail, and ``t``, never pushed, count as hearers on neither
        side.  A boundary node heard by one t-side relay ``x`` only decides
        whether ``x`` is blocked, and is keyed by that; every other one by
        its room.
        """
        keys = self._keys.get((s, t))
        if keys is not None:
            return keys
        adj = self.adj
        n = len(adj)
        keys = self._keys[s, t] = [None] * n
        static, heard = self._relays
        relay = bytearray(static)
        relay[s] = relay[t] = 1
        # Preorder numbers from 1 (0: unreached), lowpoints and tree parents.
        disc, low, parent = [0] * n, [0] * n, [t] * n
        order = [t]
        disc[t] = low[t] = 1
        stack = [(t, iter(adj[t]))]
        while stack:
            u, kids = stack[-1]
            for w in kids:
                if not relay[w]:
                    continue
                if not disc[w]:
                    order.append(w)
                    disc[w] = low[w] = len(order)
                    parent[w] = u
                    stack.append((w, iter(adj[w])))
                    break
                if disc[w] < low[u]:
                    low[u] = disc[w]
            else:
                stack.pop()
                if low[u] < low[parent[u]]:
                    low[parent[u]] = low[u]
        if not disc[s]:
            keys.clear()  # no relay path at all
            return keys
        # The separators from t's side, each with its child toward s.
        cuts = []
        child, c = s, parent[s]
        while c != t:
            if low[child] >= disc[c]:
                cuts.append((c, child))
            child, c = c, parent[c]
        cuts.reverse()
        # The s sides nest, so a reached relay h is on the s side of the
        # first inside[h] separators and, unless it is one, on the t side of
        # every separator past after[h].  Unreached relays, s and t are
        # hearers on no side: inside 0, after the last separator.
        k = len(cuts)
        inside, after = [0] * n, [k] * n
        cut_child = dict.fromkeys(child for _, child in cuts)
        for v in order[1:]:
            after[v] = inside[v] = inside[parent[v]] + (v in cut_child)
        for j, (c, _) in enumerate(cuts, 1):
            after[c] = j
        inside[s] = 0
        after[s] = after[t] = k
        raw: list[list[int]] = [[] for _ in cuts]
        sole: list[list[tuple[int, int]]] = [[] for _ in cuts]
        # Index j stands for separator j + 1: hearer h is on its s side if
        # inside[h] > j, on its t side if after[h] <= j.
        for v, hearers in heard:
            if v == s or v == t:
                continue
            x, y, *_ = sorted(hearers, key=after.__getitem__)
            top = max(map(inside.__getitem__, hearers))
            second = min(after[y], top)
            for j in range(after[x], second):
                sole[j].append((v, x))
            for j in range(second, top):
                raw[j].append(v)
        for j, (c, _) in enumerate(cuts):
            hearers = [h for h in adj[c] if relay[h]]
            far = [h for h in hearers if after[h] <= j]
            if max(map(inside.__getitem__, hearers)) > j and far:
                if len(far) == 1:
                    sole[j].append((c, far[0]))
                else:
                    raw[j].append(c)
            keys[c] = _state_key(c, raw[j], sole[j])
        return keys

    def paths(
        self, s: int, t: int, room: list, floor: tuple[int, ...] = ()
    ) -> Iterator[tuple[int, ...]]:
        """Yield each s-t path that fits in ``room``, in lexicographic order,
        from ``floor`` on.

        Depth-first without recursion.  Each trail node takes one unit of
        room from every node of its transmit set and gives it back when the
        search backtracks; a prefix is cut once that would leave some node
        without room (a path's load depends only on its transmitters, so the
        prefix's load is a lower bound).  ``room`` is mutated during the
        search but restored before every yield, so a caller sees its own
        values between resumptions, and a generator closed or dropped at a
        yield leaves nothing behind.  A caller may change ``room`` while the
        generator is suspended if it restores it before resuming.  No entry
        of ``room`` may exceed the node's capacity: the separators rest on it.

        The search remembers the states it has refuted.  A push of a
        separator (see ``_separators``) reads the separator's key off
        ``room``; a push whose key is already filed is undone at once, and a
        separator's level that backtracks with no yield since its push files
        its key.  The key holds every room the rest of a path through the
        separator can depend on, so a filed state yields nothing again.
        Levels resumed from ``floor`` file nothing, and the file lives as
        long as the call: between calls a caller's charges change rooms that
        the keys leave out.  The separators' walk runs at the first push; if
        it finds no relay path from ``s`` to ``t``, the search gives back its
        room and ends there.  A search where ``t`` or a node ``s`` loads has
        no room left ends before it starts: ``t`` hears the last hop.
        """
        adj, tx = self.adj, self.tx
        if room[t] <= 0:
            return
        for v in tx[s]:
            if room[v] <= 0:
                return
        self.charge(room, (s,), -1)
        trail = [s]
        on_trail = bytearray(len(adj))
        on_trail[s] = 1
        # One child iterator per trail node.  Along the floor each level
        # resumes past the floor's node, and the deepest at it, so the
        # search below starts with the floor itself.
        levels = []
        kids = adj[s]
        for w in floor[1:]:
            i = kids.index(w)
            if w == t or not all(room[v] > 0 for v in tx[w]):
                levels.append(iter(kids[i:]))
                break
            levels.append(iter(kids[i + 1 :]))
            self.charge(room, (w,), -1)
            trail.append(w)
            on_trail[w] = 1
            kids = adj[w]
        else:
            levels.append(iter(kids))
        # The keys are looked up at the search's first push, so a search
        # that pushes nothing builds no separators; none at all means no
        # path.  ``pushed[w]`` is the key and yield count of a keyed push of
        # ``w`` still on the trail.
        keys = pushed = unkeyed = self._unkeyed
        failed: set[tuple] = set()
        found = 0  # yields so far
        while levels:
            for w in levels[-1]:
                if w == t:
                    self.charge(room, trail, 1)
                    yield (*trail, t)
                    self.charge(room, trail, -1)
                    found += 1
                elif not on_trail[w]:
                    txw = tx[w]
                    for v in txw:
                        if room[v] <= 0:
                            break
                    else:
                        if keys is unkeyed:
                            keys = self._separators(s, t)
                            if not keys:
                                self.charge(room, trail, 1)
                                return
                            pushed = [None] * len(adj)
                        for v in txw:
                            room[v] -= 1
                        key_of = keys[w]
                        if key_of is not None:
                            key = key_of(room)
                            if key in failed:
                                for v in txw:
                                    room[v] += 1
                                continue
                            pushed[w] = key, found
                        trail.append(w)
                        on_trail[w] = 1
                        levels.append(iter(adj[w]))
                        break
            else:
                levels.pop()
                u = trail.pop()
                on_trail[u] = 0
                for v in tx[u]:
                    room[v] += 1
                mark = pushed[u]
                if mark is not None:
                    pushed[u] = None
                    if mark[1] == found:
                        failed.add(mark[0])


def _state_key(
    c: int, raw: list[int], sole: list[tuple[int, int]]
) -> Callable[[list], tuple]:
    """The key of a search state at separator ``c``: the room of each node
    in ``raw``, and the t-side relays ``x`` that some ``(v, x)`` of ``sole``
    blocks by having no room left at ``v``."""
    rooms = itemgetter(*raw) if raw else lambda room: ()

    def key(room: list) -> tuple:
        return c, rooms(room), frozenset([x for v, x in sole if room[v] <= 0])

    return key


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
    many copies the residual capacity at its endpoints could still carry;
    that cap alone bounds a flow with ``copies=None``, an unbounded demand.
    ``start``, a feasible plan that routes every required flow, is the
    first incumbent, so the bound prunes against it from the root.  A start
    that is not feasible raises ``InfeasibleStart``; one that routes a copy
    the instance does not demand, or misses a required flow, raises a plain
    ``ValueError``.  The root bound is tested first, on the network's
    capacities, with every flow counted as routable.  A start that meets it
    is certified by that one comparison and returned as it is, with no
    router built.  Otherwise the router is built and the flows with a path
    are settled: each flow the start routes has one, since a path of a
    feasible plan fits alone, and one search settles each other flow.  The
    result is optimal unless the node budget (at least 1) ran out; when no
    plan routes every required flow, it accepts 0 copies with an empty
    plan.  A required flow without a path settles that at once, with no
    search.

    The residual capacity is one list, ``room[v] = capacity - load``: a
    routed copy takes its load from it and gives it back on backtrack, and
    the path search mutates it too but restores it before every yield, so
    each branch sees exactly the room its routed copies leave.
    """
    if budget < 1:
        raise ValueError(f"node budget must be at least 1, got {budget}")
    required = frozenset(required)
    if not required <= set(range(len(inst.flows))):
        raise ValueError(f"required flow indices out of range: {sorted(required)}")
    net = inst.network
    copies = [math.inf if f.copies is None else f.copies for f in inst.flows]
    # At the root the room is the capacity, read by node id; once the router
    # is built, ``room`` and ``ends`` are its residual list and node indices.
    room = net.capacity
    ends = [(f.src, f.dst) for f in inst.flows]
    routable = [True] * len(ends)  # whether each flow has a path at the root
    # A copy loads its source twice unless s-t is one hop: the second
    # transmitter is in the source's range.  Its destination hears one.
    min_src = [1 if net.has_edge(f.src, f.dst) else 2 for f in inst.flows]
    plan: list[tuple[int, int, tuple[int, ...]]] = []  # (flow, copy, path)
    best_count = -1
    best_plan: tuple[RouteAssignment, ...] = ()
    started: Collection[FlowRequest] = ()  # the flows the start routes
    if start is not None:
        started = _check_start(inst, start, required)
        best_count, best_plan = len(start), start.assignments
    explored = 0

    # Every routed copy of a flow takes at least one unit of room at its
    # source and one at its destination, so after c copies this is at most
    # min(capacity[s], capacity[t]) - c: it caps an unbounded demand, and a
    # flow whose endpoints are out of room has no path to search.
    def endpoint_ub(fi: int) -> int:
        s, t = ends[fi]
        if not routable[fi] or room[s] <= 0 or room[t] <= 0:
            return 0
        return min(room[s] // min_src[fi], room[t])

    def supply_bound(fi: int, ci: int) -> int:
        total = min(copies[fi] - ci, endpoint_ub(fi))
        for g in range(fi + 1, len(inst.flows)):
            total += min(copies[g], endpoint_ub(g))
        return total

    # Every flow counts as routable at the root: that bound is never below
    # the exact one, so it prunes only where the exact one would.  Otherwise
    # the flows with a path are settled, and ``enter`` tests the root again
    # with the exact bound.
    if inst.flows and supply_bound(0, 0) <= best_count:
        return SolveResult(start, optimal=True, nodes_explored=1)
    router = _Router(net)
    room = list(router.capacity)
    ends = [(router.index[s], router.index[t]) for s, t in ends]
    routable = [
        f in started or next(router.paths(s, t, room), None) is not None
        for f, (s, t) in zip(inst.flows, ends)
    ]
    if not all(routable[fi] for fi in required):
        return SolveResult(RoutePlan(), optimal=True, nodes_explored=1)

    # Depth-first without recursion.  A frame routes copy ``ci`` of flow
    # ``fi`` over each of its paths in turn, with copy ``ci + 1`` as the
    # child branch, then stops routing the flow and moves on in its place.
    stack: list[list] = []

    def enter(fi: int, ci: int, floor: tuple[int, ...], accepted: int) -> None:
        """Open a branch: settle it here or push its frame."""
        nonlocal best_count, best_plan, explored
        explored += 1
        if explored > budget:
            return  # the search loop stops on its next test
        if fi == len(inst.flows):
            if accepted > best_count:
                best_count = accepted
                best_plan = tuple(
                    RouteAssignment(inst.flows[f], c, router.path_ids(p))
                    for f, c, p in plan
                )
            return
        if accepted + supply_bound(fi, ci) <= best_count:
            return
        paths = router.paths(*ends[fi], room, floor) if ci < copies[fi] else iter(())
        stack.append([fi, ci, accepted, paths, None])  # last: the routed path

    enter(0, 0, (), 0)
    while stack and explored <= budget:
        frame = stack[-1]
        fi, ci, accepted, paths, routed = frame
        if routed is not None:  # back from the child branch
            plan.pop()
            router.charge(room, routed[:-1], 1)
            frame[4] = None
            if accepted + supply_bound(fi, ci) <= best_count:
                paths = frame[3] = iter(())
        path = next(paths, None)
        if path is not None:
            frame[4] = path
            router.charge(room, path[:-1], -1)
            plan.append((fi, ci, path))
            enter(fi, ci + 1, path, accepted + 1)
            continue
        stack.pop()
        if ci > 0 or fi not in required:
            enter(fi + 1, 0, (), accepted)
    return SolveResult(
        plan=RoutePlan(best_plan),
        optimal=explored <= budget,
        nodes_explored=explored,
        budget_hit=explored > budget,
    )


def _check_start(
    inst: NcInstance, start: RoutePlan, required: Collection[int]
) -> set[FlowRequest]:
    """Raise unless ``start`` may warm-start ``solve_exact``; return the
    flows it routes."""
    routed, demanded = {a.flow for a in start.assignments}, set(inst.flows)
    for a in start.assignments:
        if a.flow not in demanded or (
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
        raise InfeasibleStart("start plan is not feasible")
    return routed


def solve_greedy(inst: NcInstance) -> SolveResult:
    """Admit copies in demand order, each flow over one fixed path: its
    shortest, lexicographically first among its peers, from one breadth-first
    walk per flow that ignores load.  A demand stops at its first copy that
    does not fit.  Polynomial, and never certified optimal."""
    router = _Router(inst.network)
    adj, tx = router.adj, router.tx
    room = list(router.capacity)
    plan: list[RouteAssignment] = []
    for flow in inst.flows:
        s, t = router.index[flow.src], router.index[flow.dst]
        hops = router._hops(t)
        if hops[s] == len(adj):
            continue  # t is out of reach
        # Index order is id order, so the smallest neighbour one hop nearer
        # at each step gives the lexicographically first shortest path.
        path = [s]
        while path[-1] != t:
            near = hops[path[-1]] - 1
            path.append(next(w for w in adj[path[-1]] if hops[w] == near))
        ids = router.path_ids(tuple(path))
        for ci in itertools.count() if flow.copies is None else range(flow.copies):
            router.charge(room, path[:-1], -1)
            if any(room[v] < 0 for u in path[:-1] for v in tx[u]):
                router.charge(room, path[:-1], 1)
                break
            plan.append(RouteAssignment(flow, ci, ids))
    return SolveResult(RoutePlan(tuple(plan)), optimal=False)


def inapprox_bound(k: int) -> Fraction:
    """The approximation-hardness constant 1/(1 - 2**-k) as an exact rational."""
    if k < 2:
        raise ValueError("k must be at least 2")
    return Fraction(2**k, 2**k - 1)
