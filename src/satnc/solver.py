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
from .model import Network, Path, RouteAssignment, RoutePlan, check_feasible, hops_load

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
    """Elementary s-t paths of one network, searched on demand for
    ``solve_exact``.

    Its tables come from one read of the network's transmit sets: ``ids``,
    the node ids sorted, so index tuples compare as id tuples do; ``index``,
    its inverse; and per index the node's ``capacity``, its transmit set
    ``tx`` in the network's order and ``adj``, its neighbours sorted.  The
    search reads and writes a caller's ``room`` list, indexed the same way:
    ``room[v]`` is how many more transmissions node ``v`` can hear.

    A trail node after ``s`` hears its predecessor's transmission and its
    own, so with room never above capacity only nodes of capacity 2 or
    more, and ``s`` and ``t``, can carry a path: call them relays.  The
    separators of an ``s``-``t`` pair are the relays other than ``s`` and
    ``t`` that every relay path from ``s`` to ``t`` passes; ``_separators``
    finds them on first need and keeps them per pair, each with the key
    ``paths`` files its failed states under; the relay marks they start
    from are made once per router.
    """

    def __init__(self, net: Network) -> None:
        tx = net.transmit_sets
        self.ids = ids = tuple(sorted(tx))
        self.index = index = dict(zip(ids, range(len(ids))))
        self.capacity = tuple(map(net.capacity.__getitem__, ids))
        get = index.__getitem__
        self.tx = [tuple(map(get, tx[v])) for v in ids]
        self.adj = [sorted(row[1:]) for row in self.tx]
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

    @functools.cached_property
    def _relays(self) -> tuple[list[int], list[tuple[int, list[int]]]]:
        """Per node, where the separators' walk starts it: 0, unreached, for
        a relay, and past every preorder number for any other node, so the
        walk passes it by; then each non-relay heard by two or more relays,
        with those hearers."""
        never = len(self.adj) + 1
        marks = [0 if c >= 2 else never for c in self.capacity]
        heard = [
            (v, hearers)
            for v, kids in enumerate(self.adj)
            if marks[v] and len(hearers := [h for h in kids if not marks[h]]) > 1
        ]
        return marks, heard

    def _separators(self, s: int, t: int) -> list[Callable[[list], tuple] | None]:
        """Per node, the key of its failed states if it separates ``s`` from
        ``t`` among the relays, else None; an empty list if no relay path
        joins them, so no path does.

        One lowpoint depth-first walk from ``t`` over the relays (Hopcroft
        and Tarjan) numbers them in preorder, starting from the relay marks,
        so it never asks whether a node relays.  A node ``c`` on ``s``'s tree
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
        adj, n = self.adj, len(self.adj)
        keys = self._keys[s, t] = [None] * n
        # Preorder numbers from 1, with s and t as relays; lowpoints (t's is
        # 1, the others' are set as the walk reaches them) and tree parents.
        disc = self._relays[0].copy()
        disc[s], disc[t] = 0, 1
        low, parent = disc.copy(), [t] * n
        order = [t]
        stack = [(t, iter(adj[t]))]
        while stack:
            u, kids = stack[-1]
            lu = low[u]
            for w in kids:
                d = disc[w]
                if d < lu:  # a relay, numbered lower or not yet
                    if d:
                        lu = d
                        continue
                    low[u] = lu
                    order.append(w)
                    disc[w] = low[w] = len(order)
                    parent[w] = u
                    stack.append((w, iter(adj[w])))
                    break
            else:
                stack.pop()
                low[u] = lu
                if lu < low[parent[u]]:
                    low[parent[u]] = lu
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
        # every separator past after[h].  Any other node, and s and t, are on
        # no side: inside 0, after the last separator.
        k = len(cuts)
        inside, after = [0] * n, [k] * n
        cut_child = dict.fromkeys(child for _, child in cuts)
        for v in order[1:]:
            after[v] = inside[v] = inside[parent[v]] + (v in cut_child)
        for j, (c, _) in enumerate(cuts, 1):
            after[c] = j
        inside[s], after[s], after[t] = 0, k, k
        raw: list[list[int]] = [[] for _ in cuts]
        sole: list[list[tuple[int, int]]] = [[] for _ in cuts]
        # Index j stands for separator j + 1: hearer h is on its s side if
        # inside[h] > j, on its t side if after[h] <= j.
        level, rank = inside.__getitem__, after.__getitem__
        for v, hearers in self._relays[1]:
            if v == s or v == t:
                continue
            x, y, *_ = sorted(hearers, key=rank)
            top = max(map(level, hearers))
            second = min(after[y], top)
            pair = v, x
            for keyed in sole[after[x] : second]:
                keyed.append(pair)
            for keyed in raw[second:top]:
                keyed.append(v)
        for j, (c, _) in enumerate(cuts):
            far = [h for h in adj[c] if after[h] <= j]
            if far and max(map(level, adj[c])) > j:
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
    blocks by having no room left at ``v``, as one bitmask over the relays
    ``sole`` names, one bit each."""
    rooms = itemgetter(*raw) if raw else lambda room: ()
    bit = {x: 1 << i for i, x in enumerate(dict.fromkeys(x for _, x in sole))}
    pairs = [(v, bit[x]) for v, x in sole]

    def key(room: list) -> tuple:
        blocked = 0
        for v, b in pairs:
            if room[v] <= 0:
                blocked |= b
        return c, rooms(room), blocked

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
    the instance does not demand (a copy index is an int, not a bool, in
    ``range(copies)``, or at least 0 for ``copies=None``), or misses a
    required flow, raises a plain ``ValueError``.  The root bound is tested
    first, on the network's capacities, with every flow counted as
    routable.  A start that meets it is certified by that one comparison
    and returned as it is, with no router built.  Otherwise the solve sets
    up once: it builds the router, whose separators and relay marks wait
    for a search's first push, and settles which flows have a path: each
    flow the start routes has one, since a path of a feasible plan fits
    alone, and one search settles each other flow.  The result is optimal
    unless the node budget (at least 1) ran out; when no plan routes every
    required flow, it accepts 0 copies with an empty plan, at once if a
    required flow has no path.  Each B&B node sums its bound once: its
    frame keeps the sum for the test after each child and hands it, less
    its own flow's term, to the next flow's branch.

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
    started: Collection[int] = ()  # the flows the start routes
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

    # Counting every flow as routable never lowers the bound, so this test
    # prunes only where the exact one would; ``enter`` makes that one.
    if inst.flows and supply_bound(0, 0) <= best_count:
        return SolveResult(start, optimal=True, nodes_explored=1)
    router = _Router(net)
    room = list(router.capacity)
    ends = [(router.index[s], router.index[t]) for s, t in ends]
    routable = [
        fi in started or next(router.paths(s, t, room), None) is not None
        for fi, (s, t) in enumerate(ends)
    ]
    if not all(routable[fi] for fi in required):
        return SolveResult(RoutePlan(), optimal=True, nodes_explored=1)

    # Depth-first without recursion.  A frame routes copy ``ci`` of flow
    # ``fi`` over each of its paths in turn, with copy ``ci + 1`` as the
    # child branch, then stops routing the flow and moves on in its place.
    # On top, a frame sees the room ``enter`` summed its bound on: a child
    # gives back the room it took, and a suspended path search its own.
    stack: list[list] = []

    def enter(fi: int, ci: int, floor: tuple, accepted: int, bound=None) -> None:
        """Open a branch: settle it here or push its frame; ``bound`` is its
        supply bound if the caller has it."""
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
        bound = supply_bound(fi, ci) if bound is None else bound
        if accepted + bound <= best_count:
            return
        paths = router.paths(*ends[fi], room, floor) if ci < copies[fi] else iter(())
        stack.append([fi, ci, accepted, paths, None, bound])  # [4]: the routed path

    enter(0, 0, (), 0)
    while stack and explored <= budget:
        frame = stack[-1]
        fi, ci, accepted, paths, routed, bound = frame
        if routed is not None:  # back from the child branch
            plan.pop()
            router.charge(room, routed[:-1], 1)
            frame[4] = None
            if accepted + bound <= best_count:
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
            rest = bound - min(copies[fi] - ci, endpoint_ub(fi))
            enter(fi + 1, 0, (), accepted, rest)
    return SolveResult(
        plan=RoutePlan(best_plan),
        optimal=explored <= budget,
        nodes_explored=explored,
        budget_hit=explored > budget,
    )


def _check_start(
    inst: NcInstance, start: RoutePlan, required: Collection[int]
) -> set[int]:
    """Raise unless ``start`` may warm-start ``solve_exact``; return the
    indices of the flows it routes."""
    position = dict(zip(inst.flows, itertools.count()))
    routed = set()
    for a in start.assignments:
        fi, c = position.get(a.flow), a.copy
        if fi is None or type(c) is not int or not 0 <= c < (a.flow.copies or math.inf):
            raise ValueError(
                f"start routes copy {c!r} of flow {a.flow.label!r}, "
                "which the instance does not demand"
            )
        routed.add(fi)
    for fi in required:
        if fi not in routed:
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
    net = inst.network
    tx = net.transmit_sets
    room = dict(net.capacity)
    plan: list[RouteAssignment] = []
    for flow in inst.flows:
        s, t = flow.src, flow.dst
        hops = {t: 0}  # to t, from each node that reaches it
        queue = [t]
        for u in queue:  # the queue grows as it is read
            for w in tx[u][1:]:
                if w not in hops:
                    hops[w] = hops[u] + 1
                    queue.append(w)
        if s not in hops:
            continue
        # The smallest id one hop nearer at each step gives the
        # lexicographically first shortest path.
        trail = [s]
        while trail[-1] != t:
            near = hops[trail[-1]] - 1
            trail.append(min(w for w in tx[trail[-1]][1:] if hops.get(w) == near))
        path = tuple(trail)
        load = hops_load(net, zip(path, path[1:])).items()
        fits = min(room[v] // n for v, n in load)
        count = fits if flow.copies is None else min(fits, flow.copies)
        for v, n in load:
            room[v] -= n * count
        plan += (RouteAssignment(flow, ci, path) for ci in range(count))
    return SolveResult(RoutePlan(tuple(plan)), optimal=False)


def inapprox_bound(k: int) -> Fraction:
    """The approximation-hardness constant 1/(1 - 2**-k) as an exact rational."""
    if k < 2:
        raise ValueError("k must be at least 2")
    return Fraction(2**k, 2**k - 1)
