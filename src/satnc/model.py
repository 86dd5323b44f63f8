"""Interference-aware capacity model for slotted wireless networks.

Nodes carry an integer slot budget per frame.  A transmission over a hop
``u -> x`` consumes one slot at ``u``, at ``x`` and at every other
neighbor of ``u`` (everyone in range of the transmitter hears it).  Loads
of concurrent hops add up; a node whose accumulated load exceeds its
budget is overloaded, while load equal to the budget is still feasible.

All values are immutable after construction and every operation is a pure
function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

Path = tuple[str, ...]
Hop = tuple[str, str]
LoadMap = dict[str, int]


class Network:
    """Undirected, loop-free graph with a non-negative capacity per node.

    One table per node: its transmit tuple ``(v, *neighbours)``, every node
    a transmission from ``v`` loads, neighbours in the order their edges
    were first listed.  Adjacency, edges and equality are read off it.

    ``extended`` builds this network plus appended nodes and edges; the
    constructor is that operation applied to the empty network, so both
    check their input by the same rules and with the same messages.
    """

    __slots__ = ("_nodes", "_capacity", "_tx", "_edges")

    def __init__(
        self,
        nodes: Iterable[str],
        edges: Iterable[tuple[str, str]],
        capacity: Mapping[str, int],
    ) -> None:
        self._grow((), {}, {}, nodes, edges, capacity)

    def extended(
        self,
        nodes: Iterable[str],
        edges: Iterable[tuple[str, str]],
        capacity: Mapping[str, int],
    ) -> Network:
        """This network plus ``nodes``, appended in order, and ``edges``.

        Only what is added is checked: the new ids must be distinct and
        new to this network, each edge must join two known nodes and no
        node to itself, and ``capacity`` must give each new node a
        non-negative integer.  An edge listed twice, or already present,
        is one edge.  The result equals the network built from the
        concatenated node and edge lists, transmit order included.  It
        shares with this network, which is left unchanged, the transmit
        tuple of every node that no added edge touches.
        """
        net = Network.__new__(Network)
        net._grow(self._nodes, self._tx, self._capacity, nodes, edges, capacity)
        return net

    def _grow(
        self,
        base_nodes: tuple[str, ...],
        base_tx: dict[str, tuple[str, ...]],
        base_caps: dict[str, int],
        nodes: Iterable[str],
        edges: Iterable[tuple[str, str]],
        capacity: Mapping[str, int],
    ) -> None:
        new = tuple(nodes)
        # The new nodes' rows, then each base row an edge touches, as lists.
        tx: dict[str, list[str]] = {v: [v] for v in new}
        if len(tx) != len(new) or not base_tx.keys().isdisjoint(tx.keys()):
            raise ValueError("duplicate node ids")
        if base_tx:  # copy in each base row an added edge touches
            edges = list(edges)
            for w in {w for edge in edges for w in edge}.difference(tx):
                if w in base_tx:
                    tx[w] = [*base_tx[w]]
        for u, v in edges:
            try:
                tu, tv = tx[u], tx[v]
            except KeyError:
                raise ValueError(
                    f"edge ({u!r}, {v!r}) references an unknown node"
                ) from None
            if u == v:
                raise ValueError(f"self-loop on {u!r}")
            if v not in tu:  # an edge listed twice is one edge
                tu.append(v)
                tv.append(u)
        caps = dict(base_caps)
        for v in new:
            if v not in capacity:
                raise ValueError(f"missing capacity for node {v!r}")
            c = capacity[v]
            if not isinstance(c, int) or isinstance(c, bool) or c < 0:
                raise ValueError(f"capacity of {v!r} must be a non-negative integer")
            caps[v] = c
        # A touched base row keeps its place; the new rows follow in order.
        rows = dict(base_tx)
        rows.update(zip(tx, map(tuple, tx.values())))
        self._nodes = base_nodes + new
        self._tx = rows
        self._capacity = caps
        self._edges: tuple[tuple[str, str], ...] | None = None  # sorted on first use

    @property
    def nodes(self) -> tuple[str, ...]:
        return self._nodes

    @property
    def capacity(self) -> Mapping[str, int]:
        return MappingProxyType(self._capacity)

    def capacity_of(self, v: str) -> int:
        self._require(v)
        return self._capacity[v]

    def has_node(self, v: str) -> bool:
        return v in self._capacity

    def has_edge(self, u: str, v: str) -> bool:
        return u != v and v in self._tx.get(u, ())

    def edges(self) -> tuple[tuple[str, str], ...]:
        """Every undirected edge once, as sorted pairs in sorted order."""
        if self._edges is None:
            self._edges = tuple(
                sorted([(u, w) for u, t in self._tx.items() for w in t[1:] if u < w])
            )
        return self._edges

    def _require(self, v: str) -> None:
        if v not in self._capacity:
            raise ValueError(f"unknown node {v!r}")

    def adjacency(self, v: str) -> frozenset[str]:
        self._require(v)
        return frozenset(self._tx[v][1:])

    @property
    def transmit_sets(self) -> Mapping[str, tuple[str, ...]]:
        """Per node, every node its transmissions load: itself and its neighbors."""
        return MappingProxyType(self._tx)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Network):
            return NotImplemented
        return (
            self._nodes == other._nodes
            and self._capacity == other._capacity
            and self.edges() == other.edges()
        )

    def __repr__(self) -> str:
        return f"Network({len(self._nodes)} nodes, {len(self.edges())} edges)"


@dataclass(frozen=True)
class FlowRequest:
    """A demand for one or more unit-rate flows between two nodes.

    ``copies=None`` means an unbounded supply of identical copies.
    """

    src: str
    dst: str
    copies: int | None = 1
    label: str = ""

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"flow {self.label!r}: source equals destination")
        c = self.copies
        if c is not None and (not isinstance(c, int) or isinstance(c, bool) or c < 1):
            raise ValueError(f"flow {self.label!r}: copies must be a positive integer")


@dataclass(frozen=True)
class RouteAssignment:
    """One routed copy of a flow."""

    flow: FlowRequest
    copy: int
    path: Path


@dataclass(frozen=True)
class RoutePlan:
    """An ordered set of routed copies; at most one path per (flow, copy)."""

    assignments: tuple[RouteAssignment, ...] = ()

    def __post_init__(self) -> None:
        seen = set()
        for a in self.assignments:
            # A path of fewer than two nodes never has both endpoints.
            if a.path[:1] + a.path[-1:] != (a.flow.src, a.flow.dst):
                raise ValueError(
                    f"path {a.path!r} does not join the endpoints of flow "
                    f"{a.flow.label!r}"
                )
            key = (a.flow, a.copy)
            if key in seen:
                raise ValueError(f"duplicate copy {a.copy} of flow {a.flow.label!r}")
            seen.add(key)

    def paths(self) -> list[Path]:
        return [a.path for a in self.assignments]

    def __len__(self) -> int:
        return len(self.assignments)


class Overload(NamedTuple):
    node: str
    load: int
    capacity: int


@dataclass(frozen=True)
class PathDefect:
    index: int  # of the path in its plan
    reason: str
    bad_hop: Hop | None = None  # the PathError's hop, if the fault is one


@dataclass(frozen=True)
class FeasibilityVerdict:
    overloads: tuple[Overload, ...] = ()
    defects: tuple[PathDefect, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.overloads and not self.defects

    @property
    def kind(self) -> str:
        """The first that holds of malformed, overloaded and feasible: a
        malformed path's load was never counted, so it outranks overloads."""
        if self.defects:
            return "malformed"
        return "overloaded" if self.overloads else "feasible"


class PathError(ValueError):
    """A path over known nodes that repeats a node or takes a hop that is
    not an edge; ``bad_hop`` is that hop, or None for a repeat."""

    def __init__(self, reason: str, bad_hop: Hop | None = None) -> None:
        super().__init__(reason)
        self.bad_hop = bad_hop


def is_elementary(p: Path) -> bool:
    """True iff no node repeats along the path."""
    return len(set(p)) == len(p)


def validate_path(net: Network, p: Path) -> None:
    """Raise unless ``p`` is an elementary path over edges of ``net``.

    A well-formed path passes three whole-path scans: every node known, no
    node repeated, every hop an edge.  Any other path meets them in order:
    the first unknown node raises ValueError; else the first repeated node,
    else the first hop that is not an edge, raises PathError.
    """
    sets = list(map(net._tx.get, p))
    # A hop (u, x) is an edge when x is in u's transmit tuple and x != u,
    # which the repeat test already ensures.
    if (
        None not in sets
        and is_elementary(p)
        and all(map(tuple.__contains__, sets, p[1:]))
    ):
        return
    for v in p:
        net._require(v)
    seen: set[str] = set()
    for v in p:
        if v in seen:
            raise PathError(f"node {v!r} repeats")
        seen.add(v)
    for u, x in zip(p, p[1:]):
        if not net.has_edge(u, x):
            raise PathError(f"hop ({u!r}, {x!r}) is not an edge", (u, x))


def hops_load(net: Network, hops: Iterable[Hop]) -> LoadMap:
    """Accumulated load from a bag of hops; hops are assumed edge-valid.

    Sparse: only nodes the hops touch appear, so read it with ``.get(v, 0)``.
    """
    tx = net.transmit_sets
    loads: LoadMap = {}
    for u, _ in hops:
        for w in tx[u]:
            loads[w] = loads.get(w, 0) + 1
    return loads


def plan_load(net: Network, plan: RoutePlan) -> LoadMap:
    """Node-wise load of all routed copies; raises on a malformed path."""
    paths = plan.paths()
    for p in paths:
        validate_path(net, p)
    loads = dict.fromkeys(net.nodes, 0)
    loads.update(hops_load(net, (hop for p in paths for hop in zip(p, p[1:]))))
    return loads


def check_feasible(net: Network, plan: RoutePlan) -> FeasibilityVerdict:
    """Verdict on a plan: OK, or every malformed path and every overloaded
    node, the overloads sorted by node id.

    This is the one place a plan's loads are turned into overloads.
    Malformedness is reported, not raised, so callers can classify paths
    that are not even edge-consistent.  Loads are accumulated over the
    well-formed paths only.
    """
    defects: list[PathDefect] = []
    hops: list[Hop] = []
    for idx, p in enumerate(plan.paths()):
        try:
            validate_path(net, p)
        except ValueError as exc:
            defects.append(PathDefect(idx, str(exc), getattr(exc, "bad_hop", None)))
            continue
        hops.extend(zip(p, p[1:]))
    cap = net._capacity
    over = sorted((v, n) for v, n in hops_load(net, hops).items() if n > cap[v])
    overloads = tuple(Overload(v, n, cap[v]) for v, n in over)
    return FeasibilityVerdict(overloads, tuple(defects))
