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
from typing import Iterable, Mapping

Path = tuple[str, ...]
Hop = tuple[str, str]
LoadMap = dict[str, int]


class Network:
    """Undirected, loop-free graph with a non-negative capacity per node."""

    __slots__ = ("_nodes", "_adj", "_capacity")

    def __init__(
        self,
        nodes: Iterable[str],
        edges: Iterable[tuple[str, str]],
        capacity: Mapping[str, int],
    ) -> None:
        self._nodes = tuple(nodes)
        if len(set(self._nodes)) != len(self._nodes):
            raise ValueError("duplicate node ids")
        known = set(self._nodes)
        adj: dict[str, set[str]] = {v: set() for v in self._nodes}
        for u, v in edges:
            if u not in known or v not in known:
                raise ValueError(f"edge ({u!r}, {v!r}) references an unknown node")
            if u == v:
                raise ValueError(f"self-loop on {u!r}")
            adj[u].add(v)
            adj[v].add(u)
        caps: dict[str, int] = {}
        for v in self._nodes:
            if v not in capacity:
                raise ValueError(f"missing capacity for node {v!r}")
            c = capacity[v]
            if not isinstance(c, int) or isinstance(c, bool) or c < 0:
                raise ValueError(f"capacity of {v!r} must be a non-negative integer")
            caps[v] = c
        self._adj = {v: frozenset(members) for v, members in adj.items()}
        self._capacity = caps

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
        return u in self._adj and v in self._adj[u]

    def edges(self) -> list[tuple[str, str]]:
        """Every undirected edge once, as sorted pairs in sorted order."""
        out = {tuple(sorted((u, v))) for u in self._nodes for v in self._adj[u]}
        return sorted(out)

    def _require(self, v: str) -> None:
        if v not in self._capacity:
            raise ValueError(f"unknown node {v!r}")

    def adjacency(self, v: str) -> frozenset[str]:
        self._require(v)
        return self._adj[v]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Network):
            return NotImplemented
        return (
            self._nodes == other._nodes
            and self._adj == other._adj
            and self._capacity == other._capacity
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
        if self.copies is not None and self.copies < 1:
            raise ValueError(f"flow {self.label!r}: copies must be positive")


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
            if a.path and (a.path[0] != a.flow.src or a.path[-1] != a.flow.dst):
                raise ValueError(
                    f"path endpoints {a.path[0]!r}..{a.path[-1]!r} do not match "
                    f"flow {a.flow.label!r}"
                )
            key = (a.flow, a.copy)
            if key in seen:
                raise ValueError(f"duplicate copy {a.copy} of flow {a.flow.label!r}")
            seen.add(key)

    def paths(self) -> list[Path]:
        return [a.path for a in self.assignments]

    def __len__(self) -> int:
        return len(self.assignments)


@dataclass(frozen=True)
class Overload:
    node: str
    load: int
    capacity: int


@dataclass(frozen=True)
class PathDefect:
    index: int
    reason: str


@dataclass(frozen=True)
class FeasibilityVerdict:
    ok: bool
    overloads: tuple[Overload, ...] = ()
    defects: tuple[PathDefect, ...] = ()


def neighbors(net: Network, v: str) -> frozenset[str]:
    """Nodes adjacent to ``v``."""
    return net.adjacency(v)


def interference_set(net: Network, hop: Hop) -> frozenset[str]:
    """All nodes whose slot budget a transmission over ``hop`` consumes.

    That is the transmitter, its whole neighborhood and the receiver (the
    receiver is adjacent to the transmitter, so it is already covered by
    the neighborhood).
    """
    u, x = hop
    net._require(u)
    net._require(x)
    if not net.has_edge(u, x):
        raise ValueError(f"hop ({u!r}, {x!r}) is not an edge")
    return net.adjacency(u) | {u}


def is_elementary(p: Path) -> bool:
    """True iff no node repeats along the path."""
    return len(set(p)) == len(p)


def validate_path(net: Network, p: Path) -> None:
    """Raise ValueError unless ``p`` is an elementary path over edges of net."""
    for v in p:
        net._require(v)
    if not is_elementary(p):
        seen: set[str] = set()
        for v in p:
            if v in seen:
                raise ValueError(f"node {v!r} repeats")
            seen.add(v)
    for u, x in zip(p, p[1:]):
        if not net.has_edge(u, x):
            raise ValueError(f"hop ({u!r}, {x!r}) is not an edge")


def hops_load(net: Network, hops: Iterable[Hop]) -> LoadMap:
    """Accumulated load from a bag of hops; hops are assumed edge-valid.

    Sparse: only nodes the hops touch appear, so read it with ``.get(v, 0)``.
    """
    loads: LoadMap = {}
    for u, _ in hops:
        for w in (u, *net.adjacency(u)):
            loads[w] = loads.get(w, 0) + 1
    return loads


def path_load(net: Network, p: Path) -> LoadMap:
    """Per-node load of routing one flow copy along ``p``.

    A node is charged once per hop whose interference set contains it; a
    path of zero or one nodes carries no hops and loads nothing.
    """
    validate_path(net, p)
    loads = dict.fromkeys(net.nodes, 0)
    loads.update(hops_load(net, zip(p, p[1:])))
    return loads


def plan_load(net: Network, plan: RoutePlan) -> LoadMap:
    """Node-wise sum of ``path_load`` over all routed copies."""
    loads = dict.fromkeys(net.nodes, 0)
    for a in plan.assignments:
        for v, n in path_load(net, a.path).items():
            loads[v] += n
    return loads


def check_feasible(net: Network, plan: RoutePlan) -> FeasibilityVerdict:
    """Verdict on a plan: OK, or every overloaded node and malformed path.

    Malformedness is reported, not raised, so callers can classify paths
    that are not even edge-consistent.  Loads are accumulated over the
    well-formed paths only.
    """
    defects: list[PathDefect] = []
    loads = dict.fromkeys(net.nodes, 0)
    for idx, a in enumerate(plan.assignments):
        try:
            validate_path(net, a.path)
        except ValueError as exc:
            defects.append(PathDefect(idx, str(exc)))
            continue
        for v, n in hops_load(net, zip(a.path, a.path[1:])).items():
            loads[v] += n
    overloads = tuple(
        Overload(v, loads[v], net.capacity_of(v))
        for v in sorted(net.nodes)
        if loads[v] > net.capacity_of(v)
    )
    return FeasibilityVerdict(
        ok=not overloads and not defects,
        overloads=overloads,
        defects=tuple(defects),
    )
