"""Instance JSON (schema version 1) and DOT export."""

from __future__ import annotations

import json
from pathlib import Path as FsPath

from .cnf import emit_dimacs, parse_dimacs
from .gadget import ConflictPair, NcInstance, NodeInfo, conflict_pairs
from .model import FlowRequest, Network

SCHEMA_VERSION = 1

_SUBSET_SHAPES = {
    "V1": "box",
    "V2": "ellipse",
    "V3": "circle",
    "V4": "hexagon",
    "V5": "octagon",
    "aux": "diamond",
}


def instance_to_dict(inst: NcInstance) -> dict:
    edges = sorted(tuple(sorted(e)) for e in inst.network.edges())
    return {
        "schema_version": SCHEMA_VERSION,
        "nodes": [
            {
                "id": n.id,
                "paper_index": n.paper_index,
                "subset": n.subset,
                "capacity": n.capacity,
            }
            for n in inst.node_table
        ],
        "edges": [list(e) for e in edges],
        "flows": [
            {
                "src": f.src,
                "dst": f.dst,
                "copies": f.copies if f.copies is not None else "unbounded",
                "label": f.label,
            }
            for f in inst.flows
        ],
        "formula": emit_dimacs(inst.formula) if inst.formula is not None else None,
    }


_NODE_FIELDS = {
    "id": str,
    "paper_index": (str, type(None)),
    "subset": str,
    "capacity": int,
}
_FLOW_FIELDS = {"src": str, "dst": str, "copies": (int, str), "label": str}


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise ValueError(f"malformed instance: {what}")


def _records(data: dict, key: str, fields: dict) -> list:
    """The list under ``key``, each item an object with the typed fields."""
    items = data.get(key)
    _require(isinstance(items, list), f"{key!r} must be a list")
    for item in items:
        _require(
            isinstance(item, dict)
            and all(isinstance(item.get(f, ...), kind) for f, kind in fields.items()),
            f"each of {key!r} must be an object with fields {', '.join(fields)}",
        )
    return items


def instance_from_dict(data: dict) -> NcInstance:
    """Rebuild an instance; raises ValueError on any malformed shape."""
    _require(isinstance(data, dict), "the top level must be an object")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema_version {data.get('schema_version')!r}"
        )
    nodes = _records(data, "nodes", _NODE_FIELDS)
    flows = _records(data, "flows", _FLOW_FIELDS)
    _require(
        all(isinstance(f["copies"], int) or f["copies"] == "unbounded" for f in flows),
        'flow copies must be an integer or "unbounded"',
    )
    edges = data.get("edges")
    _require(
        isinstance(edges, list)
        and all(
            isinstance(e, list) and len(e) == 2 and all(isinstance(v, str) for v in e)
            for e in edges
        ),
        "'edges' must be a list of node-id pairs",
    )
    formula_text = data.get("formula")
    _require(isinstance(formula_text, (str, type(None))), "'formula' must be a string")
    table = tuple(
        NodeInfo(n["id"], n["paper_index"], n["subset"], n["capacity"]) for n in nodes
    )
    network = Network(
        (n.id for n in table),
        (tuple(e) for e in edges),
        {n.id: n.capacity for n in table},
    )
    requests = tuple(
        FlowRequest(
            f["src"],
            f["dst"],
            None if f["copies"] == "unbounded" else f["copies"],
            f["label"],
        )
        for f in flows
    )
    formula = parse_dimacs(formula_text) if formula_text else None
    conflicts: tuple[ConflictPair, ...] = ()
    if formula is not None:
        conflicts = conflict_pairs(formula)
    return NcInstance(network, requests, table, formula, conflicts)


def dumps_instance(inst: NcInstance) -> str:
    return json.dumps(instance_to_dict(inst), indent=2) + "\n"


def loads_instance(text: str) -> NcInstance:
    return instance_from_dict(json.loads(text))


def save_instance(inst: NcInstance, path: str | FsPath) -> None:
    FsPath(path).write_text(dumps_instance(inst), encoding="utf-8")


def load_instance(path: str | FsPath) -> NcInstance:
    return loads_instance(FsPath(path).read_text(encoding="utf-8"))


def to_dot(inst: NcInstance) -> str:
    """Undirected DOT drawing: one node line per node (shape by subset,
    capacity in the label), one edge line per undirected edge."""
    lines = ["graph nc {"]
    for n in inst.node_table:
        label = n.id if n.paper_index is None else f"{n.id} {n.paper_index}"
        shape = _SUBSET_SHAPES.get(n.subset, "plaintext")
        lines.append(f'  "{n.id}" [shape={shape}, label="{label} [{n.capacity}]"];')
    for u, v in sorted(tuple(sorted(e)) for e in inst.network.edges()):
        lines.append(f'  "{u}" -- "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
