"""Instance JSON (schema version 1) and DOT export."""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from pathlib import Path as FsPath

from .cnf import emit_dimacs, parse_dimacs
from .gadget import NcInstance, NodeInfo
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


_NODES_SHAPE = (
    "each of 'nodes' must be an object with fields id, paper_index, subset, capacity"
)
_FLOWS_SHAPE = "each of 'flows' must be an object with fields src, dst, copies, label"
_EDGES_SHAPE = "'edges' must be a list of node-id pairs"


def _malformed(what: str) -> ValueError:
    return ValueError(f"malformed instance: {what}")


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise _malformed(what)


def _list(data: dict, key: str) -> list:
    items = data.get(key)
    _require(isinstance(items, list), f"{key!r} must be a list")
    return items


def instance_from_dict(data: dict) -> NcInstance:
    """Rebuild an instance; raises ValueError on any malformed shape."""
    _require(isinstance(data, dict), "the top level must be an object")
    version = data.get("schema_version")
    # An exact type test: true and 1.0 compare equal to 1 but are not it.
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version!r}")
    table: list[NodeInfo] = []
    cap: dict[str, int] = {}
    for n in _list(data, "nodes"):
        try:
            v, paper_index, subset = n["id"], n["paper_index"], n["subset"]
            c = n["capacity"]
        except (KeyError, TypeError):  # not an object, or a field missing
            raise _malformed(_NODES_SHAPE) from None
        if not (
            isinstance(n, dict)
            and isinstance(v, str)
            and (paper_index is None or isinstance(paper_index, str))
            and isinstance(subset, str)
        ):
            raise _malformed(_NODES_SHAPE)
        table.append(NodeInfo(v, paper_index, subset))
        cap[v] = c
    flows = _list(data, "flows")
    fields = []
    for f in flows:
        try:
            src, dst, copies, label = f["src"], f["dst"], f["copies"], f["label"]
        except (KeyError, TypeError):
            raise _malformed(_FLOWS_SHAPE) from None
        if not (
            isinstance(f, dict)
            and isinstance(src, str)
            and isinstance(dst, str)
            and isinstance(label, str)
        ):
            raise _malformed(_FLOWS_SHAPE)
        fields.append((src, dst, copies, label))
    _require(
        all(isinstance(c, int) or c == "unbounded" for _, _, c, _ in fields),
        'flow copies must be an integer or "unbounded"',
    )
    edges = data.get("edges")
    _require(isinstance(edges, list), _EDGES_SHAPE)
    for e in edges:
        if not (
            isinstance(e, list)
            and len(e) == 2
            and isinstance(e[0], str)
            and isinstance(e[1], str)
        ):
            raise _malformed(_EDGES_SHAPE)
    formula_text = data.get("formula")
    _require(isinstance(formula_text, (str, type(None))), "'formula' must be a string")
    network = Network([n.id for n in table], edges, cap)
    requests = tuple(
        FlowRequest(src, dst, None if copies == "unbounded" else copies, label)
        for src, dst, copies, label in fields
    )
    formula = None if formula_text is None else parse_dimacs(formula_text)
    return NcInstance(network, requests, tuple(table), formula)


def _json_array(items: list[str]) -> str:
    """Encoded items laid out as json's ``indent=2`` lays out the array of
    a top-level key."""
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


def _json_string(text: str | None) -> str:
    return "null" if text is None else encode_basestring_ascii(text)


def dumps_instance(inst: NcInstance) -> str:
    """Schema v1 text of the instance, the format's one writer: each node's
    id, paper index, subset and capacity; each edge once, sorted; each
    flow's ends, copies (``"unbounded"`` for None) and label; the formula's
    DIMACS text or null.  Laid out byte for byte as ``json.dumps`` with
    ``indent=2`` lays out the same data, plus a newline, but written here:
    json lays out ``indent`` in pure Python."""
    q = encode_basestring_ascii
    cap = inst.network.capacity
    nodes = [
        f'{{\n      "id": {q(v)},\n'
        f'      "paper_index": {_json_string(paper_index)},\n'
        f'      "subset": {q(subset)},\n'
        f'      "capacity": {cap[v]}\n    }}'
        for v, paper_index, subset in inst.node_table
    ]
    edges = [f"[\n      {q(u)},\n      {q(v)}\n    ]" for u, v in inst.network.edges()]
    flows = [
        f'{{\n      "src": {q(f.src)},\n      "dst": {q(f.dst)},\n'
        f'      "copies": {q("unbounded") if f.copies is None else f.copies},\n'
        f'      "label": {q(f.label)}\n    }}'
        for f in inst.flows
    ]
    formula = _json_string(None if inst.formula is None else emit_dimacs(inst.formula))
    return (
        f'{{\n  "schema_version": {SCHEMA_VERSION},\n'
        f'  "nodes": {_json_array(nodes)},\n'
        f'  "edges": {_json_array(edges)},\n'
        f'  "flows": {_json_array(flows)},\n'
        f'  "formula": {formula}\n}}\n'
    )


def instance_to_dict(inst: NcInstance) -> dict:
    """The instance as the JSON object ``dumps_instance`` writes."""
    return json.loads(dumps_instance(inst))


def loads_instance(text: str) -> NcInstance:
    try:
        data = json.loads(text)
    except RecursionError:  # the decoder recurses once per nesting level
        raise _malformed("JSON nested too deeply") from None
    return instance_from_dict(data)


def save_instance(inst: NcInstance, path: str | FsPath) -> None:
    FsPath(path).write_text(dumps_instance(inst), encoding="utf-8")


def load_instance(path: str | FsPath) -> NcInstance:
    return loads_instance(FsPath(path).read_text(encoding="utf-8"))


def to_dot(inst: NcInstance) -> str:
    """Undirected DOT drawing: one node line per node (shape by subset,
    capacity in the label), one edge line per undirected edge."""
    lines = ["graph nc {"]
    cap = inst.network.capacity
    for v, paper_index, subset in inst.node_table:
        label = v if paper_index is None else f"{v} {paper_index}"
        shape = _SUBSET_SHAPES.get(subset, "plaintext")
        lines.append(f'  "{v}" [shape={shape}, label="{label} [{cap[v]}]"];')
    for u, v in inst.network.edges():
        lines.append(f'  "{u}" -- "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
