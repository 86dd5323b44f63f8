from __future__ import annotations

import random
from pathlib import Path

import pytest

from satnc import Formula, Network, compile_formula

FIXTURES = Path(__file__).parent / "fixtures"

# Worked example: three width-4 clauses over variables 1..6 (a..f).
WORKED_CLAUSES = ((1, 2, 3, 4), (-1, 2, 5, 6), (-1, -2, -3, -4))

# Assignment satisfying all three clauses, and one falsifying clause 3.
A1 = {1: True, 2: True, 3: True, 4: False, 5: False, 6: False}
A2 = {1: True, 2: True, 3: True, 4: True, 5: False, 6: False}

# Hand-listed route that jumps from clause 2's exit straight into clause 3's
# interior with no edge at X2 -> P3.2; must classify as malformed at that hop.
BROKEN_PATH_RAW = (
    "n_1^1 n_5^1 n_6^1 n_9^1 n_12^1 n_15^1 n_16^1 n_4^1 "
    "n_1^2 n_8^2 n_9^2 n_10^2 n_4^2 n_8^3 n_4^3"
)


def omitted_preloads(inst, plan) -> list[str]:
    """Labels of the preloads a plan leaves out, in clause order."""
    routed = {a.flow for a in plan.assignments}
    return [f.label for f in inst.flows[:-1] if f not in routed]


def path_graph(names: str | list[str], cap: int = 10) -> Network:
    nodes = list(names)
    edges = list(zip(nodes, nodes[1:]))
    return Network(nodes, edges, {v: cap for v in nodes})


def make_network(nodes, edges, caps) -> Network:
    if isinstance(caps, int):
        caps = {v: caps for v in nodes}
    return Network(nodes, edges, caps)


def random_connected_network(rng: random.Random, size: int, cap_range=(0, 4)) -> Network:
    nodes = [f"n{i}" for i in range(size)]
    edges = set()
    for i in range(1, size):
        j = rng.randrange(i)
        edges.add((nodes[j], nodes[i]))
    for _ in range(size):
        a, b = rng.sample(nodes, 2)
        if (a, b) not in edges and (b, a) not in edges:
            edges.add((a, b))
    caps = {v: rng.randint(*cap_range) for v in nodes}
    return Network(nodes, sorted(edges), caps)


@pytest.fixture(scope="session")
def worked_formula() -> Formula:
    return Formula.from_clauses(6, WORKED_CLAUSES)


@pytest.fixture(scope="session")
def worked_instance(worked_formula):
    return compile_formula(worked_formula)
