"""Shared builders for the test suite."""

from __future__ import annotations

import itertools
import warnings
from datetime import date as Date

import numpy as np
import pytest

from vcnet.graph import FIRM, ProjectedGraph
from vcnet.ingest import DealRecord


def make_pg(nodes, pairs) -> ProjectedGraph:
    """Firm projection from node names (or a count) and edges, as name or index pairs."""
    names = [f"n{i:02d}" for i in range(nodes)] if isinstance(nodes, int) else list(nodes)
    ordered = sorted(set(names))
    pos = {name: i for i, name in enumerate(ordered)}
    rows = set()
    for u, v in pairs:
        u, v = (names[u], names[v]) if isinstance(u, int) else (u, v)
        rows.add(tuple(sorted((pos[u], pos[v]))))
    return ProjectedGraph(FIRM, 2010, ordered, sorted(rows))


def edge_names(pg: ProjectedGraph) -> list[tuple[str, str]]:
    """The projection's edges as node-id pairs, in ``pairs`` order."""
    return [(pg.nodes[u], pg.nodes[v]) for u, v in pg.pairs.tolist()]


def by_node(graph, values: np.ndarray) -> dict:
    """A measure's array as ``{node: value}``, paired with ``graph.nodes`` in order.

    ``graph`` is a projection or a frame; the array must hold exactly one
    value per node. ``tolist`` keeps every value exact, so ``==`` against
    literal dicts and the dict-based oracles stays exact too.
    """
    assert isinstance(values, np.ndarray) and values.shape == (len(graph.nodes),)
    return dict(zip(graph.nodes, values.tolist()))


def random_pg(rng: np.random.Generator, n: int, p: float) -> ProjectedGraph:
    edges = [(i, j) for i, j in itertools.combinations(range(n), 2) if rng.random() < p]
    return make_pg(n, edges)


def random_multi_component_pg(rng: np.random.Generator, n: int) -> ProjectedGraph:
    """Random graph whose nodes fall into 2-4 interleaved blocks plus 1-4 isolated nodes.

    Edges join nodes of the same block only, so every block is one or more
    components; sparse blocks split further.
    """
    block = rng.integers(0, int(rng.integers(2, 5)), size=n)
    block[rng.choice(n, size=int(rng.integers(1, 5)), replace=False)] = -1
    p = rng.uniform(0.03, 0.2)
    edges = [(i, j) for i, j in itertools.combinations(range(n), 2)
             if block[i] == block[j] >= 0 and rng.random() < p]
    return make_pg(n, edges)


def random_tree_pg(rng: np.random.Generator, n: int) -> ProjectedGraph:
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    return make_pg(n, edges)


def recorded(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and the messages of the warnings it raised, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args, **kwargs)
    return result, [str(w.message) for w in caught]


def deal(firm, investor, round_id, iso_date, amount=100) -> DealRecord:
    return DealRecord(firm, investor, round_id, Date.fromisoformat(iso_date), amount)


def random_deals(rng: np.random.Generator, n_deals: int, n_firms: int = 10,
                 n_investors: int = 10, year_lo: int = 2000, year_hi: int = 2012):
    deals = []
    for _ in range(n_deals):
        firm = f"F{rng.integers(0, n_firms)}"
        inv = f"I{rng.integers(0, n_investors)}"
        rid = f"{firm}-R{rng.integers(0, 3)}"
        when = Date(int(rng.integers(year_lo, year_hi + 1)),
                    int(rng.integers(1, 13)), int(rng.integers(1, 29)))
        deals.append(DealRecord(firm, inv, rid, when, int(rng.integers(1, 10 ** 6))))
    return deals


@pytest.fixture
def k3_pg():
    return make_pg(["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "c")])


@pytest.fixture
def path3_pg():
    return make_pg(["a", "b", "c"], [("a", "b"), ("b", "c")])


@pytest.fixture
def star5_pg():
    return make_pg(["c0", "l1", "l2", "l3", "l4"],
                   [("c0", "l1"), ("c0", "l2"), ("c0", "l3"), ("c0", "l4")])
