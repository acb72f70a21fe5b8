"""Cumulative temporal bipartite multigraph and its single-layer projections.

The bipartite graph links investors to firms, one (parallel) edge per
deal. Snapshots are cumulative at calendar-year ends: the snapshot for
year Y contains every deal dated on or before Dec 31 of Y, so snapshot
edge sets are monotone in Y.

Projections are simple, unweighted graphs. Two firms are linked when
some investor backed both within a configurable window (measured
symmetrically in exact days, ``window_years * 365.25``); two investors
are linked when they participated in the same financing round of the
same firm. A link is present from the first year-end by which any such
witness (common investor / common round) exists.
"""

from __future__ import annotations

import warnings
from bisect import bisect_right
from dataclasses import dataclass
from datetime import date as Date
from functools import cached_property
from itertools import compress
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np
from numpy.typing import ArrayLike

from .ingest import DealRecord

DAYS_PER_YEAR = 365.25

FIRM = "FIRM"
INVESTOR = "INVESTOR"
BOTH = "BOTH"

#: Sources per block of the shortest-path pass, ``ProjectedGraph.paths``.
SOURCE_BLOCK = 128


@dataclass(frozen=True)
class FirstRound:
    round_id: str
    date: Date
    amount_total: int
    investors: frozenset[str]


class TemporalBipartiteGraph:
    """Immutable container for deals with cumulative per-year views."""

    def __init__(self, deals: list[DealRecord]):
        # Stable, data-independent edge order: by date, then ids.
        self.edges: list[DealRecord] = sorted(
            deals, key=lambda d: (d.date, d.investor_id, d.firm_id, d.round_id, d.amount)
        )
        firm_side = {d.firm_id for d in deals}
        investor_side = {d.investor_id for d in deals}
        self.roles: dict[str, str] = {}
        for node in firm_side | investor_side:
            if node in firm_side and node in investor_side:
                self.roles[node] = BOTH
            elif node in firm_side:
                self.roles[node] = FIRM
            else:
                self.roles[node] = INVESTOR
        if self.edges:
            self.min_year = self.edges[0].date.year
            self.max_year = self.edges[-1].date.year
        else:
            self.min_year = self.max_year = None
        self._first_rounds: Mapping[str, FirstRound] | None = None
        self._links: dict = {}  # link tables by (layer, window), see _project

    def __len__(self) -> int:
        return len(self.roles)

    def snapshot_deals(self, year: int) -> list[DealRecord]:
        """Deals dated on or before Dec 31 of ``year`` (cumulative)."""
        return self.edges[:bisect_right(self.edges, year, key=lambda d: d.date.year)]

    def years(self) -> range:
        if self.min_year is None:
            return range(0)
        return range(self.min_year, self.max_year + 1)


def build_bipartite(deals: list[DealRecord]) -> TemporalBipartiteGraph:
    """Build the cumulative temporal bipartite multigraph from deals."""
    return TemporalBipartiteGraph(deals)


class ProjectedGraph:
    """Simple, unweighted undirected graph from one bipartite layer at one snapshot.

    ``nodes`` are the node ids in sorted order; ``pairs`` holds one row
    ``(u, v)``, ``u < v``, of indices into ``nodes`` per edge, in sorted
    order, with no row repeated. The integer-indexed views that every
    measure shares are built once and are read-only. On creation:
    ``rows`` and ``cols``, both directions of every edge sorted by row
    and then by column, so that row v's neighbours are
    ``cols[indptr[v]:indptr[v + 1]]``, ascending; ``indptr``; and
    ``degrees``. On first use: ``adjacency`` (the dense 0/1 float64
    matrix, rows and columns in ``nodes`` order), ``paths`` (per-node
    results of one shortest-path pass), ``labels`` (component ids) and
    ``components`` (each component's nodes and edges).
    """

    def __init__(self, layer: str, snapshot_year: int, nodes: Sequence[str], pairs: ArrayLike):
        self.layer = layer
        self.snapshot_year = snapshot_year
        self.nodes: tuple[str, ...] = tuple(nodes)
        self.pairs = _read_only(np.asarray(pairs, dtype=np.int64).reshape(-1, 2))
        self.rows, self.cols = map(_read_only, two_way(self.pairs))
        self.degrees = _read_only(np.bincount(self.rows, minlength=len(self.nodes)))
        self.indptr = _read_only(np.concatenate([[0], np.cumsum(self.degrees)]))

    def __len__(self) -> int:
        return len(self.nodes)

    def n_edges(self) -> int:
        return len(self.pairs)

    @cached_property
    def adjacency(self) -> np.ndarray:
        """The symmetric 0/1 adjacency matrix, float64."""
        n = len(self)
        A = np.zeros((n, n))
        A[self.rows, self.cols] = 1.0
        return _read_only(A)

    @cached_property
    def paths(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-node results of one shortest-path pass, read-only and in node order:
        ``(dependency, reach, hop_sum, inverse_hop_sum, first)``.

        A node's Brandes dependency summed over every source (Brandes 2001);
        then, from the node, how many others it reaches, the sum of their hop
        counts (int64) and of their inverse hop counts, and the smallest index
        it reaches. Sources go ``SOURCE_BLOCK`` at a time; each level of the
        search is one product of ``adjacency`` with the frontier's path counts
        (Kepner & Gilbert 2011), whole numbers below 2**53, so exact in any
        order. A block's hop counts (-1 unreachable) are one n x block array in
        the smallest signed type holding ``-n`` (int8 up to 128 nodes), and the
        backward accumulation runs over the levels the search found.
        """
        n = len(self)
        A = self.adjacency
        dependency, inverse = np.zeros(n), np.zeros(n)
        reach, hop_sum, first = (np.zeros(n, dtype=np.int64) for _ in range(3))
        for lo in range(0, n, SOURCE_BLOCK):
            hi = min(lo + SOURCE_BLOCK, n)
            hops = np.full((n, hi - lo), -1, dtype=np.min_scalar_type(-n))  # column j: from lo + j
            hops[np.arange(lo, hi), np.arange(hi - lo)] = 0
            level = [hops == 0]
            sigma = level[0].astype(float)  # shortest-path counts from each source
            while True:
                counts = A @ np.where(level[-1], sigma, 0.0)
                reached = (counts > 0) & (hops < 0)
                if not reached.any():
                    break
                hops[reached] = len(level)
                sigma += np.where(reached, counts, 0.0)
                level.append(reached)
            delta = np.zeros_like(sigma)  # dependencies; sources keep 0
            for d in range(len(level) - 1, 1, -1):
                share = np.divide(1.0 + delta, sigma, out=np.zeros_like(sigma), where=level[d])
                delta += np.where(level[d - 1], sigma * (A @ share), 0.0)
            dependency += delta.sum(axis=1)
            reach[lo:hi] = (hops > 0).sum(axis=0)
            hop_sum[lo:hi] = np.where(hops > 0, hops, 0).sum(axis=0)
            # Row by row over the reachable entries only, so each float sum keeps its order.
            inverse[lo:hi] = [(1.0 / row[row > 0]).sum() for row in np.ascontiguousarray(hops.T)]
            first[lo:hi] = (hops >= 0).argmax(axis=0)
        return tuple(map(_read_only, (dependency, reach, hop_sum, inverse, first)))

    @cached_property
    def labels(self) -> np.ndarray:
        """Component labels, numbered in the order of each component's smallest index."""
        return _read_only(np.unique(self.paths[4], return_inverse=True)[1])

    @cached_property
    def components(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per component, in ``labels`` order, its node indices (ascending) and its
        edges in ``pairs`` order as rows ``(u, v)`` of positions among those
        nodes; every array is read-only."""
        sizes = np.bincount(self.labels)
        order = _read_only(np.argsort(self.labels, kind="stable"))
        starts = np.cumsum(sizes) - sizes
        local = np.argsort(order) - starts[self.labels]  # each node's position in its component
        edge_labels = self.labels[self.pairs[:, 0]]
        edges = _read_only(local[self.pairs[np.argsort(edge_labels, kind="stable")]])
        counts = np.bincount(edge_labels, minlength=sizes.size)
        return tuple((order[a:a + s], edges[b:b + m]) for a, s, b, m
                     in zip(starts, sizes, np.cumsum(counts) - counts, counts))


def two_way(pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both directions ``(rows, cols)`` of the edges ``pairs``, sorted by row and then by column."""
    u, v = pairs.T
    rows, cols = np.concatenate([u, v]), np.concatenate([v, u])
    order = np.lexsort((cols, rows))
    return rows[order], cols[order]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class _LinkTable:
    """Every link of one layer's projections, with the year-end it appears by.

    ``names`` are the layer's node ids, sorted, and ``first_year`` each
    node's first deal year. Row r links ``names[u[r]] < names[v[r]]``
    from year-end ``birth[r]`` on; there is one row per linked pair, and
    rows are sorted by ``(u, v)``.
    """

    names: list[str]
    first_year: np.ndarray
    u: np.ndarray
    v: np.ndarray
    birth: np.ndarray

    def project(self, layer: str, year: int) -> ProjectedGraph:
        """The snapshot at ``year``: the links born by then.

        Renumbering keeps the rows sorted, since ``local`` preserves order.
        """
        present = self.first_year <= year
        local = np.cumsum(present) - 1
        born = self.birth <= year
        return ProjectedGraph(layer, year, list(compress(self.names, present)),
                              np.column_stack([local[self.u[born]], local[self.v[born]]]))


def _codes(values: list) -> tuple[list, np.ndarray]:
    """Sorted distinct values and every value's index among them."""
    names = sorted(set(values))
    index = {value: i for i, value in enumerate(names)}
    return names, np.array([index[value] for value in values], dtype=np.int64)


def _pairs_within(end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every index pair ``(i, k)`` with ``i < k < end[i]``."""
    count = np.maximum(end - np.arange(end.size) - 1, 0)
    i = np.repeat(np.arange(end.size), count)
    return i, i + 1 + np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)


def _link_table(deals: list[DealRecord], node_ids: list[str], group_ids: list,
                gap_days: int) -> _LinkTable:
    """Links between two nodes with deals in one group, at most ``gap_days`` apart.

    ``deals`` are in date order; ``node_ids`` and ``group_ids`` name each
    deal's node and group, and the group is the witness. A pair of deals
    links its nodes from the later deal's year on, and each (u, v) keeps
    the earliest year of any of its witnesses.
    """
    names, nodes = _codes(node_ids)
    _, groups = _codes(group_ids)
    day = np.array([d.date.toordinal() for d in deals], dtype=np.int64)
    year = np.array([d.date.year for d in deals], dtype=np.int64)
    first_year = year[np.unique(nodes, return_index=True)[1]]
    order = np.argsort(groups, kind="stable")  # each group's deals stay in date order
    nodes, groups, day, year = nodes[order], groups[order], day[order], year[order]
    # Ordinals are below 2**22 and the gap is capped at 2**31: no key reaches the next group's.
    key = (groups << 32) + day
    i, k = _pairs_within(np.searchsorted(key, key + min(gap_days, 1 << 31), side="right"))
    apart = nodes[i] != nodes[k]
    i, k = i[apart], k[apart]
    u, v = np.minimum(nodes[i], nodes[k]), np.maximum(nodes[i], nodes[k])
    birth = year[k]  # deal k is the later one
    order = np.lexsort((birth, v, u))
    u, v, birth = u[order], v[order], birth[order]
    first = np.ones(u.size, dtype=bool)
    first[1:] = (u[1:] != u[:-1]) | (v[1:] != v[:-1])
    return _LinkTable(names, first_year, u[first], v[first], birth[first])


def _project(g: TemporalBipartiteGraph, layer: str, year: int,
             window_years: int | None) -> ProjectedGraph:
    if g.min_year is None or not g.min_year <= year <= g.max_year:
        warnings.warn(f"snapshot year {year} outside data range; returning empty projection")
        return ProjectedGraph(layer, year, (), ())
    key = (layer, window_years)
    if key not in g._links:
        deals = g.edges
        if layer == FIRM:
            # Whole days apart, so |days| <= window * 365.25 means days <= its floor.
            g._links[key] = _link_table(deals, [d.firm_id for d in deals],
                                        [d.investor_id for d in deals],
                                        int(window_years * DAYS_PER_YEAR))
        else:  # any two deals of one round, whatever their dates
            g._links[key] = _link_table(deals, [d.investor_id for d in deals],
                                        [(d.firm_id, d.round_id) for d in deals], 1 << 31)
    return g._links[key].project(layer, year)


def project_firms(g: TemporalBipartiteGraph, snapshot_year: int, window_years: int = 7) -> ProjectedGraph:
    """Project onto the firm layer at a yearly snapshot.

    Firms f1 and f2 are linked when some investor holds deals in both,
    dated at most ``window_years`` apart (symmetric, in exact days) and
    both on or before the snapshot's year end. The links of all
    snapshots are found once per graph and window (cached on ``g``); a
    snapshot keeps those born by its year end.
    """
    return _project(g, FIRM, snapshot_year, window_years)


def project_investors(g: TemporalBipartiteGraph, snapshot_year: int) -> ProjectedGraph:
    """Project onto the investor layer: co-membership in a firm's round.

    Links are found once per graph, as for firms.
    """
    return _project(g, INVESTOR, snapshot_year, None)


def first_rounds(g: TemporalBipartiteGraph) -> Mapping[str, FirstRound]:
    """First rounds of every firm-role node, keyed by firm.

    A firm's first round is the round whose earliest deal is its first
    recorded investment (ties broken by round_id), with the total amount
    and the full investor set of that round, including deals in it dated
    later. The deals are scanned once per graph; the read-only table is
    cached on ``g`` and shared by every caller.
    """
    if g._first_rounds is None:
        rounds: dict[str, dict[str, list[DealRecord]]] = {}
        for d in g.edges:
            rounds.setdefault(d.firm_id, {}).setdefault(d.round_id, []).append(d)
        out: dict[str, FirstRound] = {}
        for firm, per_round in rounds.items():
            best = min(per_round, key=lambda rid: (min(d.date for d in per_round[rid]), rid))
            deals = per_round[best]
            out[firm] = FirstRound(best, min(d.date for d in deals),
                                   sum(d.amount for d in deals),
                                   frozenset(d.investor_id for d in deals))
        g._first_rounds = MappingProxyType(out)
    return g._first_rounds
