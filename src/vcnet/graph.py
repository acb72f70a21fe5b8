"""Cumulative temporal bipartite multigraph and its single-layer projections.

The bipartite graph links investors to firms, one (parallel) edge per
deal. Snapshots are cumulative at calendar-year ends: the snapshot for
year Y contains every deal dated on or before Dec 31 of Y, so snapshot
edge sets are monotone in Y.

Projections are simple graphs. Two firms are linked when some investor
backed both within a configurable window (measured symmetrically in
exact days, ``window_years * 365.25``); two investors are linked when
they participated in the same financing round of the same firm. Edge
weights count the distinct witnesses (common investors / common rounds);
all centrality computations downstream ignore the weights.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from datetime import date as Date
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .ingest import DealRecord, write_csv

DAYS_PER_YEAR = 365.25

FIRM = "FIRM"
INVESTOR = "INVESTOR"
BOTH = "BOTH"


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

    def __len__(self) -> int:
        return len(self.roles)

    def snapshot_deals(self, year: int) -> list[DealRecord]:
        """Deals dated on or before Dec 31 of ``year`` (cumulative)."""
        cut = _bisect_year(self.edges, year)
        return self.edges[:cut]

    def years(self) -> range:
        if self.min_year is None:
            return range(0)
        return range(self.min_year, self.max_year + 1)


def _bisect_year(edges: list[DealRecord], year: int) -> int:
    lo, hi = 0, len(edges)
    while lo < hi:
        mid = (lo + hi) // 2
        if edges[mid].date.year <= year:
            lo = mid + 1
        else:
            hi = mid
    return lo


def build_bipartite(deals: list[DealRecord]) -> TemporalBipartiteGraph:
    """Build the cumulative temporal bipartite multigraph from deals."""
    return TemporalBipartiteGraph(deals)


class ProjectedGraph:
    """Simple undirected graph from one bipartite layer at one snapshot.

    The integer-indexed views that every measure shares are built once
    and are read-only: ``csr`` (the unweighted symmetric adjacency, rows
    and columns in ``nodes`` order) and ``degrees`` on creation, ``dist``
    (all-pairs hop distances, ``inf`` between components) and ``labels``
    (connected-component ids) on first use.
    """

    def __init__(self, layer: str, snapshot_year: int, nodes: set[str],
                 edge_witnesses: dict[tuple[str, str], set], window_years: int | None = None):
        self.layer = layer
        self.snapshot_year = snapshot_year
        self.window_years = window_years
        self.nodes: tuple[str, ...] = tuple(sorted(nodes))
        self.edges: dict[tuple[str, str], int] = {
            pair: len(wit) for pair, wit in sorted(edge_witnesses.items())
        }
        pos = {node: i for i, node in enumerate(self.nodes)}
        n = len(self.nodes)
        uv = np.array([(pos[u], pos[v]) for u, v in self.edges], dtype=np.int64).reshape(-1, 2)
        rows = np.concatenate([uv[:, 0], uv[:, 1]])
        cols = np.concatenate([uv[:, 1], uv[:, 0]])
        self.csr = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
        self.csr.sort_indices()
        for part in (self.csr.data, self.csr.indices, self.csr.indptr):
            _read_only(part)
        self.degrees = _read_only(np.diff(self.csr.indptr).astype(np.int64))

    def __len__(self) -> int:
        return len(self.nodes)

    def n_edges(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[tuple[str, str, int]]:
        return [(u, v, w) for (u, v), w in self.edges.items()]

    @cached_property
    def dist(self) -> np.ndarray:
        return _read_only(csgraph.shortest_path(self.csr, directed=False, unweighted=True))

    @cached_property
    def labels(self) -> np.ndarray:
        return _read_only(csgraph.connected_components(self.csr, directed=False)[1])


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _empty_projection(layer: str, year: int, window: int | None) -> ProjectedGraph:
    return ProjectedGraph(layer, year, set(), {}, window)


def project_firms(g: TemporalBipartiteGraph, snapshot_year: int, window_years: int = 7) -> ProjectedGraph:
    """Project onto the firm layer at a yearly snapshot.

    Firms f1 and f2 are linked when some investor holds deals in both,
    dated at most ``window_years`` apart (symmetric, in exact days) and
    both on or before the snapshot's year end. Edge weight counts the
    distinct common investors.
    """
    if g.min_year is None or not g.min_year <= snapshot_year <= g.max_year:
        warnings.warn(f"snapshot year {snapshot_year} outside data range; returning empty projection")
        return _empty_projection(FIRM, snapshot_year, window_years)

    deals = g.snapshot_deals(snapshot_year)
    nodes = {d.firm_id for d in deals}
    max_gap_days = window_years * DAYS_PER_YEAR

    by_investor: dict[str, dict[str, list[Date]]] = {}
    for d in deals:
        by_investor.setdefault(d.investor_id, {}).setdefault(d.firm_id, []).append(d.date)

    witnesses: dict[tuple[str, str], set] = {}
    for investor, portfolio in by_investor.items():
        firms = sorted(portfolio)
        for i, f1 in enumerate(firms):
            d1s = portfolio[f1]
            for f2 in firms[i + 1:]:
                if any(abs((a - b).days) <= max_gap_days for a in d1s for b in portfolio[f2]):
                    witnesses.setdefault((f1, f2), set()).add(investor)
    return ProjectedGraph(FIRM, snapshot_year, nodes, witnesses, window_years)


def project_investors(g: TemporalBipartiteGraph, snapshot_year: int) -> ProjectedGraph:
    """Project onto the investor layer: co-membership in a firm's round."""
    if g.min_year is None or not g.min_year <= snapshot_year <= g.max_year:
        warnings.warn(f"snapshot year {snapshot_year} outside data range; returning empty projection")
        return _empty_projection(INVESTOR, snapshot_year, None)

    deals = g.snapshot_deals(snapshot_year)
    nodes = {d.investor_id for d in deals}

    by_round: dict[tuple[str, str], set] = {}
    for d in deals:
        by_round.setdefault((d.firm_id, d.round_id), set()).add(d.investor_id)

    witnesses: dict[tuple[str, str], set] = {}
    for round_key, members in by_round.items():
        ordered = sorted(members)
        for i, u in enumerate(ordered):
            for v in ordered[i + 1:]:
                witnesses.setdefault((u, v), set()).add(round_key)
    return ProjectedGraph(INVESTOR, snapshot_year, nodes, witnesses, None)


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


def write_projection_csv(pg: ProjectedGraph, out_dir: str | Path) -> Path:
    """Dump a projection as ``proj_{layer}_{year}_w{window}.csv`` (u,v,weight)."""
    window = pg.window_years if pg.window_years is not None else 0
    path = Path(out_dir) / f"proj_{pg.layer.lower()}_{pg.snapshot_year}_w{window}.csv"
    write_csv(path, ["u", "v", "weight"], pg.sorted_edges())
    return path
