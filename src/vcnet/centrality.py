"""Node-level statistics on projected graphs and per-firm covariates.

All measures are computed on the simple projection, which holds one
unweighted link per linked pair and nothing else about the pair, from
its read-only neighbour lists (``ProjectedGraph.rows``/``cols``) and
its cached dense 0/1 ``adjacency``. Each measure returns one numpy
array aligned with ``pg.nodes`` (sorted node ids): float64, except
``core_number`` and ``voterank``, which are int64.

Each product takes the cheapest exact form. A product whose float sum
depends on its order (eigenvector, pagerank) is ``np.bincount`` over
the neighbour lists, which adds each row's neighbours one at a time in
ascending column order. A product whose sums are whole numbers below
2**53 (hop-count frontiers, triangle counts, neighbor degrees, k-core
peeling, VoteRank scores) is exact in any order, so it is a dense
product with ``adjacency``. Betweenness multiplies non-integer shares
by ``adjacency`` too, so its last bits depend on the BLAS kernel.

The distance measures (betweenness, closeness, harmonic) share one
all-pairs pass of integer hop counts, and eigenvector and current flow
one component split, both cached on the ``ProjectedGraph``. Graphs are
typically disconnected, so distance-based measures use
component-corrected normalizations that stay finite and comparable:

* ``closeness``: (r/(n-1)) * (r/sum of distances), r = #reachable nodes;
* ``harmonic``: sum of inverse distances to reachable nodes divided by (n-1);
* ``eigenvector``: dominant eigenvector per connected component, scaled
  to unit Euclidean norm within the component (isolated nodes get 0);
* ``newman_betweenness``: current flow per component via the Laplacian
  pseudo-inverse, endpoints excluded, normalized like shortest-path
  betweenness (components smaller than 3 get 0); edges are processed in
  fixed blocks, so its work memory is O(block * component size);
* ``pagerank``: teleporting walk over all n nodes; isolated nodes hold
  no outgoing walk mass and receive only the teleport share.

Ties anywhere (VoteRank election, rankings) break by node-id order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, groupby, repeat
from pathlib import Path

import numpy as np

from .errors import ConvergenceError, SchemaError
from .graph import (FIRM, SOURCE_BLOCK, ProjectedGraph, TemporalBipartiteGraph, first_rounds,
                    two_way)
from .ingest import read_records, write_csv

#: Measures computed on both layers, keyed as they appear in covariate names.
COMMON_MEASURES = (
    "degree_centrality",
    "average_neighbor_degree",
    "betweenness",
    "newman_betweenness",
    "closeness_centrality",
    "harmonic_centrality",
    "eigenvector_centrality",
    "pagerank",
    "clustering",
    "voterank",
)
#: Additional firm-layer-only columns.
FIRM_ONLY_MEASURES = ("core_number", "n_investors")
#: Measure functions named differently from their measure.
_FUNCTION_OF = {"closeness_centrality": "closeness", "harmonic_centrality": "harmonic",
                "eigenvector_centrality": "eigenvector"}

SUMMARIES = ("max", "min", "median")


# ---------------------------------------------------------------------------
# Elementary measures
# ---------------------------------------------------------------------------

def degree_centrality(pg: ProjectedGraph) -> np.ndarray:
    """deg(v) / (n - 1); zero on graphs with fewer than two nodes."""
    n = len(pg)
    return pg.degrees / (n - 1) if n > 1 else np.zeros(n)


def average_neighbor_degree(pg: ProjectedGraph) -> np.ndarray:
    """Mean degree over neighbors; 0 for isolated nodes.

    Each neighbor-degree sum is a whole number below n**2, so exact in float64.
    """
    deg = pg.degrees
    return np.divide(pg.adjacency @ deg, deg, out=np.zeros(len(pg)), where=deg > 0)


def clustering(pg: ProjectedGraph) -> np.ndarray:
    """triangles(v) / C(deg v, 2); 0 when deg(v) < 2.

    Row v of (A @ A) * A counts each triangle at v twice, as a whole number
    below n**2, so exact in float64.
    """
    A, k = pg.adjacency, pg.degrees
    twice_triangles = ((A @ A) * A).sum(axis=1)
    return np.divide(twice_triangles, k * (k - 1), out=np.zeros(len(pg)), where=k >= 2)


def core_number(pg: ProjectedGraph) -> np.ndarray:
    """k-core number by peeling: at level k, every node of remaining degree <= k at once."""
    deg = pg.degrees.copy()
    alive = np.ones(len(pg), dtype=bool)
    core = np.zeros(len(pg), dtype=np.int64)
    k = 0
    while alive.any():
        peeled = alive & (deg <= k)
        if not peeled.any():
            k = int(deg[alive].min())
            continue
        core[peeled] = k
        alive &= ~peeled
        deg -= pg.adjacency[peeled].sum(axis=0).astype(np.int64)  # counts below n: exact
    return core


# ---------------------------------------------------------------------------
# Distance measures (all read the projection's cached hop counts, -1 if unreachable)
# ---------------------------------------------------------------------------

#: Edges per block in ``newman_betweenness``; its work array is block x component size.
_EDGE_BLOCK = 256
#: Relative singular-value cutoff of the Laplacian pseudo-inverse in ``newman_betweenness``.
_PINV_RCOND = 1e-10


def betweenness(pg: ProjectedGraph) -> np.ndarray:
    """Shortest-path betweenness with Brandes-style accumulation.

    Path counts and dependencies are accumulated for a block of sources
    at a time, one distance level at a time, as adjacency products
    masked by the hop-distance matrix. Normalized by 2 / ((n-1)(n-2))
    so that the middle node of a path of three scores exactly 1; pairs
    in other components contribute nothing.
    """
    n = len(pg)
    if n < 3:
        return np.zeros(n)
    A = pg.adjacency
    bc = np.zeros(n)
    for lo in range(0, n, SOURCE_BLOCK):
        D = pg.dist[:, lo:lo + SOURCE_BLOCK]  # column j: distances from source lo + j
        depth = int(D.max())
        level = [D == d for d in range(depth + 1)]
        sigma = level[0].astype(float)  # shortest-path counts from each source
        for d in range(1, depth + 1):
            sigma += np.where(level[d], A @ np.where(level[d - 1], sigma, 0.0), 0.0)
        delta = np.zeros_like(sigma)  # dependencies; sources keep 0
        for d in range(depth, 1, -1):
            share = np.divide(1.0 + delta, sigma, out=np.zeros_like(sigma), where=level[d])
            delta += np.where(level[d - 1], sigma * (A @ share), 0.0)
        bc += delta.sum(axis=1)
    return bc / ((n - 1) * (n - 2))  # each unordered pair was accumulated twice


def closeness(pg: ProjectedGraph) -> np.ndarray:
    """Component-corrected closeness: (r/(n-1)) * (r/total distance)."""
    n = len(pg)
    reach = pg.dist > 0  # the other nodes of the same component
    r = reach.sum(axis=1)
    total = np.where(reach, pg.dist, 0.0).sum(axis=1)  # integer-valued, so exact in any order
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(r > 0, (r / (n - 1)) * (r / total), 0.0)


def harmonic(pg: ProjectedGraph) -> np.ndarray:
    """Sum of inverse distances to the other nodes of the same component, over n - 1."""
    # Row by row over the reachable entries only: the float sum keeps its order.
    return np.array([(1.0 / row[row > 0]).sum() for row in pg.dist]) / max(len(pg) - 1, 1)


# ---------------------------------------------------------------------------
# Spectral measures
# ---------------------------------------------------------------------------

def eigenvector(pg: ProjectedGraph, tol: float = 1e-10, max_iter: int = 10000) -> np.ndarray:
    """Dominant-eigenvector centrality, unit Euclidean norm per component.

    Power iteration runs on A + I, which has the same dominant
    eigenvector as A but converges on bipartite components too. Isolated
    nodes get 0.
    """
    values = np.zeros(len(pg))
    for comp, edges in pg.components:
        if comp.size < 2:
            continue
        rows, cols = two_way(edges)
        x = np.full(comp.size, 1.0 / np.sqrt(comp.size))
        for _ in range(max_iter):
            y = np.bincount(rows, x[cols], comp.size) + x
            y /= np.linalg.norm(y)
            residual = float(np.abs(y - x).max())
            x = y
            if residual < tol:
                break
        else:
            raise ConvergenceError("eigenvector power iteration did not converge", residual)
        values[comp] = x
    return values


def pagerank(pg: ProjectedGraph, damping: float = 0.85,
             tol: float = 1e-12, max_iter: int = 10000) -> np.ndarray:
    """PageRank of the degree-normalized walk with uniform teleport.

    Walk mass at degree-0 nodes teleports uniformly, so the values sum
    to 1 over the whole graph regardless of isolated nodes.
    """
    n = len(pg)
    if n == 0:
        return np.zeros(0)
    deg = pg.degrees.astype(float)
    dangling = deg == 0
    inv_deg = np.where(dangling, 0.0, 1.0 / np.where(dangling, 1.0, deg))
    p = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        spread = np.bincount(pg.rows, (p * inv_deg)[pg.cols], n)
        d_mass = float(p[dangling].sum())
        p_next = (1.0 - damping) / n + damping * (spread + d_mass / n)
        residual = float(np.abs(p_next - p).sum())
        p = p_next
        if residual < tol:
            break
    else:
        raise ConvergenceError("pagerank power iteration did not converge", residual)
    return p


# ---------------------------------------------------------------------------
# Current-flow (random-walk) betweenness
# ---------------------------------------------------------------------------

def newman_betweenness(pg: ProjectedGraph) -> np.ndarray:
    """Current-flow betweenness via the component Laplacian pseudo-inverse.

    A unit current is injected between every source-target pair in a
    component; a node's score is the mean net flow through it, with
    endpoint flow excluded and the shortest-path normalization
    2/((n-1)(n-2)) applied. Nodes in components smaller than 3 get 0.
    On trees this equals shortest-path betweenness exactly.
    """
    n = len(pg)
    values = np.zeros(n)
    for comp, edges in pg.components:
        nc = comp.size
        if nc < 3:
            continue
        u, v = edges.T
        laplacian = np.zeros((nc, nc))  # exact integers
        laplacian[u, v] = laplacian[v, u] = -1.0
        np.fill_diagonal(laplacian, pg.degrees[comp])
        pinv = np.linalg.pinv(laplacian, rcond=_PINV_RCOND)
        # Sum over source<target pairs of |current through edge e|, where
        # pinv[u] - pinv[v] holds e's potential differences for all sinks:
        # for sorted row x, sum_{s<t} |x_s - x_t| = sum_i (2i - nc + 1) x_(i).
        coef = 2.0 * np.arange(nc) - nc + 1.0
        per_edge = np.concatenate([
            np.sort(pinv[u[k:k + _EDGE_BLOCK]] - pinv[v[k:k + _EDGE_BLOCK]], axis=1) @ coef
            for k in range(0, u.size, _EDGE_BLOCK)])
        through = 0.5 * (np.bincount(u, per_edge, nc) + np.bincount(v, per_edge, nc))
        through -= (nc - 1) / 2.0  # endpoint flow of the nc-1 pairs at each node
        values[comp] = through * 2.0 / ((n - 1) * (n - 2))
    return values


# ---------------------------------------------------------------------------
# VoteRank
# ---------------------------------------------------------------------------

def voterank(pg: ProjectedGraph) -> np.ndarray:
    """Iterative voting rank; rank 1 is the strongest spreader.

    Nodes vote with ability starting at 1; each round the unselected
    node with the highest neighbor-ability sum is elected, its ability
    drops to 0 and its neighbors lose 1/<k> ability (floored at 0),
    where <k> is the whole-graph mean degree. Election stops when the
    best remaining score is 0; unselected nodes share the next rank.

    With <k> = 2m/n every ability is a multiple of 1/(2m), so the loop
    runs on integer numerators: ties are exact and the elected order
    cannot depend on float summation order. A score is a whole number
    of at most deg * 2m < n**3, below 2**53 up to 208,000 nodes (far
    past any dense adjacency that fits in memory), so the float64
    scores are exact in any summation order. Only the elected node and
    its neighbours lose ability, so each round subtracts their losses
    times their adjacency rows.
    """
    n = len(pg)
    A = pg.adjacency
    num = np.full(n, 2.0 * pg.n_edges())  # common ability denominator; one vote costs n units
    scores = A @ num
    selectable = np.ones(n, dtype=bool)
    order: list[int] = []
    while selectable.any():
        best = int(np.argmax(np.where(selectable, scores, -1.0)))  # first max: smallest id
        if scores[best] <= 0:
            break
        order.append(best)
        selectable[best] = False
        nbrs = pg.cols[pg.indptr[best]:pg.indptr[best + 1]]
        nbrs = nbrs[num[nbrs] > 0]  # a neighbour without ability left loses none
        changed = np.append(nbrs, best)
        new = np.append(np.maximum(0.0, num[nbrs] - n), 0.0)
        scores -= (num[changed] - new) @ A[changed]
        num[changed] = new
    ranks = np.full(n, len(order) + 1, dtype=np.int64)
    ranks[order] = np.arange(1, len(order) + 1)
    return ranks


# ---------------------------------------------------------------------------
# Frames and firm covariates
# ---------------------------------------------------------------------------

@dataclass
class CentralityFrame:
    """Every measure at one (layer, snapshot year), one array per measure in ``nodes`` order."""

    snapshot_year: int
    layer: str
    nodes: tuple[str, ...]
    measures: dict[str, np.ndarray]


def compute_frame(pg: ProjectedGraph, g: TemporalBipartiteGraph | None = None) -> CentralityFrame:
    """Compute every measure on a projection.

    ``core_number`` and ``n_investors`` are firm-layer-only;
    ``n_investors`` additionally needs the bipartite graph ``g``.
    """
    # Looked up in the module when called, so a measure replaced on the module is the one used.
    out = {m: globals()[_FUNCTION_OF.get(m, m)](pg) for m in COMMON_MEASURES}
    if pg.layer == FIRM:
        out["core_number"] = core_number(pg)
        if g is not None:
            pos = {v: i for i, v in enumerate(pg.nodes)}
            links = {(pos[d.firm_id], d.investor_id) for d in g.snapshot_deals(pg.snapshot_year)
                     if d.firm_id in pos}
            out["n_investors"] = np.bincount([i for i, _ in links], minlength=len(pg))
    return CentralityFrame(pg.snapshot_year, pg.layer, pg.nodes, out)


@dataclass
class FirmCovariates:
    """One covariate row: own firm-layer values plus early-investor summaries."""

    firm_id: str
    first_year: int
    values: dict[str, float]
    investor_measures_missing: bool = False


def covariate_columns() -> list[str]:
    """Ordered covariate column names of the firm covariate table."""
    cols = ["first_amount", "n_investors"]
    cols += [f"{m}_org" for m in COMMON_MEASURES] + ["core_number_org"]
    cols += [f"{m}_{s}" for m in COMMON_MEASURES for s in SUMMARIES]
    return cols


def assemble_covariates(firm_frame: CentralityFrame, investor_frame: CentralityFrame,
                        g: TemporalBipartiteGraph) -> list[FirmCovariates]:
    """Build covariate rows for firms first funded in the frames' year.

    For each such firm: its own firm-layer measures (``_org``), plus
    max/min/median of every investor-layer measure over its first-round
    investors, its distinct-investor count within the snapshot (the firm
    frame's ``n_investors``, so ``firm_frame`` must be computed with
    ``g``), and the first-round amount. First-round investors absent
    from the investor frame are dropped from the summaries; if none
    remain, the investor summaries are 0 and the row is flagged.
    """
    year = firm_frame.snapshot_year
    rounds = first_rounds(g)
    cols = covariate_columns()
    firm_pos = {v: i for i, v in enumerate(firm_frame.nodes)}
    inv_pos = {v: i for i, v in enumerate(investor_frame.nodes)}
    # One row per node, one float column per measure, in covariate column order.
    own_measures = ["n_investors", *COMMON_MEASURES, "core_number"]
    own = np.column_stack([firm_frame.measures[m] for m in own_measures])
    inv = np.column_stack([investor_frame.measures[m] for m in COMMON_MEASURES])
    rows: list[FirmCovariates] = []
    for firm in sorted(rounds):
        fr = rounds[firm]
        if fr.date.year != year:
            continue
        # One row per first-round investor in the frame; no such investor gives zeros.
        vals = inv[[inv_pos[i] for i in sorted(fr.investors) if i in inv_pos]]
        summaries = (np.column_stack([vals.max(axis=0), vals.min(axis=0), np.median(vals, axis=0)])
                     if len(vals) else np.zeros((len(COMMON_MEASURES), len(SUMMARIES))))
        row = [float(fr.amount_total), *own[firm_pos[firm]].tolist(), *summaries.ravel().tolist()]
        rows.append(FirmCovariates(firm, year, dict(zip(cols, row)), not len(vals)))
    return rows


# ---------------------------------------------------------------------------
# CSV round-trips for pipeline stages
# ---------------------------------------------------------------------------

_FRAME_COLUMNS = list(COMMON_MEASURES) + list(FIRM_ONLY_MEASURES)


def write_frames_csv(frames: list[CentralityFrame], path: str | Path) -> None:
    """One row per node of every frame; a measure the frame lacks is a blank column."""
    write_csv(path, ["year", "layer", "node"] + _FRAME_COLUMNS, (
        [frame.snapshot_year, frame.layer, *cells]
        for frame in sorted(frames, key=lambda f: (f.snapshot_year, f.layer))
        for cells in zip(frame.nodes, *(frame.measures[m].astype(float).tolist()
                                        if m in frame.measures else repeat(None)
                                        for m in _FRAME_COLUMNS))))


def _frame_row(row: list[str]) -> tuple[tuple[int, str, tuple[bool, ...]], str, list[float]]:
    """A ``frames.csv`` row: (year, layer, which measures it holds), its node, those measures."""
    cells = row[3:]
    held = tuple(map(bool, cells))
    return (int(row[0]), row[1], held), row[2], [float(c) for c in cells if c]


def read_frames_csv(path: str | Path) -> dict[tuple[int, str], CentralityFrame]:
    """The frames of ``frames.csv``, read and converted one frame at a time.

    ``write_frames_csv`` keeps each frame's rows together, each holding
    the frame's measures; a row that resumes a frame after another
    frame's rows, or holds other measures than its frame's first row,
    raises ``SchemaError`` naming the file and the line.
    """
    header, rows = read_records(path, _frame_row)
    frames: dict[tuple[int, str], CentralityFrame] = {}
    for (year, layer, held), group in groupby(rows, key=lambda item: item[1][0]):
        lines, records = zip(*group)
        if (year, layer) in frames:
            raise SchemaError(f"{path}: line {lines[0]}: the rows of frame {year} {layer} resume "
                              f"after another frame's or hold other measures")
        nodes, *columns = zip(*((node, *values) for _, node, values in records))
        frames[year, layer] = CentralityFrame(year, layer, nodes, {
            m: np.array(column) for m, column in zip(compress(header[3:], held), columns)})
    return frames


def write_covariates_csv(rows: list[FirmCovariates], path: str | Path) -> None:
    cols = covariate_columns()
    write_csv(path, ["firm_id", "first_year"] + cols + ["investor_measures_missing"], (
        [r.firm_id, r.first_year] + [float(r.values[c]) for c in cols]
        + [int(r.investor_measures_missing)]
        for r in sorted(rows, key=lambda r: r.firm_id)))


def _covariate_row(row: list[str]) -> tuple[str, int, list[float], bool]:
    if row[-1] not in ("0", "1"):
        raise ValueError(f"investor_measures_missing must be 0 or 1, got {row[-1]!r}")
    return row[0], int(row[1]), [float(c) for c in row[2:-1]], row[-1] == "1"


def read_covariates_csv(path: str | Path) -> list[FirmCovariates]:
    header, rows = read_records(path, _covariate_row)
    cols = header[2:-1]
    return [FirmCovariates(firm, year, dict(zip(cols, values)), missing)
            for _, (firm, year, values, missing) in rows]
