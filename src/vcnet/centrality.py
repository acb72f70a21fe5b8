"""Node-level statistics on projected graphs and per-firm covariates.

All measures are computed on the unweighted simple projection (edge
multiplicities are kept on the graph for diagnostics but ignored here),
from the one read-only adjacency ``ProjectedGraph.csr``. The local
measures (neighbor degree, clustering, k-core) are sparse products on
it. The distance measures (betweenness, closeness, harmonic) share one
all-pairs hop-distance pass per projection, cached with the component
labels on the ``ProjectedGraph``. Graphs are typically disconnected, so
distance-based measures use component-corrected normalizations that
stay finite and comparable:

* ``closeness``: (r/(n-1)) * (r/sum of distances), r = #reachable nodes;
* ``harmonic``: sum of inverse distances divided by (n-1), 1/inf = 0;
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
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import ConvergenceError
from .graph import FIRM, SOURCE_BLOCK, ProjectedGraph, TemporalBipartiteGraph, first_rounds
from .ingest import read_csv, write_csv

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

SUMMARIES = ("max", "min", "median")


# ---------------------------------------------------------------------------
# Elementary measures
# ---------------------------------------------------------------------------

def degree_centrality(pg: ProjectedGraph) -> dict[str, float]:
    """deg(v) / (n - 1); zero on graphs with fewer than two nodes."""
    n = len(pg)
    if n <= 1:
        return {v: 0.0 for v in pg.nodes}
    return {v: float(pg.degrees[i]) / (n - 1) for i, v in enumerate(pg.nodes)}


def average_neighbor_degree(pg: ProjectedGraph) -> dict[str, float]:
    """Mean degree over neighbors; 0 for isolated nodes."""
    deg = pg.degrees
    values = np.divide(pg.csr @ deg, deg, out=np.zeros(len(pg)), where=deg > 0)
    return {v: float(values[i]) for i, v in enumerate(pg.nodes)}


def clustering(pg: ProjectedGraph) -> dict[str, float]:
    """triangles(v) / C(deg v, 2); 0 when deg(v) < 2.

    Row v of (A @ A) * A counts each triangle at v twice, as an exact integer.
    """
    A, k = pg.csr, pg.degrees
    twice_triangles = np.asarray((A @ A).multiply(A).sum(axis=1)).ravel()
    values = np.divide(twice_triangles, k * (k - 1), out=np.zeros(len(pg)), where=k >= 2)
    return {v: float(values[i]) for i, v in enumerate(pg.nodes)}


def core_number(pg: ProjectedGraph) -> dict[str, int]:
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
        deg -= (pg.csr @ peeled).astype(np.int64)
    return {v: int(core[i]) for i, v in enumerate(pg.nodes)}


# ---------------------------------------------------------------------------
# Distance measures (all read the projection's cached hop-distance matrix)
# ---------------------------------------------------------------------------

#: Edges per block in ``newman_betweenness``; its work array is block x component size.
_EDGE_BLOCK = 256
#: Relative singular-value cutoff of the Laplacian pseudo-inverse in ``newman_betweenness``.
_PINV_RCOND = 1e-10


def betweenness(pg: ProjectedGraph) -> dict[str, float]:
    """Shortest-path betweenness with Brandes-style accumulation.

    Path counts and dependencies are accumulated for a block of sources
    at a time, one distance level at a time, as adjacency products
    masked by the hop-distance matrix. Normalized by 2 / ((n-1)(n-2))
    so that the middle node of a path of three scores exactly 1; pairs
    in other components contribute nothing.
    """
    n = len(pg)
    if n < 3:
        return {v: 0.0 for v in pg.nodes}
    A = pg.csr
    bc = np.zeros(n)
    for lo in range(0, n, SOURCE_BLOCK):
        D = pg.dist[:, lo:lo + SOURCE_BLOCK]  # column j: distances from source lo + j
        depth = int(D[np.isfinite(D)].max())
        level = [D == d for d in range(depth + 1)]
        sigma = level[0].astype(float)  # shortest-path counts from each source
        for d in range(1, depth + 1):
            sigma += np.where(level[d], A @ np.where(level[d - 1], sigma, 0.0), 0.0)
        delta = np.zeros_like(sigma)  # dependencies; sources keep 0
        for d in range(depth, 1, -1):
            share = np.divide(1.0 + delta, sigma, out=np.zeros_like(sigma), where=level[d])
            delta += np.where(level[d - 1], sigma * (A @ share), 0.0)
        bc += delta.sum(axis=1)
    bc /= (n - 1) * (n - 2)  # each unordered pair was accumulated twice
    return {v: float(bc[i]) for i, v in enumerate(pg.nodes)}


def _reachable(pg: ProjectedGraph) -> tuple[np.ndarray, np.ndarray]:
    """Hop distances and the mask of other nodes in the same component."""
    D = pg.dist
    return D, np.isfinite(D) & (D > 0)


def closeness(pg: ProjectedGraph) -> dict[str, float]:
    """Component-corrected closeness: (r/(n-1)) * (r/total distance)."""
    n = len(pg)
    D, reach = _reachable(pg)
    r = reach.sum(axis=1)
    total = np.where(reach, D, 0.0).sum(axis=1)  # integer-valued, so exact in any order
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.where(r > 0, (r / (n - 1)) * (r / total), 0.0)
    return {v: float(values[i]) for i, v in enumerate(pg.nodes)}


def harmonic(pg: ProjectedGraph) -> dict[str, float]:
    """Mean inverse distance to all other nodes (1/inf = 0)."""
    n = len(pg)
    if n <= 1:
        return {v: 0.0 for v in pg.nodes}
    D, reach = _reachable(pg)
    # Row by row over the reachable entries only: the float sum keeps its order.
    return {v: float((1.0 / D[i][reach[i]]).sum()) / (n - 1) for i, v in enumerate(pg.nodes)}


# ---------------------------------------------------------------------------
# Spectral measures
# ---------------------------------------------------------------------------

def _components(pg: ProjectedGraph) -> list[np.ndarray]:
    """Node indices of each connected component, ascending within each."""
    labels = pg.labels
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.cumsum(np.bincount(labels))[:-1])


def eigenvector(pg: ProjectedGraph, tol: float = 1e-10, max_iter: int = 10000) -> dict[str, float]:
    """Dominant-eigenvector centrality, unit Euclidean norm per component.

    Power iteration runs on A + I, which has the same dominant
    eigenvector as A but converges on bipartite components too. Isolated
    nodes get 0.
    """
    n = len(pg)
    values = np.zeros(n)
    A = pg.csr
    for comp in _components(pg):
        if comp.size < 2:
            continue
        sub = A[np.ix_(comp, comp)].tocsr()
        x = np.full(comp.size, 1.0 / np.sqrt(comp.size))
        for _ in range(max_iter):
            y = sub @ x + x
            y /= np.linalg.norm(y)
            residual = float(np.abs(y - x).max())
            x = y
            if residual < tol:
                break
        else:
            raise ConvergenceError("eigenvector power iteration did not converge", residual)
        values[comp] = x
    return {v: float(values[i]) for i, v in enumerate(pg.nodes)}


def pagerank(pg: ProjectedGraph, damping: float = 0.85,
             tol: float = 1e-12, max_iter: int = 10000) -> dict[str, float]:
    """PageRank of the degree-normalized walk with uniform teleport.

    Walk mass at degree-0 nodes teleports uniformly, so the values sum
    to 1 over the whole graph regardless of isolated nodes.
    """
    n = len(pg)
    if n == 0:
        return {}
    A = pg.csr
    deg = pg.degrees.astype(float)
    dangling = deg == 0
    inv_deg = np.where(dangling, 0.0, 1.0 / np.where(dangling, 1.0, deg))
    p = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        spread = A @ (p * inv_deg)
        d_mass = float(p[dangling].sum())
        p_next = (1.0 - damping) / n + damping * (spread + d_mass / n)
        residual = float(np.abs(p_next - p).sum())
        p = p_next
        if residual < tol:
            break
    else:
        raise ConvergenceError("pagerank power iteration did not converge", residual)
    return {v: float(p[i]) for i, v in enumerate(pg.nodes)}


# ---------------------------------------------------------------------------
# Current-flow (random-walk) betweenness
# ---------------------------------------------------------------------------

def newman_betweenness(pg: ProjectedGraph) -> dict[str, float]:
    """Current-flow betweenness via the component Laplacian pseudo-inverse.

    A unit current is injected between every source-target pair in a
    component; a node's score is the mean net flow through it, with
    endpoint flow excluded and the shortest-path normalization
    2/((n-1)(n-2)) applied. Nodes in components smaller than 3 get 0.
    On trees this equals shortest-path betweenness exactly.
    """
    n = len(pg)
    values = np.zeros(n)
    if n >= 3:
        A = pg.csr
        for comp in _components(pg):
            nc = comp.size
            if nc < 3:
                continue
            sub = A[np.ix_(comp, comp)]
            laplacian = np.diag(pg.degrees[comp]) - sub.toarray()  # exact integers
            pinv = np.linalg.pinv(laplacian, rcond=_PINV_RCOND)
            upper = sp.triu(sub, k=1).tocoo()
            u, v = upper.row, upper.col
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
    return {v: float(values[i]) for i, v in enumerate(pg.nodes)}


# ---------------------------------------------------------------------------
# VoteRank
# ---------------------------------------------------------------------------

def voterank(pg: ProjectedGraph) -> dict[str, int]:
    """Iterative voting rank; rank 1 is the strongest spreader.

    Nodes vote with ability starting at 1; each round the unselected
    node with the highest neighbor-ability sum is elected, its ability
    drops to 0 and its neighbors lose 1/<k> ability (floored at 0),
    where <k> is the whole-graph mean degree. Election stops when the
    best remaining score is 0; unselected nodes share the next rank.

    With <k> = 2m/n every ability is a multiple of 1/(2m), so the loop
    runs on integer numerators: ties are exact and the elected order
    cannot depend on float summation order.
    """
    n = len(pg)
    if n == 0:
        return {}
    A = pg.csr.astype(np.int64)
    m2 = 2 * pg.n_edges()  # common ability denominator; one vote costs n units
    num = np.full(n, m2, dtype=np.int64)
    selectable = np.ones(n, dtype=bool)
    order: list[int] = []
    while selectable.any():
        scores = A @ num
        scores[~selectable] = -1
        best = int(np.argmax(scores))  # first max = smallest node id; ties exact
        if scores[best] <= 0:
            break
        order.append(best)
        selectable[best] = False
        num[best] = 0
        nbrs = A.indices[A.indptr[best]:A.indptr[best + 1]]
        num[nbrs] = np.maximum(0, num[nbrs] - n)
    ranks = {pg.nodes[i]: r + 1 for r, i in enumerate(order)}
    shared = len(order) + 1
    for v in pg.nodes:
        ranks.setdefault(v, shared)
    return ranks


# ---------------------------------------------------------------------------
# Frames and firm covariates
# ---------------------------------------------------------------------------

@dataclass
class CentralityFrame:
    """Per-node values of every measure at one (layer, snapshot year)."""

    snapshot_year: int
    layer: str
    measures: dict[str, dict[str, float]]

    def nodes(self) -> list[str]:
        if not self.measures:
            return []
        return sorted(next(iter(self.measures.values())))


def compute_frame(pg: ProjectedGraph, g: TemporalBipartiteGraph | None = None) -> CentralityFrame:
    """Compute every measure on a projection.

    ``core_number`` and ``n_investors`` are firm-layer-only;
    ``n_investors`` additionally needs the bipartite graph ``g``.
    """
    # Looked up when called, so a measure replaced on the module is the one used.
    fns = {
        "degree_centrality": degree_centrality,
        "average_neighbor_degree": average_neighbor_degree,
        "betweenness": betweenness,
        "newman_betweenness": newman_betweenness,
        "closeness_centrality": closeness,
        "harmonic_centrality": harmonic,
        "eigenvector_centrality": eigenvector,
        "pagerank": pagerank,
        "clustering": clustering,
        "voterank": voterank,
    }
    out: dict[str, dict[str, float]] = {name: fns[name](pg) for name in COMMON_MEASURES}
    if pg.layer == FIRM:
        out["core_number"] = core_number(pg)
        if g is not None:
            counts: dict[str, set] = {v: set() for v in pg.nodes}
            for d in g.snapshot_deals(pg.snapshot_year):
                if d.firm_id in counts:
                    counts[d.firm_id].add(d.investor_id)
            out["n_investors"] = {v: len(s) for v, s in counts.items()}
    return CentralityFrame(pg.snapshot_year, pg.layer, out)


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
    n_investors = firm_frame.measures["n_investors"]
    inv = [investor_frame.measures[m] for m in COMMON_MEASURES]
    rows: list[FirmCovariates] = []
    for firm in sorted(rounds):
        fr = rounds[firm]
        if fr.date.year != year:
            continue
        values: dict[str, float] = {
            "first_amount": float(fr.amount_total),
            "n_investors": float(n_investors[firm]),
        }
        for m in COMMON_MEASURES:
            values[f"{m}_org"] = float(firm_frame.measures[m].get(firm, 0.0))
        values["core_number_org"] = float(firm_frame.measures["core_number"].get(firm, 0.0))

        present = [i for i in sorted(fr.investors) if i in inv[0]]
        # One row per present investor, one column per measure; no investor gives zeros.
        vals = np.array([[measure[i] for measure in inv] for i in present], dtype=float)
        summaries = ((vals.max(axis=0), vals.min(axis=0), np.median(vals, axis=0)) if present
                     else (np.zeros(len(inv)),) * len(SUMMARIES))
        for s, summary in zip(SUMMARIES, summaries):
            values.update((f"{m}_{s}", float(x)) for m, x in zip(COMMON_MEASURES, summary))
        rows.append(FirmCovariates(firm, year, values, not present))
    return rows


# ---------------------------------------------------------------------------
# CSV round-trips for pipeline stages
# ---------------------------------------------------------------------------

_FRAME_COLUMNS = list(COMMON_MEASURES) + list(FIRM_ONLY_MEASURES)


def write_frames_csv(frames: list[CentralityFrame], path: str | Path) -> None:
    write_csv(path, ["year", "layer", "node"] + _FRAME_COLUMNS, (
        [frame.snapshot_year, frame.layer, node]
        + [float(frame.measures[m][node]) if m in frame.measures else None for m in _FRAME_COLUMNS]
        for frame in sorted(frames, key=lambda f: (f.snapshot_year, f.layer))
        for node in frame.nodes()))


def read_frames_csv(path: str | Path) -> dict[tuple[int, str], CentralityFrame]:
    header, rows = read_csv(path)
    measure_names = header[3:]
    frames: dict[tuple[int, str], CentralityFrame] = {}
    for row in rows:
        year, layer, node = int(row[0]), row[1], row[2]
        frame = frames.setdefault((year, layer), CentralityFrame(year, layer, {}))
        for m, raw in zip(measure_names, row[3:]):
            if raw != "":
                frame.measures.setdefault(m, {})[node] = float(raw)
    return frames


def write_covariates_csv(rows: list[FirmCovariates], path: str | Path) -> None:
    cols = covariate_columns()
    write_csv(path, ["firm_id", "first_year"] + cols + ["investor_measures_missing"], (
        [r.firm_id, r.first_year] + [float(r.values[c]) for c in cols]
        + [int(r.investor_measures_missing)]
        for r in sorted(rows, key=lambda r: r.firm_id)))


def read_covariates_csv(path: str | Path) -> list[FirmCovariates]:
    header, rows = read_csv(path)
    cols = header[2:-1]
    return [FirmCovariates(row[0], int(row[1]), {c: float(raw) for c, raw in zip(cols, row[2:-1])},
                           row[-1] == "1") for row in rows]
