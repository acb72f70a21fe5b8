"""Aligned cumulative funding trajectories and their two-regime clustering.

A firm's trajectory lives on a yearly grid 0..W starting at the
calendar year of its first investment; the value at grid year t is the
cumulative amount of all deals dated within t whole calendar years of
that first year, so trajectories are monotonically non-decreasing by
construction. Firms are retained only if they have at least two deal
events inside the window, a known subsector, and a first investment
early enough for the full window to fit in the data range.

Clustering runs separately per subsector with a Lloyd-style functional
k-means: squared L2 distance between curves under trapezoidal
quadrature weights, best of ``n_init`` seeded restarts. A Lloyd pass
depends only on the centroids it starts from and the assignment before
it, so the restarts of a subsector number these states as they first
reach them (``_restart_stack``): each state is iterated once, in stacks
of up to ``RESTART_BLOCK``, and each restart walks the numbers with its
own objective check, so its result stays exactly its own.
Distances are computed on log(1+x)-scaled curves by default since
funding spans orders of magnitude; pass ``log_scale=False`` for raw
currency units.
"""

from __future__ import annotations

import functools
import itertools
import warnings as _warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, InvariantError
from .ingest import UNKNOWN, DealRecord, FirmMeta, read_records, write_csv
from .seeding import derive_seed

HIGH = "HIGH"
LOW = "LOW"


@dataclass(frozen=True)
class Trajectory:
    firm_id: str
    subsector: str
    first_year: int
    values: tuple[int, ...]  # cumulative funding at grid years 0..W


@dataclass
class TrajectorySet:
    window: int
    trajectories: list[Trajectory]
    exclusions: list[tuple[str, str]] = field(default_factory=list)  # (firm_id, reason)


def build_trajectories(deals: list[DealRecord], meta: dict[str, FirmMeta], window: int,
                       data_end_year: int | None = None) -> TrajectorySet:
    """Construct aligned cumulative trajectories on the 0..W yearly grid.

    ``data_end_year`` defaults to the latest deal year; firms whose
    window extends past it are excluded (with all other filtered firms)
    into the exclusions report.
    """
    if window < 1:
        raise ConfigError(f"window must be >= 1, got {window}")
    result = TrajectorySet(window, [])
    if not deals:
        return result
    data_end = data_end_year if data_end_year is not None else max(d.date.year for d in deals)

    by_firm: dict[str, list[DealRecord]] = {}
    for d in deals:
        by_firm.setdefault(d.firm_id, []).append(d)

    for firm in sorted(by_firm):
        records = by_firm[firm]
        first_year = min(d.date.year for d in records)
        inside = [d for d in records if d.date.year - first_year <= window]
        if len(inside) < 2:
            result.exclusions.append((firm, "fewer than two investments"))
            continue
        subsector = meta[firm].subsector if firm in meta else UNKNOWN
        if subsector == UNKNOWN:
            result.exclusions.append((firm, "unknown subsector"))
            continue
        if first_year + window > data_end:
            result.exclusions.append((firm, "window exceeds data range"))
            continue
        values = [0] * (window + 1)
        for d in inside:
            values[d.date.year - first_year] += d.amount
        cumulative = tuple(itertools.accumulate(values))
        if cumulative[0] == 0:
            result.exclusions.append((firm, "no funding in first calendar year"))
            continue
        result.trajectories.append(Trajectory(firm, subsector, first_year, cumulative))
    return result


# ---------------------------------------------------------------------------
# Functional k-means
# ---------------------------------------------------------------------------

@dataclass
class ClusterAssignment:
    window: int
    scale: str  # log1p | raw
    regimes: dict[str, str]                      # firm_id -> HIGH | LOW
    centroids: dict[str, np.ndarray]             # subsector -> (k, W+1), clustering scale
    cluster_regimes: dict[str, list[str]]        # subsector -> regime of each cluster
    wcss: dict[str, float]                       # subsector -> within-cluster sum of squares


def _quad_weights(n_grid: int) -> np.ndarray:
    w = np.ones(n_grid)
    w[0] = w[-1] = 0.5
    return w


#: Lloyd states are iterated at most this many to a stack, in one
#: (block, n, k, T) distance buffer, which bounds its work memory whatever
#: ``n_init``; the numbered states grow with the distinct states times n.
#: 128 iterates every initial state of a subsector in one stack at the
#: default ``kmeans_inits`` (100).
RESTART_BLOCK = 128


def _means(X: np.ndarray, assigns: np.ndarray, k: int) -> np.ndarray:
    """Each cluster's mean curve under each of an (m, n) stack of assignments, (m, k, T).

    bincount adds each cell's curves in row order starting from zero, so a
    mean is bit-identical to ``X[assign == j].mean(axis=0)``; an empty
    cluster's is nan.
    """
    m, n = assigns.shape
    n_grid = X.shape[1]
    cells = assigns + k * np.arange(m)[:, None]  # each curve's (assignment, cluster)
    sums = np.bincount((cells[..., None] * n_grid + np.arange(n_grid)).ravel(),
                       np.broadcast_to(X, (m, n, n_grid)).ravel(), m * k * n_grid)
    counts = np.bincount(cells.ravel(), minlength=m * k)
    with np.errstate(invalid="ignore"):
        return sums.reshape(m, k, n_grid) / counts.reshape(m, k, 1)


def _restart_stack(X: np.ndarray, centroids: np.ndarray, w: np.ndarray,
                   max_iter: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lloyd iterations of every restart of a (R, k, T) initial-centroid stack.

    Each restart iterates to an assignment fixed point or for ``max_iter``
    passes; an empty cluster is re-seeded at the point farthest from its
    current centroid. A pass depends only on its state: the centroids it
    starts from and the assignment before it. States are numbered as the
    restarts first reach them, and each is iterated once, ``RESTART_BLOCK``
    to a stack; a pass also computes the state's next centroids (the means
    of its assignment, re-seeded where a cluster is empty), so a state
    reached through means is in effect keyed by its assignment. Each
    restart walks the numbers from its initial state, and each objective
    is checked against that restart's own previous one. Distances reduce
    over the grid axis and means come from ``_means``, so each restart's
    result is exactly its own Lloyd loop's. Returns assignments (R, n),
    centroids (R, k, T) and objectives (R,).
    """
    n_restarts, k, n_grid = centroids.shape
    n = len(X)
    number: dict = {}  # state key -> state number
    given, before = [], []  # each state's centroids and the assignment before it
    assign_of, obj_of, next_of = [], [], []  # each iterated state's pass; a fixed point is its own next
    # (((X - C) ** 2) * w).sum(axis=-1) is formed in place in one buffer; curves
    # and weights repeated per cluster let each product run over whole rows
    X_k = np.repeat(X[:, None, :], k, axis=1)
    w_k = np.broadcast_to(w, X_k.shape).copy()
    buffer = np.empty((min(RESTART_BLOCK, n_restarts), n, k, n_grid))

    def reach(C: np.ndarray, prev: np.ndarray) -> int:
        s = number.setdefault(C.tobytes() + prev.tobytes(), len(given))
        if s == len(given):
            given.append(C)
            before.append(prev)
        return s

    def iterate(states: range) -> None:
        prev = np.stack([before[s] for s in states])
        work = buffer[:len(states)]
        np.subtract(X_k, np.stack([given[s] for s in states])[:, None, :, :], out=work)
        np.square(work, out=work)
        work *= w_k
        d2 = work.sum(axis=-1)
        assign = d2.argmin(axis=2)
        own = np.take_along_axis(d2, assign[..., None], axis=2)[..., 0]
        obj_of.extend(own.sum(axis=1).tolist())  # before re-seeding overwrites own
        moved = (assign != prev).any(axis=1)
        nxt = np.empty((len(states), k, n_grid))
        nxt[moved] = _means(X, assign[moved], k)
        empty = moved[:, None] & ~(assign[..., None] == np.arange(k)).any(axis=1)
        for i in np.flatnonzero(empty.any(axis=1)):
            dist, used = own[i], []
            for j in np.flatnonzero(empty[i]):
                dist[used] = -np.inf
                used.append(int(dist.argmax()))
                nxt[i, j] = X[used[-1]]
        assign_of.extend(assign)
        next_of.extend(reach(C, a) if go else s
                       for s, C, a, go in zip(states, nxt, assign, moved.tolist()))

    none = np.full(n, -1)  # the assignment before the first pass
    at = np.array([reach(C, none) for C in centroids])
    live, last = np.arange(n_restarts), np.full(n_restarts, np.inf)
    for passes in range(1, max_iter + 1):
        while len(assign_of) < len(given):  # the states first reached last pass
            iterate(range(len(assign_of), min(len(given), len(assign_of) + RESTART_BLOCK)))
        here = at[live]
        obj, nxt = np.array(obj_of)[here], np.array(next_of)[here]
        if (obj > last[live] * (1 + 1e-12) + 1e-9).any():
            raise InvariantError("k-means objective increased across an iteration")
        last[live] = obj
        go = nxt != here
        if passes == max_iter or not go.any():
            break
        live = live[go]
        at[live] = nxt[go]
    return (np.stack([assign_of[s] for s in at.tolist()]),
            np.stack([given[next_of[s]] for s in at.tolist()]), last)


@functools.lru_cache(maxsize=256)
def _init_rows(seed: int, sub: str, n: int, k: int, n_init: int) -> np.ndarray:
    """Each restart's k initial-centroid rows, sorted, drawn from its own seed.

    Cached, read-only: the window sweep clusters subsectors of the same
    size again, and the draws depend on nothing else.
    """
    idx = np.array([np.random.default_rng(derive_seed(seed, "kmeans", sub, restart))
                    .choice(n, size=k, replace=False) for restart in range(n_init)])
    idx.sort(axis=1)
    idx.flags.writeable = False
    return idx


def functional_kmeans(trajs: list[Trajectory], k: int = 2, n_init: int = 100,
                      seed: int = 0, log_scale: bool = True,
                      max_iter: int = 500) -> ClusterAssignment:
    """Cluster trajectories per subsector; best of ``n_init`` restarts.

    The cluster whose centroid has the largest terminal value is labeled
    HIGH, every other cluster LOW. Subsectors with fewer than k firms
    are assigned entirely to LOW, each with a ``warnings.warn``.
    Restart seeds derive from ``seed`` and the (subsector, restart)
    labels, so results do not depend on scheduling order. The restarts
    share their Lloyd passes as ``_restart_stack`` says; the best is the
    lowest objective, the lowest restart among ties.
    """
    if k < 1 or n_init < 1 or max_iter < 1:
        raise ConfigError(f"k, n_init and max_iter must all be >= 1, got {k}, {n_init}, {max_iter}")
    window = len(trajs[0].values) - 1 if trajs else 0
    w = _quad_weights(window + 1)
    ca = ClusterAssignment(window, "log1p" if log_scale else "raw", {}, {}, {}, {})

    by_sub: dict[str, list[Trajectory]] = {}
    for t in trajs:
        by_sub.setdefault(t.subsector, []).append(t)

    for sub in sorted(by_sub):
        group = sorted(by_sub[sub], key=lambda t: t.firm_id)
        X = np.array([t.values for t in group], dtype=float)
        if log_scale:
            X = np.log1p(X)
        if len(group) < k:
            _warnings.warn(f"subsector {sub!r} has {len(group)} firms (< k={k}); all assigned LOW")
            for t in group:
                ca.regimes[t.firm_id] = LOW
            continue

        inits = X[_init_rows(seed, sub, len(group), k, n_init)]
        assigns, centroid_stack, objs = _restart_stack(X, inits, w, max_iter)
        best = int(objs.argmin())
        assign, centroids = assigns[best], centroid_stack[best].copy()
        terminal = centroids[:, -1]
        high_cluster = max(range(k), key=lambda j: (terminal[j], centroids[j].mean(), -j))
        labels = [HIGH if j == high_cluster else LOW for j in range(k)]
        for t, j in zip(group, assign):
            ca.regimes[t.firm_id] = labels[j]
        ca.centroids[sub] = centroids
        ca.cluster_regimes[sub] = labels
        ca.wcss[sub] = float(objs[best])
    return ca


def regime_rates(ca: ClusterAssignment) -> tuple[int, int, float]:
    """Counts of HIGH/LOW firms over all subsectors and the HIGH share."""
    n_high = sum(1 for r in ca.regimes.values() if r == HIGH)
    n_low = len(ca.regimes) - n_high
    total = n_high + n_low
    return n_high, n_low, (n_high / total if total else 0.0)


# ---------------------------------------------------------------------------
# Stage artifacts
# ---------------------------------------------------------------------------

ASSIGNMENTS_HEADER = ["firm_id", "regime"]


def trajectories_header(window: int) -> list[str]:
    """The header of ``trajectories.csv`` for a ``window``-year grid, t0 to t``window``."""
    return ["firm_id", "subsector", "first_year", *(f"t{t}" for t in range(window + 1))]


def write_trajectories_csv(ts: TrajectorySet, path: str | Path) -> None:
    write_csv(path, trajectories_header(ts.window),
              ([tr.firm_id, tr.subsector, tr.first_year, *tr.values]
               for tr in sorted(ts.trajectories, key=lambda t: t.firm_id)))


def read_trajectories_csv(path: str | Path) -> TrajectorySet:
    """The trajectories of ``trajectories.csv``, over a grid t0 to tW with W >= 1."""
    header, rows = read_records(path, lambda header: trajectories_header(max(len(header) - 4, 1)),
                                lambda row: Trajectory(row[0], row[1], int(row[2]),
                                                       tuple(int(v) for v in row[3:])))
    return TrajectorySet(len(header) - 4, [t for _, t in rows])


def write_exclusions_csv(ts: TrajectorySet, path: str | Path) -> None:
    write_csv(path, ["firm_id", "reason"], ts.exclusions)


def write_assignments_csv(ca: ClusterAssignment, path: str | Path) -> None:
    write_csv(path, ASSIGNMENTS_HEADER, sorted(ca.regimes.items()))


def _assignment(row: list[str]) -> tuple[str, str]:
    if row[1] not in (HIGH, LOW):
        raise ValueError(f"regime must be {HIGH} or {LOW}, got {row[1]!r}")
    return row[0], row[1]


def read_assignments_csv(path: str | Path) -> dict[str, str]:
    return dict(record for _, record in read_records(path, ASSIGNMENTS_HEADER, _assignment)[1])


def write_centroids_csv(ca: ClusterAssignment, path: str | Path) -> None:
    write_csv(path, ["subsector", "cluster", "regime", "scale"] + [f"t{t}" for t in range(ca.window + 1)],
              ([sub, j, ca.cluster_regimes[sub][j], ca.scale, *row]
               for sub in sorted(ca.centroids) for j, row in enumerate(ca.centroids[sub].tolist())))
