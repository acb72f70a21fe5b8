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
quadrature weights, best of ``n_init`` seeded restarts. The restarts of
a subsector run as one stacked Lloyd loop over a (restarts, k, T)
centroid stack, ``RESTART_BLOCK`` restarts at a time, and share their
paths (``_restart_stack``): an assignment without an empty cluster fixes
every later pass, so restarts that reach one at the same pass continue
as one, and a restart that reaches one on a converged path takes its
result if that comes within ``max_iter`` passes of its own. Each
restart's result stays exactly its own.
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
from .ingest import UNKNOWN, DealRecord, FirmMeta, read_csv, write_csv
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
    warnings: list[str] = field(default_factory=list)


def _quad_weights(n_grid: int) -> np.ndarray:
    w = np.ones(n_grid)
    w[0] = w[-1] = 0.5
    return w


#: Restarts run together as one (block, k, T) centroid stack, which bounds the
#: Lloyd loop's work memory to O(block * n * k * T) whatever ``n_init``. 128
#: keeps every restart of a subsector in one stack at the default
#: ``kmeans_inits`` (100), so same-pass merges can reach all of them.
RESTART_BLOCK = 128


def _check_objective(new, old) -> None:
    if (new > old * (1 + 1e-12) + 1e-9).any():  # arrays or numpy scalars
        raise InvariantError("k-means objective increased across an iteration")


def _record(joins: dict, path: list, stop: int, final: tuple) -> None:
    """Enter each [assignment, pass, next objective] of a path that converged at ``stop``."""
    for key, reached, next_obj in path:
        joins.setdefault(key, (stop - reached, next_obj, final))


def _lloyd_stack(X: np.ndarray, centroids: np.ndarray, d2: np.ndarray, w: np.ndarray,
                 max_iter: int, joins: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lloyd passes of a (B, k, T) centroid stack, sharing paths as ``_restart_stack`` says.

    ``d2`` (B, n, k) holds the first pass's weighted squared distances;
    ``joins`` is the subsector's table of converged paths.

    Each restart iterates to an assignment fixed point or for ``max_iter``
    passes; an empty cluster is re-seeded at the point farthest from its
    current centroid. Distances reduce over the grid axis and a centroid is
    the sum of its curves in row order over their count, so a restart's
    passes do not depend on the others in its stack. Returns assignments
    (B, n), centroids (B, k, T) and objectives (B,).
    """
    n_restarts, k, n_grid = centroids.shape
    n = len(X)
    assign = np.full((n_restarts, n), -1)
    obj = np.full(n_restarts, np.inf)
    leader = np.arange(n_restarts)  # the restart each one continues as
    paths = [[] for _ in range(n_restarts)]  # each restart's [assignment, pass, next objective]
    seen = {}  # assignment -> (restart, path entry) reached at the previous pass
    active = np.arange(n_restarts)  # the restarts still iterating
    # (((X - C) ** 2) * w).sum(axis=-1) is formed in place in one buffer; curves
    # and weights repeated per cluster let each product run over whole rows
    X_k = np.repeat(X[:, None, :], k, axis=1)
    w_k = np.broadcast_to(w, X_k.shape).copy()
    buffer = np.empty((n_restarts, n, k, n_grid))
    for p in range(max_iter):
        if p:
            work = buffer[:len(active)]
            np.subtract(X_k, centroids[active, None, :, :], out=work)
            np.square(work, out=work)
            work *= w_k
            d2 = work.sum(axis=-1)
        new_assign = d2.argmin(axis=2)
        own = np.take_along_axis(d2, new_assign[..., None], axis=2)[..., 0]
        new_obj = own.sum(axis=1)
        _check_objective(new_obj, obj[active])
        obj[active] = new_obj
        for b, entry in seen.values():
            entry[2] = obj[b]
        moved = (new_assign != assign[active]).any(axis=1)
        for b in active[~moved]:
            _record(joins, paths[b], p, (assign[b].copy(), centroids[b].copy(), obj[b]))
        active, new_assign, own = active[moved], new_assign[moved], own[moved]
        assign[active] = new_assign
        counts = (new_assign[..., None] == np.arange(k)).sum(axis=1)
        seen = {}
        if p + 1 < max_iter:
            going = np.ones(len(active), dtype=bool)
            for i in np.flatnonzero(counts.all(axis=1)):
                b, key = int(active[i]), new_assign[i].tobytes()
                hit = joins.get(key)
                if hit is not None and p + hit[0] < max_iter:
                    lag, next_obj, final = hit
                    _check_objective(next_obj, obj[b])
                    assign[b], centroids[b], obj[b] = final
                    _record(joins, paths[b], p + lag, final)
                elif key in seen:
                    first = seen[key][0]
                    leader[b] = first
                    obj[first] = min(obj[first], obj[b])
                    paths[first] += paths[b]
                else:
                    seen[key] = b, [key, p, np.nan]
                    paths[b].append(seen[key][1])
                    continue
                going[i] = False
            active, new_assign, own, counts = (a[going] for a in (active, new_assign, own, counts))
        if not active.size:
            break
        n_active = len(active)
        cells = new_assign + k * np.arange(n_active)[:, None]  # each curve's (restart, cluster)
        # bincount adds each cell's curves in row order starting from zero, so a
        # centroid is bit-identical to X[mask].mean(axis=0) of its restart alone
        sums = np.bincount((cells[..., None] * n_grid + np.arange(n_grid)).ravel(),
                           np.broadcast_to(X, (n_active, n, n_grid)).ravel(),
                           n_active * k * n_grid).reshape(n_active, k, n_grid)
        with np.errstate(invalid="ignore"):
            update = sums / counts[..., None]
        for b in np.flatnonzero((counts == 0).any(axis=1)):
            dist, used = own[b], []
            for j in np.flatnonzero(counts[b] == 0):
                dist[used] = -np.inf
                used.append(int(dist.argmax()))
                update[b, j] = X[used[-1]]
        centroids[active] = update
    while (leader[leader] != leader).any():  # merged restarts take their leader's result
        leader = leader[leader]
    return assign[leader], centroids[leader], obj[leader]


def _restart_stack(X: np.ndarray, centroids: np.ndarray, w: np.ndarray,
                   max_iter: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lloyd iterations of every restart of a (R, k, T) initial-centroid stack.

    Restarts run ``RESTART_BLOCK`` at a time and share paths by two rules,
    each decided at the pass where it applies; both rest on an assignment
    without an empty cluster fixing every later pass.

    * Same-pass merge: restarts of a block that reach one at the same pass,
      not the last, continue as the first of them, whose next objective is
      checked against the least of theirs.
    * Converged-path join: a restart that converges at pass ``q`` records
      each one it reached at pass ``r`` with ``q - r``, the objective of
      pass ``r + 1`` and its result, in a table shared by the blocks. A
      restart that reaches a recorded one at pass ``p``, not the last, with
      ``p + q - r < max_iter`` checks that objective against its own, takes
      the result and records its own path; otherwise it continues.

    So each restart ends exactly where ``max_iter`` passes alone would take it.
    Returns assignments (R, n), centroids (R, k, T) and objectives (R,).
    """
    n_restarts, k, n_grid = centroids.shape
    # the first pass's distances, once per distinct initial centroid
    rows, of_row = np.unique(centroids.reshape(-1, n_grid), axis=0, return_inverse=True)
    d2 = (((X[:, None, :] - rows) ** 2) * w).sum(axis=-1)
    of_row = of_row.reshape(n_restarts, k)
    joins: dict = {}
    blocks = [_lloyd_stack(X, centroids[start:start + RESTART_BLOCK].copy(),
                           d2[:, of_row[start:start + RESTART_BLOCK]].transpose(1, 0, 2),
                           w, max_iter, joins)
              for start in range(0, n_restarts, RESTART_BLOCK)]
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


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
    are assigned entirely to LOW with a warning. Restart seeds derive
    from ``seed`` and the (subsector, restart) labels, so results do not
    depend on scheduling order. Restarts run ``RESTART_BLOCK`` at a time
    as one stacked Lloyd loop, merging and joining paths as
    ``_restart_stack`` says; the best is the lowest objective, the lowest
    restart among ties.
    """
    if k < 1 or n_init < 1:
        raise ConfigError("k and n_init must both be >= 1")
    if not trajs:
        return ClusterAssignment(0, "log1p" if log_scale else "raw", {}, {}, {}, {})
    window = len(trajs[0].values) - 1
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
            msg = f"subsector {sub!r} has {len(group)} firms (< k={k}); all assigned LOW"
            _warnings.warn(msg)
            ca.warnings.append(msg)
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

def write_trajectories_csv(ts: TrajectorySet, path: str | Path) -> None:
    write_csv(path, ["firm_id", "subsector", "first_year"] + [f"t{t}" for t in range(ts.window + 1)],
              ([tr.firm_id, tr.subsector, tr.first_year, *tr.values]
               for tr in sorted(ts.trajectories, key=lambda t: t.firm_id)))


def read_trajectories_csv(path: str | Path) -> TrajectorySet:
    header, rows = read_csv(path)
    return TrajectorySet(len(header) - 4, [
        Trajectory(row[0], row[1], int(row[2]), tuple(int(v) for v in row[3:])) for row in rows])


def write_exclusions_csv(ts: TrajectorySet, path: str | Path) -> None:
    write_csv(path, ["firm_id", "reason"], ts.exclusions)


def write_assignments_csv(ca: ClusterAssignment, path: str | Path) -> None:
    write_csv(path, ["firm_id", "regime"], sorted(ca.regimes.items()))


def read_assignments_csv(path: str | Path) -> dict[str, str]:
    return {row[0]: row[1] for row in read_csv(path)[1]}


def write_centroids_csv(ca: ClusterAssignment, path: str | Path) -> None:
    write_csv(path, ["subsector", "cluster", "regime", "scale"] + [f"t{t}" for t in range(ca.window + 1)],
              ([sub, j, ca.cluster_regimes[sub][j], ca.scale, *row]
               for sub in sorted(ca.centroids) for j, row in enumerate(ca.centroids[sub].tolist())))
