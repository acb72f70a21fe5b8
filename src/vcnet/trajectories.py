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
quadrature weights, best of ``n_init`` seeded restarts. Distances are
computed on log(1+x)-scaled curves by default since funding spans
orders of magnitude; pass ``log_scale=False`` for raw currency units.
"""

from __future__ import annotations

import csv
import warnings as _warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, InvariantError
from .ingest import DealRecord, FirmMeta, UNKNOWN
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
        cumulative = tuple(int(x) for x in np.cumsum(values))
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


def _lloyd(X: np.ndarray, centroids: np.ndarray, w: np.ndarray,
           max_iter: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Lloyd iterations to an assignment fixed point; empty clusters are
    re-seeded at the point farthest from its current centroid."""
    k = centroids.shape[0]
    assign = np.full(X.shape[0], -1)
    prev_obj = np.inf
    for _ in range(max_iter):
        d2 = (((X[:, None, :] - centroids[None, :, :]) ** 2) * w).sum(axis=2)
        new_assign = d2.argmin(axis=1)
        obj = float(d2[np.arange(len(X)), new_assign].sum())
        if obj > prev_obj * (1 + 1e-12) + 1e-9:
            raise InvariantError("k-means objective increased across an iteration")
        prev_obj = obj
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        used = set()
        for j in range(k):
            mask = assign == j
            if mask.any():
                centroids[j] = X[mask].mean(axis=0)
            else:
                own = d2[np.arange(len(X)), assign].astype(float)
                if used:
                    own[list(used)] = -np.inf
                far = int(own.argmax())
                used.add(far)
                centroids[j] = X[far]
    return assign, centroids, prev_obj


def functional_kmeans(trajs: list[Trajectory], k: int = 2, n_init: int = 100,
                      seed: int = 0, log_scale: bool = True,
                      max_iter: int = 500) -> ClusterAssignment:
    """Cluster trajectories per subsector; best of ``n_init`` restarts.

    The cluster whose centroid has the largest terminal value is labeled
    HIGH, every other cluster LOW. Subsectors with fewer than k firms
    are assigned entirely to LOW with a warning. Restart seeds derive
    from ``seed`` and the (subsector, restart) labels, so results do not
    depend on scheduling order.
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

        best: tuple[float, int, np.ndarray, np.ndarray] | None = None
        for restart in range(n_init):
            rng = np.random.default_rng(derive_seed(seed, "kmeans", sub, restart))
            init_idx = np.sort(rng.choice(len(group), size=k, replace=False))
            assign, centroids, obj = _lloyd(X, X[init_idx].copy(), w, max_iter)
            if best is None or (obj, restart) < (best[0], best[1]):
                best = (obj, restart, assign, centroids)

        obj, _, assign, centroids = best
        terminal = centroids[:, -1]
        high_cluster = max(range(k), key=lambda j: (terminal[j], centroids[j].mean(), -j))
        labels = [HIGH if j == high_cluster else LOW for j in range(k)]
        for t, j in zip(group, assign):
            ca.regimes[t.firm_id] = labels[j]
        ca.centroids[sub] = centroids
        ca.cluster_regimes[sub] = labels
        ca.wcss[sub] = obj
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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["firm_id", "subsector", "first_year"] + [f"t{t}" for t in range(ts.window + 1)])
        for tr in sorted(ts.trajectories, key=lambda t: t.firm_id):
            writer.writerow([tr.firm_id, tr.subsector, str(tr.first_year)] + [str(v) for v in tr.values])


def read_trajectories_csv(path: str | Path) -> TrajectorySet:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        window = len(header) - 4
        trajs = [Trajectory(row[0], row[1], int(row[2]), tuple(int(v) for v in row[3:]))
                 for row in reader]
    return TrajectorySet(window, trajs)


def write_exclusions_csv(ts: TrajectorySet, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["firm_id", "reason"])
        for firm, reason in ts.exclusions:
            writer.writerow([firm, reason])


def write_assignments_csv(ca: ClusterAssignment, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["firm_id", "regime"])
        for firm in sorted(ca.regimes):
            writer.writerow([firm, ca.regimes[firm]])


def read_assignments_csv(path: str | Path) -> dict[str, str]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return {row[0]: row[1] for row in reader}


def write_centroids_csv(ca: ClusterAssignment, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["subsector", "cluster", "regime", "scale"]
                        + [f"t{t}" for t in range(ca.window + 1)])
        for sub in sorted(ca.centroids):
            for j, row in enumerate(ca.centroids[sub]):
                writer.writerow([sub, str(j), ca.cluster_regimes[sub][j], ca.scale]
                                + [repr(float(x)) for x in row])
