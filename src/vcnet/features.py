"""Covariate preprocessing, correlation dendrogram, and model configurations.

Right-skewed columns (sample skewness above a threshold, default 1.0)
are mapped through log(1+x) before z-scoring; the applied transform and
the standardization constants are recorded per column so fits stay
reproducible. Columns are then clustered by the distance
``1 - |pearson correlation|`` under complete linkage; cutting the tree
into k groups (default 7) yields the per-group candidate sets whose
Cartesian product defines the model configurations, held as one integer
array of column positions.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .centrality import FirmCovariates
from .errors import ConfigError, SchemaError
from .ingest import read_records, write_csv


@dataclass
class FeatureMatrix:
    """Named covariate matrix plus the per-column processing ledger."""

    row_ids: list[str]
    columns: list[str]
    data: np.ndarray  # shape (n_rows, n_columns)
    transforms: dict[str, str] = field(default_factory=dict)        # column -> none | log1p
    standardization: dict[str, tuple[float, float]] = field(default_factory=dict)  # column -> (mean, sd)
    dropped: list[tuple[str, str]] = field(default_factory=list)    # (column, reason)

    def select(self, names: list[str] | tuple[str, ...]) -> np.ndarray:
        idx = [self.columns.index(n) for n in names]
        return self.data[:, idx]

    def take_rows(self, row_ids: list[str]) -> "FeatureMatrix":
        pos = {r: i for i, r in enumerate(self.row_ids)}
        idx = [pos[r] for r in row_ids]
        return replace(self, row_ids=list(row_ids), data=self.data[idx])


def matrix_from_covariates(rows: list[FirmCovariates], columns: list[str]) -> FeatureMatrix:
    """Stack covariate rows (sorted by firm id) into a raw FeatureMatrix."""
    ordered = sorted(rows, key=lambda r: r.firm_id)
    data = np.array([[r.values[c] for c in columns] for r in ordered], dtype=float)
    return FeatureMatrix([r.firm_id for r in ordered], list(columns), data)


def sample_skewness(x: np.ndarray) -> float:
    """Standardized third central moment (biased estimator)."""
    x = np.asarray(x, dtype=float)
    centered = x - x.mean()
    m2 = float((centered ** 2).mean())
    if m2 == 0.0:
        return 0.0
    m3 = float((centered ** 3).mean())
    return m3 / m2 ** 1.5


def preprocess(raw: FeatureMatrix, skew_threshold: float = 1.0) -> FeatureMatrix:
    """Log right-skewed columns, then z-score everything.

    Columns with zero variance are dropped with a warning. Columns with
    negative entries are never log-transformed. The output satisfies
    mean 0 and sample sd 1 (ddof=1) per surviving column.
    """
    kept_cols: list[str] = []
    kept_data: list[np.ndarray] = []
    out = FeatureMatrix(list(raw.row_ids), [], np.empty((len(raw.row_ids), 0)))
    for j, col in enumerate(raw.columns):
        x = raw.data[:, j].astype(float)
        if np.ptp(x) == 0.0 or len(x) < 2:
            out.dropped.append((col, "zero variance"))
            warnings.warn(f"covariate {col!r} has zero variance; dropped")
            continue
        transform = "none"
        if sample_skewness(x) > skew_threshold and x.min() >= 0.0:
            x = np.log1p(x)
            transform = "log1p"
            if np.ptp(x) == 0.0:
                out.dropped.append((col, "zero variance after log"))
                warnings.warn(f"covariate {col!r} has zero variance; dropped")
                continue
        mean = float(x.mean())
        sd = float(x.std(ddof=1))
        out.transforms[col] = transform
        out.standardization[col] = (mean, sd)
        kept_cols.append(col)
        kept_data.append((x - mean) / sd)
    out.columns = kept_cols
    out.data = np.column_stack(kept_data) if kept_data else np.empty((len(raw.row_ids), 0))
    return out


# ---------------------------------------------------------------------------
# Complete-linkage clustering on 1 - |corr|
# ---------------------------------------------------------------------------

@dataclass
class FeatureGrouping:
    """Merge tree over covariates, optionally cut into numbered groups."""

    leaves: list[str]
    merges: list[tuple[int, int, int, float]]  # (step, left, right, height); leaf i < p, internal p+step
    groups: dict[str, int] = field(default_factory=dict)  # covariate -> 1..k


def correlation_dendrogram(fm: FeatureMatrix) -> FeatureGrouping:
    """Agglomerate covariates under complete linkage on 1 - |pearson|.

    ``M[a, b]`` holds the largest distance from a member of cluster a to
    one of cluster b, in both orientations, since ``np.corrcoef`` need
    not be exactly symmetric; a merged cluster's row and column are the
    elementwise max of its children's (Lance & Williams 1967). Each step
    merges the active pair a < b of least ``M[a, b]``; ties break on the
    lexicographically smallest leaf names of the two clusters. Raises
    ``ConfigError`` when a correlation is undefined.
    """
    p = len(fm.columns)
    if p == 0:
        return FeatureGrouping([], [])
    dist = 1.0 - np.abs(np.corrcoef(fm.data, rowvar=False).reshape(p, p))
    np.fill_diagonal(dist, 0.0)
    if np.isnan(dist).any():
        raise ConfigError("covariate correlations are undefined (a constant or non-finite column)")
    n = 2 * p - 1
    M = np.full((n, n), np.inf)  # inactive clusters stay at inf
    M[:p, :p] = np.clip(dist, 0.0, None)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    rep = list(fm.columns)  # each cluster's smallest leaf name
    merges: list[tuple[int, int, int, float]] = []
    for step in range(p - 1):
        linkage = np.where(upper, M, np.inf)
        d = linkage.min()
        a, b = min(zip(*np.nonzero(linkage == d)), key=lambda ab: sorted((rep[ab[0]], rep[ab[1]])))
        left, right = (int(a), int(b)) if rep[a] <= rep[b] else (int(b), int(a))
        new = p + step
        M[new] = np.maximum(M[a], M[b])
        M[:, new] = np.maximum(M[:, a], M[:, b])
        M[[a, b]] = M[:, [a, b]] = np.inf
        rep.append(min(rep[a], rep[b]))
        merges.append((step, left, right, float(d)))
    return FeatureGrouping(list(fm.columns), merges)


def _cut(fg: FeatureGrouping, k: int) -> list[list[str]]:
    """The k groups of the cut, in leaf order, each listing its leaves in leaf order.

    A merged cluster lists its left child's leaves, then its right
    child's. Each node of the replay holds its groups: the first p - k
    merges fuse two groups into one, and the rest only place them side
    by side.
    """
    p = len(fg.leaves)
    nodes = {i: [[leaf]] for i, leaf in enumerate(fg.leaves)}
    for step, left, right, _ in fg.merges:
        a, b = nodes.pop(left), nodes.pop(right)
        nodes[p + step] = [a[0] + b[0]] if step < p - k else a + b
    return [group for groups in nodes.values() for group in groups]


def leaf_order(fg: FeatureGrouping) -> list[str]:
    """Dendrogram leaf order: every left subtree's leaves before its right sibling's."""
    return [leaf for group in _cut(fg, len(fg.leaves)) for leaf in group]


def cut_groups(fg: FeatureGrouping, k: int) -> FeatureGrouping:
    """Cut the tree into exactly k groups, numbered in leaf order."""
    p = len(fg.leaves)
    if k > p or k < 1:
        raise ConfigError(f"cannot cut {p} covariates into {k} groups")
    group_of = {leaf: g for g, group in enumerate(_cut(fg, k), start=1) for leaf in group}
    return FeatureGrouping(list(fg.leaves), list(fg.merges),
                           {leaf: group_of[leaf] for leaf in fg.leaves})


def group_members(fg: FeatureGrouping) -> dict[int, list[str]]:
    """Members of each group, in dendrogram leaf order."""
    if not fg.groups:
        raise ConfigError("grouping has not been cut into groups yet")
    out: dict[int, list[str]] = {}
    for leaf in leaf_order(fg):
        out.setdefault(fg.groups[leaf], []).append(leaf)
    return dict(sorted(out.items()))


def enumerate_configs(fg: FeatureGrouping) -> np.ndarray:
    """All configurations with exactly one covariate per group, as an (N, g) array.

    Row i holds configuration i's covariates as positions in ``fg.leaves``
    (the columns of the matrix the grouping was built from), one per
    group in group order; ``int16`` keeps the array small, since it
    grows with the product of the group sizes. Rows run in
    ``itertools.product`` order over each group's members in leaf order:
    the last group varies fastest.
    """
    pos = {leaf: i for i, leaf in enumerate(fg.leaves)}
    members = [np.array([pos[c] for c in group], dtype=np.int16)
               for group in group_members(fg).values()]
    picks = np.indices([len(m) for m in members], dtype=np.int16).reshape(len(members), -1)
    return np.stack([m[p] for m, p in zip(members, picks)], axis=1)


# ---------------------------------------------------------------------------
# Stage artifacts
# ---------------------------------------------------------------------------

GROUPS_HEADER = ["covariate", "group"]
DENDROGRAM_HEADER = ["step", "left", "right", "height"]


def features_header(columns: list[str]) -> list[str]:
    """The header of ``features.csv`` over the covariate ``columns``."""
    return ["firm_id", *columns]


def write_grouping_csv(fg: FeatureGrouping, path: str | Path) -> None:
    write_csv(path, GROUPS_HEADER, ([col, fg.groups[col]] for col in fg.leaves))


def write_dendrogram_csv(fg: FeatureGrouping, path: str | Path) -> None:
    write_csv(path, DENDROGRAM_HEADER, fg.merges)


def write_feature_matrix_csv(fm: FeatureMatrix, path: str | Path) -> None:
    write_csv(path, features_header(fm.columns),
              ([rid] + row for rid, row in zip(fm.row_ids, fm.data.tolist())))


def read_feature_matrix_csv(path: str | Path) -> FeatureMatrix:
    header, rows = read_records(path, lambda header: features_header(header[1:]),
                                lambda row: (row[0], [float(x) for x in row[1:]]))
    records = [record for _, record in rows]
    data = np.array([values for _, values in records], dtype=float)
    return FeatureMatrix([rid for rid, _ in records], header[1:],
                         data.reshape(len(records), len(header) - 1))


def write_transforms_csv(fm: FeatureMatrix, path: str | Path) -> None:
    write_csv(path, ["covariate", "transform", "mean", "sd"],
              [[col, fm.transforms[col], *fm.standardization[col]] for col in fm.columns]
              + [[col, f"dropped: {reason}", None, None] for col, reason in fm.dropped])


def read_grouping(dendrogram_path: str | Path, groups_path: str | Path) -> FeatureGrouping:
    """The cut grouping, rebuilt from ``dendrogram.csv`` and ``groups.csv``.

    The merges are replayed over the covariates of ``groups.csv``, in
    its row order, and cut into as many groups as it numbers. Raises
    ``SchemaError`` naming both files when the files cannot be read as a
    grouping (with the line of a row that cannot be read) or the cut
    does not reproduce the groups of ``groups.csv``.
    """
    mismatch = f"{groups_path}: the groups are not the cut of the merges in {dendrogram_path}"
    try:
        groups = dict(record for _, record in
                      read_records(groups_path, GROUPS_HEADER,
                                   lambda row: (row[0], int(row[1])))[1])
        merges = [merge for _, merge in read_records(dendrogram_path, DENDROGRAM_HEADER,
                                                     lambda row: (int(row[0]), int(row[1]),
                                                                  int(row[2]), float(row[3])))[1]]
        fg = cut_groups(FeatureGrouping(list(groups), merges), len(set(groups.values())))
    except SchemaError as exc:
        raise SchemaError(f"{exc} (the grouping of {groups_path} and {dendrogram_path})") from exc
    except (IndexError, KeyError, ConfigError) as exc:
        raise SchemaError(mismatch) from exc
    if fg.groups != groups:
        raise SchemaError(mismatch)
    return fg


def read_configs(dendrogram_path: str | Path,
                 groups_path: str | Path) -> tuple[FeatureGrouping, np.ndarray]:
    """``read_grouping`` of the two files and the ``enumerate_configs`` of its cut."""
    fg = read_grouping(dendrogram_path, groups_path)
    return fg, enumerate_configs(fg)
