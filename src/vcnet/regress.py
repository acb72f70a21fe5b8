"""Success regressions: logistic, linear, and function-on-scalar fits.

The logistic model is fit by iteratively reweighted least squares with
Wald standard errors from the inverse observed information; the linear
model by a QR decomposition with classical standard errors; the
function-on-scalar model by independent pointwise OLS at each grid year
(with log(1+x) responses), so its coefficient at year t coincides
exactly with the scalar fit on that cross-section.

Model selection fits one covariate per dendrogram group for every
configuration and ranks logistic fits by log-likelihood and linear fits
by R^2. Two stability sweeps rerun the chosen configuration over window
sizes and rerun every configuration at a fixed window to trace how
coefficients move with the specification.
"""

from __future__ import annotations

import csv
import math
import warnings as _warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.stats
from scipy.special import expit

from .errors import ConfigError, RankDeficientError, VcnetError
from .features import FeatureMatrix
from .ingest import FirmMeta
from .seeding import derive_seed
from .trajectories import HIGH, ClusterAssignment, build_trajectories, functional_kmeans

INTERCEPT = "intercept"

#: IRLS stops when no coefficient moves by more than this.
IRLS_TOL = 1e-8
IRLS_MAX_ITER = 100
#: |coefficient| beyond this on standardized data flags perfect separation.
SEPARATION_BOUND = 30.0


def _check_rank(design: np.ndarray, names: list[str]) -> None:
    q = design.shape[1]
    if np.linalg.matrix_rank(design) == q:
        return
    _, r, piv = scipy.linalg.qr(design, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    cut = diag.max() * max(design.shape) * np.finfo(float).eps if diag.size else 0.0
    bad = sorted(names[piv[i]] for i in range(q) if i >= len(diag) or diag[i] <= cut)
    raise RankDeficientError(bad)


def _wald_p(z: np.ndarray) -> np.ndarray:
    return np.array([math.erfc(abs(float(v)) / math.sqrt(2.0)) for v in z])


# ---------------------------------------------------------------------------
# Logistic regression (IRLS)
# ---------------------------------------------------------------------------

@dataclass
class LogisticFit:
    columns: list[str]            # intercept first
    coef: np.ndarray
    se: np.ndarray
    z: np.ndarray
    p: np.ndarray
    log_likelihood: float
    null_log_likelihood: float
    pseudo_r2: float              # McFadden: 1 - ll / ll_null
    n: int
    n_iter: int
    converged: bool
    separated: bool

    def score_max_norm(self, y: np.ndarray, X: np.ndarray) -> float:
        """Max-norm of the log-likelihood gradient at the fitted coefficients."""
        design = np.column_stack([np.ones(len(y)), X])
        mu = expit(design @ self.coef)
        return float(np.abs(design.T @ (y - mu)).max())


def fit_logistic(y: np.ndarray, X: np.ndarray, columns: list[str] | None = None) -> LogisticFit:
    """Maximum-likelihood logistic regression of a binary response.

    ``X`` carries the covariates without an intercept column (one is
    added internally). Fits that diverge past ``SEPARATION_BOUND`` or
    fail to converge within 100 iterations are returned flagged, not
    raised; rank-deficient designs raise ``RankDeficientError``.
    """
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    n = len(y)
    if set(np.unique(y)) - {0.0, 1.0}:
        raise ConfigError("logistic response must be binary 0/1")
    p_hat = float(y.mean())
    if p_hat in (0.0, 1.0):
        raise ConfigError("logistic response is constant; no model can be fit")
    names = [INTERCEPT] + (list(columns) if columns is not None else
                           [f"x{j}" for j in range(X.shape[1])])
    design = np.column_stack([np.ones(n), X])
    _check_rank(design, names)

    beta = np.zeros(design.shape[1])
    converged = False
    n_iter = 0
    info = None
    for n_iter in range(1, IRLS_MAX_ITER + 1):
        eta = design @ beta
        mu = expit(eta)
        weight = mu * (1.0 - mu)
        info = design.T @ (design * weight[:, None])
        grad = design.T @ (y - mu)
        try:
            step = np.linalg.solve(info, grad)
        except np.linalg.LinAlgError:
            break
        beta = beta + step
        if float(np.abs(step).max()) < IRLS_TOL:
            converged = True
            break

    separated = bool(np.abs(beta).max() > SEPARATION_BOUND)
    eta = design @ beta
    ll = float((y * eta - np.logaddexp(0.0, eta)).sum())
    ll_null = n * (p_hat * math.log(p_hat) + (1.0 - p_hat) * math.log(1.0 - p_hat))

    mu = expit(eta)
    weight = mu * (1.0 - mu)
    info = design.T @ (design * weight[:, None])
    try:
        cov = np.linalg.inv(info)
        se = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    except np.linalg.LinAlgError:
        se = np.full(design.shape[1], np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se > 0, beta / se, np.inf * np.sign(beta))
    return LogisticFit(
        columns=names, coef=beta, se=se, z=z, p=_wald_p(z),
        log_likelihood=ll, null_log_likelihood=float(ll_null),
        pseudo_r2=1.0 - ll / ll_null, n=n, n_iter=n_iter,
        converged=converged and not separated, separated=separated,
    )


@dataclass
class BalancedEnsemble:
    columns: list[str]
    coefs: np.ndarray        # (n_reps, q)
    p_values: np.ndarray     # (n_reps, q)
    coef_mean: np.ndarray
    coef_sd: np.ndarray
    mean_log_likelihood: float
    mean_pseudo_r2: float
    max_pseudo_r2: float
    n_reps: int
    n_discarded: int

    def neg_log_p(self) -> np.ndarray:
        return -np.log(np.clip(self.p_values, 1e-300, None))


def balanced_ensemble(y: np.ndarray, X: np.ndarray, n_reps: int = 1000, seed: int = 0,
                      columns: list[str] | None = None) -> BalancedEnsemble:
    """Refit the logistic model on class-balanced subsamples.

    Each replicate subsamples the majority class without replacement
    down to the minority size and refits; non-converged or separated
    replicates are discarded and redrawn, up to 2 * n_reps attempts.
    Replicate seeds derive from (seed, attempt), so the summary is
    independent of execution order.
    """
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    ones = np.flatnonzero(y == 1.0)
    zeros = np.flatnonzero(y == 0.0)
    minority, majority = (ones, zeros) if len(ones) <= len(zeros) else (zeros, ones)
    if len(minority) < X.shape[1] + 1:
        raise ConfigError(
            f"minority class has {len(minority)} rows; need at least {X.shape[1] + 1}")

    fits: list[LogisticFit] = []
    discarded = 0
    attempt = 0
    while len(fits) < n_reps and attempt < 2 * n_reps:
        rng = np.random.default_rng(derive_seed(seed, "balanced", attempt))
        attempt += 1
        if len(majority) == len(minority):
            idx = np.sort(np.concatenate([minority, majority]))
        else:
            sub = rng.choice(majority, size=len(minority), replace=False)
            idx = np.sort(np.concatenate([minority, sub]))
        try:
            fit = fit_logistic(y[idx], X[idx], columns)
        except VcnetError:
            discarded += 1
            continue
        if fit.converged:
            fits.append(fit)
        else:
            discarded += 1
    if not fits:
        raise ConfigError("every balanced replicate failed to converge")

    coefs = np.array([f.coef for f in fits])
    pvals = np.array([f.p for f in fits])
    # shifting by the first replicate leaves the sd unchanged but keeps it
    # exactly zero when every replicate is identical (no subsampling randomness)
    sd = (coefs - coefs[0]).std(axis=0, ddof=1) if len(fits) > 1 else np.zeros(coefs.shape[1])
    return BalancedEnsemble(
        columns=fits[0].columns, coefs=coefs, p_values=pvals,
        coef_mean=coefs.mean(axis=0), coef_sd=sd,
        mean_log_likelihood=float(np.mean([f.log_likelihood for f in fits])),
        mean_pseudo_r2=float(np.mean([f.pseudo_r2 for f in fits])),
        max_pseudo_r2=float(np.max([f.pseudo_r2 for f in fits])),
        n_reps=len(fits), n_discarded=discarded,
    )


# ---------------------------------------------------------------------------
# Linear regression (QR)
# ---------------------------------------------------------------------------

@dataclass
class LinearFit:
    columns: list[str]            # intercept, covariates, then controls
    covariate_columns: list[str]
    control_columns: list[str]
    coef: np.ndarray
    se: np.ndarray
    t: np.ndarray
    p: np.ndarray
    r2: float
    adj_r2: float
    fstat: float | None
    f_df: tuple[int, int]
    f_pvalue: float | None
    sigma2: float
    n: int

    def coefficient(self, name: str) -> float:
        return float(self.coef[self.columns.index(name)])


def fit_linear(y: np.ndarray, X: np.ndarray | None, C: np.ndarray | None = None,
               columns: list[str] | None = None,
               control_columns: list[str] | None = None) -> LinearFit:
    """Ordinary least squares via QR, with classical standard errors.

    ``X`` holds the covariates of interest and ``C`` optional controls;
    an intercept is always added. Raises on rank deficiency (naming the
    collinear columns) and when n does not exceed the column count.
    """
    y = np.asarray(y, dtype=float)
    n = len(y)
    blocks = [np.ones((n, 1))]
    names = [INTERCEPT]
    cov_names: list[str] = []
    ctl_names: list[str] = []
    if X is not None and np.size(X):
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        cov_names = list(columns) if columns is not None else [f"x{j}" for j in range(X.shape[1])]
        blocks.append(X)
        names += cov_names
    if C is not None and np.size(C):
        C = np.asarray(C, dtype=float)
        if C.ndim == 1:
            C = C.reshape(-1, 1)
        ctl_names = list(control_columns) if control_columns is not None else [f"c{j}" for j in range(C.shape[1])]
        blocks.append(C)
        names += ctl_names
    design = np.hstack(blocks)
    q = design.shape[1]
    if n <= q:
        raise ConfigError(f"need more observations than parameters: n={n}, q={q}")
    _check_rank(design, names)

    qmat, rmat = np.linalg.qr(design)
    beta = scipy.linalg.solve_triangular(rmat, qmat.T @ y)
    resid = y - design @ beta
    rss = float(resid @ resid)
    tss = float(((y - y.mean()) ** 2).sum())
    if tss == 0.0:
        raise ConfigError("response is constant; R^2 undefined")
    sigma2 = rss / (n - q)
    rinv = scipy.linalg.solve_triangular(rmat, np.eye(q))
    cov = sigma2 * (rinv @ rinv.T)
    se = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    with np.errstate(divide="ignore", invalid="ignore"):
        tvals = np.where(se > 0, beta / se, np.inf * np.sign(beta))
    pvals = 2.0 * scipy.stats.t.sf(np.abs(tvals), n - q)
    r2 = 1.0 - rss / tss
    adj = 1.0 - (1.0 - r2) * (n - 1) / (n - q)
    if q > 1:
        if rss > 0:
            fstat = ((tss - rss) / (q - 1)) / (rss / (n - q))
            f_p = float(scipy.stats.f.sf(fstat, q - 1, n - q))
        else:
            fstat, f_p = math.inf, 0.0  # exact fit
    else:
        fstat, f_p = None, None
    return LinearFit(
        columns=names, covariate_columns=cov_names, control_columns=ctl_names,
        coef=beta, se=se, t=tvals, p=pvals, r2=r2, adj_r2=adj,
        fstat=fstat, f_df=(q - 1, n - q), f_pvalue=f_p, sigma2=sigma2, n=n,
    )


# ---------------------------------------------------------------------------
# Function-on-scalar regression (pointwise OLS)
# ---------------------------------------------------------------------------

@dataclass
class FunctionalFit:
    columns: list[str]
    coef: np.ndarray   # (q, T)
    se: np.ndarray     # (q, T)
    lo95: np.ndarray
    hi95: np.ndarray
    n: int

    def band_halfwidth(self) -> np.ndarray:
        return 1.96 * self.se


def fit_function_on_scalar(Y: np.ndarray, X: np.ndarray,
                           columns: list[str] | None = None,
                           log_response: bool = True) -> FunctionalFit:
    """Pointwise OLS of a trajectory matrix on scalar covariates.

    Column t of ``Y`` (log(1+x)-transformed unless ``log_response`` is
    off) is regressed on ``X`` independently, so the coefficient curves
    at year t equal the scalar fit on that cross-section exactly.
    Confidence bands are pointwise at 1.96 standard errors.
    """
    Y = np.asarray(Y, dtype=float)
    n, n_grid = Y.shape
    fits = [fit_linear(np.log1p(Y[:, t]) if log_response else Y[:, t], X, None, columns)
            for t in range(n_grid)]
    coef = np.column_stack([f.coef for f in fits])
    se = np.column_stack([f.se for f in fits])
    return FunctionalFit(
        columns=fits[0].columns, coef=coef, se=se,
        lo95=coef - 1.96 * se, hi95=coef + 1.96 * se, n=n,
    )


# ---------------------------------------------------------------------------
# Exhaustive per-group model selection
# ---------------------------------------------------------------------------

@dataclass
class ConfigFit:
    config_id: int
    covariates: tuple[str, ...]
    score: float | None
    fit: LogisticFit | LinearFit | None
    error: str | None = None


@dataclass
class ModelSelection:
    kind: str  # logistic | linear
    results: list[ConfigFit]
    ranked: list[ConfigFit]
    n_failed: int
    truncated: bool

    @property
    def best(self) -> ConfigFit | None:
        return self.ranked[0] if self.ranked else None


def select_model(kind: str, response: np.ndarray, fm: FeatureMatrix,
                 configs: list[tuple[str, ...]],
                 controls: np.ndarray | None = None,
                 control_columns: list[str] | None = None,
                 limit: int = 0) -> ModelSelection:
    """Fit every configuration and rank by goodness of fit.

    Logistic configurations rank by log-likelihood, linear ones by R^2
    (adjusted R^2 is reported on each fit). Individual failures are
    recorded, not fatal. ``limit`` > 0 truncates the enumeration (the
    truncation is reported so callers can surface it).
    """
    if kind not in ("logistic", "linear"):
        raise ConfigError(f"unknown model kind {kind!r}")
    todo = configs if limit <= 0 else configs[:limit]
    results: list[ConfigFit] = []
    n_failed = 0
    for i, combo in enumerate(todo):
        X = fm.select(combo)
        try:
            if kind == "logistic":
                fit = fit_logistic(response, X, list(combo))
                score = fit.log_likelihood if fit.converged else None
                err = None if fit.converged else "did not converge"
            else:
                fit = fit_linear(response, X, controls, list(combo), control_columns)
                score, err = fit.r2, None
        except VcnetError as exc:
            results.append(ConfigFit(i, combo, None, None, str(exc)))
            n_failed += 1
            continue
        if score is None:
            n_failed += 1
        results.append(ConfigFit(i, combo, score, fit, err))
    ranked = sorted((r for r in results if r.score is not None),
                    key=lambda r: (-r.score, r.config_id))
    return ModelSelection(kind, results, ranked, n_failed, truncated=len(todo) < len(configs))


# ---------------------------------------------------------------------------
# Stability sweeps
# ---------------------------------------------------------------------------

@dataclass
class SweepRow:
    window: int
    n_firms: int
    term: str
    grid_t: int | None
    estimate: float
    se: float
    lo95: float
    hi95: float


@dataclass
class WindowSweepResult:
    kind: str
    rows: list[SweepRow]
    firm_counts: dict[int, int]
    warnings: list[str] = field(default_factory=list)


@dataclass
class PipelineData:
    """Everything the sweeps need to rebuild responses for any window."""

    deals: list
    meta: dict[str, FirmMeta]
    fm: FeatureMatrix                  # processed covariates over all firms
    first_amounts: dict[str, float]
    subsectors: dict[str, str]
    data_end_year: int | None = None
    kmeans_k: int = 2
    kmeans_inits: int = 100
    kmeans_seed: int = 0
    kmeans_log_scale: bool = True


def build_controls(firms: list[str], first_amounts: dict[str, float],
                   subsectors: dict[str, str],
                   include_first_amount: bool = True) -> tuple[np.ndarray, list[str]]:
    """Control block: log first-round amount plus subsector indicators.

    The lexicographically smallest subsector present is the dropped
    reference level.
    """
    cols: list[np.ndarray] = []
    names: list[str] = []
    if include_first_amount:
        cols.append(np.log1p(np.array([first_amounts[f] for f in firms], dtype=float)))
        names.append("log_first_amount")
    levels = sorted({subsectors[f] for f in firms})
    for level in levels[1:]:
        cols.append(np.array([1.0 if subsectors[f] == level else 0.0 for f in firms]))
        names.append(f"subsector_{level}")
    if not cols:
        return np.empty((len(firms), 0)), []
    return np.column_stack(cols), names


def _responses_for_window(data: PipelineData, window: int,
                          kind: str) -> tuple[list[str], np.ndarray, np.ndarray, list[str]]:
    """(firms, y, controls, control names) for one window size."""
    ts = build_trajectories(data.deals, data.meta, window, data.data_end_year)
    in_fm = set(data.fm.row_ids)
    trajs = [t for t in ts.trajectories if t.firm_id in in_fm]
    firms = [t.firm_id for t in trajs]
    if kind == "logistic":
        ca = functional_kmeans(trajs, k=data.kmeans_k, n_init=data.kmeans_inits,
                               seed=data.kmeans_seed, log_scale=data.kmeans_log_scale)
        y = np.array([1.0 if ca.regimes[f] == HIGH else 0.0 for f in firms])
        C, cnames = np.empty((len(firms), 0)), []
    elif kind == "linear_agg":
        y = np.log1p(np.array([t.values[-1] for t in trajs], dtype=float))
        C, cnames = build_controls(firms, data.first_amounts, data.subsectors, True)
    elif kind == "linear_diff":
        diffs = np.array([t.values[-1] - data.first_amounts[t.firm_id] for t in trajs])
        keep = diffs > 0
        firms = [f for f, k in zip(firms, keep) if k]
        y = np.log1p(diffs[keep])
        C, cnames = build_controls(firms, data.first_amounts, data.subsectors, False)
    elif kind == "functional":
        y = np.array([t.values for t in trajs], dtype=float)
        C, cnames = np.empty((len(firms), 0)), []
    else:
        raise ConfigError(f"unknown sweep kind {kind!r}")
    return firms, y, C, cnames


def window_sweep(data: PipelineData, config: tuple[str, ...],
                 w_range: list[int], kind: str = "linear_agg") -> WindowSweepResult:
    """Refit the fixed best configuration for each window size.

    Rebuilds trajectories, responses, and the fit sample per window and
    reports each coefficient with its 1.96-standard-error band plus the
    per-window firm count. A firm count that increases with the window
    is recorded as a warning.
    """
    result = WindowSweepResult(kind, [], {})
    prev_count = None
    for window in w_range:
        firms, y, C, cnames = _responses_for_window(data, window, kind)
        result.firm_counts[window] = len(firms)
        if prev_count is not None and len(firms) > prev_count:
            result.warnings.append(
                f"firm count increased from {prev_count} to {len(firms)} at window {window}")
        prev_count = len(firms)
        sub = data.fm.take_rows(firms)
        X = sub.select(config)
        try:
            _fit_one_window(result, window, firms, y, X, C, cnames, config, kind)
        except VcnetError as exc:
            result.warnings.append(f"window {window}: fit failed ({exc})")
    for msg in result.warnings:
        _warnings.warn(msg)
    return result


def _fit_one_window(result: WindowSweepResult, window: int, firms: list[str],
                    y: np.ndarray, X: np.ndarray, C: np.ndarray, cnames: list[str],
                    config: tuple[str, ...], kind: str) -> None:
    if kind == "functional":
        fit = fit_function_on_scalar(y, X, list(config))
        for j, name in enumerate(fit.columns):
            for t in range(fit.coef.shape[1]):
                result.rows.append(SweepRow(window, len(firms), name, t,
                                            float(fit.coef[j, t]), float(fit.se[j, t]),
                                            float(fit.lo95[j, t]), float(fit.hi95[j, t])))
        return
    if kind == "logistic":
        fit = fit_logistic(y, X, list(config))
    else:
        fit = fit_linear(y, X, C, list(config), cnames)
    for j, name in enumerate(fit.columns):
        half = 1.96 * float(fit.se[j])
        result.rows.append(SweepRow(window, len(firms), name, None,
                                    float(fit.coef[j]), float(fit.se[j]),
                                    float(fit.coef[j]) - half, float(fit.coef[j]) + half))


@dataclass
class GroupStats:
    group: int
    mean: float
    sd: float
    n_configs: int


@dataclass
class PerturbationResult:
    groups: list[GroupStats]
    samples: list[tuple[int, int, str, float]]  # (group, config_id, covariate, estimate)


def perturbation_sweep(groups: dict[str, int], selection: ModelSelection) -> PerturbationResult:
    """Per-group coefficient distribution across all fitted configurations.

    Each configuration contributes, for every dendrogram group, the
    coefficient of whichever covariate represents that group in it. The
    full sample is retained so bimodality can be inspected.
    """
    samples: list[tuple[int, int, str, float]] = []
    for r in selection.results:
        if r.fit is None or r.score is None:
            continue
        for cov in r.covariates:
            grp = groups[cov]
            coef = float(r.fit.coef[r.fit.columns.index(cov)])
            samples.append((grp, r.config_id, cov, coef))
    stats: list[GroupStats] = []
    for grp in sorted({g for g, *_ in samples}):
        vals = np.array([v for g, _, _, v in samples if g == grp])
        sd = float(vals.std(ddof=1)) if len(vals) > 1 else 0.0
        stats.append(GroupStats(grp, float(vals.mean()), sd, len(vals)))
    return PerturbationResult(stats, samples)


# ---------------------------------------------------------------------------
# Trajectory-based vs standard success definition
# ---------------------------------------------------------------------------

@dataclass
class ConfusionReport:
    tp: int  # standard success, HIGH regime
    fn: int  # standard success, LOW regime
    fp: int  # no standard success, HIGH regime
    tn: int
    accuracy: float
    precision: float
    recall: float


def confusion_metrics(tp: int, fn: int, fp: int, tn: int) -> ConfusionReport:
    """Accuracy/precision/recall with HIGH as the positive prediction."""
    total = tp + fn + fp + tn
    accuracy = (tp + tn) / total if total else 0.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return ConfusionReport(tp, fn, fp, tn, accuracy, precision, recall)


def confusion_vs_standard(ca: ClusterAssignment | dict[str, str], meta: dict[str, FirmMeta],
                          first_years: dict[str, int], window: int) -> ConfusionReport:
    """Compare HIGH-regime membership against exit-based success.

    Standard success means an ACQUIRED/IPO/MERGED status dated within
    ``window`` calendar years of the firm's first investment. ``ca`` may
    be a ClusterAssignment or a bare firm->regime mapping.
    """
    regimes = ca.regimes if isinstance(ca, ClusterAssignment) else ca
    tp = fn = fp = tn = 0
    for firm, regime in regimes.items():
        m = meta.get(firm)
        truth = bool(m is not None and m.is_exit()
                     and m.status_date.year - first_years[firm] <= window)
        pred = regime == HIGH
        if truth and pred:
            tp += 1
        elif truth:
            fn += 1
        elif pred:
            fp += 1
        else:
            tn += 1
    return confusion_metrics(tp, fn, fp, tn)


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------

def logistic_fit_dict(fit: LogisticFit) -> dict:
    return {
        "model": "logistic",
        "n": fit.n,
        "log_likelihood": fit.log_likelihood,
        "null_log_likelihood": fit.null_log_likelihood,
        "pseudo_r2": fit.pseudo_r2,
        "converged": fit.converged,
        "separated": fit.separated,
        "n_iter": fit.n_iter,
        "terms": [
            {"term": c, "estimate": float(b), "se": float(s), "z": float(z), "p": float(p)}
            for c, b, s, z, p in zip(fit.columns, fit.coef, fit.se, fit.z, fit.p)
        ],
    }


def linear_fit_dict(fit: LinearFit) -> dict:
    return {
        "model": "linear",
        "n": fit.n,
        "r2": fit.r2,
        "adj_r2": fit.adj_r2,
        "fstat": fit.fstat,
        "f_df": list(fit.f_df),
        "f_pvalue": fit.f_pvalue,
        "sigma2": fit.sigma2,
        "terms": [
            {"term": c, "estimate": float(b), "se": float(s), "t": float(t), "p": float(p)}
            for c, b, s, t, p in zip(fit.columns, fit.coef, fit.se, fit.t, fit.p)
        ],
    }


def write_leaderboard_csv(selection: ModelSelection, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["rank", "config_id", "covariates", "score", "error"])
        for rank, r in enumerate(selection.ranked, start=1):
            writer.writerow([str(rank), str(r.config_id), ";".join(r.covariates),
                             repr(float(r.score)), ""])
        for r in selection.results:
            if r.score is None:
                writer.writerow(["", str(r.config_id), ";".join(r.covariates), "", r.error or "failed"])


def write_functional_curves(fit: FunctionalFit, out_dir: str | Path) -> list[Path]:
    """One ``t,estimate,se,lo95,hi95`` CSV per coefficient curve."""
    out = []
    for j, name in enumerate(fit.columns):
        path = Path(out_dir) / f"functional_{name}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["t", "estimate", "se", "lo95", "hi95"])
            for t in range(fit.coef.shape[1]):
                writer.writerow([str(t), repr(float(fit.coef[j, t])), repr(float(fit.se[j, t])),
                                 repr(float(fit.lo95[j, t])), repr(float(fit.hi95[j, t]))])
        out.append(path)
    return out


def write_perturbation_csv(result: PerturbationResult, groups_path: str | Path,
                           samples_path: str | Path) -> None:
    with open(groups_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["group", "mean", "sd", "n_configs"])
        for g in result.groups:
            writer.writerow([str(g.group), repr(g.mean), repr(g.sd), str(g.n_configs)])
    with open(samples_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["group", "config_id", "covariate", "estimate"])
        for grp, cid, cov, est in result.samples:
            writer.writerow([str(grp), str(cid), cov, repr(est)])
