"""Success regressions: logistic, linear, and function-on-scalar fits.

The logistic model is fit by iteratively reweighted least squares with
Wald standard errors from the inverse observed information; the linear
model by a QR decomposition with classical standard errors; the
function-on-scalar model by independent pointwise OLS at each grid year
(with log(1+x) responses), so its coefficient at year t coincides
exactly with the scalar fit on that cross-section.

Model selection fits one covariate per dendrogram group for every
configuration and ranks logistic fits by log-likelihood and linear fits
by R^2. Every design is a column subset of one full design
``Z = [1, F, C] = QR``, factored once per selection (Furnival & Wilson
1974), and the checks that read only the response also run once per
selection. Rank is decided on a configuration's ``R`` columns, a linear
fit runs the single-fit QR kernel on ``R[:, S]`` against ``Qᵀy``, and a
logistic fit runs the single-fit IRLS kernel on the full design, in
fixed-size chunks whose result does not depend on the chunk. Each keeps
only its score and covariate coefficients; scores within a relative
``TIE_RTOL`` of their run's leader rank by configuration id; only the
best configuration is refit with standard errors and p-values, and it
reports the refit's score. Two stability sweeps rerun the chosen
configuration over window sizes and rerun every configuration at a
fixed window to trace how coefficients move with the specification.
"""

from __future__ import annotations

import math
import warnings as _warnings
from dataclasses import astuple, dataclass, fields
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ConfigError, RankDeficientError, VcnetError
from .features import FeatureMatrix
from .ingest import FirmMeta, write_csv
from .seeding import derive_seed
from .trajectories import HIGH, Trajectory, build_trajectories, functional_kmeans

INTERCEPT = "intercept"

#: IRLS stops when no coefficient moves by more than this.
IRLS_TOL = 1e-8
IRLS_MAX_ITER = 100
#: |coefficient| beyond this on standardized data flags perfect separation.
SEPARATION_BOUND = 30.0
#: Configurations (and balanced replicates) fitted together as one
#: (chunk, n, q) design stack. Bounds the work memory to O(chunk * n * q)
#: whatever the number of configurations or replicates.
SELECT_CHUNK = 64


def _collinear_columns(design: np.ndarray, names: list[str]) -> list[str]:
    """Columns that pivoted QR leaves past the rank cut of a rank-deficient design.

    Householder QR that, like LAPACK's ``geqp3``, swaps into place at
    each step the column of largest remaining norm. Norms within
    ``max(n, q) * eps`` of the largest, relative, are ties, and the first
    of them in the current column order wins, so columns that exact
    arithmetic cannot tell apart (copies, sign flips, two parts of a sum)
    are decided the same way whatever the rounding. The QR stops, and
    names the columns not yet pivoted in, once the largest remaining norm
    is at most that tolerance times the largest column norm.
    """
    a = np.array(design, dtype=float)
    n, q = a.shape
    rtol = max(n, q) * np.finfo(float).eps
    cut = rtol * math.sqrt((a * a).sum(axis=0).max(initial=0.0))
    order, k = list(range(q)), 0
    while k < min(n, q):
        sq = (a[k:, k:] ** 2).sum(axis=0)
        j = k + int(np.argmax(sq >= sq.max() * (1.0 - rtol)))
        norm = math.sqrt(sq[j - k])
        if norm <= cut:
            break
        a[:, [k, j]] = a[:, [j, k]]
        order[k], order[j] = order[j], order[k]
        v = a[k:, k].copy()
        v[0] += math.copysign(norm, v[0])
        v /= math.sqrt(v @ v)
        # column by column, so that equal columns stay bit-equal
        a[k:, k + 1:] -= 2.0 * v[:, None] * (v[:, None] * a[k:, k + 1:]).sum(axis=0)
        k += 1
    return sorted(names[i] for i in order[k:])


def _full_rank(stack: np.ndarray, n: int) -> np.ndarray:
    """Full-column-rank flags of a (B, m, q) stack of n-row designs or of their R columns.

    The rule is ``matrix_rank``'s default on the n-row design: singular
    values above max(n, q) * eps times the largest. ``R[:, S]`` has the
    singular values of ``Z[:, S] = Q R[:, S]``. Every matrix of the stack
    gets the same SVD and threshold, so no decision depends on its batch.
    """
    q = stack.shape[2]
    return np.linalg.matrix_rank(stack, rtol=max(n, q) * np.finfo(float).eps) == q


def _check_rank(design: np.ndarray, names: list[str]) -> None:
    if not _full_rank(design[None], len(design))[0]:
        raise RankDeficientError(_collinear_columns(design, names))


def _wald_p(z: np.ndarray) -> np.ndarray:
    return np.array([math.erfc(abs(float(v)) / math.sqrt(2.0))
                     for v in z.ravel()]).reshape(z.shape)


def _betainc(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta ``I_x(a, b)``, given ``x`` and ``y = 1 − x``.

    The caller computes ``y`` directly rather than as ``1 − x``, which
    would lose its digits when x is close to 1. The continued fraction
    (Lentz's method) runs on the side of the mean where it converges
    fast; the other side is ``I_x(a, b) = 1 − I_y(b, a)``.
    """
    if x <= 0.0:
        return 0.0
    if y <= 0.0:
        return 1.0
    swap = x > (a + 1.0) / (a + b + 2.0)
    if swap:
        a, b, x, y = b, a, y, x
    tiny, eps = 1e-300, np.finfo(float).eps
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    frac = d
    for m in range(1, 1000):  # 60 at most over df 1 to 1e6
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            frac *= c * d
        if abs(c * d - 1.0) <= eps:
            break
    log_front = (a * math.log(x) + b * math.log(y)
                 + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))
    value = math.exp(log_front) * frac / a
    return 1.0 - value if swap else value


def _t_p(df: int, t: float) -> float:
    """Two-sided p-value of a t statistic on ``df`` degrees of freedom."""
    if not math.isfinite(t):
        return 0.0 if math.isinf(t) else math.nan
    t2 = t * t
    return _betainc(df / 2.0, 0.5, df / (df + t2), t2 / (df + t2))


def _f_p(df1: int, df2: int, f: float) -> float:
    """Upper-tail p-value of an F statistic; 1 for F = 0."""
    return _betainc(df2 / 2.0, df1 / 2.0, df2 / (df2 + df1 * f), df1 * f / (df2 + df1 * f))


# ---------------------------------------------------------------------------
# Fitting kernels over (B, n, q) design stacks
#
# A single fit is the B = 1 case, so single fits and model selection share
# one IRLS loop and one least-squares solve (selection's linear fits run it
# on R columns). Every step acts on each matrix of a stack on its own
# (stacked LAPACK calls, per-matrix BLAS products, row-wise reductions), so
# a design's result does not depend on its batch.
# ---------------------------------------------------------------------------

def _expit(eta: np.ndarray) -> np.ndarray:
    """The logistic link; ``exp`` overflows to inf below eta = -709, giving 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-eta))


def _binary_p_hat(y: np.ndarray) -> float:
    if ((y != 0.0) & (y != 1.0)).any():
        raise ConfigError("logistic response must be binary 0/1")
    p_hat = float(y.mean())
    if p_hat in (0.0, 1.0):
        raise ConfigError("logistic response is constant; no model can be fit")
    return p_hat


def _null_log_likelihood(y: np.ndarray) -> float:
    """Log-likelihood of the intercept-only logistic model of a binary ``y``."""
    p_hat = _binary_p_hat(y)
    return len(y) * (p_hat * math.log(p_hat) + (1.0 - p_hat) * math.log(1.0 - p_hat))


def _require_residual_df(n: int, q: int) -> None:
    if n <= q:
        raise ConfigError(f"need more observations than parameters: n={n}, q={q}")


def _total_ss(y: np.ndarray) -> float:
    tss = float(((y - y.mean()) ** 2).sum())
    if tss == 0.0:
        raise ConfigError("response is constant; R^2 undefined")
    return tss


def _solve_each(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked ``solve``; a singular matrix fails only its own system.

    Returns the solutions and the mask of failed systems, whose solution
    is zero.
    """
    try:
        return np.linalg.solve(a, b), np.zeros(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        out = np.zeros(b.shape)
        failed = np.ones(len(a), dtype=bool)
        for i in range(len(a)):
            try:
                out[i] = np.linalg.solve(a[i], b[i])
            except np.linalg.LinAlgError:
                continue
            failed[i] = False
        return out, failed


def _irls(designs: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Logistic maximum likelihood on every design of a (B, n, q) stack.

    ``y`` is one (n,) response shared by every design, or a (B, n) stack
    with one response per design. Each design takes Newton (IRLS) steps
    until its largest step is below ``IRLS_TOL``, for at most
    ``IRLS_MAX_ITER`` iterations. A design whose information matrix turns
    singular, or whose coefficients turn non-finite, stops where it is,
    unconverged, and leaves the stack. Returns coefficients (B, q),
    iteration counts (B,) and convergence flags (B,).
    """
    n_fits, _, q = designs.shape
    beta = np.zeros((n_fits, q))
    n_iter = np.full(n_fits, IRLS_MAX_ITER, dtype=np.int64)
    converged = np.zeros(n_fits, dtype=bool)
    # the designs still iterating, their stack and their coefficients
    active, stack, b = np.arange(n_fits), designs, np.zeros((n_fits, q, 1))
    y_col = y[..., None]  # (n, 1) shared, or (B, n, 1) following the active designs
    for it in range(1, IRLS_MAX_ITER + 1):
        mu = _expit(stack @ b)
        stack_t = stack.mT
        info = stack_t @ (stack * (mu * (1.0 - mu)))
        step, failed = _solve_each(info, stack_t @ (y_col - mu))
        b += step
        dead = failed | ~np.isfinite(b).all(axis=(1, 2))
        done = np.abs(step).max(axis=(1, 2)) < IRLS_TOL
        if not (done.any() or dead.any()):
            continue
        converged[active[done & ~dead]] = True
        done |= dead
        beta[active] = b[:, :, 0]
        n_iter[active[done]] = it
        if done.all():
            break
        active, stack, b = active[~done], stack[~done], b[~done]
        if y_col.ndim == 3:
            y_col = y_col[~done]
    else:
        beta[active] = b[:, :, 0]
    return beta, n_iter, converged


def _log_likelihood(designs: np.ndarray, beta: np.ndarray, y: np.ndarray) -> np.ndarray:
    eta = (designs @ beta[:, :, None])[:, :, 0]
    return (y * eta - np.logaddexp(0.0, eta)).sum(axis=1)


def _separated(beta: np.ndarray) -> np.ndarray:
    return np.abs(beta).max(axis=1) > SEPARATION_BOUND


def _ratio(beta: np.ndarray, se: np.ndarray) -> np.ndarray:
    """z or t statistics ``beta / se``; an infinity of ``beta``'s sign where ``se`` is not > 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(se > 0, beta / se, np.inf * np.sign(beta))


def _wald(designs: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Wald standard errors, z statistics and p-values, each (B, q), of logistic fits.

    Standard errors come from the inverse information at ``beta``; a fit
    whose information matrix is singular gets NaN standard errors (and
    infinite z) on its own.
    """
    mu = _expit(designs @ beta[:, :, None])
    info = designs.mT @ (designs * (mu * (1.0 - mu)))
    cov, failed = _solve_each(info, np.broadcast_to(np.eye(designs.shape[2]), info.shape))
    se = np.sqrt(np.clip(np.diagonal(cov, axis1=1, axis2=2), 0.0, None))
    se[failed] = np.nan
    z = _ratio(beta, se)
    return se, z, _wald_p(z)


def _ols(designs: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least squares of ``y`` on every full-rank design of a (B, n, q) stack.

    Returns coefficients (B, q), residual sums of squares (B,) and the
    triangular QR factors (B, q, q). The back-substitution is numpy's
    stacked ``solve``, which runs the whole stack in one call.
    """
    qmat, rmat = np.linalg.qr(designs)
    beta = np.linalg.solve(rmat, qmat.mT @ y[:, None])
    resid = y - (designs @ beta)[:, :, 0]
    return beta[:, :, 0], (resid * resid).sum(axis=1), rmat


def _block(n: int, M: np.ndarray | None, names: list[str] | None,
           prefix: str) -> tuple[np.ndarray, list[str]]:
    """An (n, k) float column block and its k names, ``prefix`` and the position when
    ``names`` is None; k = 0 when ``M`` is absent or empty. A 1-D ``M`` is one column."""
    if M is None or not np.size(M):
        return np.empty((n, 0)), []
    M = np.asarray(M, dtype=float)
    if M.ndim == 1:
        M = M.reshape(-1, 1)
    return M, list(names) if names is not None else [f"{prefix}{j}" for j in range(M.shape[1])]


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


def fit_logistic(y: np.ndarray, X: np.ndarray, columns: list[str] | None = None) -> LogisticFit:
    """Maximum-likelihood logistic regression of a binary response.

    ``X`` carries the covariates without an intercept column (one is
    added internally). Fits that diverge past ``SEPARATION_BOUND`` or
    fail to converge within 100 iterations are returned flagged, not
    raised; rank-deficient designs raise ``RankDeficientError``.
    """
    y = np.asarray(y, dtype=float)
    n = len(y)
    ll_null = _null_log_likelihood(y)
    X, cov_names = _block(n, X, columns, "x")
    names = [INTERCEPT, *cov_names]
    design = np.hstack([np.ones((n, 1)), X])
    _check_rank(design, names)

    betas, n_iters, convergeds = _irls(design[None], y)
    separated = bool(_separated(betas)[0])
    ll = float(_log_likelihood(design[None], betas, y)[0])
    se, z, p = (a[0] for a in _wald(design[None], betas))
    return LogisticFit(
        columns=names, coef=betas[0], se=se, z=z, p=p,
        log_likelihood=ll, null_log_likelihood=float(ll_null),
        pseudo_r2=1.0 - ll / ll_null, n=n, n_iter=int(n_iters[0]),
        converged=bool(convergeds[0]) and not separated, separated=separated,
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


def _balanced_rows(minority: np.ndarray, majority: np.ndarray, seed: int,
                   attempt: int) -> np.ndarray:
    """Sorted rows of balanced attempt ``attempt``: the minority class and
    an equal-size draw without replacement from the majority class."""
    rng = np.random.default_rng(derive_seed(seed, "balanced", attempt))
    return np.sort(np.concatenate([minority,
                                   rng.choice(majority, size=len(minority), replace=False)]))


def balanced_ensemble(y: np.ndarray, X: np.ndarray, n_reps: int = 1000, seed: int = 0,
                      columns: list[str] | None = None) -> BalancedEnsemble:
    """Refit the logistic model on class-balanced subsamples.

    Each replicate subsamples the majority class without replacement
    down to the minority size and refits; rank-deficient, non-converged
    or separated replicates are discarded and redrawn, up to 2 * n_reps
    attempts. Replicate seeds derive from (seed, attempt), so the summary
    is independent of execution order. Attempts are fitted as stacked
    designs through the IRLS kernel of ``fit_logistic``, in blocks of at
    most ``SELECT_CHUNK`` and never more than the replicates still
    needed, so exactly the attempts of a one-at-a-time loop are made and
    replicates are kept in attempt order.
    """
    y = np.asarray(y, dtype=float)
    X, cov_names = _block(len(y), X, columns, "x")
    ones = np.flatnonzero(y == 1.0)
    zeros = np.flatnonzero(y == 0.0)
    minority, majority = (ones, zeros) if len(ones) <= len(zeros) else (zeros, ones)
    if len(minority) < X.shape[1] + 1:
        raise ConfigError(
            f"minority class has {len(minority)} rows; need at least {X.shape[1] + 1}")

    design = np.hstack([np.ones((len(y), 1)), X])
    coefs, pvals, lls = [], [], []
    n_kept = attempt = 0
    while n_kept < n_reps and attempt < 2 * n_reps:
        size = min(SELECT_CHUNK, n_reps - n_kept, 2 * n_reps - attempt)
        rows = np.array([_balanced_rows(minority, majority, seed, a)
                         for a in range(attempt, attempt + size)])
        attempt += size
        designs = design[rows]
        full = _full_rank(designs, designs.shape[1])
        if not full.any():
            continue
        designs, ys = designs[full], y[rows[full]]
        beta, _, converged = _irls(designs, ys)
        keep = converged & ~_separated(beta)
        designs, ys, beta = designs[keep], ys[keep], beta[keep]
        coefs.append(beta)
        pvals.append(_wald(designs, beta)[2])
        lls.append(_log_likelihood(designs, beta, ys))
        n_kept += len(beta)
    if not n_kept:
        raise ConfigError("every balanced replicate failed to converge")

    coefs, lls = np.concatenate(coefs), np.concatenate(lls)
    # every replicate has the same size and class split, hence the same null model
    pseudo_r2 = 1.0 - lls / _null_log_likelihood(y[rows[0]])
    # shifting by the first replicate leaves the sd unchanged but keeps it
    # exactly zero when every replicate is identical (no subsampling randomness)
    sd = (coefs - coefs[0]).std(axis=0, ddof=1) if n_kept > 1 else np.zeros(coefs.shape[1])
    return BalancedEnsemble(
        columns=[INTERCEPT, *cov_names], coefs=coefs,
        p_values=np.concatenate(pvals), coef_mean=coefs.mean(axis=0), coef_sd=sd,
        mean_log_likelihood=float(np.mean(lls)),
        mean_pseudo_r2=float(np.mean(pseudo_r2)), max_pseudo_r2=float(np.max(pseudo_r2)),
        n_reps=n_kept, n_discarded=attempt - n_kept,
    )


# ---------------------------------------------------------------------------
# Linear regression (QR)
# ---------------------------------------------------------------------------

@dataclass
class LinearFit:
    columns: list[str]            # intercept, covariates, then controls
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
    X, cov_names = _block(n, X, columns, "x")
    C, ctl_names = _block(n, C, control_columns, "c")
    names = [INTERCEPT, *cov_names, *ctl_names]
    # an empty block would change the layout numpy picks, and the fit's last bits with it
    design = np.hstack([np.ones((n, 1)), *(b for b in (X, C) if b.size)])
    q = design.shape[1]
    _require_residual_df(n, q)
    _check_rank(design, names)

    betas, rsss, rmats = _ols(design[None], y)
    beta, rss, rmat = betas[0], float(rsss[0]), rmats[0]
    tss = _total_ss(y)
    sigma2 = rss / (n - q)
    rinv = np.linalg.inv(rmat)
    cov = sigma2 * (rinv @ rinv.T)
    se = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    tvals = _ratio(beta, se)
    pvals = np.array([_t_p(n - q, float(t)) for t in tvals])
    r2 = 1.0 - rss / tss
    adj = 1.0 - (1.0 - r2) * (n - 1) / (n - q)
    if q > 1:
        if rss > 0:
            # covariates that explain nothing can leave rss a rounding above tss
            fstat = max(0.0, ((tss - rss) / (q - 1)) / (rss / (n - q)))
            f_p = _f_p(q - 1, n - q, fstat)
        else:
            fstat, f_p = math.inf, 0.0  # exact fit
    else:
        fstat, f_p = None, None
    return LinearFit(
        columns=names, coef=beta, se=se, t=tvals, p=pvals, r2=r2, adj_r2=adj,
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


def fit_function_on_scalar(Y: np.ndarray, X: np.ndarray,
                           columns: list[str] | None = None) -> FunctionalFit:
    """Pointwise OLS of a trajectory matrix on scalar covariates.

    Column t of ``Y``, log(1+x)-transformed, is regressed on ``X``
    independently, so the coefficient curves at year t equal the scalar
    fit on that cross-section exactly.
    Confidence bands are pointwise at 1.96 standard errors.
    """
    Y = np.asarray(Y, dtype=float)
    fits = [fit_linear(np.log1p(Y[:, t]), X, None, columns) for t in range(Y.shape[1])]
    coef = np.column_stack([f.coef for f in fits])
    se = np.column_stack([f.se for f in fits])
    return FunctionalFit(
        columns=fits[0].columns, coef=coef, se=se,
        lo95=coef - 1.96 * se, hi95=coef + 1.96 * se,
    )


# ---------------------------------------------------------------------------
# Exhaustive per-group model selection
# ---------------------------------------------------------------------------

#: Scores within this distance, relative to the leading score of their run
#: in descending order, are ties and rank by ``config_id``.
TIE_RTOL = 1e-12


@dataclass
class BestConfig:
    """The best configuration of a selection, refit with standard errors and p-values.

    Its selection's ``results["score"][config_id]`` holds the refit's score.
    """

    config_id: int
    covariates: tuple[str, ...]
    fit: LogisticFit | LinearFit


@dataclass
class ModelSelection:
    """Selection over the configurations attempted, indexed by config id.

    ``configs`` holds each configuration's covariates as positions in
    ``columns``. ``results`` holds one record per configuration: its
    score (NaN where the fit failed), its covariate coefficients in
    configuration order (NaN where failed) and its error text (``None``
    where scored). ``ranked`` lists the scored config ids, best first,
    and ``best`` is the first of them refit, ``None`` when none scored.
    """

    columns: list[str]
    configs: np.ndarray           # (N, g) int
    results: np.ndarray           # (N,) records: score, coef (g,), error
    ranked: np.ndarray            # (n_scored,) config ids
    best: BestConfig | None

    def covariates(self, config_id: int) -> tuple[str, ...]:
        return tuple(self.columns[p] for p in self.configs[config_id].tolist())


def _columns(M: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(B, rows, q) stack of the column subsets ``cols`` (B, q) of ``M``."""
    return np.ascontiguousarray(M[:, cols].transpose(1, 0, 2))


def _rank(scores: np.ndarray) -> np.ndarray:
    """Config ids of the scored configurations, best first; ties within ``TIE_RTOL`` by id."""
    ids = np.flatnonzero(~np.isnan(scores))
    s = scores.tolist()
    ranked: list[int] = []
    run: list[int] = []
    for i in ids[np.argsort(-scores[ids], kind="stable")].tolist():  # by score, then by id
        if run and s[run[0]] - s[i] > TIE_RTOL * abs(s[run[0]]):
            ranked += sorted(run)
            run = []
        run.append(i)
    return np.array(ranked + sorted(run), dtype=np.intp)


def select_model(kind: str, response: np.ndarray, fm: FeatureMatrix, configs: np.ndarray,
                 controls: np.ndarray | None = None,
                 control_columns: list[str] | None = None) -> ModelSelection:
    """Fit every configuration and rank by goodness of fit.

    ``configs`` is an (N, g) integer array: row i holds configuration
    i's covariates as positions in ``fm.columns``. Logistic
    configurations rank by log-likelihood, linear ones by R^2. Every
    design is a column subset of the fit sample's full design
    ``Z = [1, F, C]``, which is factored once, ``Z = QR``.
    The checks of ``fit_logistic`` and ``fit_linear`` and their messages
    apply in the same order: those that read only the response run once,
    and one that fails fails every configuration; rank is decided on each
    configuration's ``R`` columns; a constant linear response then fails
    every full-rank configuration. Configurations are fitted
    ``SELECT_CHUNK`` at a time as stacks of their ``R`` columns (linear)
    or of their full designs (logistic); each keeps only its score and
    covariate coefficients, and the best is refit with ``fit_logistic``
    or ``fit_linear`` for its inference and takes that fit's score.
    Individual failures are recorded, not fatal.
    """
    if kind not in ("logistic", "linear"):
        raise ConfigError(f"unknown model kind {kind!r}")
    configs = np.asarray(configs)
    if configs.ndim != 2 or configs.dtype.kind not in "iu":
        raise ConfigError("configurations must be an (N, g) integer array of column positions")
    y = np.asarray(response, dtype=float)
    n = len(y)
    n_configs, g = configs.shape
    C, ctl_names = _block(n, controls if kind == "linear" else None, control_columns, "c")
    results = np.empty(n_configs,
                       dtype=[("score", float), ("coef", float, (g,)), ("error", object)])
    results["score"] = results["coef"] = np.nan
    try:  # the checks that read only the response
        if kind == "logistic":
            _binary_p_hat(y)
        else:
            _require_residual_df(n, 1 + g + C.shape[1])
    except ConfigError as exc:
        results["error"], n_configs = str(exc), 0  # every configuration fails; none is fitted
    constant = None  # a constant linear response: the error of every full-rank configuration
    if kind == "linear":
        try:
            tss = _total_ss(y)
        except ConfigError as exc:
            constant = str(exc)

    full = np.hstack([np.ones((n, 1)), fm.data, C])
    names = [INTERCEPT, *fm.columns, *ctl_names]
    qmat, rmat = np.linalg.qr(full)
    qty = qmat.T @ y
    resid = y - qmat @ qty
    rss_perp = float(resid @ resid)
    ctl_idx = np.arange(1 + fm.data.shape[1], full.shape[1])
    for start in range(0, n_configs, SELECT_CHUNK):
        chunk = configs[start:start + SELECT_CHUNK]
        block = results[start:start + len(chunk)]
        cols = np.column_stack([np.zeros(len(chunk), dtype=np.intp), 1 + chunk.astype(np.intp),
                                np.tile(ctl_idx, (len(chunk), 1))])
        small = _columns(rmat, cols)
        ok = _full_rank(small, n)
        for b in np.flatnonzero(~ok).tolist():
            block["error"][b] = str(RankDeficientError(
                _collinear_columns(full[:, cols[b]], [names[c] for c in cols[b]])))
        fit_idx = np.flatnonzero(ok)
        if kind == "logistic":
            stack = _columns(full, cols[fit_idx])
            beta, _, converged = _irls(stack, y)
            good = converged & ~_separated(beta)
            block["error"][fit_idx[~good]] = "did not converge"
            fit_idx, beta = fit_idx[good], beta[good]
            block["score"][fit_idx] = _log_likelihood(stack[good], beta, y)
        elif constant is not None:
            block["error"][fit_idx] = constant
            continue
        else:
            # ‖y − Z_S β‖² = ‖y − QQᵀy‖² + ‖Qᵀy − R_S β‖²
            beta, rss, _ = _ols(small[fit_idx], qty)
            block["score"][fit_idx] = 1.0 - (rss_perp + rss) / tss
        block["coef"][fit_idx] = beta[:, 1:1 + g]
    sel = ModelSelection(list(fm.columns), configs, results, _rank(results["score"]), None)
    if len(sel.ranked):
        config_id = int(sel.ranked[0])
        covariates = sel.covariates(config_id)
        X = fm.select(covariates)
        if kind == "logistic":
            fit = fit_logistic(y, X, list(covariates))
            results["score"][config_id] = fit.log_likelihood
        else:
            fit = fit_linear(y, X, controls, list(covariates), control_columns)
            results["score"][config_id] = fit.r2
        sel.best = BestConfig(config_id, covariates, fit)
    return sel


# ---------------------------------------------------------------------------
# Stability sweeps
# ---------------------------------------------------------------------------

@dataclass
class SweepRow:
    window: int
    n_firms: int
    term: str
    estimate: float
    se: float
    lo95: float
    hi95: float


@dataclass
class WindowSweepResult:
    rows: list[SweepRow]
    firm_counts: dict[int, int]


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


def responses(kind: str, trajs: list[Trajectory], regimes: dict[str, str] | None,
              first_amounts: dict[str, float],
              subsectors: dict[str, str]) -> tuple[list[str], np.ndarray, np.ndarray, list[str]]:
    """(firms, y, controls, control names) of one response over a fit sample.

    ``logistic`` is HIGH-regime membership (``regimes`` maps firm to
    regime; no controls). ``linear_agg`` is log(1+x) of the final
    cumulative amount, controlled for the log first-round amount and the
    subsector. ``linear_diff`` is log(1+x) of the amount raised after the
    first round, over the firms that raised any, controlled for the
    subsector. ``functional`` is the raw trajectory matrix (no controls).
    The main fits and the window sweep both take their responses from here.
    """
    firms = [t.firm_id for t in trajs]
    if kind == "logistic":
        y = np.array([1.0 if regimes[f] == HIGH else 0.0 for f in firms])
        C, cnames = np.empty((len(firms), 0)), []
    elif kind == "linear_agg":
        y = np.log1p(np.array([t.values[-1] for t in trajs], dtype=float))
        C, cnames = build_controls(firms, first_amounts, subsectors, True)
    elif kind == "linear_diff":
        diffs = np.array([t.values[-1] - first_amounts[t.firm_id] for t in trajs])
        keep = diffs > 0
        firms = [f for f, k in zip(firms, keep) if k]
        y = np.log1p(diffs[keep])
        C, cnames = build_controls(firms, first_amounts, subsectors, False)
    elif kind == "functional":
        y = np.array([t.values for t in trajs], dtype=float)
        C, cnames = np.empty((len(firms), 0)), []
    else:
        raise ConfigError(f"unknown response kind {kind!r}")
    return firms, y, C, cnames


def window_sweep(deals: list, meta: dict[str, FirmMeta], fm: FeatureMatrix,
                 first_amounts: dict[str, float], subsectors: dict[str, str],
                 configs: dict[str, tuple[str, ...]], w_range: list[int],
                 **kmeans) -> dict[str, WindowSweepResult]:
    """Refit each kind's fixed configuration for each window size.

    ``configs`` maps each scalar response kind (``linear_agg``,
    ``linear_diff`` or ``logistic``) to its configuration. One pass per
    window builds the window's trajectories, clusters them once into
    k-means regimes when ``logistic`` is swept (``kmeans`` goes to
    ``functional_kmeans``), and refits every kind from them through
    ``responses``. Each kind's result reports each coefficient with its
    1.96-standard-error band plus the per-window firm count. A firm count
    that increases with the window raises a ``warnings.warn``, and so do a
    failed fit and a window without a firm to fit, which is not clustered
    or fitted; each is warned as it happens, window by window and kind by
    kind, and its message starts with the kind. Returns one result per
    kind, in the order of ``configs``.
    """
    if "functional" in configs:
        raise ConfigError("window_sweep refits scalar responses; 'functional' is not one")
    results = {kind: WindowSweepResult([], {}) for kind in configs}
    prev_counts: dict[str, int] = {}
    in_fm = set(fm.row_ids)
    for window in w_range:
        trajs = [t for t in build_trajectories(deals, meta, window).trajectories
                 if t.firm_id in in_fm]
        cluster = "logistic" in configs and trajs
        regimes = functional_kmeans(trajs, **kmeans).regimes if cluster else None
        for kind, config in configs.items():
            result = results[kind]
            firms, y, C, cnames = responses(kind, trajs, regimes, first_amounts, subsectors)
            result.firm_counts[window] = len(firms)
            prev = prev_counts.get(kind)
            if prev is not None and len(firms) > prev:
                _warnings.warn(f"{kind}: firm count increased from {prev} to {len(firms)} "
                               f"at window {window}")
            prev_counts[kind] = len(firms)
            if not firms:
                _warnings.warn(f"{kind}: window {window}: fit failed (empty fit sample: "
                               f"no firm to fit for a {window}-year window)")
                continue
            X = fm.take_rows(firms).select(config)
            try:
                fit = fit_logistic(y, X, list(config)) if kind == "logistic" else \
                    fit_linear(y, X, C, list(config), cnames)
            except VcnetError as exc:
                _warnings.warn(f"{kind}: window {window}: fit failed ({exc})")
                continue
            for name, coef, se in zip(fit.columns, fit.coef.tolist(), fit.se.tolist()):
                result.rows.append(SweepRow(window, len(firms), name, coef, se,
                                            coef - 1.96 * se, coef + 1.96 * se))
    return results


@dataclass
class GroupStats:
    group: int
    mean: float
    sd: float
    n_configs: int
    share_positive: float
    q05: float
    q25: float
    q50: float
    q75: float
    q95: float


PERTURBATION_HEADER = [f.name for f in fields(GroupStats)]


def perturbation_sweep(groups: dict[str, int], selection: ModelSelection) -> list[GroupStats]:
    """Per-group coefficient distribution across the scored configurations, by group id.

    ``groups`` maps every one of the selection's columns to its group.
    A configuration holds one covariate per group, each group in its own
    position (``enumerate_configs``), so coefficient column j of the
    scored configurations is one group's sample, in config id order.
    Raises ``ConfigError`` when a position of the configurations holds
    covariates of more than one group, or two positions the same group.
    With no scored configuration there are no groups.

    ``sd`` is the sample standard deviation (0 for one configuration),
    ``share_positive`` the share of coefficients strictly above 0, and
    ``q05`` to ``q95`` are quantiles by numpy's default rule (``linear``:
    interpolated between the two nearest order statistics).
    """
    group_of = np.array([groups[c] for c in selection.columns])
    held = [np.unique(group_of[position]).tolist() for position in selection.configs.T]
    if len({tuple(grps) for grps in held if len(grps) == 1}) < len(held):
        raise ConfigError(f"perturbation sweep: each configuration position must hold one "
                          f"group of its own; the positions hold groups {held}")
    scored = np.flatnonzero(~np.isnan(selection.results["score"]))
    samples = {grp: selection.results["coef"][scored, j] for j, [grp] in enumerate(held)}
    return [GroupStats(grp, float(v.mean()), float(v.std(ddof=1)) if len(v) > 1 else 0.0, len(v),
                       float((v > 0).mean()),
                       *np.quantile(v, (0.05, 0.25, 0.5, 0.75, 0.95)).tolist())
            for grp, v in sorted(samples.items()) if len(v)]


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


def confusion_vs_standard(regimes: dict[str, str], meta: dict[str, FirmMeta],
                          first_years: dict[str, int], window: int) -> ConfusionReport:
    """Compare HIGH-regime membership (firm -> regime) against exit-based success.

    Standard success means an ACQUIRED/IPO/MERGED status dated within
    ``window`` calendar years of the firm's first investment.
    """
    tp = fn = fp = tn = 0
    for firm, regime in regimes.items():
        truth = firm in meta and meta[firm].exits_within(first_years[firm], window)
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

def fit_dict(fit: LogisticFit | LinearFit) -> dict:
    """The fit's model, its scalar fields and one ``terms`` entry per column."""
    model, stat = ("logistic", "z") if isinstance(fit, LogisticFit) else ("linear", "t")
    per_term = ("coef", "se", stat, "p")
    scalars = {name: value for name, value in vars(fit).items()
               if name not in per_term and not name.endswith("columns")}
    return {"model": model, **scalars,
            "terms": [dict(zip(("term", "estimate", "se", stat, "p"), term))
                      for term in zip(fit.columns, *(getattr(fit, a) for a in per_term))]}


def write_leaderboard_csv(selection: ModelSelection, path: str | Path) -> None:
    """Ranked configurations with their scores, then the failed ones with their errors."""
    names = selection.covariates
    scores, errors = selection.results["score"], selection.results["error"]
    # rows are made as they are written; a numpy integer is written as its digits
    write_csv(path, ["rank", "config_id", "covariates", "score", "error"], chain(
        ([rank, i, ";".join(names(i)), scores[i], None]
         for rank, i in enumerate(selection.ranked, start=1)),
        ([None, i, ";".join(names(i)), None, errors[i] or "failed"]
         for i in np.flatnonzero(np.isnan(scores)))))


def write_functional_curves(fit: FunctionalFit, path: str | Path) -> None:
    """Every coefficient curve in one table, terms in fit order: one
    ``term,t,estimate,se,lo95,hi95`` row per term and grid point."""
    curves = [getattr(fit, a).tolist() for a in ("coef", "se", "lo95", "hi95")]
    write_csv(path, ["term", "t", "estimate", "se", "lo95", "hi95"],
              ([name, t, *cells] for j, name in enumerate(fit.columns)
               for t, cells in enumerate(zip(*(curve[j] for curve in curves)))))


def write_perturbation_csv(stats: list[GroupStats], path: str | Path) -> None:
    write_csv(path, PERTURBATION_HEADER, map(astuple, stats))
