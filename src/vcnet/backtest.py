"""Centrality-ranked investment strategy with hypergeometric significance.

For each start year Y the candidate pool holds the firms first funded in
Y that have no exit dated on or before Y. Firms are ranked by one
centrality measure on the year-Y snapshot (descending, except VoteRank,
whose smaller ranks mean stronger spreaders) and the top n are picked.
A pick succeeds if the firm exits (acquisition, IPO, merger) within the
horizon, anchored at Y. The per-year success count is tested against
drawing n firms at random from the pool via the exact upper tail of the
hypergeometric distribution.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .centrality import CentralityFrame
from .errors import ConfigError
from .ingest import FirmMeta, write_csv

#: Measures ranked ascending instead of descending.
ASCENDING_MEASURES = frozenset({"voterank"})

SUPPORTED_HORIZONS = (6, 7, 8)

BACKTEST_HEADER = ["measure", "start_year", "success_rate", "p_value", "rate_sd", "n_selected",
                   "pool_size", "pool_successes", "short_pool", "group"]


def _log_choose(a: int, b: int) -> float:
    return math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)


def hypergeom_pvalue(pool_size: int, pool_successes: int, sample_size: int, observed: int) -> float:
    """Exact upper tail P(X >= observed) for Hypergeometric(N, K, n).

    Computed by log-factorial accumulation, so it stays stable for large
    parameters; exact 1.0 whenever the event is certain. Any integer type
    is taken (numpy's too, as Python ints); a bool is not a count.
    """
    params = (pool_size, pool_successes, sample_size, observed)
    if any(isinstance(p, bool) for p in params):
        raise ConfigError("hypergeometric parameters must be integers, not bools")
    try:
        N, K, n, k = map(operator.index, params)
    except TypeError:
        raise ConfigError("hypergeometric parameters must be integers") from None
    if not (0 <= k <= n <= N and 0 <= K <= N):
        raise ConfigError(f"invalid hypergeometric parameters N={N}, K={K}, n={n}, k={k}")
    lo = max(0, n + K - N)
    hi = min(n, K)
    if k <= lo:
        return 1.0
    log_denom = _log_choose(N, n)
    total = 0.0
    for i in range(k, hi + 1):
        total += math.exp(_log_choose(K, i) + _log_choose(N - K, n - i) - log_denom)
    return min(1.0, total)


# ---------------------------------------------------------------------------
# Strategy
# ---------------------------------------------------------------------------

@dataclass
class YearResult:
    start_year: int
    pool_size: int
    pool_successes: int
    n_selected: int
    successes: int
    success_rate: float
    p_value: float
    short_pool: bool


@dataclass
class BacktestReport:
    measure: str
    years: list[YearResult]
    mean_rate: float
    sd_rate: float
    group: int | None = None


def run_strategy(frames: dict[int, CentralityFrame], meta: dict[str, FirmMeta],
                 first_years: dict[str, int], measure: str, top_n: int = 25,
                 horizon: int = 8, start_years: tuple[int, int] = (2000, 2010)) -> BacktestReport:
    """Backtest one centrality measure over a range of start years.

    ``frames`` maps start year to the firm-layer frame of that year's
    snapshot; ``first_years`` maps each firm to the calendar year of its
    first investment. Pools smaller than ``top_n`` are used in full and
    flagged. Success windows are anchored at the start year. The report
    holds the per-year results and their mean and sd, not ``top_n`` or
    ``horizon``; the caller sets its ``group``.
    """
    if horizon not in SUPPORTED_HORIZONS:
        raise ConfigError(f"horizon must be one of {SUPPORTED_HORIZONS}, got {horizon}")
    if top_n < 1:
        raise ConfigError("top_n must be >= 1")
    lo, hi = start_years
    if lo > hi:
        raise ConfigError(f"start year range {start_years} is empty")
    ascending = measure in ASCENDING_MEASURES

    years: list[YearResult] = []
    for year in range(lo, hi + 1):
        pool = sorted(firm for firm, fy in first_years.items()
                      if fy == year and not (firm in meta and meta[firm].exits_within(year, 0)))
        frame = frames.get(year)
        # Smaller key ranks first; a firm without a value ranks last.
        key = {}
        if frame is not None and measure in frame.measures:
            key = dict(zip(frame.nodes, (frame.measures[measure] * (1 if ascending else -1)).tolist()))
        ranked = sorted(pool, key=lambda firm: (key.get(firm, math.inf), firm))
        selected = ranked[:top_n]
        succeeded = {f for f in pool if f in meta and meta[f].exits_within(year, horizon)}
        successes, pool_successes = len(succeeded.intersection(selected)), len(succeeded)
        n_sel = len(selected)
        rate = successes / n_sel if n_sel else 0.0
        p = hypergeom_pvalue(len(pool), pool_successes, n_sel, successes) if n_sel else 1.0
        years.append(YearResult(year, len(pool), pool_successes, n_sel, successes,
                                rate, p, short_pool=len(pool) < top_n))

    rates = np.array([y.success_rate for y in years])
    sd = float(rates.std(ddof=1)) if len(rates) > 1 else 0.0
    return BacktestReport(measure, years, float(rates.mean()), sd)


def write_backtest_csv(reports: list[BacktestReport], path: str | Path) -> None:
    """Per-year rows plus one ALL aggregate row per measure."""
    rows = []
    for rep in reports:
        rows.extend([rep.measure, y.start_year, y.success_rate, y.p_value, None, y.n_selected,
                     y.pool_size, y.pool_successes, int(y.short_pool), rep.group]
                    for y in rep.years)
        rows.append([rep.measure, "ALL", rep.mean_rate, None, rep.sd_rate,
                     None, None, None, None, rep.group])
    write_csv(path, BACKTEST_HEADER, rows)
