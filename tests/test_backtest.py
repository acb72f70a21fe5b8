"""Hypergeometric tail exactness and the ranked investment strategy."""

from datetime import date as Date
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import exact_hypergeom_upper_tail, hypergeom_pmf

from vcnet.backtest import hypergeom_pvalue, run_strategy
from vcnet.centrality import CentralityFrame
from vcnet.errors import ConfigError
from vcnet.graph import FIRM
from vcnet.ingest import FirmMeta


class TestHypergeomPvalue:
    def test_worked_example_10_45(self):
        assert hypergeom_pvalue(10, 5, 2, 2) == pytest.approx(10 / 45, abs=1e-14)

    def test_k_zero_is_certain(self):
        assert hypergeom_pvalue(50, 13, 7, 0) == 1.0

    def test_all_successes_population(self):
        for k in range(6):
            assert hypergeom_pvalue(20, 20, 5, k) == 1.0

    def test_upper_tail_at_zero_is_exactly_one(self):
        assert hypergeom_pvalue(30, 11, 9, 0) == 1.0

    @pytest.mark.parametrize("bad", [
        (5, 6, 2, 1),   # K > N
        (5, 3, 6, 1),   # n > N
        (5, 3, 2, 3),   # k > n
        (5, 3, 2, -1),  # k < 0
    ])
    def test_invalid_parameters_raise(self, bad):
        with pytest.raises(ConfigError):
            hypergeom_pvalue(*bad)

    def test_non_integer_parameters_raise(self):
        with pytest.raises(ConfigError):
            hypergeom_pvalue(10.0, 5, 2, 2)

    @pytest.mark.parametrize("cast", [np.int64, np.int32, np.uint8])
    def test_numpy_integers_give_the_python_int_p_value(self, cast):
        for args in [(10, 3, 4, 1), (30, 11, 9, 4), (50, 13, 7, 0)]:
            assert hypergeom_pvalue(*map(cast, args)) == hypergeom_pvalue(*args)

    @pytest.mark.parametrize("args", [(True, 1, 1, 1), (10, 5, 2, np.True_), (10, 5, False, 0)])
    def test_bool_parameters_raise(self, args):
        with pytest.raises(ConfigError, match="must be integers"):
            hypergeom_pvalue(*args)

    def test_matches_rational_enumeration_sampled(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            N = int(rng.integers(1, 31))
            K = int(rng.integers(0, N + 1))
            n = int(rng.integers(0, N + 1))
            k = int(rng.integers(0, n + 1))
            exact = float(exact_hypergeom_upper_tail(N, K, n, k))
            assert abs(hypergeom_pvalue(N, K, n, k) - exact) < 1e-12

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_rational_enumeration_property(self, data):
        N = data.draw(st.integers(0, 60))
        K = data.draw(st.integers(0, N))
        n = data.draw(st.integers(0, N))
        k = data.draw(st.integers(0, n))
        exact = float(exact_hypergeom_upper_tail(N, K, n, k))
        assert abs(hypergeom_pvalue(N, K, n, k) - exact) < 1e-12

    def test_pmf_sums_to_one(self):
        for (N, K, n) in [(10, 4, 3), (25, 10, 12), (30, 30, 7), (8, 0, 5)]:
            total = sum(hypergeom_pmf(N, K, n, i) for i in range(n + 1))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_pvalue_is_pmf_tail(self):
        N, K, n = 22, 9, 8
        for k in range(n + 1):
            tail = sum(hypergeom_pmf(N, K, n, i) for i in range(k, n + 1))
            assert hypergeom_pvalue(N, K, n, k) == pytest.approx(tail, abs=1e-12)


def _frame(year, values):
    nodes = tuple(sorted(values))
    return CentralityFrame(year, FIRM, nodes,
                           {"closeness_centrality": np.array([values[f] for f in nodes]),
                            "voterank": np.arange(1, len(nodes) + 1)})


def _meta(firm, exit_year=None):
    if exit_year is None:
        return FirmMeta(firm, "bio", "US", "ACTIVE", None)
    return FirmMeta(firm, "bio", "US", "ACQUIRED", Date(exit_year, 6, 1))


class TestRunStrategy:
    def test_fully_successful_pool(self):
        firms = [f"f{i:02d}" for i in range(25)]
        meta = {f: _meta(f, exit_year=2004) for f in firms}
        first = {f: 2000 for f in firms}
        frames = {2000: _frame(2000, {f: 1.0 for f in firms})}
        rep = run_strategy(frames, meta, first, "closeness_centrality",
                           top_n=25, horizon=8, start_years=(2000, 2000))
        assert rep.years[0].success_rate == 1.0
        assert rep.mean_rate == 1.0

    def test_constant_measure_selects_by_id_and_matches_prevalence(self):
        rng = np.random.default_rng(17)
        firms = [f"f{i:03d}" for i in range(200)]
        success = {f: bool(rng.random() < 0.3) for f in firms}
        meta = {f: _meta(f, exit_year=2005 if success[f] else None) for f in firms}
        first = {f: 2000 for f in firms}
        frames = {2000: _frame(2000, {f: 0.5 for f in firms})}
        rep = run_strategy(frames, meta, first, "closeness_centrality",
                           top_n=25, horizon=8, start_years=(2000, 2000))
        picked_rate = rep.years[0].success_rate
        prevalence = sum(success.values()) / 200
        se = (prevalence * (1 - prevalence) / 25) ** 0.5
        assert abs(picked_rate - prevalence) <= 3 * se
        # constant measure: selection must be the 25 smallest ids
        expected = sum(1 for f in sorted(firms)[:25] if success[f]) / 25
        assert picked_rate == pytest.approx(expected)

    def test_planted_centrality_correlated_exits_beat_baseline(self):
        rng = np.random.default_rng(23)
        firms = [f"f{i:03d}" for i in range(100)]
        centrality = {f: float(i) for i, f in enumerate(firms)}
        meta = {}
        for i, f in enumerate(firms):
            p = 0.8 if i >= 70 else 0.05
            meta[f] = _meta(f, exit_year=2004 if rng.random() < p else None)
        first = {f: 2000 for f in firms}
        frames = {2000: _frame(2000, centrality)}
        rep = run_strategy(frames, meta, first, "closeness_centrality",
                           top_n=25, horizon=8, start_years=(2000, 2000))
        y = rep.years[0]
        assert y.success_rate > y.pool_successes / y.pool_size
        assert y.p_value < 0.05

    def test_voterank_sorted_ascending(self):
        firms = ["a", "b", "c"]
        meta = {"a": _meta("a", 2003), "b": _meta("b"), "c": _meta("c")}
        first = {f: 2000 for f in firms}
        frames = {2000: _frame(2000, {"a": 5.0, "b": 1.0, "c": 3.0})}
        # voterank ranks follow sorted ids: a->1, b->2, c->3; ascending pick = a
        rep = run_strategy(frames, meta, first, "voterank",
                           top_n=1, horizon=8, start_years=(2000, 2000))
        assert rep.years[0].successes == 1

    def test_short_pool_flagged_and_used_in_full(self):
        firms = ["a", "b", "c"]
        meta = {f: _meta(f) for f in firms}
        first = {f: 2000 for f in firms}
        frames = {2000: _frame(2000, {f: 1.0 for f in firms})}
        rep = run_strategy(frames, meta, first, "closeness_centrality",
                           top_n=25, horizon=8, start_years=(2000, 2000))
        y = rep.years[0]
        assert y.short_pool and y.n_selected == 3

    def test_firms_exited_before_start_year_excluded_from_pool(self):
        meta = {"old": _meta("old", exit_year=1999), "new": _meta("new", exit_year=2004)}
        first = {"old": 1998, "new": 2000}
        frames = {2000: _frame(2000, {"old": 9.0, "new": 1.0})}
        rep = run_strategy(frames, meta, first, "closeness_centrality",
                           top_n=25, horizon=8, start_years=(2000, 2000))
        assert rep.years[0].pool_size == 1

    def test_success_window_anchored_at_start_year(self):
        meta = {"in": _meta("in", exit_year=2008), "out": _meta("out", exit_year=2009)}
        first = {"in": 2000, "out": 2000}
        frames = {2000: _frame(2000, {"in": 1.0, "out": 2.0})}
        rep = run_strategy(frames, meta, first, "closeness_centrality",
                           top_n=25, horizon=8, start_years=(2000, 2000))
        assert rep.years[0].successes == 1  # 2008 within 8y of 2000; 2009 is not

    def test_deterministic_report(self):
        firms = [f"f{i:02d}" for i in range(40)]
        meta = {f: _meta(f, exit_year=2004 if i % 3 == 0 else None)
                for i, f in enumerate(firms)}
        first = {f: 2000 + (i % 3) for i, f in enumerate(firms)}
        frames = {y: _frame(y, {f: float((int(f[1:]) * 37) % 97) for f in firms})
                  for y in (2000, 2001, 2002)}
        a = run_strategy(frames, meta, first, "closeness_centrality",
                         top_n=5, horizon=8, start_years=(2000, 2002))
        b = run_strategy(frames, meta, first, "closeness_centrality",
                         top_n=5, horizon=8, start_years=(2000, 2002))
        assert a == b

    def test_bad_horizon_rejected(self):
        with pytest.raises(ConfigError):
            run_strategy({}, {}, {}, "pagerank", horizon=5)
