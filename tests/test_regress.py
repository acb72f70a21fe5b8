"""Logistic/linear/functional fits, selection, sweeps, and the confusion matrix."""

import itertools
import math
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (P_VALUE_RTOL, band_halfwidth, bf_balanced_ensemble, bf_collinear_columns,
                     bf_select_model, logistic_score_max_norm, neg_log_p, scipy_f_p, scipy_t_p)

from vcnet import regress

from vcnet.errors import ConfigError, RankDeficientError
from vcnet.features import FeatureGrouping, FeatureMatrix, enumerate_configs
from vcnet.ingest import FirmMeta, SyntheticConfig, generate_synthetic
from vcnet.regress import (SELECT_CHUNK, TIE_RTOL, ModelSelection, balanced_ensemble,
                           build_controls, confusion_metrics, confusion_vs_standard, fit_dict,
                           fit_function_on_scalar, fit_linear, fit_logistic, perturbation_sweep,
                           responses, select_model, window_sweep, write_leaderboard_csv,
                           write_perturbation_csv,
                           _balanced_rows, _irls, _wald)
from vcnet.trajectories import HIGH, LOW, Trajectory, build_trajectories


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


#: How far the stacked ``solve`` in ``_ols`` may move a single linear fit
#: (coefficients, standard errors, t, p, R^2, F and its p-value), relative
#: to a triangular back-substitution of the same QR factor.
SOLVE_RTOL = 1e-12

#: How far numpy's logistic link moves logistic fits and selection scores
#: (coefficients, standard errors, z, p, log-likelihoods), relative to
#: scipy's ``expit``: their ``exp`` can differ in the last bit.
LINK_RTOL = 1e-12


def fm_from(data, columns):
    data = np.asarray(data, dtype=float)
    return FeatureMatrix([f"r{i}" for i in range(data.shape[0])], list(columns), data)


def positions(fm, configs):
    """Equal-length covariate name tuples as the (N, g) position array of ``select_model``."""
    return np.array([[fm.columns.index(c) for c in combo] for combo in configs],
                    dtype=np.intp).reshape(len(configs), -1)


def select_each_length(kind, y, fm, configs, C=None, cnames=None):
    """``select_model`` once per configuration length, lengths in order of first appearance.

    Returns ``[(name tuples, selection)]``; config ids count within a length.
    """
    by_length = {}
    for combo in configs:
        by_length.setdefault(len(combo), []).append(combo)
    return [(combos, select_model(kind, y, fm, positions(fm, combos), C, cnames))
            for combos in by_length.values()]


class TestFitLogistic:
    def test_intercept_only_analytic_mle(self):
        y = np.array([1.0] * 25 + [0.0] * 75)
        fit = fit_logistic(y, np.empty((100, 0)))
        assert fit.converged
        assert fit.coef[0] == pytest.approx(math.log(1 / 3), abs=1e-9)

    def test_intercept_only_pseudo_r2_is_zero(self):
        y = np.array([1.0] * 25 + [0.0] * 75)
        fit = fit_logistic(y, np.empty((100, 0)))
        assert fit.pseudo_r2 == pytest.approx(0.0, abs=1e-12)

    def test_recovers_planted_coefficients(self):
        rng = np.random.default_rng(31)
        n = 10000
        x = rng.normal(size=n)
        y = (rng.random(n) < sigmoid(0.0 + 1.5 * x)).astype(float)
        fit = fit_logistic(y, x, ["x"])
        assert fit.converged
        assert abs(fit.coef[0] - 0.0) < 3 * fit.se[0]
        assert abs(fit.coef[1] - 1.5) < 3 * fit.se[1]

    def test_score_equations_hold_at_convergence(self):
        rng = np.random.default_rng(32)
        x = rng.normal(size=(400, 3))
        y = (rng.random(400) < sigmoid(x @ np.array([0.5, -1.0, 0.2]))).astype(float)
        fit = fit_logistic(y, x)
        assert fit.converged
        assert logistic_score_max_norm(fit, y, x) < 1e-6

    def test_analytic_gradient_matches_central_differences(self):
        rng = np.random.default_rng(33)
        n = 200
        X = rng.normal(size=(n, 2))
        y = (rng.random(n) < 0.5).astype(float)
        design = np.column_stack([np.ones(n), X])

        def ll(beta):
            eta = design @ beta
            return float((y * eta - np.logaddexp(0.0, eta)).sum())

        for _ in range(10):
            beta = rng.normal(scale=0.8, size=3)
            analytic = design.T @ (y - sigmoid(design @ beta))
            h = 1e-5
            numeric = np.array([
                (ll(beta + h * e) - ll(beta - h * e)) / (2 * h)
                for e in np.eye(3)
            ])
            assert np.abs(analytic - numeric).max() < 1e-4

    def test_mcfadden_identity(self):
        rng = np.random.default_rng(34)
        x = rng.normal(size=300)
        y = (rng.random(300) < sigmoid(0.8 * x)).astype(float)
        fit = fit_logistic(y, x)
        assert fit.pseudo_r2 == pytest.approx(
            1.0 - fit.log_likelihood / fit.null_log_likelihood, abs=1e-12)
        assert 0.0 <= fit.pseudo_r2 < 1.0

    def test_perfect_separation_flagged(self):
        x = np.concatenate([np.linspace(-3, -1, 20), np.linspace(1, 3, 20)])
        y = (x > 0).astype(float)
        fit = fit_logistic(y, x)
        assert fit.separated and not fit.converged

    def test_rank_deficiency_names_columns(self):
        rng = np.random.default_rng(35)
        x = rng.normal(size=100)
        X = np.column_stack([x, x])
        y = (rng.random(100) < 0.5).astype(float)
        with pytest.raises(RankDeficientError) as err:
            fit_logistic(y, X, ["dup_a", "dup_b"])
        assert set(err.value.columns) & {"dup_a", "dup_b"}

    def test_constant_response_rejected(self):
        with pytest.raises(ConfigError):
            fit_logistic(np.ones(10), np.empty((10, 0)))

    def test_numpy_link_moves_fits_within_stated_tolerance(self, monkeypatch):
        rng = np.random.default_rng(36)
        for _ in range(100):
            n, k = int(rng.integers(40, 300)), int(rng.integers(1, 6))
            X = rng.normal(size=(n, k))
            y = (rng.random(n) < sigmoid(X @ rng.uniform(-1.5, 1.5, size=k) - 0.5)).astype(float)
            new = fit_logistic(y, X)
            with monkeypatch.context() as m:
                m.setattr(regress, "_expit", scipy.special.expit)
                old = fit_logistic(y, X)
            assert (new.n_iter, new.converged) == (old.n_iter, old.converged)
            for name in ("coef", "se", "z", "p", "log_likelihood", "pseudo_r2"):
                np.testing.assert_allclose(getattr(new, name), getattr(old, name),
                                           rtol=LINK_RTOL, atol=0, err_msg=name)
        # selection: the same ranking, scores within the tolerance
        base = rng.normal(size=(200, 8))
        y = (rng.random(200) < sigmoid(base[:, 0] - 0.7 * base[:, 3])).astype(float)
        fm = fm_from(base, [f"c{j}" for j in range(8)])
        configs = positions(fm, list(itertools.combinations(fm.columns, 2)))
        new = select_model("logistic", y, fm, configs)
        with monkeypatch.context() as m:
            m.setattr(regress, "_expit", scipy.special.expit)
            old = select_model("logistic", y, fm, configs)
        assert new.ranked.tolist() == old.ranked.tolist()
        np.testing.assert_allclose(new.results["score"][new.ranked],
                                   old.results["score"][old.ranked], rtol=LINK_RTOL, atol=0)


class TestBalancedEnsemble:
    def test_already_balanced_has_zero_sd(self):
        rng = np.random.default_rng(41)
        n = 120
        x = rng.normal(size=n)
        y = np.array([1.0] * 60 + [0.0] * 60)
        ens = balanced_ensemble(y, x, n_reps=20, seed=1)
        assert ens.n_reps == 20
        assert np.all(ens.coef_sd == 0.0)

    def test_planted_sign_recovery(self):
        rng = np.random.default_rng(42)
        n = 600
        x = rng.normal(size=n)
        y = (rng.random(n) < sigmoid(-1.2 + 1.8 * x)).astype(float)
        ens = balanced_ensemble(y, x, n_reps=200, seed=2, columns=["x"])
        signs = np.sign(ens.coefs[:, 1])
        assert (signs > 0).mean() >= 0.95

    def test_minority_too_small_raises(self):
        y = np.array([1.0] * 2 + [0.0] * 50)
        X = np.random.default_rng(43).normal(size=(52, 3))
        with pytest.raises(ConfigError):
            balanced_ensemble(y, X, n_reps=5, seed=3)

    def test_deterministic_summary(self):
        rng = np.random.default_rng(44)
        n = 300
        x = rng.normal(size=n)
        y = (rng.random(n) < sigmoid(-0.8 + x)).astype(float)
        a = balanced_ensemble(y, x, n_reps=50, seed=9)
        b = balanced_ensemble(y, x, n_reps=50, seed=9)
        assert np.array_equal(a.coefs, b.coefs)
        assert a.mean_log_likelihood == b.mean_log_likelihood

    def test_report_fields_present(self):
        # the ensemble summary must expose mean log-likelihood and
        # mean/max pseudo-R^2 for downstream reports
        rng = np.random.default_rng(45)
        x = rng.normal(size=200)
        y = (rng.random(200) < sigmoid(x)).astype(float)
        ens = balanced_ensemble(y, x, n_reps=10, seed=4)
        assert ens.mean_log_likelihood < 0
        assert 0 <= ens.mean_pseudo_r2 <= ens.max_pseudo_r2 < 1
        assert neg_log_p(ens).shape == ens.coefs.shape


def assert_same_ensemble(got, want):
    assert got.columns == want.columns
    for name in ("coefs", "p_values", "coef_mean", "coef_sd"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    for name in ("mean_log_likelihood", "mean_pseudo_r2", "max_pseudo_r2", "n_reps",
                 "n_discarded"):
        assert getattr(got, name) == getattr(want, name), name


def overlapping_classes(n_overlap=4):
    """12 ones at x > 0 and 60 zeros, ``n_overlap`` of them among the ones:
    a subsample that draws no overlapping zero is perfectly separated."""
    rng = np.random.default_rng(51)
    x = np.concatenate([rng.uniform(0.5, 2.0, 12), rng.uniform(-3, -0.2, 60 - n_overlap),
                        rng.uniform(0.6, 1.8, n_overlap)])
    return np.concatenate([np.ones(12), np.zeros(60)]), x


def sometimes_collinear():
    """c2 = 2 * c1 except on two majority rows (one +1, one -1): a subsample
    without either is rank deficient, with one is separated, with both fits."""
    rng = np.random.default_rng(52)
    y = np.zeros(100)
    y[rng.permutation(100)[:40]] = 1.0
    z, c1 = rng.normal(size=100), rng.normal(size=100)
    majority = np.flatnonzero(y == 0)
    c2 = 2 * c1
    c2[majority[0]] += 1.0
    c2[majority[1]] -= 1.0
    return y, np.column_stack([z, c1, c2]), majority[:2]


class TestStackedBalancedEnsemble:
    """Blocks of stacked replicates against one ``fit_logistic`` per attempt."""

    def test_separated_replicates_are_discarded_like_the_oracle(self):
        y, x = overlapping_classes()
        got = balanced_ensemble(y, x, n_reps=30, seed=5, columns=["x"])
        assert_same_ensemble(got, bf_balanced_ensemble(y, x, n_reps=30, seed=5, columns=["x"]))
        assert got.n_reps == 30 and got.n_discarded > 0

    def test_converged_replicates_beyond_the_separation_bound_are_discarded(self):
        # x at 1/20 scale puts the slope near SEPARATION_BOUND, on either side of it
        rng = np.random.default_rng(54)
        base = rng.normal(size=300)
        y = (rng.random(300) < sigmoid(-1.0 + 1.5 * base)).astype(float)
        x = 0.05 * base
        got = balanced_ensemble(y, x, n_reps=40, seed=3)
        assert_same_ensemble(got, bf_balanced_ensemble(y, x, n_reps=40, seed=3))
        assert got.n_reps > 0 and got.n_discarded > 0
        assert np.abs(got.coefs).max() <= regress.SEPARATION_BOUND

    def test_rank_deficient_subsamples_and_the_attempt_cap(self):
        y, X, rows = sometimes_collinear()
        got = balanced_ensemble(y, X, n_reps=100, seed=6)
        assert_same_ensemble(got, bf_balanced_ensemble(y, X, n_reps=100, seed=6))
        assert 0 < got.n_reps < 100 and got.n_reps + got.n_discarded == 200   # cap reached
        minority, majority = np.flatnonzero(y == 1), np.flatnonzero(y == 0)
        without = [a for a in range(200)
                   if not set(rows) & set(_balanced_rows(minority, majority, 6, a))]
        assert without   # some attempts drew a rank-deficient subsample

    def test_already_balanced_classes_match_the_oracle(self):
        rng = np.random.default_rng(41)
        x = rng.normal(size=120)
        y = np.array([1.0, 0.0] * 60)
        got = balanced_ensemble(y, x, n_reps=70, seed=1)
        assert_same_ensemble(got, bf_balanced_ensemble(y, x, n_reps=70, seed=1))

    def test_planted_data_matches_the_oracle_across_blocks(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(400, 2))
        y = (rng.random(400) < sigmoid(-1.2 + x @ np.array([1.8, -0.4]))).astype(float)
        got = balanced_ensemble(y, x, n_reps=150, seed=2)
        assert got.n_reps > SELECT_CHUNK
        assert_same_ensemble(got, bf_balanced_ensemble(y, x, n_reps=150, seed=2))

    def test_every_replicate_failing_raises_like_the_oracle(self):
        y, x = overlapping_classes(n_overlap=0)
        with pytest.raises(ConfigError, match="every balanced replicate failed") as err:
            balanced_ensemble(y, x, n_reps=10, seed=5)
        with pytest.raises(ConfigError) as oracle_err:
            bf_balanced_ensemble(y, x, n_reps=10, seed=5)
        assert str(err.value) == str(oracle_err.value)

    @pytest.mark.parametrize("block", [1, 3])
    def test_block_size_does_not_change_the_result(self, monkeypatch, block):
        y, X, _ = sometimes_collinear()
        want = balanced_ensemble(y, X, n_reps=12, seed=7)
        assert want.n_discarded > 0
        monkeypatch.setattr(regress, "SELECT_CHUNK", block)
        assert_same_ensemble(balanced_ensemble(y, X, n_reps=12, seed=7), want)

    def test_singular_information_gives_nan_se_for_its_own_fit_only(self):
        rng = np.random.default_rng(53)
        n = 120
        x = rng.normal(size=(n, 2))
        y = (rng.random(n) < sigmoid(x[:, 0] - x[:, 1])).astype(float)
        single = fit_logistic(y, x)
        good = np.column_stack([np.ones(n), x])
        singular = np.column_stack([np.ones(n), x[:, 0], np.zeros(n)])
        beta = np.stack([single.coef, np.array([0.1, 0.2, 0.0]), single.coef])
        se, z, p = _wald(np.stack([good, singular, good]), beta)
        assert np.isnan(se[1]).all()
        for row in (0, 2):
            np.testing.assert_array_equal(se[row], single.se)
            np.testing.assert_array_equal(z[row], single.z)
            np.testing.assert_array_equal(p[row], single.p)


class TestFitLinear:
    def test_exact_line(self):
        x = np.arange(10.0)
        fit = fit_linear(2.0 * x, x, columns=["x"])
        assert fit.coef[1] == pytest.approx(2.0, abs=1e-10)
        assert fit.coef[0] == pytest.approx(0.0, abs=1e-9)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_independent_noise_has_null_coefficients(self):
        rng = np.random.default_rng(51)
        n, p = 500, 3
        X = rng.normal(size=(n, p))
        y = rng.normal(size=n)
        fit = fit_linear(y, X)
        for j in range(1, p + 1):
            assert abs(fit.coef[j]) < 3 * fit.se[j]
        assert fit.r2 < 0.05
        assert fit.adj_r2 <= fit.r2

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(52)
        for _ in range(30):
            n = int(rng.integers(10, 50))
            p = int(rng.integers(1, min(6, n - 2)))
            X = rng.normal(size=(n, p))
            y = rng.normal(size=n)
            fit = fit_linear(y, X)
            D = np.column_stack([np.ones(n), X])
            beta = np.linalg.solve(D.T @ D, D.T @ y)
            assert np.abs(fit.coef - beta).max() < 1e-8
            resid = y - D @ beta
            sig2 = resid @ resid / (n - p - 1)
            se = np.sqrt(np.diag(sig2 * np.linalg.inv(D.T @ D)))
            assert np.abs(fit.se - se).max() < 1e-8

    def test_controls_reported_separately(self):
        rng = np.random.default_rng(53)
        n = 80
        X = rng.normal(size=(n, 2))
        C = rng.normal(size=(n, 1))
        y = X @ np.array([1.0, -0.5]) + 0.3 * C[:, 0] + rng.normal(size=n)
        fit = fit_linear(y, X, C, ["a", "b"], ["ctl"])
        assert fit.covariate_columns == ["a", "b"]
        assert fit.control_columns == ["ctl"]
        assert fit.columns == ["intercept", "a", "b", "ctl"]
        assert fit.f_df == (3, n - 4)

    def test_rank_deficiency_names_columns(self):
        rng = np.random.default_rng(54)
        x = rng.normal(size=60)
        with pytest.raises(RankDeficientError) as err:
            fit_linear(rng.normal(size=60), np.column_stack([x, 2 * x]), columns=["a", "twice_a"])
        assert err.value.columns

    def test_too_few_rows_raises(self):
        with pytest.raises(ConfigError):
            fit_linear(np.arange(3.0), np.eye(3))

    def test_stacked_solve_moves_single_fits_within_stated_tolerance(self, monkeypatch):
        # _ols back-substitutes with numpy's stacked solve; against scipy's
        # one-matrix-at-a-time solve_triangular, every output of a single fit
        # stays within SOLVE_RTOL relative
        def triangular_ols(designs, y):
            qmat, rmat = np.linalg.qr(designs)
            beta = scipy.linalg.solve_triangular(rmat, qmat.mT @ y[:, None])
            resid = y - (designs @ beta)[:, :, 0]
            return beta[:, :, 0], (resid * resid).sum(axis=1), rmat

        rng = np.random.default_rng(55)
        for _ in range(200):
            n = int(rng.integers(12, 120))
            k, c = int(rng.integers(1, 6)), int(rng.integers(0, 3))
            X, C = rng.normal(size=(n, k)), rng.normal(size=(n, c))
            coef = rng.uniform(0.3, 1.0, size=1 + k + c) * rng.choice([-1.0, 1.0], size=1 + k + c)
            y = coef[0] + np.column_stack([X, C]) @ coef[1:] + rng.normal(size=n)
            new = fit_linear(y, X, C)
            with monkeypatch.context() as m:
                m.setattr(regress, "_ols", triangular_ols)
                old = fit_linear(y, X, C)
            for name in ("coef", "se", "t", "p", "r2", "adj_r2", "fstat", "f_pvalue", "sigma2"):
                np.testing.assert_allclose(getattr(new, name), getattr(old, name),
                                           rtol=SOLVE_RTOL, atol=0, err_msg=name)


    def test_covariates_that_explain_nothing_get_f_p_value_one(self):
        # x is orthogonal to 1 and y, so R^2 is 0 up to rounding, which can
        # leave rss above tss: F is clamped at 0, whose p-value is 1
        rng = np.random.default_rng(56)
        fits = []
        for _ in range(300):
            n = int(rng.integers(20, 200))
            y = rng.normal(size=n)
            x = rng.normal(size=n)
            basis = np.column_stack([np.ones(n), y])
            x -= basis @ np.linalg.lstsq(basis, x, rcond=None)[0]
            fits.append(fit_linear(y, x))
        assert all(f.fstat >= 0.0 and 0.0 <= f.f_pvalue <= 1.0 for f in fits)
        assert all(f.f_pvalue == 1.0 for f in fits if f.fstat == 0.0)
        assert any(f.fstat == 0.0 for f in fits)

    def test_p_values_match_scipy_within_stated_tolerance(self):
        rng = np.random.default_rng(57)
        for _ in range(100):
            n = int(rng.integers(8, 400))
            k, c = int(rng.integers(1, 6)), int(rng.integers(0, 3))
            X, C = rng.normal(size=(n, k)), rng.normal(size=(n, c))
            y = X @ rng.uniform(-0.5, 0.5, size=k) + rng.normal(size=n)
            fit = fit_linear(y, X, C)
            df = n - len(fit.columns)
            np.testing.assert_allclose(fit.p, scipy_t_p(df, fit.t), rtol=P_VALUE_RTOL, atol=0)
            assert fit.f_pvalue == pytest.approx(scipy_f_p(*fit.f_df, fit.fstat),
                                                 rel=P_VALUE_RTOL, abs=0)


t_p = np.vectorize(regress._t_p)


class TestPValues:
    """The incomplete-beta p-values of ``fit_linear`` on their own."""

    DF = [*range(1, 31), 47, 64, 99, 128, 200, 301, 487, 512, 750, 999, 1000]

    def test_t_matches_scipy_over_df_and_t(self):
        rng = np.random.default_rng(58)
        t = np.concatenate([[0.0, 40.0], np.geomspace(1e-6, 40, 80), rng.uniform(0, 40, 80)])
        for df in self.DF:
            np.testing.assert_allclose(t_p(df, t), scipy_t_p(df, t),
                                       rtol=P_VALUE_RTOL, atol=0, err_msg=str(df))
            np.testing.assert_array_equal(t_p(df, -t), t_p(df, t))

    def test_f_matches_scipy_over_df_and_f(self):
        # Below about 1e-250 scipy's fdtrc loses digits as its intermediates
        # underflow (4e-11 relative at 1.3e-300 for F(14, 870), 3e-3 at
        # 5.7e-308, against 60-digit arithmetic); the closed forms below
        # check that tail instead.
        rng = np.random.default_rng(59)
        f = np.concatenate([[0.0, 1e3], np.geomspace(1e-6, 1e3, 40), rng.uniform(0, 1e3, 40)])
        for df1 in (1, 2, 3, 4, 5, 7, 9, 12, 14):
            for df2 in self.DF:
                for v in f:
                    want = scipy_f_p(df1, df2, v)
                    if want >= 1e-250:
                        assert regress._f_p(df1, df2, v) == pytest.approx(
                            want, rel=P_VALUE_RTOL, abs=0), (df1, df2, v)

    def test_closed_forms_near_zero_and_deep_in_the_tail(self):
        # df 1 and 2 for t, df1 = 2 for F have closed forms; scipy's stdtr
        # at df 1 is off by 3e-9 relative at t = 1e-8, these are not
        t = np.concatenate([[0.0], np.geomspace(1e-12, 1e6, 120)])
        np.testing.assert_allclose(t_p(1, t), 2.0 / math.pi * np.arctan2(1.0, t),
                                   rtol=P_VALUE_RTOL, atol=0)
        s = np.sqrt(2.0 + t * t)
        np.testing.assert_allclose(t_p(2, t), 2.0 / (s * (s + t)),
                                   rtol=P_VALUE_RTOL, atol=0)
        for df2 in self.DF:
            for v in np.geomspace(1e-6, 1e3, 30):
                want = (df2 / (df2 + 2.0 * v)) ** (df2 / 2.0)
                assert regress._f_p(2, df2, v) == pytest.approx(want, rel=P_VALUE_RTOL, abs=0)
        assert regress._f_p(3, 40, 0.0) == 1.0
        assert t_p(5, np.array([np.inf, -np.inf, np.nan]))[:2].tolist() == [0.0, 0.0]
        assert np.isnan(t_p(5, np.array([np.nan]))[0])


def rank_deficient_designs(seed, count, integer):
    """Seeded ``(family, design, names)`` triples: ``[1, X]`` plus one
    column made from the others, inserted at a random place.

    The families are ``copy``, ``flip`` (sign), ``multiple``, ``sum`` (of
    two columns), ``weighted`` (a sum with weights of distinct sizes) and
    ``zero``. Integer designs hold small integers, which exact arithmetic
    can check.
    """
    rng = np.random.default_rng(seed)
    families = ["copy", "flip", "multiple", "sum", "weighted", "zero"]
    for i in range(count):
        family = families[i % len(families)]
        n = int(rng.integers(6, 30) if integer else rng.integers(5, 300))
        k = int(rng.integers(1, 7 if integer else 12))
        X = (rng.integers(-3, 4, size=(n, k)).astype(float) if integer else
             rng.normal(size=(n, k)) * rng.uniform(0.1, 10.0, size=k))
        cols = [np.ones(n), *X.T]
        a, b = (cols[j] for j in rng.choice(len(cols), size=2, replace=False))
        new = {"copy": a, "flip": -a, "multiple": rng.choice([2.0, 3.0, -5.0]) * a,
               "sum": a + b, "weighted": 2.0 * a - 3.0 * b if integer else
               rng.uniform(0.2, 0.6) * a + rng.uniform(1.5, 3.0) * b,
               "zero": np.zeros(n)}[family]
        cols.insert(int(rng.integers(0, len(cols) + 1)), new.copy())
        yield family, np.column_stack(cols), [f"c{j}" for j in range(len(cols))]


class TestCollinearColumns:
    def test_equal_exact_pivoting_on_integer_designs(self):
        for family, design, names in rank_deficient_designs(60, 360, integer=True):
            got = regress._collinear_columns(design, names)
            assert got == bf_collinear_columns(design, names), family
            assert len(got) == design.shape[1] - np.linalg.matrix_rank(design)

    def test_name_the_columns_scipy_names(self):
        # Where exact arithmetic leaves a tie, LAPACK's pick is a last-bit
        # matter: a copy or sign flip is compared by its values, and a sum
        # of two columns, whose two parts tie exactly, is left to the exact
        # oracle above.
        def values(design, names, named):
            return sorted(np.abs(design[:, names.index(c)]).tobytes() for c in named)

        for family, design, names in rank_deficient_designs(61, 600, integer=False):
            if family == "sum":
                continue
            got = regress._collinear_columns(design, names)
            _, r, piv = scipy.linalg.qr(design, mode="economic", pivoting=True)
            diag = np.abs(np.diag(r))
            cut = diag.max() * max(design.shape) * np.finfo(float).eps
            want = sorted(names[piv[i]] for i in range(design.shape[1])
                          if i >= len(diag) or diag[i] <= cut)
            if family in ("copy", "flip"):
                assert values(design, names, got) == values(design, names, want)
            else:
                assert got == want, family


class TestFunctionOnScalar:
    def test_time_constant_response_gives_flat_curves(self):
        rng = np.random.default_rng(61)
        n, T = 60, 6
        x = rng.normal(size=n)
        Y = np.tile((2.0 + 3.0 * x)[:, None], (1, T))
        fit = fit_function_on_scalar(np.expm1(Y), x, ["x"])
        assert np.allclose(fit.coef[0], 2.0, atol=1e-9)
        assert np.allclose(fit.coef[1], 3.0, atol=1e-9)

    def test_pointwise_equivalence_exact(self):
        rng = np.random.default_rng(62)
        n, T = 80, 5
        X = rng.normal(size=(n, 2))
        Y = np.abs(rng.normal(size=(n, T))) * 100
        fos = fit_function_on_scalar(Y, X, ["a", "b"])
        for t in range(T):
            scalar = fit_linear(np.log1p(Y[:, t]), X, columns=["a", "b"])
            assert np.array_equal(fos.coef[:, t], scalar.coef)
            assert np.array_equal(fos.se[:, t], scalar.se)

    def test_bands_are_1_96_se(self):
        rng = np.random.default_rng(63)
        Y = np.abs(rng.normal(size=(50, 4))) * 10
        x = rng.normal(size=50)
        fit = fit_function_on_scalar(Y, x)
        assert np.array_equal(fit.hi95, fit.coef + 1.96 * fit.se)
        assert np.array_equal(fit.lo95, fit.coef - 1.96 * fit.se)
        assert np.allclose(band_halfwidth(fit), 1.96 * fit.se)

    def test_planted_time_varying_coefficient(self):
        rng = np.random.default_rng(64)
        n, W = 400, 10
        x = rng.normal(size=n)
        T = W + 1
        truth = np.array([t / W for t in range(T)])
        Y = truth[None, :] * x[:, None] + 0.1 * rng.normal(size=(n, T))
        fit = fit_function_on_scalar(np.expm1(Y), x, ["x"])
        for t in range(T):
            assert abs(fit.coef[1, t] - truth[t]) < 3 * fit.se[1, t]


class TestSelectModel:
    def _planted(self, seed=71, n=400):
        rng = np.random.default_rng(seed)
        signal = rng.normal(size=n)
        noise1 = rng.normal(size=n)
        noise2 = rng.normal(size=n)
        y = 2.0 * signal + rng.normal(size=n)
        fm = fm_from(np.column_stack([signal, noise1, noise2]), ["signal", "noise1", "noise2"])
        return y, fm

    def test_single_config_trivially_selected(self):
        y, fm = self._planted()
        sel = select_model("linear", y, fm, positions(fm, [("signal",)]))
        assert sel.best.covariates == ("signal",)
        assert len(sel.results) == 1

    def test_true_covariate_outranks_noise_swap(self):
        y, fm = self._planted()
        sel = select_model("linear", y, fm, positions(fm, [("noise1",), ("signal",), ("noise2",)]))
        assert sel.best.covariates == ("signal",)

    def test_all_configs_fit_and_logged(self):
        y, fm = self._planted()
        configs = [("signal",), ("noise1",), ("noise2",), ("signal", "noise1")]
        sels = [sel for _, sel in select_each_length("linear", y, fm, configs)]
        assert [len(sel.results) for sel in sels] == [3, 1]
        assert [sorted(sel.ranked.tolist()) for sel in sels] == [[0, 1, 2], [0]]

    def test_failures_recorded_not_fatal(self):
        y, fm = self._planted()
        (_, pair), (_, single) = select_each_length("linear", y, fm,
                                                    [("signal", "signal"), ("noise1",)])
        assert (pair.n_failed, single.n_failed) == (1, 0)
        assert pair.results["error"][0] is not None and pair.best is None
        assert single.best.covariates == ("noise1",)

    def test_logistic_ranks_by_log_likelihood(self):
        rng = np.random.default_rng(72)
        n = 500
        signal = rng.normal(size=n)
        noise = rng.normal(size=n)
        y = (rng.random(n) < sigmoid(1.5 * signal)).astype(float)
        fm = fm_from(np.column_stack([signal, noise]), ["signal", "noise"])
        sel = select_model("logistic", y, fm, positions(fm, [("noise",), ("signal",)]))
        assert sel.best.covariates == ("signal",)
        assert sel.best.score == sel.best.fit.log_likelihood

    def test_rescaling_leaves_ranking_unchanged(self):
        y, fm = self._planted(seed=73)
        configs = positions(fm, [("signal",), ("noise1",), ("noise2",)])
        before = select_model("linear", y, fm, configs).ranked.tolist()
        scaled = fm_from(fm.data * np.array([100.0, 1.0, 1.0]), fm.columns)
        after = select_model("linear", y, scaled, configs).ranked.tolist()
        assert before == after


def _synth_pipeline_data(seed=81, n_firms=150, year_range=(2000, 2020), window=10):
    cfg = SyntheticConfig(n_firms=n_firms, n_investors=60, n_subsectors=3,
                          year_range=year_range, high_regime_fraction=0.25, seed=seed)
    ds = generate_synthetic(cfg)
    ts = build_trajectories(ds.deals, ds.firms, window)
    firms = sorted({t.firm_id for t in ts.trajectories})
    by_firm = {t.firm_id: t for t in ts.trajectories}
    rng = np.random.default_rng(seed + 1)
    n_inv = np.array([np.log1p(len({d.investor_id for d in ds.deals if d.firm_id == f}))
                      for f in firms])
    noise = rng.normal(size=len(firms))
    data = np.column_stack([(n_inv - n_inv.mean()) / n_inv.std(ddof=1), noise])
    fm = FeatureMatrix(firms, ["log_n_investors", "noise"], data)
    first_amounts = {}
    for f in firms:
        f_deals = [d for d in ds.deals if d.firm_id == f]
        first_date = min(d.date for d in f_deals)
        first_round_id = min(d.round_id for d in f_deals if d.date == first_date)
        first_amounts[f] = float(sum(d.amount for d in f_deals if d.round_id == first_round_id))
    subsectors = {f: ds.firms[f].subsector for f in firms}
    return ds, ts, fm, first_amounts, subsectors


class TestWindowSweep:
    def test_counts_non_increasing_and_rows_emitted(self):
        ds, ts, fm, first_amounts, subsectors = _synth_pipeline_data()
        res = window_sweep(ds.deals, ds.firms, fm, first_amounts, subsectors,
                           {"linear_agg": ("log_n_investors",)}, list(range(5, 13)),
                           n_init=5, seed=3)["linear_agg"]
        counts = [res.firm_counts[w] for w in range(5, 13)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert res.warnings == []
        assert {r.window for r in res.rows} == set(range(5, 13))
        for r in res.rows:
            assert r.lo95 == pytest.approx(r.estimate - 1.96 * r.se)

    def test_one_pass_per_window_serves_every_kind(self, monkeypatch):
        ds, ts, fm, first_amounts, subsectors = _synth_pipeline_data(seed=85, n_firms=80)
        args = (ds.deals, ds.firms, fm, first_amounts, subsectors)
        configs = {"linear_agg": ("log_n_investors",), "logistic": ("noise",)}
        alone = {kind: window_sweep(*args, {kind: config}, [6, 7], n_init=5)[kind]
                 for kind, config in configs.items()}
        built, clustered = [], []
        real_build, real_kmeans = regress.build_trajectories, regress.functional_kmeans
        monkeypatch.setattr(regress, "build_trajectories",
                            lambda deals, meta, window: built.append(window)
                            or real_build(deals, meta, window))
        monkeypatch.setattr(regress, "functional_kmeans",
                            lambda trajs, **kw: clustered.append(len(trajs[0].values) - 1)
                            or real_kmeans(trajs, **kw))
        both = window_sweep(*args, configs, [6, 7], n_init=5)
        assert built == [6, 7] and clustered == [6, 7]
        assert list(both) == ["linear_agg", "logistic"]
        assert both == alone
        assert both["linear_agg"].firm_counts == both["logistic"].firm_counts

    def test_increasing_firm_count_and_failed_fits_are_warnings(self):
        ds, ts, fm, first_amounts, subsectors = _synth_pipeline_data()
        with pytest.warns(UserWarning) as caught:
            res = window_sweep(ds.deals, ds.firms, fm, first_amounts, subsectors,
                               {"linear_agg": ("noise", "noise")}, [12, 5])["linear_agg"]
        n12, n5 = res.firm_counts[12], res.firm_counts[5]
        failed = "fit failed (design matrix is rank deficient; collinear columns: noise)"
        assert n12 < n5 and res.rows == []
        assert res.warnings == [f"window 12: {failed}",
                                f"firm count increased from {n12} to {n5} at window 5",
                                f"window 5: {failed}"]
        assert [str(w.message) for w in caught] == res.warnings

    def test_stable_coefficient_for_stationary_process(self):
        ds, ts, fm, first_amounts, subsectors = _synth_pipeline_data(seed=82)
        res = window_sweep(ds.deals, ds.firms, fm, first_amounts, subsectors,
                           {"linear_agg": ("log_n_investors",)}, [8, 9, 10])["linear_agg"]
        rows = [r for r in res.rows if r.term == "log_n_investors"]
        assert len(rows) == 3
        # planted positive effect is significant and stable across windows
        for r in rows:
            assert r.lo95 > 0
        ests = [r.estimate for r in rows]
        for r in rows:
            assert r.lo95 <= np.mean(ests) <= r.hi95

    def test_empty_range_gives_empty_table(self):
        ds, ts, fm, first_amounts, subsectors = _synth_pipeline_data(seed=83, n_firms=60)
        res = window_sweep(ds.deals, ds.firms, fm, first_amounts, subsectors,
                           {"linear_agg": ("log_n_investors",)}, [])["linear_agg"]
        assert res.rows == [] and res.firm_counts == {}

    @pytest.mark.parametrize("kind", ["linear_agg", "logistic"])
    def test_window_without_firms_says_so(self, kind, monkeypatch):
        # an 8-year data range holds no 9-year trajectory
        ds, ts, fm, first_amounts, subsectors = _synth_pipeline_data(
            seed=86, n_firms=80, year_range=(2000, 2008), window=5)
        clustered = []
        real = regress.functional_kmeans
        monkeypatch.setattr(regress, "functional_kmeans",
                            lambda trajs, **kw: clustered.append(len(trajs)) or real(trajs, **kw))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = window_sweep(ds.deals, ds.firms, fm, first_amounts, subsectors,
                               {kind: ("log_n_investors",)}, [8, 9, 10], n_init=5)[kind]
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert res.firm_counts[8] > 0 and res.firm_counts[9] == res.firm_counts[10] == 0
        assert res.warnings == [f"window {w}: fit failed (empty fit sample: no firm to fit "
                                f"for a {w}-year window)" for w in (9, 10)]
        assert {r.window for r in res.rows} == {8}
        assert all(clustered) and len(clustered) == (kind == "logistic")

    def test_functional_kind_is_rejected(self):
        ds, ts, fm, first_amounts, subsectors = _synth_pipeline_data(seed=84, n_firms=80)
        with pytest.raises(ConfigError, match="scalar responses"):
            window_sweep(ds.deals, ds.firms, fm, first_amounts, subsectors,
                         {"linear_agg": ("log_n_investors",), "functional": ("noise",)}, [6])


class TestPerturbationSweep:
    def test_singleton_groups_sd_zero(self):
        rng = np.random.default_rng(91)
        x = rng.normal(size=200)
        z = rng.normal(size=200)
        y = x + 0.5 * z + rng.normal(size=200)
        fm = fm_from(np.column_stack([x, z]), ["x", "z"])
        sel = select_model("linear", y, fm, positions(fm, [("x", "z")]))
        res = perturbation_sweep({"x": 1, "z": 2}, sel)
        assert [g.n_configs for g in res.groups] == [1, 1]
        assert all(g.sd == 0.0 for g in res.groups)

    def test_sign_flipped_pair_is_bimodal(self):
        rng = np.random.default_rng(92)
        x = rng.normal(size=300)
        z = rng.normal(size=300)
        y = 2.0 * x + rng.normal(size=300) * 0.1
        fm = fm_from(np.column_stack([x, -x, z]), ["x", "neg_x", "z"])
        groups = {"x": 1, "neg_x": 1, "z": 2}
        sel = select_model("linear", y, fm, positions(fm, [("x", "z"), ("neg_x", "z")]))
        res = perturbation_sweep(groups, sel)
        g1 = res.estimate[res.group == 1]
        assert max(g1) > 1.5 and min(g1) < -1.5  # one mode each side of zero
        assert [res.covariates[p] for p in res.covariate] == ["x", "z", "neg_x", "z"]
        assert res.config_id.tolist() == [0, 0, 1, 1]
        assert res.group.dtype == res.config_id.dtype == np.uint8

    def test_samples_hold_groups_in_the_smallest_integer_type_and_write_digits(self, tmp_path):
        rng = np.random.default_rng(94)
        x, z = rng.normal(size=(2, 50))
        fm = fm_from(np.column_stack([x, z]), ["x", "z"])
        sel = select_model("linear", x + rng.normal(size=50), fm, positions(fm, [("x", "z")]))
        res = perturbation_sweep({"x": -1, "z": 300}, sel)
        assert res.group.dtype == np.int16
        write_perturbation_csv(res, tmp_path / "groups.csv", tmp_path / "samples.csv")
        rows = (tmp_path / "samples.csv").read_text(encoding="utf-8").splitlines()
        assert [row.split(",")[:3] for row in rows] == [
            ["group", "config_id", "covariate"], ["-1", "0", "x"], ["300", "0", "z"]]

    def test_planted_strong_group_mean_exceeds_sd(self):
        rng = np.random.default_rng(93)
        n = 400
        strong_a = rng.normal(size=n)
        strong_b = strong_a + 0.05 * rng.normal(size=n)
        weak = rng.normal(size=n)
        y = 1.5 * strong_a + rng.normal(size=n)
        fm = fm_from(np.column_stack([strong_a, strong_b, weak]), ["sa", "sb", "w"])
        groups = {"sa": 1, "sb": 1, "w": 2}
        sel = select_model("linear", y, fm, positions(fm, [("sa", "w"), ("sb", "w")]))
        res = perturbation_sweep(groups, sel)
        g1 = next(g for g in res.groups if g.group == 1)
        assert g1.mean > g1.sd > 0


class TestConfusion:
    def test_worked_example_cells(self):
        rep = confusion_metrics(294, 664, 225, 1889)
        assert rep.tp + rep.fn + rep.fp + rep.tn == 3072
        assert round(rep.accuracy, 2) == 0.71
        assert round(rep.precision, 2) == 0.57
        assert round(rep.recall, 2) == 0.31
        assert rep.accuracy == pytest.approx(0.7106, abs=5e-5)
        assert rep.precision == pytest.approx(0.5665, abs=5e-5)
        assert rep.recall == pytest.approx(0.3069, abs=5e-5)

    def test_perfect_agreement(self):
        assert confusion_metrics(10, 0, 0, 20).accuracy == 1.0

    def test_all_low_recall_zero(self):
        rep = confusion_metrics(0, 7, 0, 13)
        assert rep.recall == 0.0 and rep.precision == 0.0

    def test_window_logic(self):
        from datetime import date as Date
        meta = {
            "hit": FirmMeta("hit", "bio", "US", "IPO", Date(2008, 1, 1)),
            "late": FirmMeta("late", "bio", "US", "IPO", Date(2019, 1, 1)),
            "alive": FirmMeta("alive", "bio", "US", "ACTIVE", None),
        }
        regimes = {"hit": HIGH, "late": HIGH, "alive": LOW}
        first = {"hit": 2000, "late": 2000, "alive": 2000}
        rep = confusion_vs_standard(regimes, meta, first, 10)
        # hit: exit within 8y -> TP; late: exit after 19y -> FP; alive: TN
        assert (rep.tp, rep.fn, rep.fp, rep.tn) == (1, 0, 1, 1)


class TestResponses:
    TRAJS = [Trajectory("a", "S1", 2000, (10, 30, 70)), Trajectory("b", "S2", 2001, (5, 5, 5)),
             Trajectory("c", "S2", 2002, (20, 20, 50))]
    FIRST = {"a": 10.0, "b": 5.0, "c": 20.0}
    SUB = {"a": "S1", "b": "S2", "c": "S2"}

    def build(self, kind, regimes=None):
        return responses(kind, self.TRAJS, regimes, self.FIRST, self.SUB)

    def test_logistic_is_high_membership_without_controls(self):
        firms, y, C, names = self.build("logistic", {"a": HIGH, "b": LOW, "c": HIGH})
        assert firms == ["a", "b", "c"]
        assert y.tolist() == [1.0, 0.0, 1.0]
        assert C.shape == (3, 0) and names == []

    def test_linear_agg_logs_final_amount_with_controls(self):
        firms, y, C, names = self.build("linear_agg")
        assert firms == ["a", "b", "c"]
        assert np.array_equal(y, np.log1p([70.0, 5.0, 50.0]))
        assert names == ["log_first_amount", "subsector_S2"]
        assert np.array_equal(C[:, 0], np.log1p([10.0, 5.0, 20.0]))

    def test_linear_diff_drops_firms_without_later_money(self):
        firms, y, C, names = self.build("linear_diff")
        assert firms == ["a", "c"]
        assert np.array_equal(y, np.log1p([60.0, 30.0]))
        assert names == ["subsector_S2"] and C[:, 0].tolist() == [0.0, 1.0]

    def test_functional_is_the_raw_curve_matrix(self):
        firms, Y, C, names = self.build("functional")
        assert Y.tolist() == [[10, 30, 70], [5, 5, 5], [20, 20, 50]]
        assert C.shape == (3, 0) and names == []

    def test_unknown_kind_raises(self):
        with pytest.raises(ConfigError, match="unknown response kind"):
            self.build("quadratic")


class TestBuildControls:
    def test_reference_level_dropped(self):
        firms = ["a", "b", "c"]
        C, names = build_controls(firms, {"a": 10, "b": 20, "c": 30},
                                  {"a": "S1", "b": "S2", "c": "S3"})
        assert names == ["log_first_amount", "subsector_S2", "subsector_S3"]
        assert C.shape == (3, 3)
        assert C[0, 1] == 0.0 and C[1, 1] == 1.0

    def test_first_amount_optional(self):
        C, names = build_controls(["a", "b"], {"a": 1, "b": 2}, {"a": "X", "b": "Y"},
                                  include_first_amount=False)
        assert names == ["subsector_Y"]


# Engine-vs-oracle tolerances, fixed before any comparison: scores are
# sums over n terms, so a few ulps of relative drift is the most a
# different (stacked) evaluation order may introduce.
SCORE_RTOL = 1e-12
COEF_ATOL = 1e-10


def _assert_matches_oracle(sel, kind, y, fm, configs, C=None, cnames=None):
    results, ranked = bf_select_model(kind, y, fm, configs, C, cnames)
    assert sel.ranked.tolist() == ranked
    assert len(sel.results) == len(results)
    for cid, combo, score, coef, err in results:
        got = sel.results[cid]
        assert (sel.covariates(cid), got["error"]) == (combo, err)
        if score is None:
            assert np.isnan(got["score"]) and np.isnan(got["coef"]).all()
        else:
            assert abs(got["score"] - score) <= SCORE_RTOL * abs(score)
            np.testing.assert_allclose(got["coef"], coef, rtol=0, atol=COEF_ATOL)
    assert sel.n_failed == sum(1 for r in results if r[2] is None)
    if sel.best is not None:  # the best record reports its refit's score
        fit = sel.best.fit
        assert sel.best.score == sel.results["score"][sel.best.config_id] == (
            fit.r2 if kind == "linear" else fit.log_likelihood)
        assert sel.best.covariates == configs[sel.best.config_id]
    return results


def _assert_each_length_matches_oracle(kind, y, fm, configs, C=None, cnames=None):
    """Each length's selection matches the oracle; returns all oracle rows and the selections."""
    rows, sels = [], []
    for combos, sel in select_each_length(kind, y, fm, configs, C, cnames):
        rows += _assert_matches_oracle(sel, kind, y, fm, combos, C, cnames)
        sels.append(sel)
    return rows, sels


class TestSelectEngine:
    """Chunked, batched selection against the per-configuration oracle."""

    def _problem(self, seed, n=150):
        rng = np.random.default_rng(seed)
        base = rng.normal(size=(n, 14))
        names = [f"c{j}" for j in range(14)]
        y_lin = base[:, 0] - 0.5 * base[:, 3] + rng.normal(size=n)
        y_bin = (rng.random(n) < sigmoid(1.2 * base[:, 0] - 0.8 * base[:, 5])).astype(float)
        # "dup" repeats c0 (rank deficient beside it); "sep" splits y_bin
        # perfectly; "tiny", a noisy c0 at 1/100 scale, has a logistic
        # coefficient that converges beyond SEPARATION_BOUND
        sep = (2.0 * y_bin - 1.0) * (1.0 + rng.random(n))
        tiny = 0.01 * (base[:, 0] + 0.3 * rng.normal(size=n))
        fm = fm_from(np.column_stack([base, base[:, 0], sep, tiny]),
                     names + ["dup", "sep", "tiny"])
        C = np.column_stack([rng.normal(size=n), (rng.random(n) < 0.4).astype(float)])
        # Mixed lengths in shuffled order; 2-covariate configs span two chunks.
        # Distinct covariate sets without "dup" (a permuted set, or c0 swapped
        # for dup, ties its twin to within rounding noise, where only the
        # engine's tie rule fixes the order), plus exact repeats, which tie
        # exactly.
        configs = []
        pool = [c for c in fm.columns if c != "dup"]
        for length, count in ((1, 12), (2, 90), (3, 40)):
            combos = list(itertools.combinations(pool, length))
            configs += [combos[i] for i in rng.choice(len(combos), size=count, replace=False)]
        configs = [configs[i] for i in rng.permutation(len(configs))]
        extra = [("c0", "dup"), ("c1", "sep"), ("c5", "tiny"), ("c0", "c1", "dup", "c1")]
        return fm, y_lin, y_bin, C, configs + extra + configs[:3]

    def test_linear_matches_oracle_across_chunks_and_lengths(self):
        fm, y, _, C, configs = self._problem(301)
        assert sum(len(c) == 2 for c in configs) > SELECT_CHUNK
        results, sels = _assert_each_length_matches_oracle("linear", y, fm, configs, C,
                                                           ["ctl", "flag"])
        errors = {r[4] for r in results if r[4] is not None}
        assert any(e.startswith("design matrix is rank deficient") for e in errors)
        # the one 4-covariate configuration, ("c0", "c1", "dup", "c1")
        assert sels[-1].results["error"][0].count(",") == 1    # two collinear columns named
        assert all(sel.best is not None for sel in sels[:-1])

    def test_logistic_matches_oracle_with_separated_configs(self):
        fm, _, y, _, configs = self._problem(302)
        results, sels = _assert_each_length_matches_oracle("logistic", y, fm, configs)
        not_converged = {r[1] for r in results if r[4] == "did not converge"}
        assert all({"sep", "tiny"} & set(c) for c in not_converged)
        assert ("c1", "sep") in not_converged and ("c5", "tiny") in not_converged
        assert fit_logistic(y, fm.select(("c5", "tiny"))).separated
        assert any(r[4] and r[4].startswith("design matrix is rank deficient") for r in results)
        assert all(sel.best.fit.converged for sel in sels[:-1])

    def test_singular_information_stops_only_its_own_fit(self):
        rng = np.random.default_rng(306)
        n = 120
        x = rng.normal(size=(n, 2))
        y = (rng.random(n) < sigmoid(x[:, 0] - x[:, 1])).astype(float)
        good = np.column_stack([np.ones(n), x])
        singular = np.column_stack([np.ones(n), x[:, 0], np.zeros(n)])
        beta, n_iter, converged = _irls(np.stack([good, singular, good]), y)
        single = fit_logistic(y, x)
        assert converged.tolist() == [True, False, True]
        assert n_iter.tolist() == [single.n_iter, 1, single.n_iter]
        np.testing.assert_array_equal(beta[0], single.coef)
        np.testing.assert_array_equal(beta[2], single.coef)
        np.testing.assert_array_equal(beta[1], np.zeros(3))

    def test_unconverged_fit_is_not_scored(self, monkeypatch):
        # a design whose IRLS run ends unconverged with NaN coefficients
        # fails quietly: its log-likelihood is never evaluated
        fm, _, y, _, _ = self._problem(307)
        configs = positions(fm, [(c,) for c in fm.columns if c.startswith("c")])
        irls = regress._irls

        def diverging(designs, y):
            beta, n_iter, converged = irls(designs, y)
            if len(designs) > 1:  # the selection stack, not the refit of the best
                beta[0], converged[0] = np.nan, False
            return beta, n_iter, converged

        monkeypatch.setattr(regress, "_irls", diverging)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sel = select_model("logistic", y, fm, configs)
        assert sel.results["error"][0] == "did not converge"
        assert not np.isnan(sel.results["score"][1:]).any()

    def test_constant_response_fails_every_config_like_the_oracle(self):
        fm, _, _, C, configs = self._problem(303, n=40)
        configs = configs[:90]
        _, sels = _assert_each_length_matches_oracle("linear", np.full(40, 2.5), fm, configs, C)
        assert all(sel.best is None and sel.n_failed == len(sel.results) for sel in sels)
        assert sum(len(sel.results) for sel in sels) == len(configs)
        _, sels = _assert_each_length_matches_oracle("logistic", np.ones(40), fm, configs)
        assert {e for sel in sels for e in sel.results["error"]} == {
            "logistic response is constant; no model can be fit"}

    def test_too_few_rows_fails_only_the_long_configs(self):
        fm, y, _, C, _ = self._problem(304, n=6)
        configs = [("c0",), ("c1", "c2", "c3"), ("c4",), ("c5", "c6", "c7")]
        _, sels = _assert_each_length_matches_oracle("linear", y, fm, configs, C)
        assert [sel.results["error"].tolist() for sel in sels] == [
            [None, None], ["need more observations than parameters: n=6, q=6"] * 2]

    def test_more_feature_columns_than_rows(self):
        # Z = [1, F, C] is wider than tall, so R has n rows, not P
        rng = np.random.default_rng(308)
        n, n_feat = 12, 20
        names = [f"c{j}" for j in range(n_feat)]
        fm = fm_from(rng.normal(size=(n, n_feat)), names)
        C = rng.normal(size=(n, 2))
        y = fm.data[:, :4].sum(axis=1) + 0.3 * rng.normal(size=n)
        y_bin = np.tile([0.0, 1.0], n // 2)
        assert 1 + n_feat + C.shape[1] > n
        configs = [tuple(names[j] for j in sorted(rng.choice(n_feat, size=length, replace=False)))
                   for length in (1, 2, 3, 5, 8, 9, 12) for _ in range(6)]
        results, _ = _assert_each_length_matches_oracle("linear", y, fm, configs, C,
                                                        ["ctl", "flag"])
        assert {r[4] for r in results} == {
            None, "need more observations than parameters: n=12, q=12",
            "need more observations than parameters: n=12, q=15"}
        results, _ = _assert_each_length_matches_oracle("logistic", y_bin, fm, configs)
        assert any(r[4] and r[4].startswith("design matrix is rank deficient") for r in results)

    def test_covariate_duplicating_a_control_is_rank_deficient(self):
        # the collinear pair straddles the covariate/control boundary of Z
        fm, y, _, C, _ = self._problem(309)
        fm = fm_from(np.column_stack([fm.data, C[:, 1]]), fm.columns + ["flag_copy"])
        configs = [("c0",), ("flag_copy",), ("c1", "flag_copy"), ("c2", "c3"), ("flag_copy", "c4")]
        _, sels = _assert_each_length_matches_oracle("linear", y, fm, configs, C, ["ctl", "flag"])
        errors = [sel.results["error"] for sel in sels]
        assert [[i for i, x in enumerate(e) if x is not None] for e in errors] == [[1], [0, 2]]
        for e in (errors[0][1], errors[1][0], errors[1][2]):
            assert e.startswith("design matrix is rank deficient")
            assert {"flag", "flag_copy"} & set(e.split(": ")[1].split(", "))
        assert [sel.ranked.tolist() for sel in sels] == [[0], [1]]

    def test_rank_decision_on_r_columns_equals_the_full_design(self):
        # a + delta * e beside a: from clearly full rank to exactly collinear.
        # The smallest singular value crosses matrix_rank's threshold
        # max(n, q) * eps between delta 1e-13 (3.7 times above it) and 1e-14
        # (0.37 times), far enough that rounding cannot flip either decision
        rng = np.random.default_rng(310)
        n = 60
        a, e = rng.normal(size=n), rng.normal(size=n)
        deltas = [1e-8, 1e-10, 1e-11, 1e-12, 3e-13, 1e-13, 1e-14, 1e-15, 1e-16, 0.0]
        names = [f"near{i}" for i in range(len(deltas))]
        fm = fm_from(np.column_stack([a] + [a + d * e for d in deltas]), ["a"] + names)
        configs = [("a", name) for name in names]
        C = rng.normal(size=(n, 1))
        y = a + rng.normal(size=n)
        y_bin = (rng.random(n) < sigmoid(a)).astype(float)
        for kind, response, controls in (("linear", y, C), ("logistic", y_bin, None)):
            sel = select_model(kind, response, fm, positions(fm, configs), controls)
            got = [not (e or "").startswith("design matrix is rank deficient")
                   for e in sel.results["error"]]
            want = []
            for combo in configs:
                blocks = [np.ones((n, 1)), fm.select(combo)] + ([] if controls is None else [controls])
                design = np.hstack(blocks)
                want.append(bool(np.linalg.matrix_rank(design) == design.shape[1]))
            assert got == want, kind
            assert True in want and False in want

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_random_problems_match_the_oracle(self, data):
        # every covariate loads on one factor that drives the response, so
        # every R^2 stays well away from 0 and relative score tolerances apply
        seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
        n = data.draw(st.integers(4, 40), label="n")
        n_feat = data.draw(st.integers(1, 10), label="n_feat")
        n_ctl = data.draw(st.integers(0, 3), label="n_ctl")
        kind = data.draw(st.sampled_from(["linear", "logistic"]), label="kind")
        names = [f"x{j}" for j in range(n_feat)]
        subsets = st.sets(st.sampled_from(names), min_size=1, max_size=min(4, n_feat))
        configs = data.draw(st.lists(subsets.map(sorted).map(tuple), min_size=1, max_size=20),
                            label="configs")
        rng = np.random.default_rng(seed)
        factor = rng.normal(size=n)
        fm = fm_from(factor[:, None] + 0.5 * rng.normal(size=(n, n_feat)), names)
        C = rng.normal(size=(n, n_ctl))
        cnames = [f"k{j}" for j in range(n_ctl)]
        if kind == "linear":
            y = factor + C.sum(axis=1) + 0.3 * rng.normal(size=n)
            _assert_each_length_matches_oracle(kind, y, fm, configs, C, cnames)
        else:
            y = (rng.random(n) < sigmoid(2.0 * factor)).astype(float)
            _assert_each_length_matches_oracle(kind, y, fm, configs)

    def test_near_equal_scores_rank_by_config_id(self):
        rng = np.random.default_rng(305)
        n = 80
        a = rng.normal(size=n)
        y = a + rng.normal(size=n)
        near = a + 1e-13 * rng.normal(size=n)    # R^2 moves by ~1e-13, inside TIE_RTOL
        far = a + 1e-4 * rng.normal(size=n)      # R^2 moves by far more than TIE_RTOL
        fm = fm_from(np.column_stack([a, near, far]), ["a", "near", "far"])
        r2 = {c: fit_linear(y, fm.select((c,))).r2 for c in fm.columns}
        assert r2["a"] != r2["near"]
        assert abs(r2["a"] - r2["near"]) <= TIE_RTOL * abs(r2["a"])
        assert abs(r2["a"] - r2["far"]) > TIE_RTOL * abs(r2["a"])
        # the tied pair: lower score first, so only the tie rule keeps config-id order
        low, high = sorted(["a", "near"], key=lambda c: r2[c])
        sel = select_model("linear", y, fm, positions(fm, [(low,), (high,)]))
        assert sel.ranked.tolist() == [0, 1]
        low, high = sorted(["a", "far"], key=lambda c: r2[c])
        sel = select_model("linear", y, fm, positions(fm, [(low,), (high,)]))
        assert sel.ranked.tolist() == [1, 0]


class TestSelectionMemory:
    """A selection keeps arrays over its configurations, not one object per configuration."""

    #: Bytes a selection may keep per configuration attempted. Its record
    #: (score, six coefficients, an error reference) takes 64 B and its rank
    #: entry 8 B; a per-configuration object holding the score, a coefficient
    #: view and the name tuple takes about 400 B.
    MAX_BYTES_PER_CONFIG = 128

    def test_bytes_kept_per_configuration(self):
        rng = np.random.default_rng(311)
        sizes = (6, 5, 4, 4, 3, 2)
        names = [f"g{g}_{j}" for g, size in enumerate(sizes) for j in range(size)]
        groups = {name: int(name[1]) + 1 for name in names}
        # no merges: the leaves are the leaf order, so each group lists its members in order
        configs = enumerate_configs(FeatureGrouping(names, [], groups, len(sizes)))
        n = 80
        fm = fm_from(rng.normal(size=(n, len(names))), names)
        y = fm.data[:, 0] + rng.normal(size=n)
        select_model("linear", y, fm, configs[:3])  # first-call allocations stay out of the count
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sel = select_model("linear", y, fm, configs)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(sel.results) == len(sel.ranked) == int(np.prod(sizes)) == 2880
        assert kept <= self.MAX_BYTES_PER_CONFIG * len(configs), \
            f"{kept / len(configs):.0f} B kept per configuration"


class TestFitDict:
    def test_each_kind_writes_its_scalars_and_one_entry_per_term(self):
        # the payload is read off the fit's fields, so a new field would change
        # every *_best.json; this pins the keys that artifact holds
        rng = np.random.default_rng(9)
        x = rng.normal(size=80)
        y = x + rng.normal(size=80)
        cases = [(fit_logistic((y > 0).astype(float), x, ["x"]), "logistic", "z",
                  {"n", "log_likelihood", "null_log_likelihood", "pseudo_r2", "converged",
                   "separated", "n_iter"}),
                 (fit_linear(y, x, None, ["x"]), "linear", "t",
                  {"n", "r2", "adj_r2", "fstat", "f_df", "f_pvalue", "sigma2"})]
        for fit, model, stat, scalars in cases:
            payload = fit_dict(fit)
            assert set(payload) == {"model", "terms", *scalars}
            assert payload["model"] == model
            assert payload["terms"] == [
                {"term": term, "estimate": b, "se": se, stat: s, "p": p}
                for term, b, se, s, p in zip(fit.columns, fit.coef, fit.se, getattr(fit, stat),
                                             fit.p)]


class TestLeaderboardMemory:
    @staticmethod
    def _selection(n):
        rng = np.random.default_rng(n)
        results = np.empty(n, dtype=[("score", float), ("coef", float, (6,)), ("error", object)])
        results["score"] = rng.normal(size=n)
        results["score"][::7] = np.nan
        results["error"][::7] = "did not converge"
        ranked = np.argsort(-results["score"])[:len(results) - len(results[::7])]
        return ModelSelection("linear", [f"c{j:02d}" for j in range(24)],
                              rng.integers(0, 24, size=(n, 6)).astype(np.int16), results,
                              ranked, None)

    def test_traced_peak_does_not_grow_with_the_configurations(self, tmp_path):
        # a list of every row would take about 200 B per configuration
        peaks = {}
        for n in (500, 10_000):
            sel = self._selection(n)
            write_leaderboard_csv(sel, tmp_path / "warm.csv")
            tracemalloc.start()
            try:
                write_leaderboard_csv(sel, tmp_path / f"{n}.csv")
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len((tmp_path / f"{n}.csv").read_text().splitlines()) == n + 1
        assert peaks[10_000] <= 2 * peaks[500] + 64 * 1024, peaks


def test_import_leaves_scipy_stats_unloaded():
    # nor scipy.linalg and scipy.special: numpy is the only library it loads
    code = ("import sys, vcnet, vcnet.cli\n"
            "print([m for m in ('scipy.stats', 'scipy.linalg', 'scipy.special') if m in sys.modules])")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
