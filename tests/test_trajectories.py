"""Trajectory construction, functional k-means, and regime shares."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import deal, recorded
from oracles import bf_functional_kmeans, bf_lloyd

from vcnet import trajectories
from vcnet.errors import ConfigError, InvariantError
from vcnet.ingest import FirmMeta, SyntheticConfig, generate_synthetic
from vcnet.trajectories import (HIGH, LOW, ClusterAssignment, Trajectory, build_trajectories,
                                functional_kmeans, read_assignments_csv, read_trajectories_csv,
                                regime_rates, write_assignments_csv, write_trajectories_csv)

META = {
    "f1": FirmMeta("f1", subsector="bio"),
    "f2": FirmMeta("f2", subsector="bio"),
    "f3": FirmMeta("f3"),  # unknown subsector
}


def flat(firm, level, subsector="bio", first_year=2000, window=10):
    return Trajectory(firm, subsector, first_year, tuple([level] * (window + 1)))


class TestBuildTrajectories:
    def test_cumulative_values(self):
        deals = [deal("f1", "i1", "r1", "2000-03-01", 100),
                 deal("f1", "i2", "r2", "2003-07-01", 50)]
        ts = build_trajectories(deals, META, 5, data_end_year=2005)
        assert len(ts.trajectories) == 1
        assert ts.trajectories[0].values == (100, 100, 100, 150, 150, 150)
        assert ts.trajectories[0].first_year == 2000

    def test_single_deal_firm_excluded(self):
        ts = build_trajectories([deal("f1", "i1", "r1", "2000-03-01", 100)],
                                META, 5, data_end_year=2005)
        assert ts.trajectories == []
        assert ts.exclusions == [("f1", "fewer than two investments")]

    def test_unknown_subsector_excluded(self):
        deals = [deal("f3", "i1", "r1", "2000-03-01", 100),
                 deal("f3", "i2", "r1", "2000-03-01", 100)]
        ts = build_trajectories(deals, META, 5, data_end_year=2005)
        assert ts.exclusions == [("f3", "unknown subsector")]

    def test_window_must_fit_data_range(self):
        deals = [deal("f1", "i1", "r1", "2003-03-01", 100),
                 deal("f1", "i2", "r2", "2004-07-01", 50)]
        ts = build_trajectories(deals, META, 5)  # data ends 2004 < 2003 + 5
        assert ts.exclusions == [("f1", "window exceeds data range")]

    def test_deals_outside_window_ignored(self):
        deals = [deal("f1", "i1", "r1", "2000-01-01", 100),
                 deal("f1", "i2", "r2", "2001-01-01", 10),
                 deal("f1", "i3", "r3", "2009-01-01", 999)]
        ts = build_trajectories(deals, META, 5, data_end_year=2009)
        assert ts.trajectories[0].values == (100, 110, 110, 110, 110, 110)

    def test_zero_first_year_total_excluded(self):
        deals = [deal("f1", "i1", "r1", "2000-01-01", 0),
                 deal("f1", "i2", "r2", "2002-01-01", 10)]
        ts = build_trajectories(deals, META, 5, data_end_year=2005)
        assert ts.exclusions == [("f1", "no funding in first calendar year")]

    def test_monotone_nondecreasing_on_random_data(self):
        from conftest import random_deals
        rng = np.random.default_rng(9)
        deals = random_deals(rng, 120, n_firms=15)
        meta = {f"F{i}": FirmMeta(f"F{i}", subsector="s") for i in range(15)}
        ts = build_trajectories(deals, meta, 6)
        assert ts.trajectories
        for t in ts.trajectories:
            diffs = np.diff(t.values)
            assert (diffs >= 0).all()
            assert t.values[0] > 0

    def test_amounts_past_int64_stay_exact(self):
        # parse_deals bounds each amount at 2**63 - 1, not their sum: a cumulative
        # sum past 2**63 must not wrap
        deals = [deal("f1", "i1", "r1", "2000-03-01", 6 * 10**18),
                 deal("f1", "i2", "r2", "2001-07-01", 6 * 10**18)]
        ts = build_trajectories(deals, META, 3, data_end_year=2003)
        assert ts.trajectories[0].values == (6 * 10**18,) + (12 * 10**18,) * 3
        assert np.isfinite(np.log1p(np.array(ts.trajectories[0].values, dtype=float))).all()

    def test_bad_window_raises(self):
        with pytest.raises(ConfigError):
            build_trajectories([], META, 0)

    def test_csv_round_trip(self, tmp_path):
        deals = [deal("f1", "i1", "r1", "2000-03-01", 100),
                 deal("f1", "i2", "r2", "2003-07-01", 50)]
        ts = build_trajectories(deals, META, 5, data_end_year=2005)
        path = tmp_path / "t.csv"
        write_trajectories_csv(ts, path)
        back = read_trajectories_csv(path)
        assert back.window == 5
        assert back.trajectories == ts.trajectories


class TestFunctionalKmeans:
    def test_perfect_split_of_two_levels(self):
        trajs = [flat(f"lo{i}", 10) for i in range(5)] + [flat(f"hi{i}", 1000) for i in range(5)]
        ca = functional_kmeans(trajs, k=2, n_init=5, seed=1)
        assert all(ca.regimes[f"hi{i}"] == HIGH for i in range(5))
        assert all(ca.regimes[f"lo{i}"] == LOW for i in range(5))
        assert ca.wcss["bio"] == pytest.approx(0.0, abs=1e-18)
        # centroids equal the (log-scaled) input curves
        cents = ca.centroids["bio"]
        got = sorted([float(cents[0][0]), float(cents[1][0])])
        assert got == pytest.approx([np.log1p(10.0), np.log1p(1000.0)], rel=1e-12)

    def test_raw_scale_flag(self):
        trajs = [flat(f"lo{i}", 10) for i in range(4)] + [flat(f"hi{i}", 1000) for i in range(4)]
        ca = functional_kmeans(trajs, k=2, n_init=3, seed=1, log_scale=False)
        assert ca.scale == "raw"
        cents = ca.centroids["bio"]
        assert {cents[0][0], cents[1][0]} == {10.0, 1000.0}

    def test_all_identical_ends_in_one_cluster(self):
        trajs = [flat(f"x{i}", 50) for i in range(6)]
        ca = functional_kmeans(trajs, k=2, n_init=3, seed=2)
        # re-seeded empty cluster collapses back; everyone co-clusters
        assert len(set(ca.regimes.values())) == 1

    @pytest.mark.parametrize("max_iter", [0, -5])
    def test_max_iter_below_one_is_rejected(self, max_iter):
        # no pass would run, so every firm would be labeled and scored unclustered
        trajs = [flat(f"lo{i}", 10) for i in range(3)] + [flat(f"hi{i}", 1000) for i in range(3)]
        with pytest.raises(ConfigError, match="max_iter"):
            functional_kmeans(trajs, k=2, n_init=3, seed=1, max_iter=max_iter)

    @pytest.mark.parametrize("log_scale,scale", [(True, "log1p"), (False, "raw")])
    def test_no_trajectories_give_an_empty_assignment_with_window_0(self, log_scale, scale):
        ca, messages = recorded(functional_kmeans, [], log_scale=log_scale)
        assert ca == ClusterAssignment(0, scale, {}, {}, {}, {}) and messages == []

    def test_small_subsector_all_low_with_warning(self):
        trajs = [flat("only", 10, subsector="tiny")] + [flat(f"b{i}", 10 * i) for i in range(1, 4)]
        ca, messages = recorded(functional_kmeans, trajs, k=2, n_init=3, seed=3)
        assert ca.regimes["only"] == LOW and "tiny" not in ca.centroids
        assert messages == ["subsector 'tiny' has 1 firms (< k=2); all assigned LOW"]

    def test_high_label_follows_terminal_value(self):
        rising = [Trajectory(f"r{i}", "bio", 2000, tuple(100 * t + i for t in range(11)))
                  for i in range(4)]
        flat_low = [flat(f"f{i}", 30 + i) for i in range(4)]
        ca = functional_kmeans(rising + flat_low, k=2, n_init=10, seed=4)
        for sub, cents in ca.centroids.items():
            labels = ca.cluster_regimes[sub]
            terminals = cents[:, -1]
            assert terminals[labels.index(HIGH)] == terminals.max()

    def test_determinism_and_input_order_independence(self):
        rng = np.random.default_rng(5)
        trajs = [Trajectory(f"f{i:02d}", "bio", 2000,
                            tuple(np.cumsum(rng.integers(0, 1000, 11)).tolist()))
                 for i in range(30)]
        ca1 = functional_kmeans(trajs, k=2, n_init=8, seed=7)
        ca2 = functional_kmeans(list(reversed(trajs)), k=2, n_init=8, seed=7)
        assert ca1.regimes == ca2.regimes
        assert ca1.wcss.keys() == ca2.wcss.keys()
        assert ca1.wcss["bio"] == pytest.approx(ca2.wcss["bio"], rel=1e-12)

    def test_separate_clustering_per_subsector(self):
        trajs = ([flat(f"a{i}", 10, subsector="A") for i in range(3)]
                 + [flat(f"ah{i}", 500, subsector="A") for i in range(3)]
                 + [flat(f"b{i}", 20, subsector="B") for i in range(3)]
                 + [flat(f"bh{i}", 900, subsector="B") for i in range(3)])
        ca = functional_kmeans(trajs, k=2, n_init=5, seed=8)
        assert set(ca.centroids) == {"A", "B"}
        assert all(ca.regimes[f"ah{i}"] == HIGH for i in range(3))
        assert all(ca.regimes[f"bh{i}"] == HIGH for i in range(3))

    def test_planted_regimes_recovered(self):
        cfg = SyntheticConfig(n_firms=150, n_investors=60, n_subsectors=3,
                              year_range=(2000, 2020), high_regime_fraction=0.2, seed=21)
        ds = generate_synthetic(cfg)
        ts = build_trajectories(ds.deals, ds.firms, 10)
        ca = functional_kmeans(ts.trajectories, k=2, n_init=20, seed=5)
        firms = [t.firm_id for t in ts.trajectories]
        agree = sum(1 for f in firms if ca.regimes[f] == ds.planted_regimes[f])
        assert agree / len(firms) >= 0.95

    def test_assignment_csv_round_trip(self, tmp_path):
        trajs = [flat(f"lo{i}", 10) for i in range(3)] + [flat(f"hi{i}", 1000) for i in range(3)]
        ca = functional_kmeans(trajs, k=2, n_init=3, seed=1)
        path = tmp_path / "a.csv"
        write_assignments_csv(ca, path)
        assert read_assignments_csv(path) == ca.regimes


    def test_objective_increase_raises_typed_error(self, monkeypatch):
        # negative quadrature weights make a mean update raise the objective
        monkeypatch.setattr(trajectories, "_quad_weights", lambda n_grid: -np.ones(n_grid))
        trajs = [Trajectory(f"f{i}", "bio", 2000, (1.0 + i, 2.0 + 2 * i, 3.0 + 5 * i))
                 for i in range(6)]
        with pytest.raises(InvariantError, match="objective increased"):
            functional_kmeans(trajs, k=2, n_init=2, seed=1)


def assert_same_clustering(got, want):
    """Two ``recorded`` runs: the same clustering and the same warnings."""
    (got, got_warnings), (want, want_warnings) = got, want
    assert (got.window, got.scale) == (want.window, want.scale)
    assert got.regimes == want.regimes
    assert got.wcss == want.wcss
    assert got.cluster_regimes == want.cluster_regimes
    assert got.centroids.keys() == want.centroids.keys()
    for sub in want.centroids:
        assert np.array_equal(got.centroids[sub], want.centroids[sub])
    assert got_warnings == want_warnings


def assert_matches_oracle(trajs, **kwargs):
    """``functional_kmeans`` equals ``bf_functional_kmeans``, warnings included; returns it."""
    got = recorded(functional_kmeans, trajs, **kwargs)
    assert_same_clustering(got, recorded(bf_functional_kmeans, trajs, **kwargs))
    return got[0]


def planted_trajectories(seed, window=10):
    cfg = SyntheticConfig(n_firms=150, n_investors=60, n_subsectors=3,
                          year_range=(2000, 2020), high_regime_fraction=0.2, seed=seed)
    ds = generate_synthetic(cfg)
    return build_trajectories(ds.deals, ds.firms, window).trajectories


class TestStackedRestarts:
    """The stacked restart loop against one Lloyd loop per restart."""

    @pytest.mark.parametrize("k,n_init,log_scale", [(2, 100, True), (3, 70, True), (2, 30, False)])
    def test_matches_oracle_on_planted_data(self, k, n_init, log_scale):
        assert_matches_oracle(planted_trajectories(21), k=k, n_init=n_init, seed=5,
                              log_scale=log_scale)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_identical_curves_force_reseeding(self, k):
        # restarts that draw only x curves start with k equal centroids; the
        # first takes every curve and the others are re-seeded
        trajs = [flat(f"x{i}", 50) for i in range(6)] + [flat("y", 300), flat("z", 900)]
        assert_matches_oracle(trajs, k=k, n_init=20, seed=1)

    @pytest.mark.parametrize("max_iter", [1, 2, 500])
    def test_each_restart_matches_its_own_lloyd_loop(self, max_iter):
        trajs = [flat(f"x{i}", 50) for i in range(6)] + [flat("y", 300), flat("z", 900)]
        X = np.log1p(np.array([t.values for t in trajs], dtype=float))
        w = trajectories._quad_weights(X.shape[1])
        # equal initial centroids (re-seeding in cluster order), then data points
        inits = np.stack([X[[0, 1, 2]], X[[3, 3, 6]], X[[0, 6, 7]], X[[7, 6, 5]]])
        assign, centroids, obj = trajectories._restart_stack(X, inits.copy(), w, max_iter)
        for b, init in enumerate(inits):
            want_assign, want_centroids, want_obj = bf_lloyd(X, init.copy(), w, max_iter)
            assert assign[b].tolist() == want_assign.tolist()
            assert np.array_equal(centroids[b], want_centroids)
            assert obj[b] == want_obj
        if max_iter == 1:
            # the farthest curve (z) seeds the first empty cluster, the next (y) the second
            np.testing.assert_array_equal(centroids[0, 1:], X[[7, 6]])

    @pytest.mark.parametrize("max_iter", [1, 2])
    def test_exhausted_iterations_match(self, max_iter):
        assert_matches_oracle(planted_trajectories(22), k=3, n_init=40, seed=6, max_iter=max_iter)

    def test_tied_objectives_pick_the_lowest_restart(self):
        # levels 10, 20, 30 split as {10, 20}{30} or {10}{20, 30} at the same
        # objective; the split decides firm m's regime
        trajs = [flat("l", 10), flat("m", 20), flat("h", 30)]
        X = np.array([t.values for t in trajs], dtype=float)
        w = trajectories._quad_weights(X.shape[1])
        inits = np.stack([X[[0, 1]], X[[0, 2]]])
        assign, _, obj = trajectories._restart_stack(X, inits, w, 100)
        assert obj[0] == obj[1] and assign[0].tolist() != assign[1].tolist()
        regimes_of_m = set()
        for seed in range(6):
            got = assert_matches_oracle(trajs, k=2, n_init=6, seed=seed, log_scale=False)
            regimes_of_m.add(got.regimes["m"])
        assert regimes_of_m == {HIGH, LOW}   # the tie rule, not the data, decides

    @pytest.mark.parametrize("block", [1, 3])
    def test_block_size_does_not_change_the_result(self, monkeypatch, block):
        trajs = planted_trajectories(23)
        want = recorded(functional_kmeans, trajs, k=2, n_init=10, seed=8)
        monkeypatch.setattr(trajectories, "RESTART_BLOCK", block)
        assert_same_clustering(recorded(functional_kmeans, trajs, k=2, n_init=10, seed=8), want)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_small_sets_match_oracle(self, data):
        window = data.draw(st.integers(1, 4))
        n_curves = data.draw(st.integers(1, 9))
        curves = [data.draw(st.lists(st.integers(0, 50), min_size=window + 1,
                                     max_size=window + 1)) for _ in range(n_curves)]
        curves += data.draw(st.lists(st.sampled_from(curves), max_size=4))  # duplicates
        trajs = [Trajectory(f"f{i:02d}", data.draw(st.sampled_from(["a", "b"])), 2000,
                            tuple(np.cumsum([1 + c[0]] + c[1:]).tolist()))
                 for i, c in enumerate(curves)]
        kwargs = dict(k=data.draw(st.integers(1, 3)), n_init=data.draw(st.integers(1, 30)),
                      seed=data.draw(st.integers(0, 3)), log_scale=data.draw(st.booleans()),
                      max_iter=data.draw(st.sampled_from([1, 2, 3, 500])))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trajectories, "RESTART_BLOCK", data.draw(st.sampled_from([1, 3, 64, 128])))
            assert_matches_oracle(trajs, **kwargs)

    def test_duplicated_restarts_add_no_lloyd_work(self, monkeypatch):
        # restarts from equal initial centroids reach the same numbered states,
        # so duplicates, in any order, add no row to the means of a pass
        trajs = planted_trajectories(24)
        X = np.log1p(np.array([t.values for t in trajs], dtype=float))
        w = trajectories._quad_weights(X.shape[1])
        rng = np.random.default_rng(24)
        inits = X[np.sort([rng.choice(len(X), size=3, replace=False) for _ in range(20)], axis=1)]
        rows = []
        real = trajectories._means
        monkeypatch.setattr(trajectories, "_means", lambda X, assigns, k:
                            rows.append(len(assigns)) or real(X, assigns, k))
        once = trajectories._restart_stack(X, inits, w, 500)
        n_once, rows[:] = sum(rows), []
        twice = trajectories._restart_stack(X, np.concatenate([inits, inits[::-1]]), w, 500)
        assert sum(rows) == n_once > 0
        for got, want in zip(twice, once):
            np.testing.assert_array_equal(got, np.concatenate([want, want[::-1]]))
        for b, init in enumerate(inits):
            want_assign, want_centroids, want_obj = bf_lloyd(X, init.copy(), w, 500)
            assert once[0][b].tolist() == want_assign.tolist()
            assert np.array_equal(once[1][b], want_centroids)
            assert once[2][b] == want_obj

    def test_objective_check_holds_on_shared_paths(self, monkeypatch):
        # mixed-sign weights make Lloyd passes raise the objective; restarts that
        # reach one numbered state, at the same pass or at a later one, must each
        # check its objective against their own previous one. Nonnegative
        # weights in half the cases, and max_iter close to the passes a path
        # takes, reach the stop after max_iter passes; curves copied into about
        # half the rows in every third case reach empty clusters and re-seeds.
        rng = np.random.default_rng(31)
        n_raised = 0
        for case in range(1000):
            n, n_grid = int(rng.integers(3, 16)), int(rng.integers(1, 5))
            X = rng.integers(0, 6, size=(n, n_grid)).astype(float)
            if case % 3 == 0:
                X[rng.choice(n, size=n // 2, replace=False)] = X[0]
            w = rng.normal(size=n_grid)
            if case % 2:
                w = np.abs(w)
            k, n_init = int(rng.integers(1, min(5, n) + 1)), int(rng.integers(1, 41))
            max_iter = int(rng.choice([1, 2, 3, 4, 500]))
            monkeypatch.setattr(trajectories, "RESTART_BLOCK", int(rng.choice([1, 3, 128])))
            inits = X[np.sort([rng.choice(n, size=k, replace=False) for _ in range(n_init)], axis=1)]
            try:
                want = [bf_lloyd(X, init.copy(), w, max_iter) for init in inits]
            except InvariantError:
                n_raised += 1
                with pytest.raises(InvariantError, match="objective increased"):
                    trajectories._restart_stack(X, inits, w, max_iter)
                continue
            assign, centroids, obj = trajectories._restart_stack(X, inits, w, max_iter)
            for b, (want_assign, want_centroids, want_obj) in enumerate(want):
                assert assign[b].tolist() == want_assign.tolist()
                assert np.array_equal(centroids[b], want_centroids)
                assert obj[b] == want_obj
        assert 150 < n_raised < 450


class TestRegimeRates:
    def _ca(self, n_high, n_low):
        regimes = {f"h{i}": HIGH for i in range(n_high)}
        regimes.update({f"l{i}": LOW for i in range(n_low)})
        return ClusterAssignment(10, "log1p", regimes, {}, {}, {})

    def test_reference_split_share(self):
        n_high, n_low, share = regime_rates(self._ca(519, 2553))
        assert (n_high, n_low) == (519, 2553)
        assert n_high + n_low == 3072
        assert round(share * 100, 2) == 16.89

    def test_all_low(self):
        assert regime_rates(self._ca(0, 10)) == (0, 10, 0.0)

    def test_equal_split(self):
        assert regime_rates(self._ca(5, 5)) == (5, 5, 0.5)

    def test_empty(self):
        assert regime_rates(self._ca(0, 0)) == (0, 0, 0.0)
