"""Trajectory construction, functional k-means, and regime shares."""

import numpy as np
import pytest

from conftest import deal

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

    def test_small_subsector_all_low_with_warning(self):
        trajs = [flat("only", 10, subsector="tiny")]
        with pytest.warns(UserWarning):
            ca = functional_kmeans(trajs, k=2, n_init=3, seed=3)
        assert ca.regimes == {"only": LOW}

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
