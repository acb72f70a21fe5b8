"""Acceptance suite: one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to calibration.
"""

import csv
import json
import shutil
import time
import warnings
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from oracles import (ALL_MEASURE_ORACLES, bf_scan_firms, bf_scan_investors,
                     logistic_score_max_norm)
from conftest import by_node, edge_names, make_pg, random_deals, random_pg, random_tree_pg

import vcnet.centrality as C
from vcnet.backtest import ASCENDING_MEASURES, hypergeom_pvalue, run_strategy
from vcnet.graph import FIRM, build_bipartite, first_rounds, project_firms, project_investors
from vcnet.ingest import SyntheticConfig, generate_synthetic
from vcnet.pipeline import RunConfig, run_pipeline
from vcnet.regress import (balanced_ensemble, confusion_metrics, fit_function_on_scalar,
                           fit_linear, fit_logistic)
from vcnet.seeding import derive_seed
from vcnet.trajectories import HIGH, ClusterAssignment, build_trajectories, functional_kmeans, \
    regime_rates


def report(criterion, name, detail):
    print(f"ACCEPTANCE {criterion} [{name}]: PASS — {detail}")


def _suite_graphs():
    graphs = []
    for seed in range(200):
        p = (0.2, 0.5, 0.8)[seed % 3]
        rng = np.random.default_rng(10_000 + seed)
        graphs.append(random_pg(rng, int(rng.integers(2, 13)), p))
    return graphs


ALL_FNS = {
    "degree_centrality": C.degree_centrality,
    "average_neighbor_degree": C.average_neighbor_degree,
    "betweenness": C.betweenness,
    "newman_betweenness": C.newman_betweenness,
    "closeness_centrality": C.closeness,
    "harmonic_centrality": C.harmonic,
    "eigenvector_centrality": C.eigenvector,
    "pagerank": C.pagerank,
    "clustering": C.clustering,
    "core_number": C.core_number,
    "voterank": C.voterank,
}


def test_c1_centrality_oracle_suite():
    start = time.time()
    n_checked = 0
    for pg in _suite_graphs():
        for measure, fn in ALL_FNS.items():
            mine = by_node(pg, fn(pg))
            oracle = ALL_MEASURE_ORACLES[measure](pg)
            for v in pg.nodes:
                assert mine[v] == pytest.approx(oracle[v], abs=1e-8), \
                    f"{measure} differs at {v} on a {len(pg)}-node graph"
            n_checked += 1
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(1, "centrality oracle suite",
           f"{n_checked} measure evaluations on 200 random graphs match brute force "
           f"within 1e-8 in {elapsed:.1f}s")


def test_c2_tree_identity():
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(50):
        pg = random_tree_pg(rng, int(rng.integers(2, 31)))
        cf = by_node(pg, C.newman_betweenness(pg))
        sp = by_node(pg, C.betweenness(pg))
        for v in pg.nodes:
            worst = max(worst, abs(cf[v] - sp[v]))
            assert cf[v] == pytest.approx(sp[v], abs=1e-8)
    report(2, "tree identity", f"current-flow == shortest-path on 50 trees, "
                               f"max |diff| {worst:.2e}")


def test_c3_pagerank_conservation():
    for pg in _suite_graphs():
        total = sum(by_node(pg, C.pagerank(pg)).values())
        assert abs(total - 1.0) < 1e-9
    k3 = make_pg(["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "c")])
    for value in by_node(k3, C.pagerank(k3)).values():
        assert abs(value - 1.0 / 3.0) < 1e-12
    report(3, "pagerank conservation",
           "mass sums to 1 +/- 1e-9 on all 200 graphs; K3 gives exact thirds +/- 1e-12")


def test_c4_projection_oracle():
    for seed in range(100):
        rng = np.random.default_rng(20_000 + seed)
        deals = random_deals(rng, int(rng.integers(5, 60)), n_firms=10, n_investors=10)
        g = build_bipartite(deals)
        year = int(rng.integers(2002, 2013))
        window = int(rng.choice([5, 7, 10]))
        pg = project_firms(g, year, window)
        nodes, edges = bf_scan_firms(deals, year, window)
        assert set(pg.nodes) == nodes and edge_names(pg) == sorted(edges)
        pgi = project_investors(g, year)
        nodes_i, edges_i = bf_scan_investors(deals, year)
        assert set(pgi.nodes) == nodes_i and edge_names(pgi) == sorted(edges_i)
        e5 = set(edge_names(project_firms(g, year, 5)))
        e7 = set(edge_names(project_firms(g, year, 7)))
        e10 = set(edge_names(project_firms(g, year, 10)))
        assert e5 <= e7 <= e10
    report(4, "projection oracle",
           "100 random deal sets: exact edge-set equality with pair enumeration; "
           "window monotonicity 5 <= 7 <= 10 holds")


def test_c5_reference_arithmetic():
    rep = confusion_metrics(294, 664, 225, 1889)
    assert round(rep.accuracy, 2) == 0.71
    assert round(rep.precision, 2) == 0.57
    assert round(rep.recall, 2) == 0.31
    regimes = {f"h{i}": HIGH for i in range(519)}
    regimes.update({f"l{i}": "LOW" for i in range(3072 - 519)})
    _, _, share = regime_rates(ClusterAssignment(10, "log1p", regimes, {}, {}))
    assert round(share * 100, 2) == 16.89
    report(5, "reference arithmetic",
           "confusion cells (294,664,225,1889) -> 0.71/0.57/0.31; 519/3072 -> 16.89%")


def test_c6_regression_oracles():
    rng = np.random.default_rng(606)
    # OLS vs normal equations, 100 well-conditioned problems
    for _ in range(100):
        n = int(rng.integers(8, 51))
        p = int(rng.integers(1, min(6, n - 2)))
        X = rng.normal(size=(n, p))
        y = rng.normal(size=n)
        fit = fit_linear(y, X)
        D = np.column_stack([np.ones(n), X])
        beta = np.linalg.solve(D.T @ D, D.T @ y)
        assert np.abs(fit.coef - beta).max() < 1e-8

    # logistic: analytic vs numeric gradient and converged score equations
    n = 300
    X = rng.normal(size=(n, 3))
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(X @ np.array([0.7, -0.4, 0.0]))))).astype(float)
    design = np.column_stack([np.ones(n), X])

    def loglik(beta):
        eta = design @ beta
        return float((y * eta - np.logaddexp(0.0, eta)).sum())

    for _ in range(20):
        beta = rng.normal(scale=0.7, size=4)
        mu = 1.0 / (1.0 + np.exp(-(design @ beta)))
        analytic = design.T @ (y - mu)
        h = 1e-5
        numeric = np.array([(loglik(beta + h * e) - loglik(beta - h * e)) / (2 * h)
                            for e in np.eye(4)])
        assert np.abs(analytic - numeric).max() < 1e-4
    fit = fit_logistic(y, X)
    assert fit.converged
    assert logistic_score_max_norm(fit, y, X) < 1e-6
    assert fit.pseudo_r2 == pytest.approx(
        1.0 - fit.log_likelihood / fit.null_log_likelihood, abs=1e-12)

    # function-on-scalar == per-year OLS, exactly
    Y = np.abs(rng.normal(size=(80, 6))) * 50
    Xf = rng.normal(size=(80, 2))
    fos = fit_function_on_scalar(Y, Xf, ["a", "b"])
    for t in range(6):
        scalar = fit_linear(np.log1p(Y[:, t]), Xf, columns=["a", "b"])
        assert np.array_equal(fos.coef[:, t], scalar.coef)
        assert np.array_equal(fos.se[:, t], scalar.se)
    report(6, "regression oracles",
           "OLS==normal equations (100 problems, 1e-8); logistic gradients match to 1e-4, "
           "score < 1e-6, McFadden identity to 1e-12; pointwise FoS equivalence exact")


def test_c7_hypergeometric_exactness():
    assert hypergeom_pvalue(10, 5, 2, 2) == pytest.approx(10 / 45, abs=1e-14)
    n_checked = 0
    worst = 0.0
    for N in range(0, 31):
        denom_cache = {}
        for K in range(0, N + 1):
            for n in range(0, N + 1):
                denom = denom_cache.setdefault(n, comb(N, n))
                pmf = [Fraction(comb(K, i) * comb(N - K, n - i), denom)
                       for i in range(max(0, n + K - N), min(n, K) + 1)]
                lo = max(0, n + K - N)
                # suffix sums give every upper tail at once
                tails = {}
                acc = Fraction(0)
                for i in range(min(n, K), lo - 1, -1):
                    acc += pmf[i - lo]
                    tails[i] = acc
                for k in range(0, n + 1):
                    exact = tails.get(k, Fraction(1) if k <= lo else Fraction(0))
                    diff = abs(hypergeom_pvalue(N, K, n, k) - float(exact))
                    worst = max(worst, diff)
                    assert diff < 1e-12
                    n_checked += 1
    report(7, "hypergeometric exactness",
           f"{n_checked} parameter combinations (N <= 30) match rational enumeration, "
           f"max |diff| {worst:.2e}")


ACCEPT8_CFG = SyntheticConfig(n_firms=500, n_investors=200, n_subsectors=4,
                              year_range=(2000, 2020), high_regime_fraction=0.25, seed=7,
                              exit_rate_high=0.9, exit_rate_low=0.02)


def test_c8_planted_structure_recovery():
    start = time.time()
    ds = generate_synthetic(ACCEPT8_CFG)
    ts = build_trajectories(ds.deals, ds.firms, 10)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ca = functional_kmeans(ts.trajectories, k=2, n_init=20, seed=101)
    firms = [t.firm_id for t in ts.trajectories]
    accuracy = sum(1 for f in firms if ca.regimes[f] == ds.planted_regimes[f]) / len(firms)
    assert accuracy >= 0.95

    # planted-signal covariate: investor count within the window (log scale)
    first_year = {t.firm_id: t.first_year for t in ts.trajectories}
    investors: dict[str, set] = {}
    for d in ds.deals:
        if d.firm_id in first_year and d.date.year - first_year[d.firm_id] <= 10:
            investors.setdefault(d.firm_id, set()).add(d.investor_id)
    x = np.log1p(np.array([len(investors[f]) for f in firms], dtype=float))
    x = (x - x.mean()) / x.std(ddof=1)
    y_bin = np.array([1.0 if ca.regimes[f] == HIGH else 0.0 for f in firms])
    ens = balanced_ensemble(y_bin, x, n_reps=1000, seed=derive_seed(7, "accept8", "bal"),
                            columns=["log_n_investors"])
    logit_share = float((ens.coefs[:, 1] > 0).mean())
    assert ens.n_reps == 1000
    assert logit_share >= 0.95

    y_agg = np.log1p(np.array([t.values[-1] for t in ts.trajectories], dtype=float))
    ones = np.flatnonzero(y_bin == 1.0)
    zeros = np.flatnonzero(y_bin == 0.0)
    minority, majority = (ones, zeros) if len(ones) <= len(zeros) else (zeros, ones)
    lin_signs = []
    for rep in range(1000):
        rng = np.random.default_rng(derive_seed(7, "accept8-lin", rep))
        sub = rng.choice(majority, size=len(minority), replace=False)
        idx = np.sort(np.concatenate([minority, sub]))
        lin_signs.append(fit_linear(y_agg[idx], x[idx]).coef[1] > 0)
    lin_share = float(np.mean(lin_signs))
    assert lin_share >= 0.95

    # centrality-ranked strategy vs the hypergeometric random baseline
    g = build_bipartite(ds.deals)
    projections = [project_firms(g, year, 7) for year in range(2000, 2011)]
    frames = {pg.snapshot_year: C.CentralityFrame(pg.snapshot_year, FIRM, pg.nodes,
                                                  {"closeness_centrality": C.closeness(pg)})
              for pg in projections}
    fy = {f: fr.date.year for f, fr in first_rounds(g).items()}
    rep = run_strategy(frames, ds.firms, fy, "closeness_centrality",
                       top_n=25, horizon=8, start_years=(2000, 2010))
    n_significant = sum(1 for yr in rep.years if yr.p_value < 0.05)
    beats = sum(1 for yr in rep.years
                if yr.success_rate > yr.pool_successes / yr.pool_size)
    assert n_significant >= 8
    assert beats >= 8
    elapsed = time.time() - start
    assert elapsed < 300.0
    report(8, "planted-structure recovery",
           f"k-means accuracy {accuracy:.3f}; sign recovery logistic {logit_share:.3f} / "
           f"linear {lin_share:.3f} over 1000 balanced replicates; backtest p<0.05 in "
           f"{n_significant}/11 start years; {elapsed:.0f}s")


def test_c9_determinism_and_window_sweep(tmp_path):
    cfg_raw = {
        "out_dir": str(tmp_path / "out"),
        "synthetic": {"n_firms": 80, "n_investors": 40, "n_subsectors": 2,
                      "year_range": [2000, 2020], "high_regime_fraction": 0.25, "seed": 13},
        "kmeans_inits": 5, "balance_reps": 20, "config_limit": 60,
    }
    cfg = RunConfig.from_dict(cfg_raw)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        manifest = run_pipeline(cfg)
    out = tmp_path / "out"
    snapshot = tmp_path / "snapshot"
    shutil.copytree(out, snapshot)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_pipeline(RunConfig.from_dict(cfg_raw))

    files_a = sorted(p.relative_to(snapshot) for p in snapshot.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (snapshot / rel).read_bytes() == (out / rel).read_bytes(), \
            f"{rel} differs between identical runs"

    counts = manifest["stages"]["regress"]["sweep_firm_counts"]
    ordered = [counts[str(w)] for w in range(5, 13)]
    assert all(a >= b for a, b in zip(ordered, ordered[1:]))
    report(9, "determinism + window sweep",
           f"two identical runs byte-identical across {len(files_a)} artifacts; "
           f"sweep firm counts {ordered} non-increasing over W=5..12")


#: The generator plants the paper's headline association: a HIGH-regime
#: firm takes a hub investor first in every round, and more investors per
#: round, and it raises more. So the largest degree centrality among a
#: firm's first-round investors goes with more money, and the group holding
#: ``degree_centrality_max`` should hold a positive coefficient in most
#: specifications. Not in all: the same regime also drives covariates of
#: other groups, and a configuration that pairs a weak member of this group
#: with a strong proxy elsewhere can flip its sign. The bound claims a
#: majority of the specifications.
C10_MIN_SHARE_POSITIVE = 0.5
#: Seeds that neither C9 nor the benchmark's workloads use.
C10_SEEDS = (61, 62)


@pytest.mark.parametrize("seed", C10_SEEDS)
def test_c10_headline_centrality_association(tmp_path, seed):
    # 200 firms, cut into 5 covariate groups so that every configuration is
    # fitted (config_limit 0) in a few seconds. With fewer firms the groups
    # are noisier: at C9's 80 firms, the group of degree_centrality_max often
    # takes covariates the generator does not plant (investor medians,
    # clustering), and the checks below failed on a quarter of the seeds.
    start = time.time()
    out = tmp_path / "out"
    cfg = RunConfig.from_dict({
        "out_dir": str(out),
        "synthetic": {"n_firms": 200, "n_investors": 80, "n_subsectors": 2,
                      "year_range": [2000, 2020], "high_regime_fraction": 0.25, "seed": seed},
        "kmeans_inits": 5, "balance_reps": 20, "dendrogram_k": 5, "config_limit": 0,
    })
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_pipeline(cfg)
    with open(out / "features" / "groups.csv", encoding="utf-8", newline="") as fh:
        groups = {row["covariate"]: int(row["group"]) for row in csv.DictReader(fh)}
    group = groups["degree_centrality_max"]
    with open(out / "regress" / "perturbation_groups.csv", encoding="utf-8", newline="") as fh:
        stats = next(row for row in csv.DictReader(fh) if int(row["group"]) == group)
    mean, share = float(stats["mean"]), float(stats["share_positive"])
    assert mean > 0
    assert share >= C10_MIN_SHARE_POSITIVE
    best = json.loads((out / "regress" / "logistic_best.json").read_text(encoding="utf-8"))
    [rep] = [c for c in best["covariates"] if groups[c] == group]
    coef = next(t["estimate"] for t in best["terms"] if t["term"] == rep)
    # a VoteRank covariate is a rank, smaller for a stronger spreader: on it,
    # a negative coefficient is a positive association with centrality
    assert (-coef if rep.rsplit("_", 1)[0] in ASCENDING_MEASURES else coef) > 0
    elapsed = time.time() - start
    report(10, "headline centrality association",
           f"seed {seed}: the group of degree_centrality_max has mean {mean:.3f} and is "
           f"positive in {share:.3f} of {stats['n_configs']} specifications; logistic best "
           f"fit {rep} = {coef:.3f}; {elapsed:.1f}s")
