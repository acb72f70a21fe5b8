"""Walkthrough: feature groups and the three success regressions.

Preprocesses the covariate table (log skewed columns, z-score), groups
covariates by absolute correlation under complete linkage, enumerates
one-per-group model configurations, and fits: the logistic regime model
with balanced resampling, the linear aggregate/differential money
models with controls, and the function-on-scalar trajectory model.
"""

import warnings

from vcnet import (SyntheticConfig, assemble_covariates, balanced_ensemble, build_bipartite,
                   compute_frame, correlation_dendrogram, covariate_columns, cut_groups,
                   enumerate_configs, fit_function_on_scalar, generate_synthetic,
                   matrix_from_covariates, preprocess, project_firms, project_investors,
                   responses, select_model)
from vcnet.features import group_members
from vcnet.graph import first_rounds
from vcnet.trajectories import build_trajectories, functional_kmeans

warnings.simplefilter("ignore")

cfg = SyntheticConfig(n_firms=250, n_investors=100, n_subsectors=3,
                      year_range=(2000, 2020), high_regime_fraction=0.25, seed=17)
ds = generate_synthetic(cfg)
g = build_bipartite(ds.deals)

# Covariates at each firm's first-investment-year snapshot.
rows = []
for year in sorted({fr.date.year for fr in first_rounds(g).values()}):
    firm_frame = compute_frame(project_firms(g, year, 7), g)
    inv_frame = compute_frame(project_investors(g, year))
    rows.extend(assemble_covariates(firm_frame, inv_frame, g))
feature_cols = [c for c in covariate_columns() if c != "first_amount"]
fm = preprocess(matrix_from_covariates(rows, feature_cols))
print(f"{len(fm.columns)} processed covariates over {len(fm.row_ids)} firms "
      f"({len(fm.dropped)} constant columns dropped)")
logged = [c for c, t in fm.transforms.items() if t == "log1p"]
print(f"log(1+x) applied to {len(logged)} right-skewed columns, e.g. {logged[:3]}")

K = 7
grouping = cut_groups(correlation_dendrogram(fm), K)
# one row per configuration: the column positions of its covariates, one per group
configs = enumerate_configs(grouping)
sizes = {g_: len(m) for g_, m in group_members(grouping).items()}
print(f"\ndendrogram cut into {K} groups, sizes {sizes} -> {len(configs)} configurations "
      f"(a {configs.shape[0]} x {configs.shape[1]} {configs.dtype} array)")

# Responses come from the funding trajectories of the firms with covariates:
# HIGH/LOW regime membership, log aggregate money and the whole curve.
ts = build_trajectories(ds.deals, ds.firms, 10)
ca = functional_kmeans(ts.trajectories, k=2, n_init=30, seed=3)
trajs = [t for t in ts.trajectories if t.firm_id in set(fm.row_ids)]
first_amounts = {r.firm_id: r.values["first_amount"] for r in rows}
subsectors = {t.firm_id: t.subsector for t in trajs}
firms, y_bin, _, _ = responses("logistic", trajs, ca.regimes, first_amounts, subsectors)
sub = fm.take_rows(firms)

head = configs[:400]  # the first 400 configurations only, for demo runtime
sel_log = select_model("logistic", y_bin, sub, head)
best = sel_log.best
print(f"\nlogistic selection over {len(sel_log.results)} configs: "
      f"best log-likelihood {best.fit.log_likelihood:.2f}, "
      f"pseudo-R^2 {best.fit.pseudo_r2:.4f}")
print(f"  covariates: {', '.join(best.covariates)}")
scores = sel_log.results["score"]
for i in sel_log.ranked[1:4].tolist():
    print(f"  runner-up config {i}: log-likelihood {scores[i]:.2f}")
print(f"  {len(sel_log.results) - len(sel_log.ranked)} configurations failed to fit")

ens = balanced_ensemble(y_bin, sub.select(best.covariates), n_reps=200, seed=11,
                        columns=list(best.covariates))
print(f"balanced resampling ({ens.n_reps} replicates): "
      f"mean LL {ens.mean_log_likelihood:.2f}, mean pseudo-R^2 {ens.mean_pseudo_r2:.4f}, "
      f"max {ens.max_pseudo_r2:.4f}")

# Linear model of log aggregate money with first-amount + subsector controls.
_, y_agg, C, cnames = responses("linear_agg", trajs, ca.regimes, first_amounts, subsectors)
sel_lin = select_model("linear", y_agg, sub, head, C, cnames)
fit = sel_lin.best.fit
print(f"\nlinear selection: best R^2 {fit.r2:.4f} (adjusted {fit.adj_r2:.4f}, "
      f"F({fit.f_df[0]},{fit.f_df[1]})={fit.fstat:.1f})")
for name, b, se, p in zip(fit.columns, fit.coef, fit.se, fit.p):
    stars = "***" if p < 0.01 else "**" if p < 0.05 else "*" if p < 0.1 else ""
    print(f"  {name:<34} {b:>9.4f} ({se:.3f}) {stars}")

# Function-on-scalar: the response is the whole curve; coefficients are curves.
_, Y, _, _ = responses("functional", trajs, ca.regimes, first_amounts, subsectors)
fos = fit_function_on_scalar(Y, sub.select(sel_lin.best.covariates),
                             list(sel_lin.best.covariates))
lead = fos.columns[1]
print(f"\nfunction-on-scalar: coefficient curve for {lead} "
      f"(pointwise 95% bands):")
for t in range(0, Y.shape[1], 2):
    print(f"  t={t:<2} estimate {fos.coef[1, t]:>8.4f}  "
          f"band [{fos.lo95[1, t]:.4f}, {fos.hi95[1, t]:.4f}]")
