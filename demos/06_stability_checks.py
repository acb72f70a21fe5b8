"""Walkthrough: both stability sweeps.

First the window sweep: rebuild trajectories and refit the chosen model
for every window size from 5 to 12 years, watching the coefficient and
the shrinking firm count. Then the specification sweep: refit every
one-per-group configuration at a fixed window and look at the per-group
coefficient distributions: the mean, the share of positive estimates and
the 5/50/95 % quantiles, whose spread shows a bimodal group (one that
contains counter-varying covariates).
"""

import warnings

from vcnet import (SyntheticConfig, assemble_covariates, build_bipartite, compute_frame,
                   correlation_dendrogram, covariate_columns, cut_groups, enumerate_configs,
                   generate_synthetic, matrix_from_covariates, perturbation_sweep, preprocess,
                   project_firms, project_investors, responses, select_model, window_sweep)
from vcnet.graph import first_rounds
from vcnet.trajectories import build_trajectories

warnings.simplefilter("ignore")

cfg = SyntheticConfig(n_firms=220, n_investors=90, n_subsectors=3,
                      year_range=(2000, 2020), high_regime_fraction=0.25, seed=29)
ds = generate_synthetic(cfg)
g = build_bipartite(ds.deals)

rows = []
for year in sorted({fr.date.year for fr in first_rounds(g).values()}):
    rows.extend(assemble_covariates(compute_frame(project_firms(g, year, 7), g),
                                    compute_frame(project_investors(g, year)), g))
fm = preprocess(matrix_from_covariates(rows, [c for c in covariate_columns()
                                              if c != "first_amount"]))
grouping = cut_groups(correlation_dendrogram(fm), 7)
configs = enumerate_configs(grouping)

first_amounts = {r.firm_id: r.values["first_amount"] for r in rows}
subsectors = {f: (ds.firms[f].subsector if f in ds.firms else "") for f in fm.row_ids}

# Pick the best linear configuration at W=10, then sweep the window.
ts = build_trajectories(ds.deals, ds.firms, 10)
trajs = [t for t in ts.trajectories if t.firm_id in set(fm.row_ids)]
firms, y, C, cnames = responses("linear_agg", trajs, None, first_amounts, subsectors)
sel = select_model("linear", y, fm.take_rows(firms), configs[:300], C, cnames)
best = sel.best
print(f"best linear config at W=10 (R^2 {best.fit.r2:.3f}): {', '.join(best.covariates)}")

res = window_sweep(ds.deals, ds.firms, fm, first_amounts, subsectors,
                   {"linear_agg": best.covariates}, list(range(5, 13)))["linear_agg"]
lead = best.covariates[0]
print(f"\nwindow sweep, coefficient of {lead} with 1.96*SE bands:")
print(f"{'W':>4} {'firms':>7} {'estimate':>10} {'band':>22}")
for r in res.rows:
    if r.term == lead:
        print(f"{r.window:>4} {r.n_firms:>7} {r.estimate:>10.4f}   "
              f"[{r.lo95:>8.4f}, {r.hi95:>8.4f}]")
counts = [res.firm_counts[w] for w in range(5, 13)]
assert all(a >= b for a, b in zip(counts, counts[1:])), "firm counts must not increase"

pert = perturbation_sweep(grouping.groups, sel)
print("\nspecification sweep at W=10: per-group coefficient distribution")
print(f"{'group':>6} {'configs':>8} {'mean':>9} {'sd':>8} {'>0':>6} "
      f"{'q05':>9} {'q50':>9} {'q95':>9}")
for gstat in pert:
    print(f"{gstat.group:>6} {gstat.n_configs:>8} {gstat.mean:>9.4f} {gstat.sd:>8.4f} "
          f"{gstat.share_positive:>6.3f} {gstat.q05:>9.4f} {gstat.q50:>9.4f} {gstat.q95:>9.4f}")
g5 = next((gstat for gstat in pert if gstat.group == 5), None)
if g5:
    print(f"group 5 estimates span [{g5.q05:.4f}, {g5.q95:.4f}] from the 5% to the 95% "
          f"quantile across {g5.n_configs} configurations")
