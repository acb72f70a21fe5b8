"""Walkthrough: centrality measures and the per-firm covariate table.

Shows each measure on a toy graph first (where the values are easy to
verify by hand), then assembles the full covariate table on synthetic
data: every firm's own firm-layer measures plus max/min/median summaries
of its first-round investors' measures.
"""

from vcnet import (SyntheticConfig, assemble_covariates, build_bipartite, compute_frame,
                   covariate_columns, generate_synthetic, project_firms, project_investors)
from vcnet.graph import ProjectedGraph

# --- toy graph: one investor funding three firms makes a triangle ----------
# nodes in sorted order; edges as sorted index pairs (u < v)
toy = ProjectedGraph("FIRM", 2005, ("a", "b", "c"), [(0, 1), (0, 2), (1, 2)])
frame = compute_frame(toy)
print(f"triangle a-b-c (a clique from one shared investor), values in node order {frame.nodes}:")
for measure in ("degree_centrality", "clustering", "betweenness", "newman_betweenness",
                "closeness_centrality", "pagerank", "eigenvector_centrality", "voterank"):
    print(f"  {measure:<24} {frame.measures[measure]}")

# --- full covariates on synthetic data -------------------------------------
cfg = SyntheticConfig(n_firms=150, n_investors=60, n_subsectors=3,
                      year_range=(2000, 2015), high_regime_fraction=0.2, seed=9)
ds = generate_synthetic(cfg)
g = build_bipartite(ds.deals)

year = 2003
firm_frame = compute_frame(project_firms(g, year, window_years=7), g)
investor_frame = compute_frame(project_investors(g, year))
rows = assemble_covariates(firm_frame, investor_frame, g)
print(f"\ncovariate rows for firms first funded in {year}: {len(rows)}")
print(f"columns ({len(covariate_columns())}): {', '.join(covariate_columns()[:8])}, ...")

sample = rows[0]
print(f"\nfirm {sample.firm_id}:")
for col in ("first_amount", "n_investors", "closeness_centrality_org", "pagerank_org",
            "clustering_org", "pagerank_median", "voterank_max",
            "average_neighbor_degree_max", "harmonic_centrality_median"):
    print(f"  {col:<30} {sample.values[col]:.6g}")
for col in ("pagerank",):
    lo, mid, hi = (sample.values[f"{col}_min"], sample.values[f"{col}_median"],
                   sample.values[f"{col}_max"])
    assert lo <= mid <= hi
    print(f"  early-investor {col}: min {lo:.4g} <= median {mid:.4g} <= max {hi:.4g}")
