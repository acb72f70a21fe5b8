"""Walkthrough: synthetic deal data, validation, and the temporal graph.

Generates a seeded deal history, round-trips it through CSV files in a
temporary directory and the parser, then builds the cumulative bipartite
multigraph and both single-layer projections, printing the network's
growth year by year.
"""

import tempfile
import warnings
from pathlib import Path

from vcnet import (SyntheticConfig, build_bipartite, generate_synthetic, parse_deals,
                   project_firms, project_investors, write_deals, write_firms)

cfg = SyntheticConfig(n_firms=120, n_investors=50, n_subsectors=3,
                      year_range=(2000, 2015), high_regime_fraction=0.2, seed=42)
ds = generate_synthetic(cfg)
print(f"generated {len(ds.deals)} deals across {len(ds.firms)} firms "
      f"({sum(1 for r in ds.planted_regimes.values() if r == 'HIGH')} planted HIGH)")

# Everything the generator emits passes validation with zero rejects and
# zero warnings (a deal's firm missing from firms.csv would raise one).
with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    deals_csv, firms_csv = Path(tmp, "deals.csv"), Path(tmp, "firms.csv")
    write_deals(ds.deals, deals_csv)
    write_firms([ds.firms[f] for f in sorted(ds.firms)], firms_csv)
    parsed = parse_deals(deals_csv, firms_csv)
print(f"round trip: {len(parsed.deals)} deals parsed, "
      f"{len(parsed.deal_rejects)} rejects, {len(caught)} warnings")

g = build_bipartite(parsed.deals)
roles = list(g.roles.values())
print(f"\nbipartite graph: {len(g)} nodes "
      f"({roles.count('FIRM')} firms, {roles.count('INVESTOR')} investors, "
      f"{roles.count('BOTH')} dual-role), {len(g.edges)} multi-edges, "
      f"years {g.min_year}-{g.max_year}")

print("\ncumulative snapshots (links persist once created):")
print(f"{'year':>6} {'deals':>6} {'firm-proj edges':>16} {'investor-proj edges':>20}")
for year in range(g.min_year, g.max_year + 1, 3):
    pf = project_firms(g, year, window_years=7)
    pi = project_investors(g, year)
    print(f"{year:>6} {len(g.snapshot_deals(year)):>6} {pf.n_edges():>16} {pi.n_edges():>20}")

# The firm projection links firms sharing an investor within seven years;
# the investor projection links co-investors of the same financing round.
pf = project_firms(g, g.max_year, window_years=7)
u, v = pf.pairs[0]
print(f"\nexample firm-layer edge: {pf.nodes[u]} -- {pf.nodes[v]} "
      "(an investor in both within seven years)")
