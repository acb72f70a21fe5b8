"""End-to-end pipeline stages with a reproducible run manifest.

Stages run in the order ingest, graph, centrality, features,
trajectories, regress, backtest. Each stage reads only files written by
earlier stages (or the configured inputs), so any stage can be rerun in
isolation; rerunning with unchanged inputs rewrites identical bytes.
``run_stage`` is the one runner: it gives stage ``<name>`` its directory
``out_dir/<name>``, records the warnings the stage raises and writes the
stage's manifest entry, ``ok`` with the stage's counts or ``failed`` with
its error. The manifest echoes the configuration, input digests,
per-stage counts and the package version, and never contains
timestamps, so two runs with the same config and seed produce
byte-identical artifact trees. Every entry, a failed one included,
records the stage's warnings as ``n_warnings`` and the sorted distinct
``warning_messages`` instead of printing them; this is the only record
of a warning (a firm synthesized at ingest, a subsector too small to
cluster, a failed window-sweep fit, a balanced ensemble short of
``balance_reps`` replicates among them).
"""

from __future__ import annotations

import hashlib
import json
import warnings as _warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .backtest import SUPPORTED_HORIZONS, run_strategy, write_backtest_csv
from .centrality import (COMMON_MEASURES, FIRM_ONLY_MEASURES, assemble_covariates, compute_frame,
                         covariate_columns, read_covariates_csv, read_frames_csv,
                         write_covariates_csv, write_frames_csv)
from .errors import ConfigError, MissingArtifactError, SchemaError
from .features import (correlation_dendrogram, cut_groups, enumerate_configs,
                       matrix_from_covariates, preprocess, read_configs,
                       read_feature_matrix_csv, read_grouping, write_dendrogram_csv,
                       write_feature_matrix_csv, write_grouping_csv, write_transforms_csv)
from .graph import BOTH, FIRM, INVESTOR, build_bipartite, first_rounds, project_firms, \
    project_investors
from .ingest import (SyntheticConfig, check_field_types, generate_synthetic, parse_deals,
                     read_deals_csv, read_firms_csv, write_csv, write_deals, write_firms,
                     write_rejects, write_synthetic)
from .regress import (balanced_ensemble, confusion_vs_standard, fit_dict, fit_function_on_scalar,
                      perturbation_sweep, responses, select_model, window_sweep,
                      write_functional_curves, write_leaderboard_csv, write_perturbation_csv)
from .seeding import derive_seed
from .trajectories import (ClusterAssignment, build_trajectories, functional_kmeans,
                           read_assignments_csv, read_trajectories_csv, regime_rates,
                           write_assignments_csv, write_centroids_csv, write_exclusions_csv,
                           write_trajectories_csv)

@dataclass
class RunConfig:
    """Pipeline parameters; exactly one of input CSVs or synthetic config."""

    out_dir: str
    deals_csv: str | None = None
    firms_csv: str | None = None
    synthetic: SyntheticConfig | None = None
    window_years: int = 10
    projection_window: int = 7
    dendrogram_k: int = 7
    skew_threshold: float = 1.0
    kmeans_k: int = 2
    kmeans_inits: int = 100
    kmeans_log_scale: bool = True
    balance_reps: int = 1000
    top_n: int = 25
    horizon: int = 8
    start_years: tuple[int, int] = (2000, 2010)
    sweep_windows: tuple[int, int] = (5, 12)
    seed: int = 7
    config_limit: int = 0

    def validate(self) -> None:
        check_field_types(self)
        has_files = self.deals_csv is not None or self.firms_csv is not None
        if has_files and (self.deals_csv is None or self.firms_csv is None):
            raise ConfigError("deals_csv and firms_csv must be given together")
        if has_files == (self.synthetic is not None):
            raise ConfigError("exactly one of {deals_csv+firms_csv, synthetic} must be configured")
        if not 5 <= self.window_years <= 12:
            raise ConfigError(f"window_years must lie in [5, 12], got {self.window_years}")
        if self.projection_window < 1:
            raise ConfigError("projection_window must be >= 1")
        if min(self.dendrogram_k, self.kmeans_k, self.kmeans_inits,
               self.balance_reps, self.top_n) < 1:
            raise ConfigError("dendrogram_k, kmeans_k, kmeans_inits, balance_reps and top_n must be >= 1")
        if self.horizon not in SUPPORTED_HORIZONS:
            raise ConfigError(f"horizon must be one of {SUPPORTED_HORIZONS}, got {self.horizon}")
        lo, hi = self.start_years
        if lo > hi:
            raise ConfigError(f"start_years range {self.start_years} is empty")
        wlo, whi = self.sweep_windows
        if not (5 <= wlo <= whi <= 12):
            raise ConfigError(f"sweep_windows must lie within [5, 12], got {self.sweep_windows}")
        if self.config_limit < 0:
            raise ConfigError("config_limit must be >= 0 (0 = unlimited)")

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        data = dict(raw)
        unknown = set(data) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        # JSON gives lists for pairs and a dict for ``synthetic``; ``validate`` rejects other types.
        if isinstance(data.get("synthetic"), dict):
            syn = dict(data["synthetic"])
            if isinstance(syn.get("year_range"), list):
                syn["year_range"] = tuple(syn["year_range"])
            try:
                data["synthetic"] = SyntheticConfig(**syn)
            except TypeError as exc:
                raise ConfigError(f"bad synthetic config: {exc}") from exc
        for key in ("start_years", "sweep_windows"):
            if isinstance(data.get(key), list):
                data[key] = tuple(data[key])
        try:
            cfg = cls(**data)
        except TypeError as exc:
            raise ConfigError(f"bad config: {exc}") from exc
        return cfg


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------

def load_manifest(out: Path) -> dict:
    """The run's manifest, or an empty one before its first stage.

    Raises ``SchemaError`` naming the file when it is not JSON, or not an
    object whose ``stages`` maps each stage to an object; the file is
    left as it is.
    """
    path = out / "manifest.json"
    if not path.exists():
        return {"version": __version__, "stages": {}}
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # undecodable bytes too
        raise SchemaError(f"{path}: not JSON: {exc}") from exc
    stages = manifest.get("stages") if isinstance(manifest, dict) else None
    if not isinstance(stages, dict) or not all(isinstance(e, dict) for e in stages.values()):
        raise SchemaError(f"{path}: not a run manifest (an object whose 'stages' maps each "
                          f"stage to an object)")
    return manifest


def _json_value(obj):
    """A numpy array or scalar as lists and Python numbers; ``TypeError`` for anything else."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2, default=_json_value) + "\n",
                    encoding="utf-8")


def save_manifest(out: Path, manifest: dict) -> None:
    _write_json(out / "manifest.json", manifest)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@contextmanager
def _record_warnings(counts: dict):
    """Record the block's warnings in ``counts`` instead of printing them.

    Every warning is kept (no once-per-location filtering), so the count
    and the sorted distinct messages are the same on every run. They are
    recorded when the block raises too.
    """
    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always")
        try:
            yield
        finally:
            counts["n_warnings"] = len(caught)
            counts["warning_messages"] = sorted({str(w.message) for w in caught})


def _require(path: Path) -> Path:
    if not path.exists():
        raise MissingArtifactError(path)
    return path


def _require_rows(firms, path: Path, rows: dict, rows_path: Path) -> None:
    """Raise ``SchemaError`` naming both files if a firm of ``path`` has no row in ``rows``."""
    missing = next((f for f in firms if f not in rows), None)
    if missing is not None:
        raise SchemaError(f"{rows_path}: no row for firm {missing} of {path}")


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

def stage_ingest(cfg: RunConfig, out: Path, stage_dir: Path) -> dict:
    """Parse the input files into ``deals.csv``, ``firms.csv`` and their rejects reports.

    Synthetic input is first written into the stage directory by
    ``write_synthetic``, then parsed like file input.
    """
    deals_csv, firms_csv, source = cfg.deals_csv, cfg.firms_csv, "csv"
    if cfg.synthetic is not None:
        write_synthetic(generate_synthetic(cfg.synthetic), stage_dir)
        deals_csv, firms_csv, source = stage_dir / "deals.csv", stage_dir / "firms.csv", "synthetic"
    result = parse_deals(deals_csv, firms_csv)
    write_deals(result.deals, stage_dir / "deals.csv")
    write_firms([result.firms[f] for f in sorted(result.firms)], stage_dir / "firms.csv")
    write_rejects(result.deal_rejects, stage_dir / "rejects_deals.csv")
    write_rejects(result.firm_rejects, stage_dir / "rejects_firms.csv")
    return dict(n_deals=len(result.deals), n_firms=len(result.firms),
                n_deal_rejects=len(result.deal_rejects), n_firm_rejects=len(result.firm_rejects),
                source=source, deals_sha256=_sha256(stage_dir / "deals.csv"),
                firms_sha256=_sha256(stage_dir / "firms.csv"))


def stage_graph(cfg: RunConfig, out: Path, stage_dir: Path) -> dict:
    deals = read_deals_csv(_require(out / "ingest" / "deals.csv"))
    g = build_bipartite(deals)
    summary = []
    for year in g.years():
        snap = g.snapshot_deals(year)
        firm_side = {d.firm_id for d in snap}
        inv_side = {d.investor_id for d in snap}
        both = firm_side & inv_side
        summary.append([year, len(firm_side | inv_side), len(firm_side - both),
                        len(inv_side - both), len(both), len(snap)])
    write_csv(stage_dir / "summary.csv", ["year", "n_nodes", "n_firm_role", "n_investor_role",
                                          "n_both_role", "n_edges"], summary)
    roles = list(g.roles.values())
    return {"n_nodes": len(g), "n_edges": len(g.edges),
            "n_firm_role": roles.count(FIRM), "n_investor_role": roles.count(INVESTOR),
            "n_both_role": roles.count(BOTH),
            "years": [g.min_year, g.max_year] if g.min_year is not None else None}


def _frame_years(cfg: RunConfig, g) -> list[int]:
    if g.min_year is None:
        return []
    years = {fr.date.year for fr in first_rounds(g).values()}
    lo, hi = cfg.start_years
    years.update(y for y in range(lo, hi + 1) if g.min_year <= y <= g.max_year)
    return sorted(years)


def stage_centrality(cfg: RunConfig, out: Path, stage_dir: Path) -> dict:
    deals = read_deals_csv(_require(out / "ingest" / "deals.csv"))
    g = build_bipartite(deals)
    frames = []
    covariates = []
    # Latest year first: snapshots only gain nodes and links as the year grows, so the
    # largest one (and its current-flow solve) runs while no other frame is held. The
    # writers sort frames by (year, layer) and covariate rows by firm id.
    for year in reversed(_frame_years(cfg, g)):
        firm_frame = compute_frame(project_firms(g, year, cfg.projection_window), g)
        inv_frame = compute_frame(project_investors(g, year))
        frames.extend([firm_frame, inv_frame])
        covariates.extend(assemble_covariates(firm_frame, inv_frame, g))
    write_frames_csv(frames, stage_dir / "frames.csv")
    write_covariates_csv(covariates, stage_dir / "covariates.csv")
    return {"n_years": len(frames) // 2, "n_covariate_rows": len(covariates),
            "n_flagged_rows": sum(1 for c in covariates if c.investor_measures_missing)}


def stage_features(cfg: RunConfig, out: Path, stage_dir: Path) -> dict:
    covs = read_covariates_csv(_require(out / "centrality" / "covariates.csv"))
    feature_cols = [c for c in covariate_columns() if c != "first_amount"]
    fm = preprocess(matrix_from_covariates(covs, feature_cols), cfg.skew_threshold)
    fg = cut_groups(correlation_dendrogram(fm), cfg.dendrogram_k)
    write_feature_matrix_csv(fm, stage_dir / "features.csv")
    write_transforms_csv(fm, stage_dir / "transforms.csv")
    write_dendrogram_csv(fg, stage_dir / "dendrogram.csv")
    write_grouping_csv(fg, stage_dir / "groups.csv")
    return {"n_features": len(fm.columns), "n_dropped": len(fm.dropped),
            "n_groups": cfg.dendrogram_k, "n_configs": len(enumerate_configs(fg))}


def stage_trajectories(cfg: RunConfig, out: Path, stage_dir: Path) -> dict:
    deals = read_deals_csv(_require(out / "ingest" / "deals.csv"))
    firms = read_firms_csv(_require(out / "ingest" / "firms.csv"))
    ts = build_trajectories(deals, firms, cfg.window_years)
    if ts.trajectories:
        ca = functional_kmeans(ts.trajectories, k=cfg.kmeans_k, n_init=cfg.kmeans_inits,
                               seed=derive_seed(cfg.seed, "trajectories"),
                               log_scale=cfg.kmeans_log_scale)
    else:
        _warnings.warn(f"no firm retained for a {cfg.window_years}-year window")
        ca = ClusterAssignment(ts.window, "log1p" if cfg.kmeans_log_scale else "raw",
                               {}, {}, {}, {})
    write_trajectories_csv(ts, stage_dir / "trajectories.csv")
    write_exclusions_csv(ts, stage_dir / "exclusions.csv")
    write_assignments_csv(ca, stage_dir / "assignments.csv")
    write_centroids_csv(ca, stage_dir / "centroids.csv")
    n_high, n_low, share = regime_rates(ca)
    return {"n_retained": len(ts.trajectories), "n_excluded": len(ts.exclusions),
            "n_high": n_high, "n_low": n_low, "share_high": share}


def stage_regress(cfg: RunConfig, out: Path, stage_dir: Path) -> dict:
    """Select and fit the three scalar outcomes, then run their follow-ups.

    Each outcome (``logistic`` for the HIGH/LOW regime, ``linear_agg``
    and ``linear_diff``) selects over the same configurations: the first
    ``config_limit`` of them when it is not 0, which the manifest records
    as ``truncated``. A failed ``logistic`` or ``linear_agg`` selection
    fails the stage; ``linear_diff`` without a fit writes no best fit.
    The follow-ups read only what they need:

    * the balanced ensemble, the binary selection;
    * the functional fit and the perturbation sweep, ``linear_agg``;
    * the window sweep, both of these;
    * the confusion table, only the regimes.
    """
    deals = read_deals_csv(_require(out / "ingest" / "deals.csv"))
    firms = read_firms_csv(_require(out / "ingest" / "firms.csv"))
    covs_path = _require(out / "centrality" / "covariates.csv")
    covs = read_covariates_csv(covs_path)
    fm = read_feature_matrix_csv(_require(out / "features" / "features.csv"))
    fg, configs = read_configs(_require(out / "features" / "dendrogram.csv"),
                               _require(out / "features" / "groups.csv"))
    if fg.leaves != fm.columns:
        raise SchemaError(f"{out / 'features' / 'groups.csv'}: the covariates are not the "
                          f"columns of {out / 'features' / 'features.csv'}")
    ts = read_trajectories_csv(_require(out / "trajectories" / "trajectories.csv"))
    regimes = read_assignments_csv(_require(out / "trajectories" / "assignments.csv"))

    first_amounts = {c.firm_id: c.values["first_amount"] for c in covs}
    first_years = {c.firm_id: c.first_year for c in covs}
    subsectors = {f: (firms[f].subsector if f in firms else "") for f in fm.row_ids}
    in_fm = set(fm.row_ids)
    trajs = [t for t in ts.trajectories if t.firm_id in in_fm]
    # the per-firm lookups below assume every firm they meet has a row
    _require_rows(fm.row_ids, out / "features" / "features.csv", first_amounts, covs_path)
    _require_rows(regimes, out / "trajectories" / "assignments.csv", first_amounts, covs_path)
    _require_rows([t.firm_id for t in trajs], out / "trajectories" / "trajectories.csv",
                  regimes, out / "trajectories" / "assignments.csv")
    if not trajs:
        raise ConfigError(f"empty fit sample: no firm has covariates and a complete "
                          f"{cfg.window_years}-year trajectory (window_years={cfg.window_years})")

    # Binary (HIGH/LOW regime), log aggregate and log differential money responses.
    todo = configs[:cfg.config_limit] if cfg.config_limit else configs
    info: dict = {"n_fit_firms": len(trajs), "truncated": len(todo) < len(configs)}
    sub_fm = fm.take_rows([t.firm_id for t in trajs])
    ys, selections = {}, {}
    for kind, response in (("logistic", None), ("linear_agg", "log_aggregate_money"),
                           ("linear_diff", "log_differential_money")):
        fit_firms, y, C, cnames = responses(kind, trajs, regimes, first_amounts, subsectors)
        sel = select_model("logistic" if response is None else "linear", y,
                           sub_fm.take_rows(fit_firms), todo, C, cnames)
        write_leaderboard_csv(sel, stage_dir / f"{kind}_leaderboard.csv")
        ys[kind], selections[kind] = y, sel
        best = sel.best
        if best is None and kind == "linear_diff":
            continue
        if best is None:
            raise ConfigError(f"no {'logistic' if response is None else 'linear (aggregate)'} "
                              f"configuration could be fit; configuration 0: "
                              f"{sel.results['error'][0] or 'failed'}")
        _write_json(stage_dir / f"{kind}_best.json",
                    {**fit_dict(best.fit), "config_id": best.config_id,
                     "covariates": list(best.covariates), "window_years": cfg.window_years,
                     **({"response": response} if response else {})})
        if response is None:
            info.update(logistic_best_ll=best.fit.log_likelihood,
                        logistic_best_pseudo_r2=best.fit.pseudo_r2,
                        logistic_configs_fit=len(sel.results))
        else:
            info[f"{kind}_best_r2"] = best.fit.r2
    info["n_diff_dropped"] = len(trajs) - len(ys["linear_diff"])
    best_log, best_agg = selections["logistic"].best, selections["linear_agg"].best

    ens = balanced_ensemble(ys["logistic"], sub_fm.select(best_log.covariates),
                            n_reps=cfg.balance_reps,
                            seed=derive_seed(cfg.seed, "regress", "balanced"),
                            columns=list(best_log.covariates))
    _write_json(stage_dir / "balanced_ensemble.json",
                {f: v for f, v in vars(ens).items() if f not in ("coefs", "p_values")})
    coefs, p_values = ens.coefs.tolist(), ens.p_values.tolist()
    write_csv(stage_dir / "balanced_replicates.csv", ["replicate", "term", "estimate", "p_value"],
              ([r, term, coefs[r][j], p_values[r][j]]
               for r in range(ens.n_reps) for j, term in enumerate(ens.columns)))
    if ens.n_reps < cfg.balance_reps:
        _warnings.warn(f"balanced ensemble kept {ens.n_reps} of {cfg.balance_reps} replicates "
                       f"({ens.n_discarded} discarded)")
    info["ensemble_reps"] = ens.n_reps
    info["ensemble_discarded"] = ens.n_discarded

    # Functional response reuses the covariates selected for the aggregate fit.
    _, Y, _, _ = responses("functional", trajs, regimes, first_amounts, subsectors)
    fos = fit_function_on_scalar(Y, sub_fm.select(best_agg.covariates),
                                 list(best_agg.covariates))
    write_functional_curves(fos, stage_dir)

    # Stability sweeps, linear first.
    wlo, whi = cfg.sweep_windows
    sweeps = window_sweep(deals, firms, fm, first_amounts, subsectors,
                          {"linear_agg": best_agg.covariates, "logistic": best_log.covariates},
                          list(range(wlo, whi + 1)), k=cfg.kmeans_k, n_init=cfg.kmeans_inits,
                          seed=derive_seed(cfg.seed, "regress", "sweep-kmeans"),
                          log_scale=cfg.kmeans_log_scale)
    write_csv(stage_dir / "window_sweep.csv",
              ["kind", "window", "n_firms", "term", "estimate", "se", "lo95", "hi95"],
              ([kind, r.window, r.n_firms, r.term, r.estimate, r.se, r.lo95, r.hi95]
               for kind, sweep in sweeps.items() for r in sweep.rows))
    info["sweep_firm_counts"] = {str(w): n for w, n in sweeps["linear_agg"].firm_counts.items()}

    write_perturbation_csv(perturbation_sweep(fg.groups, selections["linear_agg"]),
                           stage_dir / "perturbation_groups.csv")

    conf = confusion_vs_standard(regimes, firms, first_years, cfg.window_years)
    _write_json(stage_dir / "confusion.json", vars(conf))
    info["confusion_accuracy"] = conf.accuracy
    return info


def stage_backtest(cfg: RunConfig, out: Path, stage_dir: Path) -> dict:
    frames_all = read_frames_csv(_require(out / "centrality" / "frames.csv"))
    covs = read_covariates_csv(_require(out / "centrality" / "covariates.csv"))
    firms = read_firms_csv(_require(out / "ingest" / "firms.csv"))
    groups = read_grouping(_require(out / "features" / "dendrogram.csv"),
                           _require(out / "features" / "groups.csv")).groups

    firm_frames = {year: frame for (year, layer), frame in frames_all.items() if layer == FIRM}
    first_years = {c.firm_id: c.first_year for c in covs}
    reports = []
    for measure in list(COMMON_MEASURES) + list(FIRM_ONLY_MEASURES):
        rep = run_strategy(firm_frames, firms, first_years, measure,
                           top_n=cfg.top_n, horizon=cfg.horizon, start_years=cfg.start_years)
        rep.group = groups.get(f"{measure}_org", groups.get(measure))
        reports.append(rep)
    write_backtest_csv(reports, stage_dir / "backtest.csv")
    best = max(reports, key=lambda r: r.mean_rate)
    return {"n_measures": len(reports),
            "n_start_years": cfg.start_years[1] - cfg.start_years[0] + 1,
            "best_measure": best.measure, "best_mean_rate": best.mean_rate}


_STAGE_FNS = {
    "ingest": stage_ingest,
    "graph": stage_graph,
    "centrality": stage_centrality,
    "features": stage_features,
    "trajectories": stage_trajectories,
    "regress": stage_regress,
    "backtest": stage_backtest,
}
STAGES = tuple(_STAGE_FNS)


def run_stage(name: str, cfg: RunConfig) -> dict:
    """Run one stage in ``out_dir/<name>`` and record its manifest entry.

    The entry holds the stage's counts and warnings, or, if the stage
    raises, its error and the warnings raised before it.
    """
    if name not in _STAGE_FNS:
        raise ConfigError(f"unknown stage {name!r}; expected one of {', '.join(STAGES)}")
    cfg.validate()
    if name == "ingest" and cfg.synthetic is None:
        for path in (cfg.deals_csv, cfg.firms_csv):
            if not Path(path).exists():
                raise ConfigError(f"input file not found: {path}")
    out = Path(cfg.out_dir)
    manifest = load_manifest(out)
    stage_dir = out / name
    stage_dir.mkdir(parents=True, exist_ok=True)
    manifest["version"] = __version__
    manifest["config"] = asdict(cfg)
    counts: dict = {}
    try:
        with _record_warnings(counts):
            counts.update(_STAGE_FNS[name](cfg, out, stage_dir))
    except Exception as exc:
        manifest["stages"][name] = {"status": "failed", "error": str(exc), **counts}
        save_manifest(out, manifest)
        raise
    manifest["stages"][name] = {"status": "ok", **counts}
    save_manifest(out, manifest)
    return counts


def run_pipeline(cfg: RunConfig) -> dict:
    """Run every stage in order; returns the final manifest."""
    for name in STAGES:
        run_stage(name, cfg)
    return load_manifest(Path(cfg.out_dir))
