"""Command-line entry point.

Subcommands: ``run`` (full pipeline), ``stage <name>`` (one stage from
prior stage outputs), ``synth`` (write synthetic input CSVs), and
``report`` (summarize a finished run). Configuration comes from a JSON
file of RunConfig keys; every key can be overridden by a command-line
flag of the same name. Exit codes: 0 success, 1 internal error, 2 input
error, 3 missing upstream artifact.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import typing
from pathlib import Path

from .backtest import BACKTEST_HEADER
from .errors import ConfigError, MissingArtifactError, SchemaError, VcnetError
from .features import read_grouping
from .ingest import generate_synthetic, read_records, write_synthetic
from .pipeline import STAGES, RunConfig, load_manifest, run_pipeline, run_stage
from .regress import PERTURBATION_HEADER, GroupStats

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_MISSING_ARTIFACT = 3


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {raw!r}")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """One ``--<key>`` flag per RunConfig field, typed by the field's annotation."""
    parser.add_argument("--config", metavar="FILE", help="JSON config file of RunConfig keys")
    hints = typing.get_type_hints(RunConfig)
    for f in dataclasses.fields(RunConfig):
        hint = hints[f.name]
        items = typing.get_args(hint)  # (X, NoneType) for X | None, (X, X) for a pair
        if f.name == "synthetic":
            parser.add_argument("--synthetic", default=None, metavar="JSON",
                                help="inline JSON object of SyntheticConfig keys")
        elif typing.get_origin(hint) is tuple:
            parser.add_argument(f"--{f.name}", nargs=len(items), type=items[0], default=None,
                                metavar=("LO", "HI"))
        else:
            base = items[0] if items else hint
            parser.add_argument(f"--{f.name}", type=_parse_bool if base is bool else base,
                                default=None)


def _build_config(args: argparse.Namespace) -> RunConfig:
    raw: dict = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    for f in dataclasses.fields(RunConfig):
        value = getattr(args, f.name)
        if value is not None and f.name != "synthetic":
            raw[f.name] = value
    if args.synthetic is not None:
        try:
            raw["synthetic"] = json.loads(args.synthetic)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--synthetic is not valid JSON: {exc}") from exc
    if "out_dir" not in raw:
        raise ConfigError("out_dir must be set (flag --out_dir or config key)")
    return RunConfig.from_dict(raw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vcnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the full pipeline")
    _add_config_flags(p_run)

    p_stage = sub.add_parser("stage", help="run one pipeline stage")
    p_stage.add_argument("name", choices=STAGES)
    _add_config_flags(p_stage)

    p_synth = sub.add_parser("synth", help="write synthetic deals/firms CSVs")
    _add_config_flags(p_synth)

    p_report = sub.add_parser("report", help="summarize a finished run")
    p_report.add_argument("--out_dir", required=True)
    return parser


def _cmd_synth(cfg: RunConfig) -> int:
    if cfg.synthetic is None:
        raise ConfigError("synth requires a synthetic config section")
    cfg.validate()
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ds = generate_synthetic(cfg.synthetic)
    write_synthetic(ds, out)
    print(f"wrote {len(ds.deals)} deals for {len(ds.firms)} firms under {out}")
    return EXIT_OK


def _require_keys(path: Path, what: str, obj, types: dict[str, tuple[type, ...]]) -> None:
    """Raise ``SchemaError`` naming ``path`` unless ``obj`` is an object holding every key
    of ``types`` with a value of exactly one of the key's types (so no JSON bool passes
    for a number), a list holding strings only."""
    missing = [key for key in types if not isinstance(obj, dict) or key not in obj]
    if missing:
        raise SchemaError(f"{path}: {what} lacks {', '.join(missing)}")
    wrong = [key for key, kinds in types.items() if type(obj[key]) not in kinds
             or type(obj[key]) is list and not all(type(item) is str for item in obj[key])]
    if wrong:
        raise SchemaError(f"{path}: {what} has a value of the wrong type at {', '.join(wrong)}")


def _cmd_report(out_dir: str) -> int:
    out = Path(out_dir)
    if not (out / "manifest.json").exists():
        raise MissingArtifactError(out / "manifest.json")
    manifest = load_manifest(out)
    print(f"vcnet {manifest.get('version', '?')} run in {out}")
    for stage in STAGES:
        entry = manifest["stages"].get(stage)
        if entry is None:
            print(f"  {stage:<12} (not run)")
            continue
        status = entry.get("status", "?")
        details = {k: v for k, v in entry.items() if k not in ("status",) and not k.endswith("sha256")}
        print(f"  {stage:<12} {status}  {json.dumps(details, sort_keys=True, default=str)[:240]}")
    traj = manifest["stages"].get("trajectories")
    if traj and traj.get("status") == "ok":
        _require_keys(out / "manifest.json", "the ok trajectories entry", traj,
                      {"n_high": (int,), "n_low": (int,), "share_high": (int, float)})
        print(f"regimes: {traj['n_high']} HIGH / {traj['n_low']} LOW "
              f"(share {traj['share_high']:.4f})")
    best_json = out / "regress" / "linear_agg_best.json"
    if best_json.exists():
        try:
            best = json.loads(best_json.read_text(encoding="utf-8"))
        except ValueError as exc:  # undecodable bytes too
            raise SchemaError(f"{best_json}: not JSON: {exc}") from exc
        _require_keys(best_json, "the best fit", best, {"r2": (int, float), "covariates": (list,)})
        print(f"best linear (aggregate) config: R^2={best['r2']:.4f}, "
              f"covariates: {', '.join(best['covariates'])}")
    pert_csv = out / "regress" / "perturbation_groups.csv"
    if pert_csv.exists():
        fg = read_grouping(out / "features" / "dendrogram.csv", out / "features" / "groups.csv")
        first = {fg.groups[c]: c for c in reversed(fg.leaves)}  # first listed in groups.csv
        print("specification sweep, linear (aggregate) coefficient per group:")
        for _, g in read_records(pert_csv, PERTURBATION_HEADER, lambda row: GroupStats(
                int(row[0]), float(row[1]), float(row[2]), int(row[3]), *map(float, row[4:])))[1]:
            print(f"  group {g.group:<3} {first.get(g.group, '?'):<28} mean {g.mean:7.3f}  "
                  f"positive {g.share_positive:.3f}  q05/q50/q95 {g.q05:.3f}/{g.q50:.3f}/{g.q95:.3f}")
    backtest_csv = out / "backtest" / "backtest.csv"
    if backtest_csv.exists():
        _, records = read_records(backtest_csv, BACKTEST_HEADER,
                                  lambda row: (row[0], row[1], float(row[2])))
        rows = sorted(((measure, rate) for _, (measure, start, rate) in records if start == "ALL"),
                      key=lambda r: -r[1])
        print("backtest mean success rates:")
        for measure, rate in rows[:5]:
            print(f"  {measure:<28} {rate:.4f}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return _cmd_report(args.out_dir)
        cfg = _build_config(args)
        if args.command == "synth":
            return _cmd_synth(cfg)
        if args.command == "run":
            manifest = run_pipeline(cfg)
            done = sum(1 for s in manifest["stages"].values() if s.get("status") == "ok")
            print(f"pipeline complete: {done}/{len(STAGES)} stages ok, artifacts in {cfg.out_dir}")
            return EXIT_OK
        counts = run_stage(args.name, cfg)
        print(f"stage {args.name} ok: {json.dumps(counts, sort_keys=True, default=str)[:240]}")
        return EXIT_OK
    except MissingArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_ARTIFACT
    except (ConfigError, SchemaError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except VcnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
