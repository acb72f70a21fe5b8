"""Output checks behind ``failed_ratio`` and the traced run's exact counts.

Everything here reads the artifact tree a pipeline run left in its
``out_dir``; nothing calls into ``vcnet``.

* ``tree_digest``: SHA-256 of every file, for byte-identity between runs.
* ``output_digest`` / ``compare_digest``: the reference check. Ranked
  leaderboard order and chosen covariates must be identical; frame
  values and selection scores must agree within ``TOL`` (the acceptance
  suite's 1e-8); ``backtest.csv`` and ``assignments.csv`` must be
  byte-identical.
* ``recovery``: balanced accuracy of the HIGH/LOW assignment against the
  planted regimes (the mean of the HIGH and the LOW recall).
* ``expected_counts``: the per-layer counts recomputed from a run's
  manifest and artifacts, to compare with the traced run's counts.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

TOL = 1e-8
LEADERBOARDS = ("logistic", "linear_agg", "linear_diff")
BYTE_IDENTICAL = ("backtest/backtest.csv", "trajectories/assignments.csv")
TOP = 25
FIRM, INVESTOR = "FIRM", "INVESTOR"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def tree_digest(out: Path) -> dict[str, str]:
    return {str(p.relative_to(out)): _sha256(p) for p in sorted(out.rglob("*")) if p.is_file()}


def manifest(out: Path) -> dict:
    return json.loads((out / "manifest.json").read_text(encoding="utf-8"))


def _frames(out: Path) -> dict[tuple[int, str], dict[str, dict[str, float]]]:
    """(year, layer) -> measure -> node -> value, as written in frames.csv."""
    frames: dict = {}
    with open(out / "centrality" / "frames.csv", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        measures = next(reader)[3:]
        for row in reader:
            frame = frames.setdefault((int(row[0]), row[1]), {})
            for m, raw in zip(measures, row[3:]):
                if raw:
                    frame.setdefault(m, {})[row[2]] = float(raw)
    return frames


def output_digest(out: Path) -> dict:
    """A compact summary of a run's outputs, stored as the reference."""
    boards = {}
    for kind in LEADERBOARDS:
        rows = _rows(out / "regress" / f"{kind}_leaderboard.csv")
        ranked = [r for r in rows if r["rank"]]
        order = ",".join(r["config_id"] for r in ranked)
        best = out / "regress" / f"{kind}_best.json"
        boards[kind] = {
            "n_rows": len(rows),
            "n_ranked": len(ranked),
            "order_sha256": hashlib.sha256(order.encode()).hexdigest(),
            "top": [[r["config_id"], r["covariates"], float(r["score"])] for r in ranked[:TOP]],
            "score_sum": math.fsum(float(r["score"]) for r in ranked),
            "best_covariates": (json.loads(best.read_text(encoding="utf-8"))["covariates"]
                                if best.exists() else None),
        }
    frames = {}
    for (year, layer), measures in sorted(_frames(out).items()):
        for m, values in sorted(measures.items()):
            nodes = sorted(values)
            picks = sorted({0, len(nodes) // 3, 2 * len(nodes) // 3, len(nodes) - 1})
            frames[f"{year}/{layer}/{m}"] = {
                "n": len(nodes),
                "sum": math.fsum(values.values()),
                "sample": [[nodes[i], values[nodes[i]]] for i in picks],
            }
    files = {rel: _sha256(out / rel) for rel in BYTE_IDENTICAL}
    return {"leaderboards": boards, "frames": frames, "files": files}


def _close(a: float, b: float, tol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= tol


def compare_digest(ref: dict, got: dict) -> list[str]:
    """Every way ``got`` differs from the reference ``ref``."""
    problems = []
    for kind in LEADERBOARDS:
        r, g = ref["leaderboards"][kind], got["leaderboards"][kind]
        for key in ("n_rows", "n_ranked", "order_sha256", "best_covariates"):
            if r[key] != g[key]:
                problems.append(f"{kind} leaderboard: {key} differs")
        if [t[:2] for t in r["top"]] != [t[:2] for t in g["top"]]:
            problems.append(f"{kind} leaderboard: top configurations differ")
        elif not all(_close(a[2], b[2], TOL) for a, b in zip(r["top"], g["top"])):
            problems.append(f"{kind} leaderboard: top scores differ by more than {TOL}")
        if not _close(r["score_sum"], g["score_sum"], TOL * max(1, r["n_ranked"])):
            problems.append(f"{kind} leaderboard: score sum differs")
    if sorted(ref["frames"]) != sorted(got["frames"]):
        problems.append("frames: different (year, layer, measure) columns")
    else:
        for key, r in ref["frames"].items():
            g = got["frames"][key]
            if r["n"] != g["n"] or [s[0] for s in r["sample"]] != [s[0] for s in g["sample"]]:
                problems.append(f"frames {key}: different nodes")
            elif not (_close(r["sum"], g["sum"], TOL * max(1, r["n"]))
                      and all(_close(a[1], b[1], TOL) for a, b in zip(r["sample"], g["sample"]))):
                problems.append(f"frames {key}: values differ by more than {TOL}")
    for rel, digest in ref["files"].items():
        if got["files"].get(rel) != digest:
            problems.append(f"{rel} is not byte-identical to the reference")
    return problems


def recovery(out: Path, planted: dict[str, str]) -> float:
    """Mean over the planted regimes of the share of their firms assigned that regime."""
    hits: dict[str, list[bool]] = {}
    for r in _rows(out / "trajectories" / "assignments.csv"):
        hits.setdefault(planted[r["firm_id"]], []).append(r["regime"] == planted[r["firm_id"]])
    return sum(sum(h) / len(h) for h in hits.values()) / len(hits)


def _edges(measures: dict[str, dict[str, float]]) -> int:
    """Edge count of a frame, from degree centrality deg / (n - 1)."""
    dc = measures.get("degree_centrality", {})
    n = len(dc)
    return sum(round(v * (n - 1)) for v in dc.values()) // 2 if n > 1 else 0


def expected_counts(out: Path) -> dict[str, int]:
    """The traced run's exact counts, recomputed from an untraced run's outputs."""
    stages = manifest(out)["stages"]
    boards = [_rows(out / "regress" / f"{kind}_leaderboard.csv") for kind in LEADERBOARDS]
    frames = _frames(out)
    ens = stages["regress"]
    return {
        "ingest.rows": stages["ingest"]["n_deals"] + stages["ingest"]["n_deal_rejects"],
        "ingest.rejects": stages["ingest"]["n_deal_rejects"] + stages["ingest"]["n_firm_rejects"],
        "graph.firm_edges": sum(_edges(m) for (_, layer), m in frames.items() if layer == FIRM),
        "graph.investor_edges": sum(_edges(m) for (_, layer), m in frames.items()
                                    if layer == INVESTOR),
        "centrality.frames": 2 * stages["centrality"]["n_years"],
        "features.configs": stages["features"]["n_configs"],
        "trajectories.kmeans_calls": 1 + len(ens["sweep_firm_counts"]),
        "regress.fits_attempted": sum(len(rows) for rows in boards),
        "regress.fits_ranked": sum(1 for rows in boards for r in rows if r["rank"]),
        "regress.balanced_kept": ens["ensemble_reps"],
        "regress.balanced_attempted": ens["ensemble_reps"] + ens["ensemble_discarded"],
    }
