"""vcnet benchmark: seeded batch workloads, end-to-end and per-layer metrics.

Usage, from the root of a vcnet checkout::

    python3 bench/run.py --workload select --seed 7 --seconds 55 --trace 0
    python3 bench/run.py --workload all        # every workload at its own seed

For one workload and seed, this script

1. writes ``deals.csv`` and ``firms.csv`` from ``generate_synthetic``, at the
   first seed drawn from ``--seed`` that gives a dataset of the workload's
   size, plus a seeded handful of malformed deal rows, under ``.bench_work/``;
2. runs ``run_pipeline`` on those files in a fresh child process, one
   child at a time, as often as fits in ``--seconds`` (at least three
   times), checks the outputs of every run, and times each child's set-up
   (fresh interpreter, ``import vcnet``, load and validate the
   ``RunConfig``) and its pipeline run;
3. with ``--trace 1``, runs the pipeline once more with the layer tracer
   installed and reports the per-layer metrics instead of the end-to-end
   ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names
and units are those of ``BENCHMARK.json``. ``bench/README.md`` describes
the workloads, the metrics and the checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

YEAR_RANGE = (2000, 2020)
HIGH_FRACTION = 0.2
#: One BLAS thread: the pipeline's matrices are small, and on a shared host of a few
#: cores a second thread adds scheduler noise, not speed.
BLAS_THREADS = 1
MIN_RUNS = 3           # pipeline runs per invocation, however long they take
MIN_RECOVERY = 0.90    # balanced accuracy of the HIGH/LOW assignment against the planted regimes
CHILD_TIMEOUT = 170.0
#: Inputs are redrawn until the largest firm projection is this close to the workload's size.
SIZE_BAND = 0.03
MAX_DRAWS = 500
#: The largest firm projection: the last start year and the projection window (RunConfig defaults).
FRAME_YEAR, FRAME_WINDOW = 2010, 7


class Workload(NamedTuple):
    seed: int            # own seed: sets the workload's size, outputs checked against the reference
    sizes: dict          # SyntheticConfig keys
    config: dict         # RunConfig keys that differ from the defaults


WORKLOADS = {
    "select": Workload(7, dict(n_firms=200, n_investors=80, n_subsectors=3),
                       dict(dendrogram_k=6, config_limit=2000, balance_reps=200,
                            kmeans_inits=20)),
    "network": Workload(11, dict(n_firms=380, n_investors=120, n_subsectors=4),
                        dict(dendrogram_k=2)),
}

#: Per-layer counts reported as they are; the yields are derived in ``layer_metrics``.
COUNTS = ("ingest.rows", "ingest.rejects", "graph.firm_edges", "graph.investor_edges",
          "centrality.frames", "features.configs", "trajectories.kmeans_calls",
          "regress.fits_attempted")


def child_env() -> dict:
    """The child's environment: the checkout's sources, ``BLAS_THREADS`` BLAS threads."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = str(BLAS_THREADS)
    return env


def environment(nproc: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": nproc, "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": BLAS_THREADS}


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def malformed_rows(rng, deals) -> list[list[str]]:
    """One deal row per reject rule of ``parse_deals``, each made from a seeded base row."""
    rows = []
    for rule in rng.permutation(7):
        d = deals[int(rng.integers(0, len(deals)))]
        row = [d.firm_id, d.investor_id, d.round_id, d.date.isoformat(), str(d.amount)]
        if rule == 0:
            row = row[:4]                                  # wrong field count
        elif rule in (1, 2, 3):
            row[rule - 1] = ""                             # empty firm, investor or round id
        elif rule == 4:
            row[3] = f"{d.date.year}-13-{d.date.day:02d}"  # invalid date
        elif rule == 5:
            row[4] = f"{d.amount}k"                        # invalid amount
        else:
            row[4] = str(-d.amount - 1)                    # negative amount
        rows.append(row)
    return rows


def draw_dataset(workload: str, seed: int):
    """``generate_synthetic`` at the first seed drawn from ``seed`` that gives the workload's size.

    The size is the edge count of the largest firm projection at the
    workload's own seed; a draw is kept when its count lies within
    ``SIZE_BAND`` of it, so the amount of work does not vary with the seed.
    The draws are ``seed`` itself, then ``derive_seed(seed, "bench-inputs", i)``.
    """
    from vcnet.graph import build_bipartite, project_firms
    from vcnet.ingest import SyntheticConfig, generate_synthetic
    from vcnet.seeding import derive_seed

    wl = WORKLOADS[workload]

    def draw(data_seed: int):
        ds = generate_synthetic(SyntheticConfig(year_range=YEAR_RANGE, seed=data_seed,
                                                high_regime_fraction=HIGH_FRACTION, **wl.sizes))
        return ds, project_firms(build_bipartite(ds.deals), FRAME_YEAR, FRAME_WINDOW).n_edges()

    size = draw(wl.seed)[1]
    for i in range(MAX_DRAWS):
        data_seed = seed if i == 0 else derive_seed(seed, "bench-inputs", i)
        ds, edges = draw(data_seed)
        if abs(edges - size) <= SIZE_BAND * size:
            return ds, data_seed, edges
    raise RuntimeError(f"no dataset of {workload}'s size in {MAX_DRAWS} draws from seed {seed}")


def make_inputs(workload: str, seed: int, work: Path) -> dict:
    """Write the workload's input CSVs; returns paths, digests, counts and planted regimes."""
    import csv
    import hashlib

    import numpy as np
    from vcnet.ingest import write_deals, write_firms

    ds, data_seed, edges = draw_dataset(workload, seed)
    deals_csv, firms_csv = work / "deals.csv", work / "firms.csv"
    write_deals(ds.deals, deals_csv)
    write_firms([ds.firms[f] for f in sorted(ds.firms)], firms_csv)
    bad = malformed_rows(np.random.default_rng([seed, 1]), ds.deals)
    with open(deals_csv, "a", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(bad)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (deals_csv, firms_csv)}
    return {"deals_csv": deals_csv, "firms_csv": firms_csv, "digests": digests,
            "data_seed": data_seed, "frame_edges": edges, "n_deals": len(ds.deals),
            "n_malformed": len(bad), "planted": ds.planted_regimes}


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

@dataclass
class ChildRun:
    exit_code: int
    setup_s: float | None    # spawn until the child's RunConfig was validated
    peak_rss_mb: float
    data: dict | None        # what bench/child.py wrote, if it exited with 0


def run_child(config: Path, env: dict, log: Path, *flags: str) -> ChildRun:
    """Run ``bench/child.py`` in a fresh interpreter and wait for it with ``os.wait4``."""
    result = log.with_name("child.json")
    result.unlink(missing_ok=True)
    with open(log, "ab") as fh:
        spawned = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), str(config),
                                 str(result), *flags],
                                stdin=subprocess.DEVNULL, stdout=fh, stderr=fh, env=env)
    try:
        status, usage = _wait4(proc.pid, CHILD_TIMEOUT)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    data = json.loads(result.read_text(encoding="utf-8")) if proc.returncode == 0 else None
    return ChildRun(proc.returncode, data["ready"] - spawned if data else None,
                    usage.ru_maxrss / 1024.0, data)


def _wait4(pid: int, timeout: float):
    deadline = time.monotonic() + timeout
    while True:
        got, status, usage = os.wait4(pid, os.WNOHANG)
        if got == pid:
            return status, usage
        if time.monotonic() > deadline:
            raise TimeoutError(f"child {pid} ran longer than {timeout} s")
        time.sleep(0.05)


# ---------------------------------------------------------------------------
# Checks and metrics
# ---------------------------------------------------------------------------

def check_run(out: Path, inputs: dict, reference: dict | None, first_tree: dict | None) -> list[str]:
    """Every failed output check of one pipeline run."""
    stages = checks.manifest(out).get("stages", {})
    bad = [s for s, entry in stages.items() if entry.get("status") != "ok"]
    if bad or len(stages) != 7:
        return [f"manifest stages not ok: {bad or sorted(stages)}"]
    problems = []
    ingest = stages["ingest"]
    if (ingest["n_deals"], ingest["n_deal_rejects"]) != (inputs["n_deals"], inputs["n_malformed"]):
        problems.append(f"ingest kept {ingest['n_deals']} and rejected {ingest['n_deal_rejects']} "
                        f"deal rows, expected {inputs['n_deals']} and {inputs['n_malformed']}")
    share = checks.recovery(out, inputs["planted"])
    if share < MIN_RECOVERY:
        problems.append(f"planted regime recovery {share:.4f} < {MIN_RECOVERY}")
    if reference is not None:
        problems += checks.compare_digest(reference, checks.output_digest(out))
    if first_tree is not None and checks.tree_digest(out) != first_tree:
        problems.append("out_dir is not byte-identical to the first run of this invocation")
    return problems


def check_trace(traced: dict, counts: dict) -> list[str]:
    """The traced run's spans must cover the pipeline and its counts must repeat exactly."""
    problems = []
    if traced["n_stage_spans"] != 7:
        problems.append(f"traced run recorded {traced['n_stage_spans']} stage spans, expected 7")
    gap = traced["pipeline_s"] - traced["stages_total_s"]
    if not 0 <= gap <= max(0.05, 0.01 * traced["pipeline_s"]):
        problems.append(f"stage spans cover {traced['stages_total_s']:.4f} s "
                        f"of the traced pipeline_s {traced['pipeline_s']:.4f} s")
    negative = [n for n, v in traced["self_s"].items() if v < -1e-6]
    if negative:
        problems.append(f"negative self times: {negative}")
    for key, want in counts.items():
        got = traced["counts"].get(key, 0)
        if got != want:
            problems.append(f"traced count {key} = {got}, the untraced run gives {want}")
    return problems


def layer_metrics(traced: dict, untraced_median: float) -> dict:
    counts = traced["counts"]
    metrics = {k: v for k, v in traced["self_s"].items() if k != "pipeline_s"}
    metrics.update((k, counts.get(k, 0)) for k in COUNTS)
    metrics["regress.fit_yield"] = counts["regress.fits_ranked"] / counts["regress.fits_attempted"]
    metrics["regress.balanced_yield"] = (counts["regress.balanced_kept"]
                                         / counts["regress.balanced_attempted"])
    metrics["trace.overhead_s"] = traced["pipeline_s"] - untraced_median
    return metrics


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool, record: bool,
                 spec: dict) -> dict:
    wl = WORKLOADS[workload]
    nproc = len(os.sched_getaffinity(0))
    env = child_env()
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    log = work / "child.log"

    inputs = make_inputs(workload, seed, work)
    out = work / "out"
    config = work / "config.json"
    config.write_text(json.dumps({"out_dir": str(out), "deals_csv": str(inputs["deals_csv"]),
                                  "firms_csv": str(inputs["firms_csv"]), **wl.config},
                                 indent=2), encoding="utf-8")
    ref_path = BENCH / "reference" / f"{workload}.json"
    reference = None
    if seed == wl.seed and not record:
        reference = json.loads(ref_path.read_text(encoding="utf-8"))

    # The measured window starts here; input generation lies outside it. This process
    # has already imported vcnet, so bytecode and file caches are warm.
    began = time.perf_counter()
    runs, setup, problems, attempted, failed = [], [], [], 0, 0
    first_tree, counts = None, {}
    last = 0.0   # wall time of the last run and its checks: no run starts that would end late
    while len(runs) < MIN_RUNS or time.perf_counter() - began + last < seconds:
        started = time.perf_counter()
        shutil.rmtree(out, ignore_errors=True)
        attempted += 1
        child = run_child(config, env, log)
        if child.data is None:
            failed += 1
            problems.append(f"pipeline child exited with {child.exit_code}; see {log}")
            break
        run_problems = check_run(out, inputs, reference, first_tree)
        if first_tree is None and not run_problems:
            first_tree = checks.tree_digest(out)
            counts = checks.expected_counts(out)
            if record:
                ref_path.parent.mkdir(exist_ok=True)
                ref_path.write_text(json.dumps(checks.output_digest(out)) + "\n",
                                    encoding="utf-8")
        failed += bool(run_problems)
        problems += run_problems
        setup.append(child.setup_s)
        runs.append({"pipeline_s": child.data["pipeline_s"], "peak_rss_mb": child.peak_rss_mb})
        last = time.perf_counter() - started

    metrics, traced = {}, None
    if runs:
        metrics = {"pipeline_s": statistics.median(r["pipeline_s"] for r in runs),
                   "setup_s": statistics.median(setup),
                   "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs)}
    if trace and runs and not problems:
        attempted += 1
        shutil.rmtree(out, ignore_errors=True)
        child = run_child(config, env, log, "--trace")
        if child.data is None:
            failed += 1
            problems.append(f"traced pipeline child exited with {child.exit_code}; see {log}")
        else:
            traced = child.data
            traced_problems = check_run(out, inputs, reference, first_tree)
            traced_problems += check_trace(traced, counts)
            failed += bool(traced_problems)
            problems += traced_problems
            metrics = layer_metrics(traced, metrics["pipeline_s"])

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = sorted(set(wanted) - set(metrics))
    if not problems and missing:
        problems.append(f"metrics not measured: {missing}")
    summary = {
        "workload": workload, "seed": seed, "trace": int(trace), "env": environment(nproc),
        "inputs": {k: inputs[k] for k in ("digests", "data_seed", "frame_edges", "n_deals",
                                          "n_malformed")},
        "reference_checked": reference is not None, "runs": runs, "setup_samples": setup,
        "problems": problems,
        "result": {"correct": not problems and failed == 0, "attempted": attempted,
                   "failed": failed,
                   "metrics": {k: {"value": metrics[k], "unit": wanted[k]}
                               for k in wanted if k in metrics}},
    }
    # Spans and raw samples go next to, never into, the run's out_dir.
    (work / "result.json").write_text(json.dumps({**summary, "traced": traced}, indent=1),
                                      encoding="utf-8")
    return summary


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def report(summary: dict) -> None:
    res = summary["result"]
    print(f"workload {summary['workload']} seed {summary['seed']} trace {summary['trace']}: "
          f"{len(summary['runs'])} untraced run(s), {len(summary['setup_samples'])} set-up "
          f"samples, reference checked: {summary['reference_checked']}")
    print("env " + json.dumps(summary["env"], sort_keys=True))
    print("inputs " + json.dumps(summary["inputs"], sort_keys=True))
    for name, m in res["metrics"].items():
        print(f"  {name:<38} {m['value']:>14.6f} {m['unit']}")
    print(f"  {'failed_ratio':<38} {res['failed'] / res['attempted']:>14.6f} ratio "
          f"({res['failed']}/{res['attempted']})")
    for p in summary["problems"]:
        print(f"  FAILED: {p}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's own seed)")
    parser.add_argument("--seconds", type=float, default=55.0,
                        help="length of the measured window (at least three runs are made)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="write bench/reference/<workload>.json from a default-seed run")
    args = parser.parse_args(argv)

    if not (SRC / "vcnet" / "pipeline.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {SRC / 'vcnet'} or {ROOT / 'BENCHMARK.json'} is missing; "
              "run from a vcnet checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.record_reference and any(args.seed not in (None, WORKLOADS[n].seed) for n in names):
        parser.error("--record-reference needs each workload's own seed")
    sys.path.insert(0, str(SRC))
    raw = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = {kind: {m["name"]: m["unit"] for m in raw[kind]} for kind in ("end_to_end", "per_layer")}

    ok = True
    for name in names:
        seed = WORKLOADS[name].seed if args.seed is None else args.seed
        summary = run_workload(name, seed, args.seconds, bool(args.trace), args.record_reference,
                               spec)
        report(summary)
        print(json.dumps(summary["result"]), flush=True)
        ok = ok and summary["result"]["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
