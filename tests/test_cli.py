"""Pipeline orchestration: determinism, exit codes, stage protocol."""

import csv
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import warnings
from fnmatch import fnmatch
from pathlib import Path

import numpy as np
import pytest

import vcnet
from vcnet import cli, pipeline, regress, trajectories
from vcnet.centrality import (assemble_covariates, compute_frame, write_covariates_csv,
                              write_frames_csv)
from vcnet.cli import build_parser, main
from vcnet.errors import ConfigError
from vcnet.graph import build_bipartite, project_firms, project_investors
from vcnet.ingest import MAX_AMOUNT, SyntheticConfig, read_deals_csv
from vcnet.pipeline import STAGES, RunConfig, run_pipeline, run_stage

SYNTH = {"n_firms": 80, "n_investors": 40, "n_subsectors": 2,
         "year_range": [2000, 2020], "high_regime_fraction": 0.25, "seed": 13}

FAST = {"kmeans_inits": 5, "balance_reps": 20, "config_limit": 60}
FAST_FLAGS = [arg for key, value in FAST.items() for arg in (f"--{key}", str(value))]

#: A run without exits: its logistic selection holds a design whose IRLS
#: coefficients turn NaN, and its balanced ensemble falls short.
NO_EXITS = {**SYNTH, "seed": 5, "exit_rate_high": 0.0, "exit_rate_low": 0.0}
NO_EXITS_FLAGS = {"kmeans_inits": 5, "balance_reps": 50, "dendrogram_k": 5, "config_limit": 3000}

#: Degenerate runs, each with its synthetic overrides, extra flags, the
#: stage that fails and the pinned error message.
DEGENERATE_RUNS = {
    "one_firm": ({"n_firms": 1}, [], "features", "cannot cut 0 covariates into 7 groups"),
    "one_subsector": ({"n_subsectors": 1, "seed": 11}, [], "regress",
                      "no logistic configuration could be fit; configuration 0: "
                      "did not converge"),
    "one_investor": ({"n_investors": 1}, [], "regress",
                     "no logistic configuration could be fit; configuration 0: design matrix "
                     "is rank deficient; collinear columns: clustering_org"),
    "kmeans_k_1": ({}, ["--kmeans_k", "1"], "regress",
                   "no logistic configuration could be fit; configuration 0: logistic response "
                   "is constant; no model can be fit"),
    "kmeans_k_12": ({}, ["--kmeans_k", "12"], "regress",
                    "minority class has 3 rows; need at least 8"),
    # exp(50) is above the amount limit: ingest keeps no deal, so no firm has covariates
    "no_deals": ({"n_firms": 40, "amount_log_mean": 50.0}, [], "features",
                 "cannot cut 0 covariates into 7 groups"),
}


#: Config values of the wrong type: (RunConfig keys, synthetic keys) over a 40-firm run.
WRONG_TYPES = {
    "start_years_one_year": ({"start_years": [2000]}, {}),
    "sweep_windows_one_window": ({"sweep_windows": [5]}, {}),
    "window_years_string": ({"window_years": "10"}, {}),
    "kmeans_inits_float": ({"kmeans_inits": 2.5}, {}),
    "top_n_null": ({"top_n": None}, {}),
    "skew_threshold_string": ({"skew_threshold": "x"}, {}),
    "dendrogram_k_bool": ({"dendrogram_k": True}, {}),
    "n_firms_float": ({}, {"n_firms": 40.5}),
    "year_range_one_year": ({}, {"year_range": [2000]}),
    "seed_string": ({}, {"seed": "x"}),
    "skew_threshold_nan": ({"skew_threshold": float("nan")}, {}),
    "amount_log_mean_infinity": ({}, {"amount_log_mean": float("inf")}),
    "high_regime_fraction_nan": ({}, {"high_regime_fraction": float("nan")}),
}

#: Flag values that are not finite: (command, flags, synthetic keys, the key the error names).
NON_FINITE_FLAGS = {
    "run_skew_threshold_nan": ("run", ["--skew_threshold", "NaN"], {}, "skew_threshold"),
    "run_skew_threshold_minus_infinity": ("run", ["--skew_threshold=-Infinity"], {},
                                          "skew_threshold"),
    "synth_skew_threshold_infinity": ("synth", ["--skew_threshold", "Infinity"], {},
                                      "skew_threshold"),
    "synth_amount_log_mean_nan": ("synth", [], {"amount_log_mean": float("nan")},
                                  "amount_log_mean"),
    "run_exit_rate_low_minus_infinity": ("run", [], {"exit_rate_low": -float("inf")},
                                         "exit_rate_low"),
}


#: Config values of the right type outside their range: (RunConfig keys, synthetic keys,
#: the message).
YEARS_WITHIN = "year_range must lie within calendar years [1, 9999], exits included"
OUT_OF_RANGE = {
    "deals_csv_without_firms_csv": ({"deals_csv": "deals.csv"}, {},
                                    "deals_csv and firms_csv must be given together"),
    "projection_window_0": ({"projection_window": 0}, {}, "projection_window must be >= 1"),
    "top_n_0": ({"top_n": 0}, {}, "dendrogram_k, kmeans_k, kmeans_inits, balance_reps and top_n "
                                  "must be >= 1"),
    "horizon_5": ({"horizon": 5}, {}, "horizon must be one of (6, 7, 8), got 5"),
    "start_years_reversed": ({"start_years": [2010, 2000]}, {},
                             "start_years range (2010, 2000) is empty"),
    "sweep_windows_from_4": ({"sweep_windows": [4, 12]}, {},
                             "sweep_windows must lie within [5, 12], got (4, 12)"),
    "config_limit_negative": ({"config_limit": -1}, {},
                              "config_limit must be >= 0 (0 = unlimited)"),
    "seed_negative": ({}, {"seed": -3}, "seed must be >= 0, got -3"),
    "year_range_past_9999": ({}, {"year_range": [9990, 10005]},
                             f"{YEARS_WITHIN} (the latest in 10001), got (9990, 10005)"),
    "year_range_exits_past_9999": ({}, {"year_range": [9995, 9999]},
                                   f"{YEARS_WITHIN} (the latest in 10001), got (9995, 9999)"),
    "year_range_from_0": ({}, {"year_range": [0, 20]},
                          f"{YEARS_WITHIN} (the latest in 16), got (0, 20)"),
}

#: One hand edit to the first data row (line 2) of a stage artifact, and the stage
#: rerun that reads it: (file, the column set to "x" or None to cut the row to
#: its first field, stage).
MALFORMED_ROWS = {
    "frames_year": ("centrality/frames.csv", "year", "backtest"),
    "frames_first_measure": ("centrality/frames.csv", "degree_centrality", "backtest"),
    "frames_one_field": ("centrality/frames.csv", None, "backtest"),
    "covariates_first_year_features": ("centrality/covariates.csv", "first_year", "features"),
    "covariates_first_year_backtest": ("centrality/covariates.csv", "first_year", "backtest"),
    "covariates_n_investors": ("centrality/covariates.csv", "n_investors", "regress"),
    "covariates_flag": ("centrality/covariates.csv", "investor_measures_missing", "features"),
    "features_cell": ("features/features.csv", 1, "regress"),
    "trajectories_t0": ("trajectories/trajectories.csv", "t0", "regress"),
    "assignments_one_field": ("trajectories/assignments.csv", None, "regress"),
    "assignments_regime": ("trajectories/assignments.csv", "regime", "regress"),
    "ingest_deals_date": ("ingest/deals.csv", "date", "graph"),
}

#: Columns dropped from a stage artifact of a finished run, each read shifted
#: by position before its reader checked the header: (file, a pattern of the
#: dropped columns, the stage rerun that reads the file).
DROPPED_COLUMNS = {
    "trajectories_first_year": ("trajectories/trajectories.csv", "first_year", "regress"),
    "trajectories_grid": ("trajectories/trajectories.csv", "t[0-9]*", "regress"),
    "frames_layer": ("centrality/frames.csv", "layer", "backtest"),
    "frames_pagerank": ("centrality/frames.csv", "pagerank", "backtest"),
    "covariates_first_amount": ("centrality/covariates.csv", "first_amount", "regress"),
    "assignments_regime": ("trajectories/assignments.csv", "regime", "regress"),
    "ingest_deals_amount": ("ingest/deals.csv", "amount", "graph"),
    "ingest_firms_status_date": ("ingest/firms.csv", "status_date", "trajectories"),
}


def _edited_json(change):
    """An edit of a JSON file's bytes: ``change`` alters the decoded object in place."""
    def edit(raw: bytes) -> bytes:
        obj = json.loads(raw)
        change(obj)
        return json.dumps(obj).encode()
    return edit


#: Hand edits of a finished run that ``vcnet report`` refuses, naming the
#: edited file: (file, edit of its bytes).
BEST = "regress/linear_agg_best.json"
REPORT_EDITS = {
    "trajectories_status_only": ("manifest.json", _edited_json(
        lambda m: m["stages"].update(trajectories={"status": "ok"}))),
    "trajectories_without_share": ("manifest.json", _edited_json(
        lambda m: m["stages"]["trajectories"].pop("share_high"))),
    "best_truncated": (BEST, lambda raw: b"{"),
    "best_not_utf8": (BEST, lambda raw: b"\xff{}"),
    "best_array": (BEST, lambda raw: b"[]"),
    "best_without_r2": (BEST, _edited_json(lambda best: best.pop("r2"))),
    "best_without_covariates": (BEST, _edited_json(lambda best: best.pop("covariates"))),
    "trajectories_share_text": ("manifest.json", _edited_json(
        lambda m: m["stages"]["trajectories"].update(share_high="x"))),
    "trajectories_share_bool": ("manifest.json", _edited_json(
        lambda m: m["stages"]["trajectories"].update(share_high=True))),
    "trajectories_n_high_real": ("manifest.json", _edited_json(
        lambda m: m["stages"]["trajectories"].update(n_high=1.5))),
    "trajectories_n_low_null": ("manifest.json", _edited_json(
        lambda m: m["stages"]["trajectories"].update(n_low=None))),
    "best_covariates_numbers": (BEST, _edited_json(lambda best: best.update(covariates=[1, 2]))),
    "best_covariates_text": (BEST, _edited_json(lambda best: best.update(covariates="a"))),
    "best_r2_null": (BEST, _edited_json(lambda best: best.update(r2=None))),
    "best_r2_bool": (BEST, _edited_json(lambda best: best.update(r2=False))),
    "backtest_without_group": ("backtest/backtest.csv", lambda raw: b"".join(
        line.rsplit(b",", 1)[0] + b"\n" for line in raw.splitlines())),
    "perturbation_without_q95": ("regress/perturbation_groups.csv", lambda raw: b"".join(
        line.rsplit(b",", 1)[0] + b"\n" for line in raw.splitlines())),
    "groups_header_not_utf8": ("features/groups.csv",
                               lambda raw: raw.replace(b"group", b"gr\xffoup", 1)),
}


def make_cfg(out_dir, **over):
    raw = {"out_dir": str(out_dir), "synthetic": SYNTH, **FAST, **over}
    return RunConfig.from_dict(raw)


def tree_files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run") / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        manifest = run_pipeline(make_cfg(out))
    return out, manifest


class TestRunDeterminism:
    def test_rerun_into_same_dir_is_byte_identical(self, finished_run, tmp_path):
        out, _ = finished_run
        snapshot = tmp_path / "snapshot"
        shutil.copytree(out, snapshot)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_pipeline(make_cfg(out))
        before, after = tree_files(snapshot), tree_files(out)
        assert before.keys() == after.keys()
        for name in before:
            assert before[name] == after[name], f"{name} changed between identical runs"

    def test_all_stages_ok(self, finished_run):
        _, manifest = finished_run
        assert all(s["status"] == "ok" for s in manifest["stages"].values())
        assert len(manifest["stages"]) == 7

    def test_manifest_consistent_with_exclusions_arithmetic(self, finished_run):
        out, manifest = finished_run
        traj = manifest["stages"]["trajectories"]
        n_rows = len((out / "trajectories" / "trajectories.csv").read_text().splitlines()) - 1
        n_excl = len((out / "trajectories" / "exclusions.csv").read_text().splitlines()) - 1
        assert traj["n_retained"] == n_rows
        assert traj["n_excluded"] == n_excl
        n_firms_with_deals = manifest["stages"]["ingest"]["n_firms"]
        assert n_rows + n_excl == n_firms_with_deals

    def test_manifest_has_digests_and_version(self, finished_run):
        _, manifest = finished_run
        assert manifest["stages"]["ingest"]["deals_sha256"]
        assert manifest["version"]
        assert manifest["config"]["seed"] == 7


class TestStageProtocol:
    def test_stage_rerun_idempotent(self, finished_run):
        out, _ = finished_run
        before = tree_files(out / "centrality")
        run_stage("centrality", make_cfg(out))
        assert tree_files(out / "centrality") == before

    def test_stage_with_missing_upstream_exits_3(self, tmp_path, capsys):
        code = main(["stage", "regress", "--out_dir", str(tmp_path / "fresh"),
                     "--synthetic", json.dumps(SYNTH)])
        assert code == 3
        assert "ingest/deals.csv" in capsys.readouterr().err

    def _stage(self, name, out, *flags):
        return main(["stage", name, "--out_dir", str(out), "--synthetic", json.dumps(SYNTH),
                     *FAST_FLAGS, *flags])

    def test_features_writes_only_what_later_stages_read(self, finished_run, tmp_path):
        # regress and backtest rebuild what they need from these files alone
        assert sorted(p.name for p in (finished_run[0] / "features").iterdir()) == [
            "dendrogram.csv", "features.csv", "groups.csv", "transforms.csv"]
        out = tmp_path / "out"
        shutil.copytree(finished_run[0], out)
        for name in ("regress", "backtest"):
            shutil.rmtree(out / name)
            assert self._stage(name, out) == 0
            assert tree_files(out / name) == tree_files(finished_run[0] / name)

    def test_regress_rerun_on_other_covariates_leaves_only_its_own_files(self, finished_run,
                                                                         tmp_path):
        # every coefficient curve goes to one table, so no curve of the earlier fit is left
        out = tmp_path / "out"
        shutil.copytree(finished_run[0], out)
        assert self._stage("features", out, "--dendrogram_k", "3") == 0
        assert self._stage("regress", out, "--dendrogram_k", "3") == 0
        assert sorted(p.name for p in (out / "regress").iterdir()) == [
            "balanced_ensemble.json", "balanced_replicates.csv", "confusion.json",
            "functional_curves.csv", "linear_agg_best.json", "linear_agg_leaderboard.csv",
            "linear_diff_best.json", "linear_diff_leaderboard.csv", "logistic_best.json",
            "logistic_leaderboard.csv", "perturbation_groups.csv", "window_sweep.csv"]
        best = json.loads((out / "regress" / "linear_agg_best.json").read_text())
        header, *rows = read_table(out / "regress" / "functional_curves.csv")
        assert header == ["term", "t", "estimate", "se", "lo95", "hi95"]
        terms = ["intercept", *best["covariates"]]
        assert len(terms) == 4
        assert [row[:2] for row in rows] == [[term, str(t)] for term in terms for t in range(11)]

    def test_regress_fits_the_groups_the_features_stage_cut(self, tmp_path):
        out = tmp_path / "k6"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_pipeline(make_cfg(out, dendrogram_k=6))
        before = tree_files(out / "regress")
        assert self._stage("regress", out, "--dendrogram_k", "3") == 0
        assert tree_files(out / "regress") == before
        with open(out / "regress" / "logistic_leaderboard.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(len(r["covariates"].split(";")) == 6 for r in rows)

    def test_config_limit_truncates_every_leaderboard_and_the_manifest_says_so(
            self, finished_run, tmp_path):
        out, manifest = finished_run
        kinds = ("logistic", "linear_agg", "linear_diff")
        assert manifest["stages"]["regress"]["truncated"] is True
        for kind in kinds:
            assert len(read_table(out / "regress" / f"{kind}_leaderboard.csv")) == 1 + 60
        # without the limit, every configuration of a three-group cut is fitted
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        assert self._stage("features", copy, "--dendrogram_k", "3") == 0
        assert self._stage("regress", copy, "--config_limit", "0") == 0
        stages = json.loads((copy / "manifest.json").read_text())["stages"]
        assert stages["regress"]["truncated"] is False
        assert 60 < stages["features"]["n_configs"]
        for kind in kinds:
            assert len(read_table(copy / "regress" / f"{kind}_leaderboard.csv")) == \
                1 + stages["features"]["n_configs"]

    @pytest.mark.parametrize("stage", ["regress", "backtest"])
    def test_hand_edited_groups_exit_2(self, finished_run, tmp_path, capsys, stage):
        out = tmp_path / "out"
        shutil.copytree(finished_run[0], out)
        path = out / "features" / "groups.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        rows = [line.split(",") for line in lines[1:]]
        # swap the groups of two covariates: as many groups, but not the cut's
        j = next(j for j, row in enumerate(rows) if row[1] != rows[0][1])
        rows[0][1], rows[j][1] = rows[j][1], rows[0][1]
        path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n",
                        encoding="utf-8")
        assert self._stage(stage, out) == 2
        err = capsys.readouterr().err
        assert str(path) in err and str(out / "features" / "dendrogram.csv") in err

    @pytest.mark.parametrize("name", MALFORMED_ROWS)
    def test_malformed_row_exits_2_naming_file_and_line(self, name, finished_run, tmp_path,
                                                        capsys):
        rel, column, stage = MALFORMED_ROWS[name]
        out = tmp_path / "out"
        shutil.copytree(finished_run[0], out)
        path = out / rel
        header, row, *rest = read_table(path)
        if column is None:
            row = row[:1]
        else:
            row[column if isinstance(column, int) else header.index(column)] = "x"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header, row, *rest])
        assert self._stage(stage, out) == 2
        assert f"{path}: line 2: " in capsys.readouterr().err

    @pytest.mark.parametrize("name", DROPPED_COLUMNS)
    def test_artifact_without_a_column_exits_2_naming_the_file(self, name, finished_run,
                                                               tmp_path, capsys):
        rel, pattern, stage = DROPPED_COLUMNS[name]
        out = tmp_path / "out"
        shutil.copytree(finished_run[0], out)
        path = out / rel
        header, *rows = read_table(path)
        keep = [j for j, column in enumerate(header) if not fnmatch(column, pattern)]
        assert 0 < len(keep) < len(header)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(
                [row[j] for j in keep] for row in [header, *rows])
        assert self._stage(stage, out) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: line 1: header must be ")

    @pytest.mark.parametrize("firm_id, reason", [(b'"F\r1"', "carriage return in a field"),
                                                 (b"F\xff1", "invalid UTF-8 in a field")],
                             ids=["carriage_return", "not_utf8"])
    def test_bad_bytes_in_an_artifact_cell_exit_2_naming_file_and_line(
            self, firm_id, reason, finished_run, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(finished_run[0], out)
        path = out / "trajectories" / "assignments.csv"
        header, first, *rest = path.read_bytes().split(b"\n")
        path.write_bytes(b"\n".join([header, firm_id + first[first.index(b","):], *rest]))
        assert self._stage("regress", out) == 2
        assert f"{path}: line 2: {reason}" in capsys.readouterr().err

    def test_report_on_malformed_backtest_row_exits_2_naming_file_and_line(self, finished_run,
                                                                           tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(finished_run[0], out)
        path = out / "backtest" / "backtest.csv"
        header, *rows = read_table(path)
        i = next(i for i, row in enumerate(rows) if row[header.index("start_year")] == "ALL")
        rows[i][header.index("success_rate")] = "x"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header, *rows])
        assert main(["report", "--out_dir", str(out)]) == 2
        assert f"{path}: line {i + 2}: " in capsys.readouterr().err

    def test_report_on_malformed_perturbation_row_exits_2_naming_file_and_line(
            self, finished_run, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(finished_run[0], out)
        path = out / "regress" / "perturbation_groups.csv"
        header, *rows = read_table(path)
        rows[1][header.index("share_positive")] = "x"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header, *rows])
        assert main(["report", "--out_dir", str(out)]) == 2
        assert f"{path}: line 3: " in capsys.readouterr().err

    @pytest.mark.parametrize("name", REPORT_EDITS)
    def test_report_on_hand_edited_input_exits_2_naming_the_file(self, name, finished_run,
                                                                 tmp_path, capsys):
        rel, edit = REPORT_EDITS[name]
        out = tmp_path / "out"
        shutil.copytree(finished_run[0], out)
        path = out / rel
        path.write_bytes(edit(path.read_bytes()))
        assert main(["report", "--out_dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    def test_no_linear_diff_fit_leaves_the_stage_ok_without_its_best_fit(self, finished_run,
                                                                         tmp_path):
        # every firm's first round is all it raised, so no firm enters the differential fit
        out = tmp_path / "out"
        shutil.copytree(finished_run[0], out)
        final = {row[0]: row[-1] for row in read_table(out / "trajectories" / "trajectories.csv")}
        path = out / "centrality" / "covariates.csv"
        header, *rows = read_table(path)
        col = header.index("first_amount")
        for row in rows:
            row[col] = final.get(row[0], row[col])
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header, *rows])
        shutil.rmtree(out / "regress")
        assert self._stage("regress", out) == 0
        entry = json.loads((out / "manifest.json").read_text())["stages"]["regress"]
        assert entry["status"] == "ok" and entry["n_diff_dropped"] == entry["n_fit_firms"]
        assert "linear_diff_best_r2" not in entry
        assert not (out / "regress" / "linear_diff_best.json").exists()
        assert (out / "regress" / "linear_agg_best.json").exists()
        header, *rows = read_table(out / "regress" / "linear_diff_leaderboard.csv")
        assert len(rows) == 60 and all(row[header.index("rank")] == "" for row in rows)

    def test_backtest_without_features_exits_3(self, finished_run, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(finished_run[0], out)
        shutil.rmtree(out / "features")
        assert self._stage("backtest", out) == 3
        assert str(out / "features" / "dendrogram.csv") in capsys.readouterr().err

    @pytest.mark.parametrize("deleted, named", [
        (["trajectories/assignments.csv"], "trajectories/trajectories.csv"),
        (["centrality/covariates.csv"], "features/features.csv"),
        (["centrality/covariates.csv", "features/features.csv"], "trajectories/assignments.csv"),
    ])
    def test_firm_without_a_row_exits_2(self, finished_run, tmp_path, capsys, deleted, named):
        # delete the first firm's row; the file named second still lists that firm
        out = tmp_path / "out"
        shutil.copytree(finished_run[0], out)
        for rel in deleted:
            lines = (out / rel).read_text(encoding="utf-8").splitlines(keepends=True)
            (out / rel).write_text("".join(lines[:1] + lines[2:]), encoding="utf-8")
        assert self._stage("regress", out) == 2
        err = capsys.readouterr().err
        assert str(out / deleted[0]) in err and str(out / named) in err

    def test_features_columns_out_of_groups_order_exit_2(self, finished_run, tmp_path, capsys):
        # configurations are column positions, so the two files must list the same columns
        out = tmp_path / "out"
        shutil.copytree(finished_run[0], out)
        path = out / "features" / "features.csv"
        header, rest = path.read_text(encoding="utf-8").split("\n", 1)
        names = header.split(",")
        names[1], names[2] = names[2], names[1]
        path.write_text(",".join(names) + "\n" + rest, encoding="utf-8")
        assert self._stage("regress", out) == 2
        err = capsys.readouterr().err
        assert str(path) in err and str(out / "features" / "groups.csv") in err

    def test_split_frame_rows_exit_2_naming_file_and_line(self, finished_run, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(finished_run[0], out)
        path = out / "centrality" / "frames.csv"
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        # move the first row of a frame of several rows to the end of the file
        i = next(i for i, (a, b) in enumerate(zip(rows, rows[1:]))
                 if a.split(",")[:2] == b.split(",")[:2])
        rows.append(rows.pop(i))
        path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        assert self._stage("backtest", out) == 2
        assert f"{path}: line {len(rows) + 1}: " in capsys.readouterr().err

    def test_centrality_runs_latest_year_first_and_writes_ascending_bytes(
            self, finished_run, tmp_path, monkeypatch):
        out = tmp_path / "out"
        shutil.copytree(finished_run[0], out)
        years = []

        def recording(pg, g=None):
            years.append(pg.snapshot_year)
            return compute_frame(pg, g)

        monkeypatch.setattr(pipeline, "compute_frame", recording)
        cfg = make_cfg(out)
        run_stage("centrality", cfg)
        assert years == sorted(years, reverse=True) and len(set(years)) > 1
        # the same frames computed in ascending year order write the same bytes
        g = build_bipartite(read_deals_csv(out / "ingest" / "deals.csv"))
        frames, covariates = [], []
        for year in sorted(set(years)):
            firm_frame = compute_frame(project_firms(g, year, cfg.projection_window), g)
            inv_frame = compute_frame(project_investors(g, year))
            frames += [firm_frame, inv_frame]
            covariates += assemble_covariates(firm_frame, inv_frame, g)
        write_frames_csv(frames, tmp_path / "frames.csv")
        write_covariates_csv(covariates, tmp_path / "covariates.csv")
        for name in ("frames.csv", "covariates.csv"):
            assert (tmp_path / name).read_bytes() == (out / "centrality" / name).read_bytes()

    def test_unknown_stage_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            run_stage("nonsense", make_cfg(tmp_path / "x"))

    def test_stage_failure_recorded_in_manifest(self, tmp_path):
        # trajectories without ingest artifacts must fail and leave a record
        cfg = make_cfg(tmp_path / "partial")
        with pytest.raises(Exception):
            run_stage("trajectories", cfg)
        manifest = json.loads((tmp_path / "partial" / "manifest.json").read_text())
        assert manifest["stages"]["trajectories"]["status"] == "failed"


class TestMainFitMatchesSweep:
    def test_linear_agg_sweep_row_at_fit_window_equals_best_fit(self, finished_run):
        # the sweep refits the chosen configuration on responses built by the
        # same code as the main fit, so at the fitted window the two agree exactly
        out, manifest = finished_run
        window = manifest["config"]["window_years"]
        best = json.loads((out / "regress" / "linear_agg_best.json").read_text())
        with open(out / "regress" / "window_sweep.csv", encoding="utf-8", newline="") as fh:
            rows = [r for r in csv.DictReader(fh)
                    if r["kind"] == "linear_agg" and int(r["window"]) == window]
        assert [r["term"] for r in rows] == [t["term"] for t in best["terms"]]
        for r, t in zip(rows, best["terms"]):
            assert float(r["estimate"]) == t["estimate"]
            assert float(r["se"]) == t["se"]


class TestCliCommands:
    def test_missing_input_file_exits_2_without_artifacts(self, tmp_path, capsys):
        out = tmp_path / "never"
        code = main(["run", "--out_dir", str(out),
                     "--deals_csv", str(tmp_path / "no_deals.csv"),
                     "--firms_csv", str(tmp_path / "no_firms.csv")])
        assert code == 2
        assert not out.exists()

    def test_conflicting_inputs_exit_2(self, tmp_path):
        code = main(["run", "--out_dir", str(tmp_path / "x")])
        assert code == 2

    def test_bad_parameter_range_exits_2(self, tmp_path):
        code = main(["run", "--out_dir", str(tmp_path / "x"),
                     "--synthetic", json.dumps(SYNTH), "--window_years", "99"])
        assert code == 2

    def test_synth_writes_inputs(self, tmp_path, capsys):
        out = tmp_path / "synth"
        code = main(["synth", "--out_dir", str(out), "--synthetic", json.dumps(SYNTH)])
        assert code == 0
        assert (out / "deals.csv").exists()
        assert (out / "firms.csv").exists()
        assert (out / "planted_regimes.csv").exists()

    def test_csv_inputs_round_through_pipeline_stage(self, tmp_path, capsys):
        # and a synthetic ingest writes what an ingest of the synth files writes
        src = tmp_path / "inputs"
        assert main(["synth", "--out_dir", str(src), "--synthetic", json.dumps(SYNTH)]) == 0
        out, from_synth = tmp_path / "fromcsv", tmp_path / "synthetic"
        code = main(["stage", "ingest", "--out_dir", str(out),
                     "--deals_csv", str(src / "deals.csv"),
                     "--firms_csv", str(src / "firms.csv")])
        assert code == 0
        assert (src / "deals.csv").read_bytes() == (out / "ingest" / "deals.csv").read_bytes()
        assert main(["stage", "ingest", "--out_dir", str(from_synth),
                     "--synthetic", json.dumps(SYNTH)]) == 0
        files = tree_files(from_synth / "ingest")
        assert files.pop("planted_regimes.csv") == (src / "planted_regimes.csv").read_bytes()
        assert files == tree_files(out / "ingest")
        entries = [json.loads((run / "manifest.json").read_text())["stages"]["ingest"]
                   for run in (from_synth, out)]
        assert [entry.pop("source") for entry in entries] == ["synthetic", "csv"]
        assert entries[0] == entries[1]

    def test_synthetic_ingest_parses_the_files_it_wrote_once(self, tmp_path, monkeypatch):
        parsed, real = [], pipeline.parse_deals
        monkeypatch.setattr(pipeline, "parse_deals", lambda deals, firms: parsed.append(
            (Path(deals), Path(firms))) or real(deals, firms))
        run_stage("ingest", make_cfg(tmp_path / "out"))
        stage_dir = tmp_path / "out" / "ingest"
        assert parsed == [(stage_dir / "deals.csv", stage_dir / "firms.csv")]

    def test_synthetic_amounts_past_the_limit_are_rejected_like_file_input(self, tmp_path):
        # exp(50) is far above the largest int64 amount, so every deal is rejected
        counts = run_stage("ingest", make_cfg(tmp_path / "out",
                                              synthetic={**SYNTH, "amount_log_mean": 50.0}))
        rejects = read_table(tmp_path / "out" / "ingest" / "rejects_deals.csv")[1:]
        assert counts["source"] == "synthetic" and counts["n_deals"] == 0
        assert counts["n_deal_rejects"] == len(rejects) > 0
        assert {reason for _, reason in rejects} == {"amount above the limit 9223372036854775807"}

    def test_synth_draws_past_the_float_limit_write_amounts_ingest_rejects(self, tmp_path):
        # exp(800) overflows a float: the draw is clamped, and ingest rejects the amount
        src = tmp_path / "in"
        assert main(["synth", "--out_dir", str(src), "--synthetic",
                     json.dumps({**SYNTH, "amount_log_mean": 800.0})]) == 0
        amounts = [int(row[4]) for row in read_table(src / "deals.csv")[1:]]
        assert min(amounts) > MAX_AMOUNT
        counts = run_stage("ingest", make_cfg(tmp_path / "out", synthetic=None,
                                              deals_csv=str(src / "deals.csv"),
                                              firms_csv=str(src / "firms.csv")))
        assert counts["n_deals"] == 0 and counts["n_deal_rejects"] == len(amounts) > 0

    def test_full_run_from_csv_inputs(self, tmp_path, finished_run):
        # the CSV branch must reproduce the synthetic branch's artifacts
        # (identical data reaches the pipeline either way)
        synth_out, _ = finished_run
        src = tmp_path / "inputs"
        assert main(["synth", "--out_dir", str(src), "--synthetic", json.dumps(SYNTH)]) == 0
        out = tmp_path / "out"
        cfg = RunConfig.from_dict({
            "out_dir": str(out), **FAST,
            "deals_csv": str(src / "deals.csv"), "firms_csv": str(src / "firms.csv"),
        })
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            manifest = run_pipeline(cfg)
        assert all(s["status"] == "ok" for s in manifest["stages"].values())
        for rel in ("centrality/covariates.csv", "trajectories/assignments.csv",
                    "regress/logistic_best.json", "backtest/backtest.csv"):
            assert (out / rel).read_bytes() == (synth_out / rel).read_bytes()

    def test_oversized_amount_is_rejected_and_the_run_exits_0(self, tmp_path):
        # 10**400 does not fit a float: accepted, it would fail centrality with exit 1
        src = tmp_path / "inputs"
        assert main(["synth", "--out_dir", str(src), "--synthetic", json.dumps(SYNTH)]) == 0
        header, first, *rest = (src / "deals.csv").read_text().splitlines()
        first = first.rsplit(",", 1)[0] + "," + str(10**400)
        (src / "deals.csv").write_text("\n".join([header, first, *rest]) + "\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["run", "--out_dir", str(out), "--deals_csv", str(src / "deals.csv"),
                         "--firms_csv", str(src / "firms.csv"),
                         *(a for k, v in FAST.items() for a in (f"--{k}", str(v)))])
        assert code == 0
        assert read_table(out / "ingest" / "rejects_deals.csv")[1:] == [
            ["2", "amount above the limit 9223372036854775807"]]

    def _ingest_csv(self, tmp_path, deal_bytes):
        deals, firms = tmp_path / "deals.csv", tmp_path / "firms.csv"
        deals.write_bytes(deal_bytes)
        firms.write_bytes(b"firm_id,subsector,country,status,status_date\n")
        return main(["stage", "ingest", "--out_dir", str(tmp_path / "out"),
                     "--deals_csv", str(deals), "--firms_csv", str(firms)])

    def test_invalid_utf8_header_exits_2(self, tmp_path, capsys):
        code = self._ingest_csv(tmp_path, b"\xff\xfefirm_id,investor_id,round_id,date,amount\n")
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"error: {tmp_path / 'deals.csv'}: line 1: header must be ")

    def test_field_over_the_csv_limit_exits_2_naming_file_and_line(self, tmp_path, capsys):
        code = self._ingest_csv(tmp_path, b"firm_id,investor_id,round_id,date,amount\n"
                                          b"f1,i1,r1,2005-03-01,5\n"
                                          b"f2," + b"x" * 200_000 + b",r2,2006-01-02,7\n")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'deals.csv'}: line 3: field larger than")

    def test_report_summarizes_run(self, finished_run, capsys):
        out, _ = finished_run
        assert main(["report", "--out_dir", str(out)]) == 0
        text = capsys.readouterr().out
        assert "regimes:" in text
        assert "backtest mean success rates" in text
        # one line per perturbation group, naming the group's first covariate in groups.csv
        first = {}
        for covariate, group in read_table(out / "features" / "groups.csv")[1:]:
            first.setdefault(group, covariate)
        groups = [row[0] for row in read_table(out / "regress" / "perturbation_groups.csv")[1:]]
        lines = [line.split() for line in text.splitlines() if line.startswith("  group ")]
        assert [line[1:3] for line in lines] == [[g, first[g]] for g in groups]

    def test_report_on_missing_dir_exits_3(self, tmp_path, capsys):
        assert main(["report", "--out_dir", str(tmp_path / "nope")]) == 3

    @pytest.mark.parametrize("command", ["stage", "report"])
    @pytest.mark.parametrize("text", [b"{", b"[1, 2]", b'{"stages": []}',
                                      b'{"stages": {"ingest": 3}}', b"\xff{}"],
                             ids=["truncated", "array", "stages-array", "entry-number",
                                  "not-utf8"])
    def test_malformed_manifest_exits_2_naming_it_and_leaves_it(self, tmp_path, capsys,
                                                                 command, text):
        out = tmp_path / "out"
        synth = ["--out_dir", str(out), "--synthetic", json.dumps(SYNTH)]
        assert main(["stage", "ingest", *synth]) == 0
        manifest = out / "manifest.json"
        manifest.write_bytes(text)
        capsys.readouterr()
        args = ["stage", "graph", *synth] if command == "stage" else ["report", "--out_dir",
                                                                      str(out)]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith(f"error: {manifest}: ")
        assert manifest.read_bytes() == text
        assert not (out / "graph").exists()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"out_dir": str(tmp_path / "a"),
                                        "synthetic": SYNTH, **FAST}))
        out_b = tmp_path / "b"
        code = main(["stage", "ingest", "--config", str(cfg_file), "--out_dir", str(out_b)])
        assert code == 0
        assert (out_b / "ingest" / "deals.csv").exists()
        assert not (tmp_path / "a").exists()

    def test_every_config_field_has_a_flag(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if a.dest == "command")
        fields = {f"--{f.name}" for f in dataclasses.fields(RunConfig)}
        for command in ("run", "stage", "synth"):
            assert fields <= set(sub.choices[command]._option_string_actions)

    def test_typed_flags_reach_the_manifest(self, tmp_path):
        out = tmp_path / "typed"
        code = main(["stage", "ingest", "--out_dir", str(out), "--synthetic", json.dumps(SYNTH),
                     "--start_years", "2001", "2009", "--kmeans_log_scale", "false",
                     "--skew_threshold", "0.5", "--seed", "3"])
        assert code == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config["start_years"] == [2001, 2009]
        assert config["kmeans_log_scale"] is False
        assert config["skew_threshold"] == 0.5
        assert config["seed"] == 3
        assert config["synthetic"]["year_range"] == SYNTH["year_range"]

    def test_flags_are_json_values_except_paths(self):
        args = build_parser().parse_args(["synth", "--out_dir", "123", "--deals_csv", "true",
                                          "--firms_csv", "null", "--start_years", "2001", "2009",
                                          "--synthetic", json.dumps(SYNTH), "--top_n", "null"])
        cfg = cli._build_config(args)
        assert (cfg.out_dir, cfg.deals_csv, cfg.firms_csv) == ("123", "true", "null")
        assert cfg.start_years == (2001, 2009)
        assert cfg.synthetic == SyntheticConfig(**{**SYNTH, "year_range": (2000, 2020)})
        assert cfg.top_n is None  # given, so validate rejects it
        assert cfg.kmeans_log_scale is True  # a flag not given leaves the default

    @pytest.mark.parametrize("value", ["yes", "True", "on"])
    def test_boolean_flag_takes_only_json_booleans(self, value, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--out_dir", str(tmp_path / "in"), "--synthetic", json.dumps(SYNTH),
                  "--kmeans_log_scale", value])
        assert exc.value.code == 2
        assert f"argument --kmeans_log_scale: invalid JSON value: {value!r}" in \
            capsys.readouterr().err
        assert not (tmp_path / "in").exists()

    def test_boolean_flag_of_a_json_number_exits_2_naming_the_key(self, tmp_path, capsys):
        assert main(["synth", "--out_dir", str(tmp_path / "in"), "--synthetic", json.dumps(SYNTH),
                     "--kmeans_log_scale", "1"]) == 2
        assert capsys.readouterr().err == \
            "error: config key 'kmeans_log_scale' must be bool, got 1\n"

    @pytest.mark.parametrize("name", NON_FINITE_FLAGS)
    def test_non_finite_flag_exits_2_naming_the_key(self, name, tmp_path, capsys):
        command, flags, synthetic, key = NON_FINITE_FLAGS[name]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main([command, "--out_dir", str(tmp_path / "out"), *FAST_FLAGS, *flags,
                         "--synthetic", json.dumps({**SYNTH, **synthetic})])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: config key {key!r} must be float, got ")
        assert not (tmp_path / "out").exists()

    def test_unknown_synthetic_key_exits_2_like_a_top_level_one(self, tmp_path, capsys):
        assert main(["synth", "--out_dir", str(tmp_path / "in"),
                     "--synthetic", json.dumps({**SYNTH, "n_rounds": 3})]) == 2
        assert capsys.readouterr().err == "error: unknown config keys: ['n_rounds']\n"

    @pytest.mark.parametrize("flags, key", [
        (["--synthetic", json.dumps(SYNTH)], "out_dir"),
        (["--out_dir", "x", "--synthetic",
          json.dumps({k: v for k, v in SYNTH.items() if k != "n_firms"})], "n_firms"),
    ], ids=["out_dir", "synthetic_n_firms"])
    def test_missing_required_key_exits_2_naming_it(self, flags, key, capsys):
        assert main(["synth", *flags]) == 2
        assert capsys.readouterr().err == f"error: config key {key!r} must be set\n"

    @pytest.mark.parametrize("text", [b"[1, 2]", b'"x"', b"\xff{}"],
                             ids=["array", "string", "not-utf8"])
    def test_config_file_not_a_json_object_exits_2(self, text, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_bytes(text)
        assert main(["synth", "--config", str(cfg_file), "--out_dir", str(tmp_path / "in")]) == 2
        assert capsys.readouterr().err.startswith("error: config file ")

    @pytest.mark.parametrize("key, value", [("typo_key", 1), ("dump_graphs", False),
                                            ("frames_years", "all")])
    def test_unknown_config_key_exits_2(self, key, value, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"out_dir": "x", "synthetic": SYNTH, key: value}))
        assert main(["stage", "ingest", "--config", str(cfg_file)]) == 2
        assert f"unknown config keys: [{key!r}]" in capsys.readouterr().err


    @pytest.mark.parametrize("name", WRONG_TYPES)
    def test_wrong_type_in_config_file_exits_2_naming_the_key(self, name, tmp_path, capsys):
        over, synthetic = WRONG_TYPES[name]
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"out_dir": str(tmp_path / "out"), **FAST, **over,
                                        "synthetic": {**SYNTH, "n_firms": 40, **synthetic}}))
        assert main(["run", "--config", str(cfg_file)]) == 2
        (key,) = {**over, **synthetic}
        assert f"config key {key!r} must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", OUT_OF_RANGE)
    def test_out_of_range_config_value_exits_2_with_its_message(self, name, tmp_path, capsys):
        over, synthetic, message = OUT_OF_RANGE[name]
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"out_dir": str(tmp_path / "out"), **FAST, **over,
                                        "synthetic": {**SYNTH, "n_firms": 40, **synthetic}}))
        assert main(["run", "--config", str(cfg_file)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_synth_checks_config_types_exits_2_naming_the_key(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"out_dir": 3, "synthetic": SYNTH}))
        assert main(["synth", "--config", str(cfg_file)]) == 2
        assert "config key 'out_dir' must be" in capsys.readouterr().err


class TestRecordedWarnings:
    def test_zero_variance_column_warning_recorded_in_manifest(self, finished_run, tmp_path):
        out = tmp_path / "out"
        shutil.copytree(finished_run[0], out)
        path = out / "centrality" / "covariates.csv"
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        col = rows[0].index("clustering_max")
        for row in rows[1:]:
            row[col] = "0.5"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        counts = run_stage("features", make_cfg(out))
        entry = json.loads((out / "manifest.json").read_text())["stages"]["features"]
        assert entry["n_warnings"] == counts["n_warnings"] == 1
        assert entry["warning_messages"] == ["covariate 'clustering_max' has zero variance; dropped"]

    def test_synthesized_firms_are_recorded_in_the_ingest_entry(self, tmp_path):
        # two firms of deals.csv missing from firms.csv: one warning each, recorded once
        src = tmp_path / "inputs"
        assert main(["synth", "--out_dir", str(src), "--synthetic", json.dumps(SYNTH)]) == 0
        header, *rows = (src / "firms.csv").read_text(encoding="utf-8").splitlines()
        missing = [row.split(",")[0] for row in rows[:2]]
        (src / "firms.csv").write_text("\n".join([header, *rows[2:]]) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["stage", "ingest", "--out_dir", str(out), "--deals_csv",
                     str(src / "deals.csv"), "--firms_csv", str(src / "firms.csv")]) == 0
        entry = json.loads((out / "manifest.json").read_text())["stages"]["ingest"]
        assert entry["n_warnings"] == 2 and "warnings" not in entry
        assert entry["warning_messages"] == [
            f"firm {firm!r} appears in deals but not in firms.csv; synthesized UNKNOWN metadata"
            for firm in missing]
        assert entry["n_firms"] == len(rows)

    def test_one_sweep_failure_of_two_kinds_records_two_messages(self, finished_run, tmp_path,
                                                                 monkeypatch):
        # both kinds refit the aggregate fit's first covariate twice, so both fail alike
        out = tmp_path / "out"
        shutil.copytree(finished_run[0], out)
        leads, real = [], pipeline.window_sweep

        def doubled(deals, firms, fm, first_amounts, subsectors, configs, *args, **kwargs):
            leads.append(configs["linear_agg"][0])
            return real(deals, firms, fm, first_amounts, subsectors,
                        {kind: (leads[0], leads[0]) for kind in configs}, *args, **kwargs)
        monkeypatch.setattr(pipeline, "window_sweep", doubled)
        run_stage("regress", make_cfg(out, sweep_windows=[9, 9]))
        entry = json.loads((out / "manifest.json").read_text())["stages"]["regress"]
        failed = f"window 9: fit failed (design matrix is rank deficient; collinear columns: " \
                 f"{leads[0]})"
        assert entry["n_warnings"] == 2
        assert entry["warning_messages"] == [f"linear_agg: {failed}", f"logistic: {failed}"]

    def test_library_warning_lists_are_not_copied_into_the_manifest(self, finished_run):
        _, manifest = finished_run
        assert "kmeans_warnings" not in manifest["stages"]["trajectories"]
        assert "sweep_warnings" not in manifest["stages"]["regress"]

    def test_clean_run_records_zero_warnings(self, finished_run):
        _, manifest = finished_run
        for stage in STAGES:
            assert manifest["stages"][stage]["n_warnings"] == 0
            assert manifest["stages"][stage]["warning_messages"] == []


class TestTypedInternalErrors:
    def test_kmeans_invariant_failure_exits_1_with_error_message(self, tmp_path, capsys,
                                                                monkeypatch):
        out = tmp_path / "kmeans"
        assert main(["stage", "ingest", "--out_dir", str(out),
                     "--synthetic", json.dumps(SYNTH)]) == 0
        monkeypatch.setattr(trajectories, "_quad_weights", lambda n_grid: -np.ones(n_grid))
        code = main(["stage", "trajectories", "--out_dir", str(out),
                     "--synthetic", json.dumps(SYNTH)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: k-means objective increased")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stages"]["trajectories"]["status"] == "failed"


def read_table(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


class TestArtifactFormat:
    def test_balanced_replicates_hold_plain_floats(self, finished_run):
        out, _ = finished_run
        header, *rows = read_table(out / "regress" / "balanced_replicates.csv")
        assert header == ["replicate", "term", "estimate", "p_value"] and rows
        for row in rows:
            float(row[2]), float(row[3])
        for path in sorted(out.rglob("*")):
            if path.is_file():
                assert b"np." not in path.read_bytes(), path

    def test_json_artifacts_take_numpy_values_and_nothing_else(self, tmp_path):
        path = tmp_path / "values.json"
        pipeline._write_json(path, {"a": np.array([0.5, 2.0]), "n": np.int64(3)})
        assert json.loads(path.read_text()) == {"a": [0.5, 2.0], "n": 3}
        with pytest.raises(TypeError, match="set is not JSON serializable"):
            pipeline._write_json(path, {"s": {1}})

    def test_subsector_with_a_comma_is_quoted_in_every_artifact(self, tmp_path):
        src = tmp_path / "inputs"
        assert main(["synth", "--out_dir", str(src), "--synthetic", json.dumps(SYNTH)]) == 0
        firms = read_table(src / "firms.csv")
        for row in firms[1:]:
            if row[1] == "S02":
                row[1] = "Z, Pharma"
        with open(src / "firms.csv", "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(firms)
        out = tmp_path / "out"
        cfg = RunConfig.from_dict({"out_dir": str(out), **FAST, "deals_csv": str(src / "deals.csv"),
                                   "firms_csv": str(src / "firms.csv")})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_pipeline(cfg)
        for path in sorted(out.rglob("*.csv")):
            header, *rows = read_table(path)
            assert all(len(row) == len(header) for row in rows), path
        header, *rows = read_table(out / "regress" / "window_sweep.csv")
        terms = {row[header.index("term")] for row in rows}
        assert "subsector_Z, Pharma" in terms


class TestDegenerateRuns:
    def test_run_without_exits_records_its_warnings_instead_of_printing(self, tmp_path):
        # With no exits, one selection design ends unconverged with NaN
        # coefficients, and the balanced ensemble keeps fewer replicates
        # than asked for. Neither may reach stderr; the shortfall is counted.
        out = tmp_path / "no_exits"
        src = str(Path(vcnet.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        flags = [a for k, v in NO_EXITS_FLAGS.items() for a in (f"--{k}", str(v))]
        result = subprocess.run(
            [sys.executable, "-m", "vcnet.cli", "run", "--out_dir", str(out),
             "--synthetic", json.dumps(NO_EXITS), *flags],
            capture_output=True, text=True, timeout=180, env=env)
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        regress = json.loads((out / "manifest.json").read_text())["stages"]["regress"]
        kept, discarded = regress["ensemble_reps"], regress["ensemble_discarded"]
        assert kept < 50
        assert regress["n_warnings"] == 1
        assert regress["warning_messages"] == [
            f"balanced ensemble kept {kept} of 50 replicates ({discarded} discarded)"]

    def test_irls_retires_the_design_whose_coefficients_turn_non_finite(self, monkeypatch):
        # Two chunks of seeded logistic designs on one response, as the
        # selection stacks them. One design's covariate is scaled to 1e160,
        # so its information matrix overflows and its IRLS coefficients turn
        # NaN. It leaves the stack there, unconverged, and its chunk stops
        # with the last of the others.
        rng = np.random.default_rng(41)
        n, n_designs = 120, 2 * regress.SELECT_CHUNK
        z = rng.normal(size=n)
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-1.5 * z))).astype(float)
        noise = rng.uniform(0.1, 2.0, size=(n_designs, 1, 1))
        covariates = z[None, :, None] + noise * rng.normal(size=(n_designs, n, 2))
        covariates[n_designs // 2 + 7, :, 1] *= 1e160
        designs = np.concatenate([np.ones((n_designs, n, 1)), covariates], axis=2)
        with np.errstate(over="ignore"):
            beta, _, _ = regress._irls(designs, y)
        dead = np.flatnonzero(~np.isfinite(beta).all(axis=1))
        assert len(dead) == 1

        start = dead[0] - dead[0] % regress.SELECT_CHUNK
        chunk = designs[start:start + regress.SELECT_CHUNK]
        d = dead[0] - start
        others = np.delete(np.arange(len(chunk)), d)
        solve_each, iterations = regress._solve_each, []
        monkeypatch.setattr(regress, "_solve_each",
                            lambda a, b: iterations.append(len(a)) or solve_each(a, b))
        with np.errstate(over="ignore"):
            beta, n_iter, converged = regress._irls(chunk, y)
        monkeypatch.undo()
        assert not converged[d] and not np.isfinite(beta[d]).all()
        assert n_iter[d] < regress.IRLS_MAX_ITER
        assert len(iterations) == n_iter[others].max() < regress.IRLS_MAX_ITER
        alone = regress._irls(chunk[others], y)
        for got, want in zip((beta[others], n_iter[others], converged[others]), alone):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("name", DEGENERATE_RUNS)
    def test_degenerate_run_exits_2_with_its_pinned_message(self, name, tmp_path, capsys):
        synth, flags, stage, message = DEGENERATE_RUNS[name]
        out = tmp_path / name
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["run", "--out_dir", str(out), "--synthetic", json.dumps({**SYNTH, **synth}),
                         *(a for k, v in FAST.items() for a in (f"--{k}", str(v))), *flags])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        stages = json.loads((out / "manifest.json").read_text())["stages"]
        assert [s for s, entry in stages.items() if entry["status"] == "failed"] == [stage]
        assert stages[stage]["error"] == message
        # the failed entry keeps the warnings raised before the error
        failed = stages[stage]
        assert failed["n_warnings"] >= len(failed["warning_messages"])
        if name == "one_firm":
            assert "covariate 'n_investors' has zero variance; dropped" in failed["warning_messages"]

    def test_empty_fit_sample_exits_2_naming_the_window(self, tmp_path, capsys):
        # an 8-year data range cannot hold a 10-year trajectory, so no firm is kept
        synth = {"n_firms": 40, "n_investors": 20, "n_subsectors": 2,
                 "year_range": [2000, 2008], "high_regime_fraction": 0.2, "seed": 2}
        out = tmp_path / "empty"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", "--out_dir", str(out), "--synthetic", json.dumps(synth),
                         "--kmeans_inits", "3", "--balance_reps", "10", "--config_limit", "30"])
        assert code == 2
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        err = capsys.readouterr().err
        assert err.startswith("error: empty fit sample")
        assert "10-year" in err
        stages = json.loads((out / "manifest.json").read_text())["stages"]
        assert stages["trajectories"]["n_retained"] == 0
        assert stages["trajectories"]["warning_messages"] == [
            "no firm retained for a 10-year window"]
        assert stages["regress"]["status"] == "failed"
        assert stages["regress"]["error"] == err[len("error: "):].strip()


@pytest.mark.parametrize("blocked", [False, True], ids=["scipy_installed", "scipy_blocked"])
def test_run_leaves_scipy_unloaded(tmp_path, blocked):
    # The projection's adjacency and every product on it are numpy arrays,
    # current flow builds its own Laplacian, the component labels come from
    # the hop distances, and the fits' link, p-values and pivoted QR are
    # numpy: neither a run nor a selection that meets a rank-deficient
    # configuration loads scipy, and with scipy blocked from import both
    # end as they do with it installed.
    code = (("import sys; sys.modules['scipy'] = None\n" if blocked else "")
            + "import json, sys, warnings, numpy as np, vcnet, vcnet.cli\n"
            "from vcnet.features import FeatureMatrix\n"
            "from vcnet.pipeline import RunConfig, run_pipeline\n"
            "from vcnet.regress import select_model\n"
            "warnings.simplefilter('ignore')\n"
            "manifest = run_pipeline(RunConfig.from_dict(json.loads(sys.argv[1])))\n"
            "x = np.arange(40.0) % 7\n"
            "fm = FeatureMatrix([f'r{i}' for i in range(40)], ['a', 'twice_a'],\n"
            "                   np.column_stack([x, 2 * x]))\n"
            "errors = [select_model(kind, y, fm, np.array([[0, 1]])).results['error'][0]\n"
            "          for kind, y in (('linear', np.sin(x)), ('logistic', x % 2))]\n"
            "print(json.dumps([sorted({s['status'] for s in manifest['stages'].values()}), errors,\n"
            "                  sys.modules.get('scipy') is not None]))\n")
    src = str(Path(vcnet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    raw = {"out_dir": str(tmp_path / "out"), "synthetic": SYNTH, **FAST}
    result = subprocess.run([sys.executable, "-c", code, json.dumps(raw)],
                            capture_output=True, text=True, timeout=180, env=env)
    assert result.returncode == 0, result.stderr
    deficient = "design matrix is rank deficient; collinear columns: a"
    assert json.loads(result.stdout) == [["ok"], [deficient, deficient], False]
