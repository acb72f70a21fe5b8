"""Layer spans and counts for a traced pipeline run, recorded from outside.

``Tracer.install`` replaces the layer functions that ``vcnet.pipeline``
calls, the measure functions that ``compute_frame`` looks up in
``vcnet.centrality`` and the ``trajectories`` functions that
``vcnet.regress`` calls, with wrappers that record a span
``(name, start, end, parent)`` and, for some, an exact count taken from
the call's result. Spans stay in memory; ``export`` turns them into the
per-layer metrics at the end of the run. Nothing is written under the
run's ``out_dir``.

A span's self time is its duration minus the durations of its direct
children. Each per-layer ``<name>_s`` metric sums the self times of the
spans called ``<name>``.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

from vcnet import centrality, pipeline, regress

MEASURES = ("betweenness", "newman_betweenness", "closeness", "harmonic", "eigenvector",
            "pagerank", "clustering", "voterank", "core_number", "degree_centrality",
            "average_neighbor_degree")

ROOT = "pipeline"


def _count_parse(counts, result, args, kwargs):
    counts["ingest.rows"] += len(result.deals) + len(result.deal_rejects)
    counts["ingest.rejects"] += len(result.deal_rejects) + len(result.firm_rejects)


def _count_selection(counts, result, args, kwargs):
    counts["regress.fits_attempted"] += len(result.results)
    counts["regress.fits_ranked"] += len(result.ranked)


def _count_balanced(counts, result, args, kwargs):
    counts["regress.balanced_kept"] += result.n_reps
    counts["regress.balanced_attempted"] += result.n_reps + result.n_discarded


def _counter(key, amount=lambda result: 1):
    def count(counts, result, args, kwargs):
        counts[key] += amount(result)
    return count


def _select_name(args, kwargs):
    kind = kwargs.get("kind", args[0] if args else None)
    return f"regress.select_{kind}"


def _stage_name(args, kwargs):
    return f"pipeline.{kwargs.get('name', args[0] if args else None)}"


# (module, attribute, span name or a function of the call's arguments, counter)
_PIPELINE_CALLS = [
    (pipeline, "run_stage", _stage_name, None),
    (pipeline, "parse_deals", "ingest.parse", _count_parse),
    (pipeline, "write_deals", "ingest.write", None),
    (pipeline, "write_firms", "ingest.write", None),
    (pipeline, "write_rejects", "ingest.write", None),
    (pipeline, "build_bipartite", "graph.build", None),
    (pipeline, "project_firms", "graph.project_firms",
     _counter("graph.firm_edges", lambda pg: pg.n_edges())),
    (pipeline, "project_investors", "graph.project_investors",
     _counter("graph.investor_edges", lambda pg: pg.n_edges())),
    (pipeline, "compute_frame", "centrality.frame", _counter("centrality.frames")),
    (pipeline, "assemble_covariates", "centrality.covariates", None),
    (pipeline, "write_frames_csv", "centrality.write", None),
    (pipeline, "write_covariates_csv", "centrality.write", None),
    (pipeline, "preprocess", "features.preprocess", None),
    (pipeline, "correlation_dendrogram", "features.dendrogram", None),
    (pipeline, "cut_groups", "features.dendrogram", None),
    (pipeline, "enumerate_configs", None, _counter("features.configs", len)),
    (pipeline, "build_trajectories", "trajectories.build", None),
    (pipeline, "functional_kmeans", "trajectories.kmeans", _counter("trajectories.kmeans_calls")),
    (regress, "build_trajectories", "trajectories.build", None),
    (regress, "functional_kmeans", "trajectories.kmeans", _counter("trajectories.kmeans_calls")),
    (pipeline, "select_model", _select_name, _count_selection),
    (pipeline, "balanced_ensemble", "regress.balanced", _count_balanced),
    (pipeline, "window_sweep", "regress.window_sweep", None),
    (pipeline, "fit_function_on_scalar", "regress.functional", None),
    (pipeline, "perturbation_sweep", "regress.perturbation", None),
    (pipeline, "write_leaderboard_csv", "regress.write", None),
    (pipeline, "write_functional_curves", "regress.write", None),
    (pipeline, "write_perturbation_csv", "regress.write", None),
    (pipeline, "run_strategy", "backtest.strategy", None),
    (pipeline, "write_backtest_csv", "backtest.write", None),
] + [(centrality, m, f"centrality.{m}", None) for m in MEASURES]


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def install(self) -> None:
        for module, attr, name, count in _PIPELINE_CALLS:
            setattr(module, attr, self._wrap(getattr(module, attr), name, count))

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                label = name(args, kwargs) if callable(name) else name
                parent = self._stack[-1] if self._stack else -1
                idx = len(self.spans)
                self.spans.append([label, time.perf_counter(), None, parent])
                self._stack.append(idx)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._stack.pop()
                    self.spans[idx][2] = time.perf_counter()
            if count is not None:
                count(self.counts, result, args, kwargs)
            return result
        return traced

    def export(self, start: float, end: float) -> dict:
        """Spans plus per-layer self times and counts for a run over [start, end]."""
        spans = [[ROOT, start, end, -1]] + [[n, s, e, p + 1] for n, s, e, p in self.spans]
        child_time = [0.0] * len(spans)
        for name, s, e, parent in spans[1:]:
            child_time[parent] += e - s
        self_s: Counter = Counter()
        for i, (name, s, e, _) in enumerate(spans):
            self_s[f"{name}_s"] += (e - s) - child_time[i]
        stages = [e - s for name, s, e, parent in spans if parent == 0]
        return {
            "spans": spans,
            "self_s": dict(self_s),
            "counts": dict(self.counts),
            "stages_total_s": sum(stages),
            "n_stage_spans": len(stages),
        }
