"""One fresh-interpreter pipeline run, started by ``bench/run.py``.

Usage: ``python3 bench/child.py CONFIG_JSON RESULT_JSON [--trace]``

The interpreter start is the start of set-up. The child imports
``vcnet``, loads and validates the ``RunConfig`` in ``CONFIG_JSON`` and
records the monotonic clock: that is the end of set-up. It then runs
``run_pipeline`` and times it, optionally with the layer tracer of
``bench/tracer.py`` installed. The
result (clock readings, pipeline time, spans and counts) is written to
``RESULT_JSON``, which lies outside the run's ``out_dir``.

``time.perf_counter`` reads CLOCK_MONOTONIC on Linux, which is shared by
all processes, so the parent can subtract its own spawn time from the
ready time recorded here.
"""

import json
import sys
import time


def main(argv: list[str]) -> int:
    config_path, result_path = argv[0], argv[1]
    trace = "--trace" in argv[2:]

    import vcnet  # noqa: F401  (the import is part of set-up)
    from vcnet.pipeline import RunConfig

    with open(config_path, encoding="utf-8") as fh:
        cfg = RunConfig.from_dict(json.load(fh))
    cfg.validate()
    ready = time.perf_counter()
    result: dict = {"ready": ready}

    import warnings

    from vcnet import pipeline

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        start = time.perf_counter()
        pipeline.run_pipeline(cfg)
        end = time.perf_counter()
    result.update(start=start, end=end, pipeline_s=end - start)
    if tracer is not None:
        result.update(tracer.export(start, end))

    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
