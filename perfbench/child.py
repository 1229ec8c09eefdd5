"""One closed-loop run of one workload, in the interpreter it was launched in.

    python3 perfbench/child.py --src SRC --ini INI --stages a,b,... --result OUT.json
                               [--trace --spans OUT.npz --run-id ID]

The working directory is the run's own; the INI's relative output
directory lands there. Times are taken around the calls into
`rexeval.pipeline.stage_*`. With --trace, spans are recorded by
`spans.install` and written after the run, outside the timed region.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

STAGE_FUNCTIONS = {"gen-corpus": "stage_gen_corpus", "train": "stage_train",
                   "generate": "stage_generate", "evaluate": "stage_evaluate",
                   "report": "stage_report"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--ini", required=True)
    parser.add_argument("--stages", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("--run-id", default="")
    args = parser.parse_args(argv)

    sys.path.insert(0, args.src)
    from rexeval import pipeline
    from rexeval.config import load_config

    config = load_config(args.ini)
    rec = None
    if args.trace:
        import numpy as np
        import spans
        rec = spans.Recorder(args.run_id)
        spans.install(rec)

    stage_s: dict[str, float] = {}
    error = None
    first_stage = time.monotonic()
    for stage in filter(None, args.stages.split(",")):
        fn = getattr(pipeline, STAGE_FUNCTIONS[stage])
        sid = rec.open(rec.name_id(f"pipeline.{stage}")) if rec is not None else None
        started = time.perf_counter()
        try:
            fn(config)
        except pipeline.StageError as exc:
            error = str(exc)
            break
        finally:
            stage_s[stage] = time.perf_counter() - started
            if rec is not None:
                rec.close(sid)
    finished = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "first_stage": first_stage,
        "run_s": finished - first_stage,
        "stage_s": stage_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "error": error,
        "rexeval_file": pipeline.__file__,
    }
    if rec is not None:
        arrays = rec.as_arrays()
        with open(args.spans, "wb") as fh:
            np.savez(fh, **arrays)
        summary = spans.summarize(arrays["names"].tolist(), arrays["name"], arrays["start"],
                                  arrays["end"], arrays["parent"])
        distinct = {key: len(values) for key, values in rec.keys.items()}
        result["spans"] = len(arrays["start"])
        result["span_summary"] = summary
        result["layers"] = spans.layer_metrics(summary, dict(rec.counts), distinct, stage_s)
    Path(args.result).write_text(json.dumps(result, sort_keys=True), encoding="utf-8")
    return 0 if error is None else 1


if __name__ == "__main__":
    sys.exit(main())
