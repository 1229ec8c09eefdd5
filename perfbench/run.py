"""rexeval benchmark: one workload, repeated closed-loop runs in fresh interpreters.

    python3 perfbench/run.py --workload {fit,rank,explain} --seed N --seconds S --trace {0,1}

Run from the root of a rexeval checkout. The workload's INI is written
from --seed; each repetition launches a new interpreter (child.py) that
loads it and calls the pipeline stages the workload needs, one client,
one run at a time, until S seconds have passed. Every repetition then
goes through the correctness gate (gate.py). With --trace 1, traced
repetitions (spans.py) alternate with untraced ones so the tracing
overhead can be measured.

The last stdout line is one JSON object: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1, named as in
BENCHMARK.json. Full results, span files and the first repetition's
artifacts stay under .perfbench_work/. Exit status: 0 when every report
cell passed the gate, 1 when any failed, 2 when the checkout holds no
rexeval sources.
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
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEADLINE_S = 150.0  # no child may run past this, so an invocation ends well under 180 s
LAST_START_S = 120.0  # no repetition starts after this
END_TO_END = {"run_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
# One BLAS thread for this process and every run it launches. With one
# thread per core, OpenBLAS's spinning workers stall whenever another
# process holds a core: on 2 shared cores a run then takes 5-10 times
# as long, and the benchmark measures the scheduler. On 2 cores the
# wall time of an undisturbed run is the same with 1 thread or 2.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def tail(values: list[float]) -> tuple[str, float] | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    return f"p{100.0 * (n - 10) / n:.0f}", sorted(values)[n - 11]


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def run_child(src: Path, ini: Path, stages, rep_dir: Path, traced: bool, run_id: str,
              timeout: float) -> tuple[dict | None, float, str]:
    """Launch one repetition; returns (child result, launch time, problem)."""
    rep_dir.mkdir(parents=True)
    result_path = rep_dir / "result.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--src", str(src), "--ini", str(ini),
           "--stages", ",".join(stages), "--result", str(result_path)]
    if traced:
        cmd += ["--trace", "--spans", str(rep_dir / "spans.npz"), "--run-id", run_id]
    with open(rep_dir / "stderr.txt", "w", encoding="utf-8") as err:
        launched = time.monotonic()
        try:
            subprocess.run(cmd, cwd=rep_dir, stdin=subprocess.DEVNULL,
                           stdout=subprocess.DEVNULL, stderr=err, timeout=timeout, check=False)
        except subprocess.TimeoutExpired:
            return None, launched, f"timed out after {timeout:.0f}s"
    if not result_path.exists():
        lines = (rep_dir / "stderr.txt").read_text(encoding="utf-8").strip().splitlines()
        return None, launched, lines[-1] if lines else "child wrote no result"
    result = json.loads(result_path.read_text(encoding="utf-8"))
    return result, launched, result["error"] or ""


def measure(gate, workload, src: Path, work: Path, ini: Path, seconds: float,
            trace: bool, seed: int) -> dict:
    """Repeat the workload until `seconds` have passed; gate every repetition."""
    operations = workload.operations
    reps: list[dict] = []
    reasons: list[str] = []
    setups: list[float] = []
    reference = None
    facts: dict = {}
    started = time.monotonic()
    while True:
        index = len(reps)
        traced = trace and index % 2 == 1
        rep_dir = work / f"rep{index}"
        run_dir = rep_dir / "run"
        result, launched, problem = run_child(
            src, ini, workload.stages, rep_dir, traced, f"{workload.name}-{seed}-{index}",
            max(DEADLINE_S - (time.monotonic() - started), 1.0))
        verify_s = None
        if problem:
            failed, found = set(operations), [problem]
        elif not Path(result["rexeval_file"]).resolve().is_relative_to(src.resolve()):
            failed, found = set(operations), [f"rexeval imported from {result['rexeval_file']}"]
        else:
            gate_started = time.perf_counter()
            failed, found = gate.check_run(run_dir, operations, reference)
            verify_s = time.perf_counter() - gate_started
            if reference is None and (run_dir / "results.json").exists():
                reference = gate.reference_of(run_dir)
                facts = {"work": gate.work_counts(run_dir),
                         "results_sha256": reference["digests"]["results.json"],
                         "gens_sha256": gate.artifact_digest(reference["digests"], "gens/"),
                         "audit_sha256": gate.artifact_digest(reference["digests"], "audit/")}
        reps.append({"traced": traced, "ok": not problem, "result": result,
                     "failed": len(failed), "verify_s": verify_s})
        if result and not traced:
            setups.append(result["first_stage"] - launched)
        reasons += [f"rep {index}: {r}" for r in found]
        if not traced:
            # a second launch that stops at the first stage call: one more
            # set-up sample per repetition, for a steadier setup_s median
            got, launched, problem = run_child(
                src, ini, (), rep_dir / "setup", False, "",
                max(DEADLINE_S - (time.monotonic() - started), 1.0))
            if not problem:
                setups.append(got["first_stage"] - launched)
        # keep the first repetition's artifacts and the first traced spans
        if index > 0 and run_dir.exists():
            shutil.rmtree(run_dir)
        if traced and index > 1:
            (rep_dir / "spans.npz").unlink(missing_ok=True)
        elapsed = time.monotonic() - started
        enough = elapsed >= seconds and (not trace or len(reps) >= 2)
        if enough or elapsed >= LAST_START_S:
            break
    shutil.rmtree(work / "rep0" / "run" / "checkpoints", ignore_errors=True)
    return {"reps": reps, "setups": setups, "reasons": reasons, "facts": facts}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rexeval benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(BLAS_ENV)

    root = Path.cwd()
    src = root / "src"
    if not (src / "rexeval" / "pipeline.py").is_file():
        print(f"error: no rexeval sources under {src}; run from the root of a "
              "rexeval checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(src))
    import gate
    from workloads import WORKLOADS, render_ini

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload '{args.workload}' (known: {', '.join(WORKLOADS)})")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    workload = WORKLOADS[args.workload]
    work = root / ".perfbench_work" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ini = work / "workload.ini"
    ini.write_text(render_ini(workload, args.seed), encoding="utf-8")

    measured = measure(gate, workload, src, work, ini, args.seconds, bool(args.trace),
                       args.seed)
    reps, facts = measured["reps"], measured["facts"]
    attempted = len(reps) * len(workload.operations)
    failed = sum(r["failed"] for r in reps)
    plain = [r["result"] for r in reps if r["ok"] and not r["traced"]]
    traced = [r["result"] for r in reps if r["ok"] and r["traced"]]
    samples = {name: [r[name] for r in plain] for name in ("run_s", "cpu_s", "peak_rss_mb")}
    samples["setup_s"] = measured["setups"]

    fp = gate.fingerprint()
    print(f"perfbench workload={workload.name} seed={args.seed} trace={args.trace} "
          f"reps={len(reps)} (untraced {len(plain)}) seconds={args.seconds:g}")
    print("fingerprint: " + " ".join(f"{k}={v}" for k, v in fp.items()))
    print("artifacts: " + " ".join(f"{k}={v}" for k, v in facts.items() if k != "work"))
    print("work per run: " + " ".join(f"{k}={v}" for k, v in facts.get("work", {}).items()))
    summary: dict = {}
    for name, unit in END_TO_END.items():
        values = samples[name]
        if not values:
            continue
        top = tail(values)
        summary[name] = {"median": statistics.median(values), "n": len(values),
                         "iqr_over_median": spread(values), "values": values,
                         "tail": list(top) if top else None}
        tail_text = f"{top[0]} {top[1]:.4f}" if top else "no tail (fewer than 11 samples)"
        print(f"{name:<12} {unit:<5} median {summary[name]['median']:.4f}  {tail_text}  "
              f"n={len(values)}  iqr/median {summary[name]['iqr_over_median']:.3f}")
    error_rate = failed / attempted
    print(f"{'error_rate':<12} {'1':<5} {error_rate:.4f}  "
          f"({failed} of {attempted} report cells failed)")
    stage_s = {stage: statistics.median(r["stage_s"].get(stage, 0.0) for r in plain)
               for stage in workload.stages} if plain else {}
    if "run_s" in summary:
        print("stages (median s, share of run_s): " + "  ".join(
            f"{stage} {s:.3f} ({100 * s / summary['run_s']['median']:.0f}%)"
            for stage, s in stage_s.items()))
    for reason in measured["reasons"][:20]:
        print(f"FAIL {reason}")

    layers: dict = {}
    if args.trace:
        per_rep: dict = {}
        for r in traced:
            for key, value in r["layers"].items():
                per_rep.setdefault(key, []).append(value)
        layers = {key: statistics.median(v) for key, v in per_rep.items()}
        checks = [r["verify_s"] for r in reps if r["verify_s"] is not None]
        if checks:
            layers["report.verify_audit_s"] = statistics.median(checks)
        if traced and plain:
            layers["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced)
                                          - summary["run_s"]["median"])
        print(f"traced reps: {len(traced)}, spans per rep: {[r['spans'] for r in traced]}")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for key in sorted(layers):
            print(f"layer {key:<38} {units.get(key, '-'):<6} {layers[key]:.6g}")

    (work / "result.json").write_text(json.dumps({
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "fingerprint": fp, "facts": facts, "end_to_end": summary, "stage_s": stage_s,
        "layers": layers, "error_rate": error_rate, "attempted": attempted,
        "failed": failed, "reasons": measured["reasons"],
    }, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = layers if args.trace else {k: v["median"] for k, v in summary.items()}
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        print(f"FAIL no value for {', '.join(missing)}")
    correct = failed == 0 and not missing
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in source}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
