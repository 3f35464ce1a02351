"""Benchmark for latident: timed passes of the CLI over generated model files.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from anywhere; it works on the checkout that holds it and imports the
package from that checkout's `src/`.  The seed makes the workload's model
files (workloads.py); the program only reads those files.  Each pass runs in a
fresh process (child.py), so the package's caches start cold, with one BLAS
thread (see BLAS_THREADS).  One client sends the models one after another, a
closed loop.  After an untimed warm-up process, passes repeat until
`--seconds` have gone by, four at least; timings are medians over passes.

With `--trace 0` the last stdout line holds the end-to-end metrics.  With
`--trace 1` untraced and traced passes alternate, two of each at least, and
the line holds the per-layer metrics of tracing.py and the tracing overhead:
median traced pass minus median untraced pass.

Every pass is checked: each model has a well-formed outcome whose exit code
matches its verdict, the fixtures' verdicts match the README, the dense ladder
is generically identified, and every output is byte-identical across the
passes' processes.  Models whose command exits 1 or raises count in `failed`
and in `completed_share`; none is dropped.

A model's latency is the median of its times over the passes; `model_p50_ms`
and `model_p99_ms` are taken over the models.  Only sweep_small has ten models
beyond its p99; on the ladders p99 is the slowest model.  `largest_model_s`
sums the models of the workload's largest observed-node count.
`oracle_agree_share` is 1 on a workload that runs no verify (dense_locus).

BASELINE.json holds the figures of the package as this benchmark was added.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import COUNTERS, TIMES  # noqa: E402
from workloads import FIXTURE_VERDICTS, generate  # noqa: E402

WORKLOADS = ("sweep_small", "dense_locus", "numeric_ladder")
MIN_PASSES = 4
MIN_TRACED_PASSES = 2
# No pass starts that could end after this many seconds of measuring.
BUDGET_S = 140.0
# One BLAS thread, within the cap of the usable cores.  On a 2-vCPU virtual
# machine a two-thread OpenBLAS SVD intermittently costs ~0.22 s instead of
# ~1 ms, for about a second at a time; with one thread it never does.
BLAS_THREADS = "1"

EXIT_STATUS = {0: "identified_everywhere", 2: "generically_identified", 3: "not_identified"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "models_per_s": "1/s",
    "model_p50_ms": "ms",
    "model_p99_ms": "ms",
    "largest_model_s": "s",
    "peak_rss_mb": "MB",
    "completed_share": "share",
    "oracle_agree_share": "share",
}
LAYER_UNITS = {
    **dict.fromkeys(TIMES, "s"),
    **COUNTERS,
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
}


def run_pass(root: Path, jobs_file: Path, traced: bool, env: dict, timeout: float) -> dict:
    spawn = repr(perf_counter())
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), spawn, str(jobs_file), "1" if traced else "0"],
        cwd=root, env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"pass process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def check(jobs, passes) -> list[str]:
    """Every violated expectation, one message each."""
    if any(len(p["results"]) != len(jobs) for p in passes):
        return [f"a pass did not return one result for each of the {len(jobs)} models"]
    errors = []
    for i, job in enumerate(jobs):
        r = passes[0]["results"][i]
        rc = r["rc"]
        where = f"{job.path} ({job.group})"
        if any(p["results"][i]["digest"] != r["digest"] for p in passes[1:]):
            errors.append(f"{where}: output differs between processes")
        if "malformed" in r:
            errors.append(f"{where}: malformed report: {r['malformed']}")
        elif rc in EXIT_STATUS and r["status"] != EXIT_STATUS[rc]:
            errors.append(f"{where}: exit {rc} with status {r['status']}")
        elif rc == 1 and not r["stderr"].startswith("error:"):
            errors.append(f"{where}: exit 1 without an error message")
        elif rc == 4 and not r["stderr"].startswith("unsupported model:"):
            errors.append(f"{where}: exit 4 without an unsupported-model message")
        elif rc not in (0, 1, 2, 3, 4) and not r["failed"]:
            errors.append(f"{where}: unexpected exit code {rc}")
        if job.group.startswith("fixture-"):
            want = FIXTURE_VERDICTS[job.group.removeprefix("fixture-")]
            if r["status"] != want:
                errors.append(f"{where}: verdict {r['status']}, the README says {want}")
        if job.group.startswith("dense") and not (rc == 2 and r["equations"]):
            errors.append(f"{where}: expected a generically identified model with equations")
    return errors


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(jobs, passes) -> dict[str, float]:
    largest = max(job.size for job in jobs)
    in_largest = [i for i, job in enumerate(jobs) if job.size == largest]
    per_model = [statistics.median(p["times"][i] for p in passes) for i in range(len(jobs))]
    results = [r for p in passes for r in p["results"]]
    oracle = [r["consistent"] for r in results if r["consistent"] is not None]
    return {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "models_per_s": statistics.median(len(jobs) / p["wall_s"] for p in passes),
        "model_p50_ms": 1e3 * statistics.median(per_model),
        "model_p99_ms": 1e3 * nearest_rank(per_model, 0.99),
        "largest_model_s": statistics.median(
            sum(p["times"][i] for i in in_largest) for p in passes
        ),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "completed_share": 1 - sum(r["failed"] for r in results) / len(results),
        "oracle_agree_share": sum(oracle) / len(oracle) if oracle else 1.0,
    }


def per_layer(passes: dict) -> dict[str, float]:
    traced = passes[True]
    values = {
        name: statistics.median(p["layers"][name] for p in traced)
        for name in (*TIMES, *COUNTERS)
    }
    values["trace.traced_wall_s"] = statistics.median(p["wall_s"] for p in traced)
    values["trace.overhead_s"] = values["trace.traced_wall_s"] - statistics.median(
        p["wall_s"] for p in passes[False]
    )
    return values


def group_summary(jobs, results) -> str:
    """Per group of models: how many, how many failed, how many the oracle rejects."""
    rows: dict[str, Counter] = {}
    for job, r in zip(jobs, results):
        row = rows.setdefault(job.group.split("-")[0], Counter())
        row["models"] += 1
        row["failed"] += r["failed"]
        row["disagree"] += r["consistent"] is False
    return "; ".join(
        f"{g}: {c['models']} models, {c['failed']} failed, {c['disagree']} disagree"
        for g, c in rows.items()
    )


def measure(args, root: Path) -> tuple[list, dict]:
    rel_dir = f".bench_work/{args.workload}"
    work = root / rel_dir
    jobs = generate(args.workload, args.seed, work, rel_dir, root / "models")
    jobs_file = work / "jobs.json"
    jobs_file.write_text(json.dumps([job.argv() for job in jobs]), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS

    # The warm-up process runs the first model (the ladders start with their
    # largest): it loads the libraries into the page cache and makes the
    # machine back the memory a pass needs.
    warm_file = work / "warm_up.json"
    warm_file.write_text(json.dumps([jobs[0].argv()]), encoding="utf-8")
    run_pass(root, warm_file, False, env, BUDGET_S)

    order = [False, True] if args.trace else [False]
    minimum = MIN_TRACED_PASSES * 2 if args.trace else MIN_PASSES
    passes = {False: [], True: []}
    started = perf_counter()
    slowest = 0.0
    for n in itertools.count():
        elapsed = perf_counter() - started
        if n >= minimum and (elapsed >= args.seconds or elapsed + slowest > BUDGET_S):
            break
        t0 = perf_counter()
        traced = order[n % len(order)]
        passes[traced].append(run_pass(root, jobs_file, traced, env, BUDGET_S))
        slowest = max(slowest, perf_counter() - t0)
    return jobs, passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "latident" / "__init__.py").is_file() or not (root / "models").is_dir():
        print(f"error: {root} holds no latident source tree (src/latident, models/)", file=sys.stderr)
        return 2
    try:
        jobs, passes = measure(args, root)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(root / ".bench_work", ignore_errors=True)

    every = [*passes[False], *passes[True]]
    errors = check(jobs, every)
    for message in errors[:50]:
        print(f"check failed: {message}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {len(jobs)} models, {len(passes[False])} untraced "
        f"+ {len(passes[True])} traced passes, walls {[round(p['wall_s'], 3) for p in every]} s; "
        + group_summary(jobs, every[0]["results"]),
        file=sys.stderr,
    )
    if args.trace:
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in per_layer(passes).items()}
    else:
        values = end_to_end(jobs, passes[False])
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    results = [r for p in every for r in p["results"]]
    print(json.dumps({
        "correct": not errors,
        "attempted": len(results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
