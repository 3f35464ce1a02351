"""One pass over a workload, in a fresh process with the package's caches cold.

    python3 perfbench/child.py <spawn_time> <jobs.json> <trace 0|1>

`spawn_time` is the parent's `time.perf_counter()` just before it started this
process (CLOCK_MONOTONIC, shared by all processes on the machine), so set-up
time covers interpreter start, imports and the BLAS warm-up.  Each job is one
in-process `latident.cli.main(argv)` call with stdout and stderr captured; the
calls run one after another from this single client.  Prints one JSON object
with the pass's timings and, per job, the exit code, a digest of the output and
the facts the parent checks.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
from time import perf_counter


def _warm_up(np) -> None:
    # The first BLAS product and LAPACK SVD in a process load code and set up
    # buffers; a CLI user pays this once per call of the program.
    rng = np.random.default_rng(0)
    a = rng.standard_normal((256, 256))
    (a @ a).sum()
    np.linalg.svd(a[:, :64], compute_uv=False)


def _facts(rc, out: str) -> dict:
    """Status, oracle agreement and equation count read back from a report."""
    facts = {"status": None, "consistent": None, "equations": None}
    if rc in (0, 2, 3):
        try:
            report = json.loads(out)
            facts["status"] = report["verdict"]["status"]
            if report["singular_system"] is not None:
                facts["equations"] = report["singular_system"]["equation_count"]
            if report["command"] == "verify":
                facts["consistent"] = report["consistency"]["consistent"]
        except (ValueError, KeyError, TypeError) as exc:
            facts["malformed"] = f"{type(exc).__name__}: {exc}"
    return facts


def main() -> int:
    spawn_time = float(sys.argv[1])
    with open(sys.argv[2], encoding="utf-8") as fh:
        jobs = json.load(fh)
    traced = sys.argv[3] == "1"

    import numpy as np

    import latident.cli

    _warm_up(np)
    setup_s = perf_counter() - spawn_time

    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    cli_main = latident.cli.main
    outputs = []
    times = []
    start = perf_counter()
    for i, argv in enumerate(jobs):
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = tracer.call(i, cli_main, argv) if tracer else cli_main(argv)
            except Exception as exc:  # a crash of the program is a result to count
                rc = f"raised:{type(exc).__name__}"
        times.append(perf_counter() - t0)
        outputs.append((rc, out.getvalue(), err.getvalue()))
    wall_s = perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    results = []
    for rc, out, err in outputs:
        digest = hashlib.sha256(f"{rc}\0{out}\0{err}".encode()).hexdigest()
        failed = rc == 1 or str(rc).startswith("raised:")
        results.append(
            {"rc": rc, "failed": failed, "digest": digest, "stderr": err[:200], **_facts(rc, out)}
        )

    report_bytes = sum(len(out.encode()) for _, out, _ in outputs)
    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "times": times,
        "results": results,
        "layers": tracer.metrics(report_bytes) if tracer else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
