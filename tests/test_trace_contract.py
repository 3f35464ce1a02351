"""The benchmark's tracer wraps package functions by name and reads counters
from their arguments; these tests fail when a traced name or argument moves.

perfbench/ is read, never edited: `tracing.SPANS` names every wrapped
(module, attribute), and `perfbench/child.py` runs one traced pass.
"""

import importlib.util
import json
import os
import subprocess
import sys
import time

from latident import identify

from conftest import MODELS

ROOT = MODELS.parent
PERFBENCH = ROOT / "perfbench"


def _tracing():
    spec = importlib.util.spec_from_file_location("tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    for mod, attr in _tracing().SPANS:
        assert hasattr(importlib.import_module(f"latident.{mod}"), attr), (mod, attr)
    for reach in (identify._generalized_ok, identify._plain_ok):
        assert hasattr(reach, "cache_info"), reach


def test_traced_pass_counts_one_design_for_six_jacobians(tmp_path):
    jobs = tmp_path / "jobs.json"
    jobs.write_text(json.dumps([
        ["verify", "models/triangle_pendants.model", "--trials", "3", "--seed", "0"],
        ["classify", "models/k4_pendants.model"],
    ]))
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])),
        "OPENBLAS_NUM_THREADS": "1",
    }
    proc = subprocess.run(
        [sys.executable, "perfbench/child.py", str(time.perf_counter()), str(jobs), "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert [r["rc"] for r in out["results"]] == [2, 2], out["results"]
    layers = out["layers"]
    # the core of triangle_pendants is the whole model: l = 64 cells, p = 28;
    # 3 generic and 3 on-system trials share one 128 x 28 design
    assert layers["numeric.jacobian_calls"] == layers["numeric.svd_calls"] == 6
    assert layers["loglinear.matrix_bytes_computed"] == 128 * 28 * 8 == 28_672
    assert layers["numeric.jacobian_flops_computed"] == 6 * 3 * 128 * 28 == 64_512
