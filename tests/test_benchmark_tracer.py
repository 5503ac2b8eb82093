"""Smoke test of the benchmark's layer tracer (perfbench/layertrace.py): it
wraps gqw's public functions from outside, by name, so a rename in gqw must
not silently leave a layer uncounted."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import json
import gqw
from layertrace import Tracer

tracer = Tracer()
tracer.install()
spec = gqw.load_bundled()
passed = all(gqw.run_suite(spec, name).passed for name in ("mpc-iso", "group"))
print(json.dumps({"passed": passed, "metrics": tracer.finish()["metrics"]}))
"""


def test_tracer_counts_every_probed_layer():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")])
    out = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["passed"]
    metrics = result["metrics"]
    for name in ("symplectic.hamiltonian_vf", "mpc_group.lift_path",
                 "mpc_group.mat_exp", "sample.expr_equal", "expr.evalf"):
        assert metrics[f"{name}.calls"] > 0, name
