"""Smoke test of the benchmark's layer tracer (perfbench/layertrace.py): it
wraps gqw's public functions from outside, by name, so a rename in gqw must
not silently leave a layer uncounted."""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys

from gqw.sample import DomainSampler
from gqw.suites import _SUITE_BUILDERS, SUITE_NAMES

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


# one identity that does not cancel structurally, decided on the bundled chart
SAMPLED_SCRIPT = """
import json
import gqw
from layertrace import Tracer

spec = gqw.load_bundled()
a = gqw.parse_expr("exp(p)*exp(q)", spec.coords)
b = gqw.parse_expr("exp(p + q)", spec.coords)
tracer = Tracer()
tracer.install()
residual = gqw.expr_equal(a, b, spec.chart.sampler)[1]
print(json.dumps({"residual": residual, "n_samples": spec.samples,
                  "metrics": tracer.finish()["metrics"]}))
"""


# two identities decided on one sampler: the second reads the second to n-th
# points of the warm {seed}:equal stream as one block
BLOCK_SCRIPT = """
import json
import gqw
from layertrace import Tracer

spec = gqw.load_bundled()
pairs = [(gqw.parse_expr(a, spec.coords), gqw.parse_expr(b, spec.coords))
         for a, b in [("exp(p)*exp(q)", "exp(p + q)"), ("sin(2*p)", "2*sin(p)*cos(p)")]]
tracer = Tracer()
tracer.install()
verdicts = [gqw.expr_equal(a, b, spec.chart.sampler)[0] for a, b in pairs]
print(json.dumps({"verdicts": verdicts, "n_samples": spec.samples,
                  "metrics": tracer.finish()["metrics"]}))
"""


def _traced(script: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")])
    out = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_tracer_counts_every_probed_layer():
    result = _traced(SCRIPT)
    assert result["passed"]
    metrics = result["metrics"]
    for name in ("symplectic.hamiltonian_vf", "mpc_group.lift_path",
                 "mpc_group.mat_exp", "sample.expr_equal", "expr.evalf"):
        assert metrics[f"{name}.calls"] > 0, name
    # the tracer's lift_path probe takes (path, steps, ...) and sums steps:
    # 600 lifts of lift_steps(A) steps (1 to 3 each, 1,059 in all) in
    # path-lift-vs-cocycle, and 4 + 8 for the two turns in loop-lifts
    assert metrics["mpc_group.lift_path.calls"] == 602
    assert metrics["mpc_group.lift_path.steps"] == 1071


def test_tracer_counts_each_point_of_a_sampled_identity():
    # the tracer counts points through the public evalf it rebinds, so
    # expr_equal must evaluate each of its residuals through that function
    result = _traced(SAMPLED_SCRIPT)
    assert result["residual"] > 0.0
    metrics = result["metrics"]
    assert metrics["sample.expr_equal.calls"] == 1
    assert metrics["sample.points_evaluated"] == result["n_samples"]


def test_tracer_counts_each_point_of_a_block():
    # the points of a block are read through the public evalf one by one,
    # so the tracer counts them as it counts the points evaluated alone
    result = _traced(BLOCK_SCRIPT)
    assert result["verdicts"] == [True, True]
    metrics = result["metrics"]
    assert metrics["sample.expr_equal.calls"] == 2
    assert metrics["sample.points_evaluated"] == 2 * result["n_samples"]


def _layertrace():
    path = os.path.join(ROOT, "perfbench", "layertrace.py")
    spec = importlib.util.spec_from_file_location("layertrace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_name_existing_gqw_functions():
    # the tracer counts NAMED_CALLS only if each is still a public function
    # defined in its layer; it also patches DomainSampler.admissible and
    # times the suites through suites._SUITE_BUILDERS
    layertrace = _layertrace()
    for name in layertrace.NAMED_CALLS:
        layer, fn = name.split(".")
        module = importlib.import_module(f"gqw.{layer}")
        obj = getattr(module, fn, None)
        assert not fn.startswith("_") and inspect.isfunction(obj), name
        assert obj.__module__ == module.__name__, name
    assert inspect.isfunction(DomainSampler.admissible)
    assert tuple(_SUITE_BUILDERS) == layertrace.SUITES == SUITE_NAMES
    assert len(_SUITE_BUILDERS) == 7
