"""One workload process of the gqw benchmark.

    python perfbench/worker.py setup WORKLOAD WORKDIR SEED
    python perfbench/worker.py run WORKLOAD WORKDIR SEED [TRACE_OUT]

``setup`` imports gqw and loads and validates the workload's system, then
exits: the set-up part of a run.  ``run`` does the same and then decides
every verdict, printing them as one JSON line.  With TRACE_OUT the layer
tracer is installed first and its results are written there.  The inputs
are the files ``run.py`` generated in WORKDIR; this process never sees the
expected answers.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gqw  # noqa: E402
from gqw import cli  # noqa: E402
from gqw.system import load_bundled, load_spec  # noqa: E402

from inputs import COORDS, CORPUS_SUITES  # noqa: E402


def _setup(workload: str, workdir: str, seed: int):
    if workload == "check-bundled":
        return load_bundled(seed=seed)
    if workload == "symbolic-corpus":
        return load_spec(os.path.join(workdir, "corpus.spec"))
    return {"plane": load_bundled(seed=seed).chart.sampler,
            "annulus": load_spec(os.path.join(workdir, "annulus.spec")).chart.sampler}


def _verdicts(workload: str, workdir: str, loaded) -> list:
    """Verdicts as [id, passed] pairs; passed is None for a crashed one."""
    verdicts = []
    if workload == "symbolic-corpus":
        for suite in CORPUS_SUITES:
            for c in gqw.run_suite(loaded, suite).checks:
                verdicts.append([f"{suite}/{c.id}", c.passed])
        return verdicts
    with open(os.path.join(workdir, "corpus.tsv"), encoding="utf-8") as fh:
        for k, line in enumerate(fh):
            chart, lhs, rhs = line.rstrip("\n").split("\t")
            try:
                a = gqw.parse_expr(lhs, COORDS)
                b = gqw.parse_expr(rhs, COORDS)
                ok = gqw.expr_equal(a, b, loaded[chart])[0]
            except Exception:  # a crashed comparison is a wrong verdict
                ok = None
            verdicts.append([str(k), ok])
    return verdicts


def main(argv) -> int:
    mode, workload, workdir, seed = argv[:4]
    seed = int(seed)
    tracer = None
    if len(argv) > 4:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()
    if workload == "check-bundled" and mode == "run":
        # the traced twin of `python -m gqw.cli check`: prints its report
        cli.main(["check", "--format", "json", "--seed", str(seed)])
        verdicts = None
    else:
        loaded = _setup(workload, workdir, seed)
        if mode == "setup":
            return 0
        verdicts = _verdicts(workload, workdir, loaded)
    if tracer is not None:
        with open(argv[4], "w", encoding="utf-8") as fh:
            json.dump(tracer.finish(), fh)
    if verdicts is not None:
        json.dump(verdicts, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
