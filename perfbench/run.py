"""gqw benchmark: time to verdict on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (gqw is imported from ``src``; nothing is
installed or built).  Workloads, each a closed loop of one caller that waits
for every verdict in a fresh process:

  check-bundled    ``python -m gqw.cli check --format json --seed N`` on the
                   bundled system; group numerics dominate.
  symbolic-corpus  the six non-group suites on a system file generated from
                   the seed (ten Hamiltonians); the expression kernel
                   dominates.
  identities       seeded pairs of scalar identities, half true and half
                   perturbed, decided by ``expr_equal`` on the punctured
                   plane and on a thin annulus; the only workload that
                   reaches the sampled path.

``--trace 0`` repeats the workload in fresh processes for ``--seconds`` (at
least three times), times set-up-only processes and a host speed chunk
(``hostspeed.py``) between them, and prints the medians of the end-to-end
metrics.  Each rep's times are scaled to the nominal machine of
``hostspeed.py`` by the chunks around it: the shared host's speed drifts in
phases longer than a run, and scaling keeps a slow phase from reading as a
change of gqw.  The unscaled median wall time is printed too.

``--trace 1`` runs the workload once untraced and once under the layer
tracer (``layertrace.py``) and prints the per-layer metrics.

Every verdict is checked against its known answer; wrong verdicts
are counted in ``failed`` out of ``attempted``, and the run is ``correct``
when every wrong verdict is listed in the known-defect ledger of
``notes.json``.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

sys.path.insert(0, HERE)
import hostspeed  # noqa: E402
import inputs  # noqa: E402
from layertrace import LAYERS, NAMED_CALLS, SUITES  # noqa: E402

WORKLOADS = ("check-bundled", "symbolic-corpus", "identities")
IDENTITY_PAIRS = 600
MIN_REPS = 3
SETUP_PROBES = 2  # per rep

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"),
              ("verdicts_per_s", "1/s"), ("peak_rss_mb", "MB"))


def per_layer_units() -> dict:
    """Every per-layer metric of a traced run, with its unit."""
    units = {"trace.wall_s": "s", "trace.overhead_s": "s", "bench.self_s": "s"}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    for key in NAMED_CALLS:
        units[f"{key}.calls"] = "count"
    for name in ("symplectic.hamiltonian_vf.distinct", "sample.structural",
                 "sample.sampled", "sample.draws", "sample.accepted",
                 "sample.points_evaluated", "mpc_group.lift_path.steps"):
        units[name] = "count"
    units["symplectic.hamiltonian_vf.distinct_ratio"] = "ratio"
    units["sample.accept_ratio"] = "ratio"
    units["mpc_group.mat_exp.self_s"] = "s"
    for suite in SUITES:
        units[f"suites.{suite}.s"] = "s"
    return units


def load_ledger() -> dict:
    with open(os.path.join(HERE, "notes.json"), encoding="utf-8") as fh:
        entries = json.load(fh)["known_defects"]
    ledger = {w: set() for w in WORKLOADS}
    for e in entries:
        ledger[e["workload"]].add(e["verdict"])
    return ledger


# ---------------------------------------------------------------------------
# inputs and expected answers


def prepare(workload: str, seed: int, workdir: str, n_pairs: int = 0) -> dict:
    """Write the workload's inputs into ``workdir``; return the expected
    verdict for each id (ids not listed are expected to pass) and the
    sha256 of every input file."""
    files = {}
    expected = {}
    if workload == "symbolic-corpus":
        files["corpus.spec"] = inputs.corpus_spec(seed)
    elif workload == "identities":
        records = inputs.identity_corpus(seed, n_pairs or IDENTITY_PAIRS)
        files["annulus.spec"] = inputs.annulus_spec()
        files["corpus.tsv"] = inputs.corpus_lines(records)
        expected = {str(k): truth for k, (_, _, _, truth) in enumerate(records)}
    for name, text in files.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    return {"expected": expected,
            "hashes": {name: inputs.sha256(text) for name, text in files.items()}}


def command(workload: str, mode: str, workdir: str, seed: int, trace_out=None) -> list:
    if workload == "check-bundled" and mode == "run" and trace_out is None:
        return [sys.executable, "-m", "gqw.cli", "check", "--format", "json",
                "--seed", str(seed)]
    cmd = [sys.executable, WORKER, mode, workload, workdir, str(seed)]
    return cmd + ([trace_out] if trace_out else [])


def spawn(cmd: list, workdir: str) -> dict:
    """Run one fresh process to exit: wall time from spawn, its CPU time and
    peak resident memory, its standard output and exit code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    with open(os.path.join(workdir, "stderr.txt"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                stderr=err)
        try:
            out = proc.stdout.read()
        except BaseException:  # interrupted: leave no process behind
            proc.kill()
            proc.wait()
            raise
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "out": out, "code": proc.returncode}


def verdicts_of(workload: str, run: dict):
    """[id, passed] pairs, or None when the process gave no readable answer."""
    try:
        payload = json.loads(run["out"])
    except ValueError:
        return None
    if workload != "check-bundled":
        return payload if run["code"] == 0 else None
    if run["code"] not in (0, 1):
        return None
    return [[f"{k}/{c['id']}", c["status"] == "pass"]
            for k, c in enumerate(payload["checks"])]


class Gate:
    """Compares verdicts with their known answers across the reps of a run."""

    def __init__(self, expected: dict, ledger: set):
        self.expected = expected
        self.ledger = ledger
        self.attempted = 0
        self.failed = 0
        self.wrong = set()
        self.unanswered = 0
        self.first_report = None
        self.report_mismatches = 0

    def add(self, verdicts) -> int:
        """Score one rep; returns its number of verdicts."""
        if verdicts is None:
            self.attempted += 1
            self.failed += 1
            self.unanswered += 1
            return 0
        for vid, passed in verdicts:
            self.attempted += 1
            if passed is not self.expected.get(vid, True):
                self.failed += 1
                self.wrong.add(vid)
        return len(verdicts)

    def same_report(self, out: bytes) -> None:
        """The check report must be byte-identical across reps at one seed."""
        if self.first_report is None:
            self.first_report = out
        elif out != self.first_report:
            self.report_mismatches += 1

    @property
    def correct(self) -> bool:
        return (not self.unanswered and not self.report_mismatches
                and self.wrong <= self.ledger)


# ---------------------------------------------------------------------------


def run_rep(workload, seed, workdir, gate, trace_out=None) -> dict:
    run = spawn(command(workload, "run", workdir, seed, trace_out), workdir)
    run["verdicts"] = gate.add(verdicts_of(workload, run))
    if workload == "check-bundled" and run["code"] in (0, 1):
        gate.same_report(run["out"])
    print(f"  rep: wall {run['wall']:.3f} s, cpu {run['cpu']:.3f} s, "
          f"rss {run['rss_mb']:.1f} MB, {run['verdicts']} verdicts, exit {run['code']}"
          + (" (traced)" if trace_out else ""))
    return run


def measure(workload, seed, seconds, workdir, gate) -> dict:
    """Medians over fresh processes.  Each rep follows its set-up probes and
    is bracketed by host speed chunks, and its times are divided by the
    host's slowdown over that stretch (``hostspeed.factor``), so that they
    read as on the nominal machine whatever phase the shared host is in."""
    probes, reps = [], []
    before = hostspeed.chunk()
    start = time.perf_counter()
    last = 0.0
    # start no rep that would end past the budget
    while len(reps) < MIN_REPS or time.perf_counter() - start + last < seconds:
        t0 = time.perf_counter()
        walls = []
        for _ in range(SETUP_PROBES):
            probe = spawn(command(workload, "setup", workdir, seed), workdir)
            if probe["code"] != 0:
                gate.add(None)
            walls.append(probe["wall"])
        rep = run_rep(workload, seed, workdir, gate)
        after = hostspeed.chunk()
        host = hostspeed.factor(before, after)
        probes += [w / host for w in walls]
        reps.append({"wall": rep["wall"] / host, "cpu": rep["cpu"] / host,
                     "verdicts": rep["verdicts"], "rss_mb": rep["rss_mb"],
                     "host": host, "raw": rep["wall"]})
        before = after
        last = time.perf_counter() - t0
    med = statistics.median
    setup_s = med(probes)
    print(f"  {len(reps)} reps, {len(probes)} set-up probes; host slowdown "
          f"{min(r['host'] for r in reps):.3f} to {max(r['host'] for r in reps):.3f}; "
          f"unscaled median wall {med(r['raw'] for r in reps):.4f} s")
    return {"wall_s": med(r["wall"] for r in reps), "setup_s": setup_s,
            "cpu_s": med(r["cpu"] for r in reps),
            "verdicts_per_s": med(r["verdicts"] / (r["wall"] - setup_s) for r in reps),
            "peak_rss_mb": med(r["rss_mb"] for r in reps)}


def traced(workload, seed, workdir, gate) -> dict:
    plain = run_rep(workload, seed, workdir, gate)
    trace_out = os.path.join(workdir, "trace.json")
    run = run_rep(workload, seed, workdir, gate, trace_out=trace_out)
    try:
        with open(trace_out, encoding="utf-8") as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        gate.add(None)
        return {name: 0.0 for name in per_layer_units()}
    m = result["metrics"]
    m["trace.wall_s"] = run["wall"]
    m["trace.overhead_s"] = run["wall"] - plain["wall"]
    m["bench.self_s"] = run["wall"] - sum(m[f"{layer}.self_s"] for layer in LAYERS)
    print("  spans (parent -> layer: spans, seconds), largest first:")
    for parent, child, n, s in sorted(result["edges"], key=lambda e: -e[3])[:16]:
        print(f"    {parent} -> {child}: {n}, {s:.3f}")
    share = 1 - m["bench.self_s"] / run["wall"]
    print(f"  layers cover {share:.1%} of the traced wall time; tracing overhead "
          f"{m['trace.overhead_s']:.3f} s over an untraced {plain['wall']:.3f} s")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gqw", "__init__.py")):
        print(f"error: no gqw sources under {SRC}", file=sys.stderr)
        return 2
    ledger = load_ledger()[args.workload]
    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-",
                               dir=os.path.join(HERE, "_work"))
    try:
        prep = prepare(args.workload, args.seed, workdir)
        for name, digest in prep["hashes"].items():
            print(f"input {name}: sha256 {digest}")
        gate = Gate(prep["expected"], ledger)
        print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
        if args.trace:
            values = traced(args.workload, args.seed, workdir, gate)
            units = per_layer_units()
        else:
            values = measure(args.workload, args.seed, args.seconds, workdir, gate)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for vid in sorted(gate.wrong):
        print(f"wrong verdict: {vid}" + (" (known defect)" if vid in ledger else ""))
    # reported in the result as failed out of attempted, not as a metric
    print(f"verdict_errors: {gate.failed} count, of {gate.attempted} verdicts attempted"
          + (f"; {gate.report_mismatches} reports differ from the first"
             if gate.report_mismatches else ""))
    for name, unit in units.items():
        value = values[name]
        print(f"{name}: {value:.6g} {unit}" if isinstance(value, float)
              else f"{name}: {value} {unit}")
    result = {"correct": gate.correct, "attempted": gate.attempted,
              "failed": gate.failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
