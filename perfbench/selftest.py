"""Self-test of the gqw benchmark (about a minute; not part of the gqw tests).

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, and asserts that
each metric named in BENCHMARK.json is emitted, that the correctness gate
flags a deliberately wrong expected verdict, that the generated inputs still
hash to the values pinned in notes.json, and that the benchmark refuses to
run where there are no gqw sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import inputs  # noqa: E402
import run  # noqa: E402


def _bench_json() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _notes() -> dict:
    with open(os.path.join(HERE, "notes.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _result(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def test_every_metric_is_emitted() -> None:
    bench = _bench_json()
    ledger = run.load_ledger()
    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = _result(["--workload", workload, "--seed", "3", "--seconds", "0",
                           "--trace", str(trace)])
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, res
            assert res["correct"] is True, (workload, res)
            per_rep = len(ledger[workload])
            assert res["failed"] == per_rep * (2 if trace else run.MIN_REPS), res
            names = [m["name"] for m in bench[key]]
            assert sorted(res["metrics"]) == sorted(names), (workload, key)
            units = {m["name"]: m["unit"] for m in bench[key]}
            for name, metric in res["metrics"].items():
                assert metric["unit"] == units[name], name
                assert isinstance(metric["value"], (int, float)), name
            print(f"ok: {workload} trace {trace}: {len(names)} metrics, "
                  f"{res['failed']} of {res['attempted']} verdicts wrong")


def test_gate_catches_a_wrong_expected_verdict() -> None:
    workdir = tempfile.mkdtemp(dir=os.path.join(HERE, "_work"))
    try:
        prep = run.prepare("identities", 5, workdir, n_pairs=8)
        expected = dict(prep["expected"])
        expected["3"] = not expected["3"]
        gate = run.Gate(expected, set())
        with contextlib.redirect_stdout(io.StringIO()):
            run.run_rep("identities", 5, workdir, gate)
        assert gate.attempted == 8 and gate.failed == 1, vars(gate)
        assert gate.wrong == {"3"} and not gate.correct
        # a known defect is counted but does not make the run incorrect
        assert run.Gate(expected, {"3"}).correct
        known = run.Gate(expected, {"3"})
        known.add([["3", prep["expected"]["3"]]])
        assert known.failed == 1 and known.correct
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("ok: the gate counts a flipped expected verdict and fails the run")


def test_inputs_are_pinned(n_pairs: int) -> None:
    pinned = _notes()["pinned_inputs"]
    for seed, hashes in pinned["symbolic-corpus"].items():
        assert inputs.sha256(inputs.corpus_spec(int(seed))) == hashes["corpus.spec"], seed
    for seed, hashes in pinned["identities"].items():
        records = inputs.identity_corpus(int(seed), n_pairs)
        assert inputs.sha256(inputs.corpus_lines(records)) == hashes["corpus.tsv"], seed
        assert inputs.sha256(inputs.annulus_spec()) == hashes["annulus.spec"], seed
        assert sum(t for *_, t in records) == n_pairs // 2
    print(f"ok: inputs match the hashes pinned for {len(pinned['identities'])} seeds")


def test_refuses_without_sources() -> None:
    bare = tempfile.mkdtemp(dir=os.path.join(HERE, "_work"))
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "identities",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok: without gqw sources the benchmark exits nonzero and prints no result")


def main() -> int:
    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    test_inputs_are_pinned(run.IDENTITY_PAIRS)
    run.SETUP_PROBES = 1
    run.MIN_REPS = 1
    run.IDENTITY_PAIRS = 14
    test_gate_catches_a_wrong_expected_verdict()
    test_refuses_without_sources()
    test_every_metric_is_emitted()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
