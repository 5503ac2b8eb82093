"""System file loading, validation, suite reports, and the CLI contract."""

import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys

import pytest

from gqw.cli import main
from gqw.errors import SystemSpecError, UnsupportedFieldError
from gqw.mpc_bundle import delta_operator
from gqw.parse import parse_expr
from gqw.sample import expr_equal
from gqw.suites import run_suite
from gqw.system import bundled_spec_text, load_bundled, load_spec_text

GOOD = bundled_spec_text()


def test_bundled_system_loads():
    spec = load_bundled()
    assert spec.coords == ("p", "q")
    assert len(spec.hamiltonians) == 7
    assert spec.epsilon == 1e-9 and spec.samples == 32 and spec.seed == 42


def test_alternative_potential_loads():
    text = GOOD.replace("beta = 1/2*(p*dq - q*dp)", "beta = p*dq")
    spec = load_spec_text(text)
    assert spec.circle_bundle() is not None


def test_bad_potential_rejected_at_load():
    text = GOOD.replace("beta = 1/2*(p*dq - q*dp)", "beta = p*dp")
    with pytest.raises(SystemSpecError):
        load_spec_text(text)


def test_validation_can_be_deferred_for_mutation_runs(monkeypatch):
    import gqw.circle
    text = GOOD.replace("beta = 1/2*(p*dq - q*dp)", "beta = -1/2*(p*dq - q*dp)")
    with pytest.raises(SystemSpecError):
        load_spec_text(text)
    # a mutation run bypasses the d(beta) = omega check for the load only
    with monkeypatch.context() as patched:
        patched.setattr(gqw.circle, "expr_equal", lambda a, b, sampler: (True, 0.0))
        spec = load_spec_text(text)
    report = run_suite(spec, "dirac")
    assert not report.passed
    failed = {c.id for c in report.checks if not c.passed}
    assert "curvature-identity" in failed


def test_parse_error_carries_line_number():
    text = GOOD.replace("omega = dp^dq", "omega dp^dq")
    with pytest.raises(SystemSpecError) as err:
        load_spec_text(text)
    assert "key = value" in str(err.value)


def test_missing_section_rejected():
    text = GOOD.replace("[symplectic]", "[sympelctic]")
    with pytest.raises(SystemSpecError):
        load_spec_text(text)


def test_unknown_symbol_in_hamiltonian():
    text = GOOD.replace("pq = p*q", "pq = p*z")
    with pytest.raises(SystemSpecError) as err:
        load_spec_text(text)
    assert "z" in str(err.value)


def test_overrides():
    spec = load_bundled(samples=8, tol=1e-6, seed=7, hbar=2.0)
    assert spec.samples == 8 and spec.epsilon == 1e-6
    assert spec.seed == 7 and spec.hbar == 2.0


@pytest.mark.parametrize("old, new", [
    ("samples = 32", "samples = abc"),
    ("seed = 42", "seed = 4.5"),
    ("epsilon = 1e-9", "epsilon = tiny"),
    ("box p = -2, 2", "box p = -2, x"),
    ("samples = 32", "samples = 0"),
    ("epsilon = 1e-9", "epsilon = 0"),
    ("hbar = 1", "hbar = 0"),
    ("hbar = 1", "hbar = nan"),
    ("hbar = 1", "hbar = inf"),
    ("hbar = 1", "hbar = 1e-310"),
    ("hbar = 1", "hbar = -1e-310"),
    ("epsilon = 1e-9", "epsilon = inf"),
    # nan failed to sample with "could not find 32 usable points in 32000
    # draws"; an empty interval loaded and sampled only the line p = 1
    ("box p = -2, 2", "box p = nan, 2"),
    ("box p = -2, 2", "box p = -2, inf"),
    ("box p = -2, 2", "box p = 1/0, 2"),
    ("box p = -2, 2", "box p = -2, 1e400"),
    ("box p = -2, 2", "box p = 1, 1"),
    ("box p = -2, 2", "box p = 2, -2"),
    # finite bounds whose width overflows: every draw was infinite, so the
    # load failed with "could not find 32 usable points in 32000 draws"
    ("box p = -2, 2", "box p = -1e308, 1e308"),
])
def test_bad_values_name_their_key_and_line(old, new):
    text = GOOD.replace(old, new)
    line = text.splitlines().index(new) + 1
    with pytest.raises(SystemSpecError) as err:
        load_spec_text(text)
    assert f"line {line}: " in str(err.value)
    assert new.split(" = ")[0] in str(err.value)


def test_box_bounds_read_rationals_decimals_and_exponents():
    # a box bound used to be read by float(), which refused 3/2 and took nan
    text = GOOD.replace("box p = -2, 2", "box p = -2, 3/2").replace(
        "box q = -2, 2", "box q = -1/2, 1e-3")
    assert load_spec_text(text).chart.sampler.box == {"p": (-2.0, 1.5), "q": (-0.5, 0.001)}


def test_hbar_loads_down_to_where_its_reciprocal_overflows():
    assert load_bundled(hbar=6e-309).hbar == 6e-309
    with pytest.raises(SystemSpecError):
        load_bundled(hbar=5e-309)


def test_cli_bad_value_in_file_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.spec"
    bad.write_text(GOOD.replace("samples = 32", "samples = abc"))
    assert main(["check", "--system", str(bad)]) == 2
    assert "samples" in capsys.readouterr().err


def on_coordinates(coords: str) -> str:
    """A valid system file for any two names a, b, with omega = da^db; the
    forms and Hamiltonians read only the first two coordinates."""
    a, b = [c.strip() for c in coords.split(",")][:2]
    hams = "".join(f"h{k} = {a}^{k}\n" for k in range(5))
    return (f"[manifold]\ncoordinates = {coords}\n\n[symplectic]\nomega = d{a}^d{b}\n\n"
            f"[prequant]\nbeta = {a}*d{b}\n\n[hamiltonians]\n{hams}")


def test_coordinate_file_template_loads():
    spec = load_spec_text(on_coordinates("p, q"))
    assert spec.coords == ("p", "q") and len(spec.hamiltonians) == 5


# names the grammar cannot read as coordinates: a duplicate, a seventh
# dimension, a collision with a form token, the reserved constants (parsed as
# constants, so {p, i} read 0), the function names and a non-identifier
@pytest.mark.parametrize("coords", [
    "p, p", "p, q, r, s, t, u, v", "p, dp",
    "p, i", "p, pi", "p, hbar", "p, sin", "p, cos", "p, exp", "p, sqrt", "p, 2x",
])
def test_unusable_coordinates_are_load_errors(coords):
    with pytest.raises(SystemSpecError) as err:
        load_spec_text(on_coordinates(coords))
    assert f"line 2: 'coordinates = {coords}'" in str(err.value)


def test_unusable_coordinate_used_by_the_domain_names_the_coordinates_line(tmp_path, capsys):
    # the domain is read with the coordinate names, so they are checked first
    text = on_coordinates("p, sin").replace(
        "coordinates = p, sin\n", "coordinates = p, sin\ndomain = sin > 0\n")
    with pytest.raises(SystemSpecError) as err:
        load_spec_text(text)
    assert "line 2: 'coordinates = p, sin'" in str(err.value)
    bad = tmp_path / "bad.spec"
    bad.write_text(text)
    assert main(["check", "--system", str(bad)]) == 2
    assert "coordinates" in capsys.readouterr().err


@pytest.mark.parametrize("coords, command", [
    ("p, p", ["check", "--suite", "poisson"]),
    ("p, i", ["poisson", "-f", "p", "-g", "i"]),
])
def test_cli_unusable_coordinates_exit_two(coords, command, tmp_path, capsys):
    bad = tmp_path / "bad.spec"
    bad.write_text(on_coordinates(coords))
    assert main(command + ["--system", str(bad)]) == 2
    assert "coordinates" in capsys.readouterr().err


# every seeded stream one run of the bundled system draws, named by its tag
STREAM_TAGS = set("""
    axioms bracket-random center circle-flow circle-flow:fiber cocycle eta-ad
    exp fiber fiber:fiber hatvert hlift homs inv inv:fiber invariance jacobi
    leibniz nondegenerate pathlift push rotation rotation-equivariance
    rotation:fiber split twist twist-eta twist:fiber vertical""".split())


@pytest.mark.parametrize("seed", [42, 7])
def test_every_stream_is_named_by_the_seed_and_its_tag(seed, monkeypatch):
    names = []
    seed_rng = random.Random.seed

    def recording(self, a=None, *args, **kwargs):
        names.append(a)
        return seed_rng(self, a, *args, **kwargs)

    monkeypatch.setattr(random.Random, "seed", recording)
    run_suite(load_bundled(seed=seed), "all")
    monkeypatch.undo()
    prefix = f"{seed}:"
    assert all(isinstance(a, str) and a.startswith(prefix) for a in names), names
    assert {a[len(prefix):] for a in names} == STREAM_TAGS


@pytest.mark.parametrize("flag, value, key", [
    ("--samples", "0", "samples"), ("--samples", "-3", "samples"),
    ("--tol", "-1", "epsilon"), ("--tol", "0", "epsilon"),
    ("--hbar", "0", "hbar"), ("--hbar", "nan", "hbar"), ("--hbar", "inf", "hbar"),
    ("--hbar", "1e-310", "hbar"), ("--hbar", "-1e-310", "hbar"),
])
def test_cli_rejects_out_of_range_overrides(flag, value, key, capsys):
    assert main(["check", "--suite", "poisson", flag, value]) == 2
    assert key in capsys.readouterr().err


def test_cli_hands_signed_values_to_the_loader(monkeypatch):
    # argparse reads -1e-3 as an option string; the value must still arrive
    import gqw.cli as cli
    from gqw.suites import Report

    seen = []

    def fake_run(spec, suite):
        seen.append(spec)
        return Report(suite, [])

    monkeypatch.setattr(cli, "run_suite", fake_run)
    argv = ["check", "--suite", "poisson", "--hbar", "-1e-3", "--seed", "-5",
            "--tol", "1e-6", "--samples", "4"]
    assert cli.main(argv) == 0
    assert (seen[0].hbar, seen[0].seed, seen[0].epsilon, seen[0].samples) == (-1e-3, -5, 1e-6, 4)


@pytest.mark.parametrize("flag, value, message", [
    ("--hbar", "-inf", "hbar = -inf: it must be finite and nonzero"),
    ("--hbar", "-1e400", "hbar = -inf: it must be finite and nonzero"),
    ("--hbar", "1e-310", "hbar = 1e-310: 1/hbar overflows; |hbar| must be at least about 5.6e-309"),
    ("--tol", "inf", "epsilon = inf: it must be finite and positive"),
    ("--tol", "-1e-3", "epsilon = -0.001: it must be finite and positive"),
])
def test_cli_out_of_range_values_get_the_loaders_message(flag, value, message, capsys):
    assert main(["check", "--suite", "poisson", flag, value]) == 2
    assert message in capsys.readouterr().err


def test_report_json_schema():
    spec = load_bundled()
    report = run_suite(spec, "poisson")
    payload = json.loads(report.to_json())
    assert payload["suite"] == "poisson"
    for check in payload["checks"]:
        assert set(check) >= {"id", "anchor", "status", "residual", "n_samples"}
        assert check["status"] in ("pass", "fail")


def test_reports_are_deterministic():
    r1 = run_suite(load_bundled(), "poisson").to_json()
    r2 = run_suite(load_bundled(), "poisson").to_json()
    assert r1 == r2


def test_crashing_check_becomes_failure():
    # hamiltonians referencing a singular denominator crash evaluation in a
    # controlled way; the runner must record a failure, not raise
    text = GOOD.replace("pq = p*q", "pq = (p^2+q^2)^(-1)")
    spec = load_spec_text(text)
    report = run_suite(spec, "poisson")
    assert isinstance(report.passed, bool)


# ---------------------------------------------------------------------------
# CLI


def test_cli_check_poisson_exit_zero(capsys):
    assert main(["check", "--suite", "poisson"]) == 0
    out = capsys.readouterr().out
    assert "suite poisson: PASS" in out


def test_cli_check_json(capsys):
    assert main(["check", "--suite", "delta", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["suite"] == "delta"


def test_cli_poisson_command(capsys):
    assert main(["poisson", "-f", "p^2+q^2", "-g", "p*q"]) == 0
    out = capsys.readouterr().out
    assert "{f, g}" in out


def test_cli_poisson_takes_negated_expressions_space_separated(capsys):
    # argparse reads -p^2 as an option string; the expression must still arrive
    assert main(["poisson", "-f", "-p^2", "-g", "-q"]) == 0
    out = capsys.readouterr().out
    assert "{f, g} = -2*p" in out.splitlines()


def test_cli_poisson_option_is_not_taken_as_a_value(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["poisson", "-f", "-g", "q"])
    assert exit_.value.code == 2
    assert "argument -f: expected one argument" in capsys.readouterr().err


def untimed(text):
    return re.sub(r"\d+\.\d\d s\)", "s)", text).splitlines()


def test_cli_demo_commands(capsys):
    # each demo prints the header and its own rows of the counterexamples suite
    suite = untimed(run_suite(load_bundled(), "counterexamples").to_text())
    assert suite[0] == "suite counterexamples: PASS (s)"
    for which, prefix, count in [("a1", "twist-", 3), ("a2", "rotation-", 2)]:
        assert main(["demo", which]) == 0
        out = untimed(capsys.readouterr().out)
        rows = [line for line in suite[1:] if line.startswith(f"  [pass] {prefix}")]
        assert len(rows) == count
        assert out == suite[:1] + rows


def test_cli_group_selftest(capsys):
    assert main(["group", "selftest", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["suite"] == "group"


def test_cli_reader_closing_early_is_quiet():
    # like ``gqw group selftest | head -n 0``: the pipe is closed before the
    # report is written, which must not end in a BrokenPipeError traceback
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen([sys.executable, "-m", "gqw.cli", "group", "selftest"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert err == b""


def test_cli_load_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.spec"
    bad.write_text(GOOD.replace("beta = 1/2*(p*dq - q*dp)", "beta = p*dp"))
    assert main(["check", "--system", str(bad)]) == 2


def test_cli_missing_file_exit_two(capsys):
    assert main(["check", "--system", "/nonexistent/x.spec"]) == 2


def test_runner_records_crashes_as_failures():
    from gqw.suites import _run_checks

    def boom():
        raise RuntimeError("synthetic failure")

    report = _run_checks("synthetic", [("x", "always explodes", boom)])
    assert not report.passed
    assert report.checks[0].error and "synthetic failure" in report.checks[0].error


def run_rows(monkeypatch, rows):
    """The report of the given check rows, run as the poisson suite of the
    bundled system through the runner's own path."""
    from gqw import suites
    monkeypatch.setitem(suites._SUITE_BUILDERS, "poisson",
                        suites._deciding(lambda spec: rows))
    spec = load_bundled()
    return spec, run_suite(spec, "poisson").checks


def test_pair_check_stops_at_its_first_false_pair(monkeypatch):
    # structural, sampled and true, false, false with a larger residual
    pairs = [tuple(parse_expr(t, ("p", "q")) for t in pair) for pair in [
        ("p", "p"), ("exp(p)*exp(q)", "exp(p + q)"), ("p", "q"), ("p", "p + 100")]]
    spec, (check,) = run_rows(monkeypatch, [("pairs", "anchor", lambda: iter(pairs))])
    decided = [expr_equal(a, b, spec.chart.sampler) for a, b in pairs[:3]]
    assert [ok for ok, _ in decided] == [True, True, False]
    assert decided[0][1] == 0.0 < decided[1][1]
    assert check.status == "fail" and check.error is None
    # the worst residual up to the false pair, not the larger one after it
    assert check.residual == max(r for _, r in decided) < 100
    assert check.n_samples == 3 * spec.samples


def test_pair_check_that_raises_while_producing_is_a_failure(monkeypatch):
    def produce():
        yield parse_expr("p", ("p", "q")), parse_expr("p", ("p", "q"))
        raise RuntimeError("no second pair")

    _, (check,) = run_rows(monkeypatch, [("raises", "anchor", produce)])
    assert check.status == "fail" and check.residual is None and check.n_samples == 0
    assert check.error == "RuntimeError: no second pair"


def test_tuple_verdict_passes_through_unchanged(monkeypatch):
    _, checks = run_rows(monkeypatch, [("ok", "a", lambda: (True, 0.25, 7)),
                                       ("bad", "b", lambda: (False, 1.5, 3))])
    assert [(c.status, c.residual, c.n_samples, c.error) for c in checks] == [
        ("pass", 0.25, 7, None), ("fail", 1.5, 3, None)]


def test_measurement_row_stops_at_its_first_over_bound_measurement(monkeypatch):
    from gqw.suites import _within
    taken = []

    def measure():
        for m in [(0.1, 2), (0.4, 3), (0.7, 4), (0.9, 5)]:
            taken.append(m)
            yield m

    _, checks = run_rows(monkeypatch, [
        ("over", "a", _within(0.5, measure)),
        ("within", "b", _within(0.5, lambda: [(0.1, 2), (0.5, 3), (0.0, 0)])),
        ("none", "c", _within(0.0, lambda: []))])
    # worst and n up to the first residual over 0.5; the last is never taken
    assert [(c.status, c.residual, c.n_samples, c.error) for c in checks] == [
        ("fail", 0.7, 9, None), ("pass", 0.5, 5, None), ("pass", 0.0, 0, None)]
    assert taken == [(0.1, 2), (0.4, 3), (0.7, 4)]


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_measurement_fails_its_row_with_valid_json(monkeypatch, bad):
    from gqw.suites import Report, _within
    _, checks = run_rows(monkeypatch, [
        # a NaN under the bound and a NaN after a passing residual alike
        ("first", "a", _within(1.0, lambda: [(bad, 1), (0.5, 1)])),
        ("later", "b", _within(1.0, lambda: [(0.5, 1), (bad, 1)]))])
    for c in checks:
        assert (c.status, c.residual, c.n_samples) == ("fail", None, 0)
        assert c.error == f"NumericError: non-finite residual {bad}"

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    rows = json.loads(Report("poisson", checks).to_json(), parse_constant=reject)["checks"]
    assert [r["residual"] for r in rows] == [None, None]


def test_worst_of_keeps_a_nan_wherever_it_stands():
    from gqw.sample import worst_of
    nan = float("nan")
    assert max(0.0, 0.5, nan) == 0.5  # what a reduction by max reads
    for values in ([nan, 0.5], [0.5, nan], [0.5, nan, 2.0], [nan, float("inf")]):
        assert math.isnan(worst_of(values))
    assert worst_of([0.5, 2.0, 1.0]) == 2.0 and worst_of([]) == 0.0
    assert worst_of([float("inf"), 1.0]) == float("inf")


def test_a_non_finite_residual_fails_only_its_own_row(monkeypatch):
    # with gamma evaluating to nan every sampled difference of
    # prequant-invariance is nan; max() dropped them and the row passed with
    # residual 0.0
    import gqw.mpc_bundle
    spec = load_bundled()
    monkeypatch.setattr(gqw.mpc_bundle, "gamma_numeric", lambda *args, **kwargs: complex("nan"))
    rows = {c.id: c for c in run_suite(spec, "all").checks}
    row = rows["prequant-invariance"]
    assert (row.status, row.residual, row.n_samples) == ("fail", None, 0)
    assert row.error == "NumericError: non-finite residual nan"
    # the twist report is shared: its other rows are finite and still pass
    assert rows["twist-eta-preserved"].passed and rows["twist-no-frame-map"].passed
    assert rows["twist-gamma-preserved"].error == "NumericError: non-finite residual nan"


# SHA-256 of the CLI's JSON output, `gqw check --format json --seed S` for
# `all` and `gqw group selftest --format json --seed S` for `group`
REPORT_DIGESTS = {
    ("all", 42): "95192642c97a763672f10c65fca32dc5ada786031cba04f765ec0498534914df",
    ("all", 7): "ef1f821ada2c93fa137076bb3f6754f707630b5b12e15518df1e4f82bceebd07",
    ("all", 7919): "e4e5e7756be28945f44712b5a1b57483478a1f8b5767c8c1239168dc80e60e3f",
    ("group", 42): "9665167c201f02a36494ee351e8f7dfbb1ad3b017f15a0024a4488e01e20fadb",
    ("group", 7): "c9aa26003e980e63b4fa1aa0d5a946b738298315b60d9b8ba483cd7cb09433cd",
    ("group", 7919): "c738b935231bdad13cafbc3a458d223468cd0f914a4b6bce7ee4e3055a9af82e",
}


@pytest.mark.parametrize("suite, seed", sorted(REPORT_DIGESTS))
def test_reports_match_their_pinned_digests(suite, seed, capsys):
    """The gate of a refactor: the bundled reports, as the CLI prints them,
    are byte-identical to the pinned ones.  A change that alters reports on
    purpose updates these pins and says so, with the old and new digests, in
    CHANGES.md."""
    command = ["check"] if suite == "all" else ["group", "selftest"]
    assert main(command + ["--format", "json", "--seed", str(seed)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_DIGESTS[suite, seed]


def test_only_the_witness_rows_decide_themselves(monkeypatch):
    # with the rule failing everything, the rows that still pass are exactly
    # those that return their own verdict
    from gqw import suites
    monkeypatch.setattr(suites, "_decide", lambda measurements, bound: (False, 0.0, 0))
    report = run_suite(load_bundled(), "all")
    assert {c.id for c in report.checks if c.passed} == {
        "twist-no-frame-map", "rotation-frame-mismatch", "membership-regression"}
    assert all(c.error is None for c in report.checks)


ONE_HAMILTONIAN = GOOD[:GOOD.index("[hamiltonians]")] + """[hamiltonians]
energy = 1/2*(p^2 + q^2)
"""


def test_checks_that_pick_hamiltonians_name_the_needed_count():
    # these checks use the fifth and fourth Hamiltonians; a system with one
    # used to fail them with IndexError: list index out of range
    spec = load_spec_text(ONE_HAMILTONIAN)
    picked = {("circle-iso", "bracket-flow-oracle"), ("mpc-iso", "prequant-curvature"),
              ("mpc-iso", "bracket-flow-oracle"), ("mpc-iso", "membership-regression")}
    errors = {(suite, c.id): (c.status, c.error)
              for suite in ("circle-iso", "mpc-iso") for c in run_suite(spec, suite).checks}
    message = "SystemSpecError: this check needs at least 5 Hamiltonians; the system declares 1"
    assert {key: errors[key] for key in picked} == dict.fromkeys(picked, ("fail", message))


def test_cli_failing_suite_exit_one(monkeypatch, capsys):
    import gqw.cli as cli
    from gqw.suites import CheckResult, Report

    def fake_run(spec, suite):
        return Report(suite, [CheckResult("x", "forced", "fail", 1.0, 1)])

    monkeypatch.setattr(cli, "run_suite", fake_run)
    assert cli.main(["check", "--suite", "poisson"]) == 1


def test_full_run_under_a_minute():
    report = run_suite(load_bundled(), "all")
    assert report.passed and report.elapsed < 60.0


FOUR_DIM = """
[manifold]
coordinates = p1, p2, q1, q2
box p1 = -2, 2
box p2 = -2, 2
box q1 = -2, 2
box q2 = -2, 2

[symplectic]
omega = dp1^dq1 + dp2^dq2

[prequant]
beta = p1*dq1 + p2*dq2

[hamiltonians]
one = 1
h1 = p1*q2
h2 = p2*q1
r2 = p1^2 + q1^2 + p2^2 + q2^2
mix = p1*p2 + q1*q2
"""


def test_four_dimensional_system_runs_base_suites():
    spec = load_spec_text(FOUR_DIM)
    for suite in ("poisson", "circle-iso", "dirac"):
        assert run_suite(spec, suite).passed, suite


def test_two_dim_only_suites_fail_cleanly_in_four_dimensions():
    spec = load_spec_text(FOUR_DIM)
    report = run_suite(spec, "mpc-iso")
    assert not report.passed
    assert report.checks[0].error and "2-dimensional" in report.checks[0].error


def test_setup_failures_keep_their_own_error():
    spec = load_spec_text(FOUR_DIM)
    for suite in ("mpc-iso", "delta", "counterexamples"):
        [row] = run_suite(spec, suite).checks
        assert row.id == f"{suite}-setup" and row.status == "fail"
        assert row.error == ("UnsupportedFieldError: the trivialized construction "
                             "needs a 2-dimensional chart")


NON_STANDARD_AREA = """
[manifold]
coordinates = x, y
domain = x > 0
box x = 0.5, 2
box y = -2, 2

[symplectic]
omega = x*dx^dy

[prequant]
beta = 1/2*x^2*dy

[hamiltonians]
lin_x = x
lin_y = y
"""


def test_built_in_hamiltonians_need_p_and_q():
    # they used to fail as "hamiltonian 'lin_p': unknown symbol 'p'", naming
    # a Hamiltonian the file never declared
    text = NON_STANDARD_AREA.replace("omega = x*dx^dy", "omega = dx^dy").replace(
        "beta = 1/2*x^2*dy", "beta = x*dy")
    spec = load_spec_text(text)
    assert spec.coords == ("x", "y") and run_suite(spec, "poisson").passed
    with pytest.raises(SystemSpecError) as err:
        load_spec_text(text[:text.index("[hamiltonians]")])
    assert str(err.value) == ("the built-in Hamiltonians are written in p, q, but the "
                              "coordinates are x, y: declare a [hamiltonians] section")


def test_every_suite_runs_on_a_standard_chart_with_other_names():
    # the delta suite parsed sections written in p, q and failed its setup
    # with "unknown symbol 'p'".  x, y keep the report byte-identical: terms
    # are ordered by symbol name, and x, y sort against g11 ... g22 as p, q
    # do, while other names may reorder sums and move residuals' last bits
    text = re.sub(r"\b(d?)q\b", r"\1y", re.sub(r"\b(d?)p\b", r"\1x", GOOD))
    assert "coordinates = x, y" in text and "omega = dx^dy" in text
    renamed = load_spec_text(text)
    assert renamed.coords == ("x", "y")
    assert run_suite(renamed, "all").to_json() == run_suite(load_bundled(), "all").to_json()


def test_coordinates_named_like_the_fiber_entries_fail_only_the_delta_setup():
    # the delta suite read g11 both as a coordinate and as a fiber entry of
    # its sections; delta-scaled-operator failed with "SamplingError: could
    # not find 32 usable points in 32000 draws"
    text = re.sub(r"\b(d?)q\b", r"\1g22", re.sub(r"\b(d?)p\b", r"\1g11", GOOD))
    assert "coordinates = g11, g22" in text and "omega = dg11^dg22" in text
    spec = load_spec_text(text)
    message = ("coordinate 'g11' clashes with the fiber entries g11, g12, g21, g22 "
               "of the section encoding: rename it")
    failed = [(c.id, c.error) for c in run_suite(spec, "all").checks if not c.passed]
    assert failed == [("delta-setup", f"UnsupportedFieldError: {message}")]
    with pytest.raises(UnsupportedFieldError, match=message):
        delta_operator(spec.hamiltonians["energy"], parse_expr("1", ()), spec.mpc_bundle())


def test_setup_failures_name_the_charts_own_area_form():
    spec = load_spec_text(NON_STANDARD_AREA)
    rows = [c for c in run_suite(spec, "all").checks if c.id.endswith("-setup")]
    assert [c.id for c in rows] == ["mpc-iso-setup", "delta-setup", "counterexamples-setup"]
    for row in rows:
        assert row.error == ("UnsupportedFieldError: the coordinate frame must be symplectic: "
                             "omega must equal dx^dy, got omega = (x)*dx^dy")


def test_cli_demo_on_a_system_it_cannot_use_is_a_load_error(tmp_path, capsys):
    path = tmp_path / "four.spec"
    path.write_text(FOUR_DIM)
    assert main(["demo", "a1", "--system", str(path)]) == 2
    assert "2-dimensional" in capsys.readouterr().err
