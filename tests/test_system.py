"""System file loading, validation, suite reports, and the CLI contract."""

import codecs
import hashlib
import importlib.util
import json
import math
import os
import pathlib
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from bounded import run_bounded
from gqw import suites
from gqw.circle import CircleLiftedVF
from gqw.cli import main
from gqw.errors import SamplingError, SystemSpecError, UnsupportedFieldError
from gqw.expr import ZERO, diff, mul, rational, symbol
from gqw.forms import VectorField
from gqw.mpc_bundle import MpcPrequant, StructuredVF, delta_operator
from gqw.parse import parse_expr
from gqw.sample import expr_equal
from gqw.suites import run_suite
from gqw.system import bundled_spec_text, load_bundled, load_spec, load_spec_text
from oracles import expr_equal_pointwise

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
    # an unknown section or key loaded, and ran with the defaults or with no
    # domain
    ("[tolerances]", "[tolerance]"),
    ("samples = 32", "sample = 64"),
    ("domain = p^2 + q^2 > 0", "domian = p^2 + q^2 > 0"),
    ("domain = p^2 + q^2 > 0", "domain = p < 1"),
    # the form and Hamiltonian errors named no line
    ("omega = dp^dq", "omega = dp^dr"),
    ("omega = dp^dq", "omega = dp"),
    ("beta = 1/2*(p*dq - q*dp)", "beta = p"),
    ("pq = p*q", "pq = p*z"),
    # p^2/2 read as p^(2/2), so this loaded the Hamiltonian p + q
    ("energy = 1/2*(p^2 + q^2)", "energy = p^2/2 + q^2/2"),
    # this loaded a Hamiltonian named ''
    ("pq = p*q", "= p*q"),
])
def test_bad_values_name_their_key_and_line(old, new):
    text = GOOD.replace(old, new)
    line = text.splitlines().index(new) + 1
    with pytest.raises(SystemSpecError) as err:
        load_spec_text(text)
    assert f"line {line}: " in str(err.value)
    assert new.split(" = ")[0] in str(err.value)


def test_content_before_any_section_names_its_line():
    with pytest.raises(SystemSpecError) as err:
        load_spec_text("coordinates = p, q\n" + GOOD)
    assert "line 1: content before any [section]" in str(err.value)


def test_unknown_sections_and_keys_list_the_known_names():
    with pytest.raises(SystemSpecError) as err:
        load_spec_text(GOOD.replace("[tolerances]", "[tolerance]"))
    assert ("unknown section [tolerance]; the sections are [manifold], [symplectic], "
            "[prequant], [hamiltonians], [tolerances]") in str(err.value)
    for old, new, known in [
            ("domain = p^2 + q^2 > 0", "domian = 1 > 0",
             "'domian' in [manifold], which takes coordinates, domain, box <coordinate>"),
            ("omega = dp^dq", "omega = dp^dq\nbeta = p*dq", "'beta' in [symplectic], which takes omega"),
            ("beta = 1/2*(p*dq - q*dp)", "beta = 1/2*(p*dq - q*dp)\nhbar = 2",
             "'hbar' in [prequant], which takes beta"),
            ("seed = 42", "box p = -1, 1",
             "'box p' in [tolerances], which takes epsilon, samples, seed, hbar")]:
        with pytest.raises(SystemSpecError) as err:
            load_spec_text(GOOD.replace(old, new))
        assert f"unknown key {known}" in str(err.value)


# a repeated Hamiltonian or box line replaced the earlier one, and a repeated
# omega or seed was an error without a line
@pytest.mark.parametrize("old, repeat", [
    ("pq = p*q", "pq = q"),
    ("box q = -2, 2", "box q = -1, 1"),
    ("omega = dp^dq", "omega = dp^dq"),
    ("seed = 42", "seed = 7"),
])
def test_repeated_keys_are_load_errors_naming_the_repeat(old, repeat):
    text = GOOD.replace(old, f"{old}\n{repeat}")
    line = text.splitlines().index(old) + 2
    key = repeat.split(" = ")[0]
    with pytest.raises(SystemSpecError) as err:
        load_spec_text(text)
    assert f"line {line}: duplicate key '{key}'" in str(err.value)


def test_readme_system_file_and_library_example_run(capsys):
    # the README's system file loads under the reader and its library
    # example runs as printed
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    blocks = dict(re.findall(r"```(ini|python)\n(.*?)```", readme, re.S))
    spec = load_spec_text(blocks["ini"])
    assert spec.coords == ("p", "q") and len(spec.hamiltonians) == 5
    exec(compile(blocks["python"], "README.md", "exec"), {})
    assert "suite mpc-iso: PASS" in capsys.readouterr().out


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


def test_a_file_that_is_not_utf8_is_a_load_error_naming_its_byte(tmp_path, capsys):
    # a Latin-1 comment: the decoder used to escape as a traceback with exit 1
    data = GOOD.replace("[symplectic]", "# caf\u00e9\n[symplectic]").encode("latin-1")
    bad = tmp_path / "latin1.spec"
    bad.write_bytes(data)
    offset = data.index(b"\xe9")
    line = data.count(b"\n", 0, offset) + 1
    with pytest.raises(SystemSpecError) as err:
        load_spec(str(bad))
    assert str(bad) in str(err.value)
    assert f"byte offset {offset} (line {line})" in str(err.value)
    assert main(["check", "--system", str(bad)]) == 2
    assert f"byte offset {offset}" in capsys.readouterr().err


def test_a_utf8_file_with_a_byte_order_mark_loads(tmp_path):
    marked = tmp_path / "bom.spec"
    marked.write_bytes(codecs.BOM_UTF8 + GOOD.encode("utf-8"))
    spec = load_spec(str(marked))
    plain = load_spec_text(GOOD)
    assert spec.coords == plain.coords
    assert spec.hamiltonians.keys() == plain.hamiltonians.keys()
    assert main(["check", "--system", str(marked), "--suite", "poisson"]) == 0
    # past the mark, offsets still count from the first byte of the file
    marked.write_bytes(codecs.BOM_UTF8 + b"[manifold]\n\xff\n")
    with pytest.raises(SystemSpecError, match=r"byte offset 14 \(line 2\)"):
        load_spec(str(marked))


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


@pytest.mark.parametrize("f, message", [
    ("p/2", "error: unexpected '/' (at offset 1)"),
    # int("²") raised a bare ValueError: a traceback and exit code 1
    ("p^²", "error: unexpected character '²' (at offset 2)"),
    # a RecursionError traceback and exit code 1
    pytest.param("(" * 10000 + "p" + ")" * 10000,
                 "error: expression nested too deeply (at offset 200)", id="deep"),
])
def test_cli_poisson_malformed_expression_exit_two(f, message, capsys):
    assert main(["poisson", "-f", f, "-g", "q"]) == 2
    assert capsys.readouterr().err.startswith(message)


def test_cli_non_ascii_digit_in_a_system_file_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.spec"
    bad.write_text(GOOD.replace("pq = p*q", "a = p^²"), encoding="utf-8")
    assert main(["check", "--system", str(bad)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: line 20: hamiltonian 'a': unexpected character '²'")


def test_deeply_nested_hamiltonian_in_a_system_file_exit_two(tmp_path, capsys):
    # a RecursionError traceback and exit code 1, where a load error exits 2
    bad = tmp_path / "bad.spec"
    bad.write_text(GOOD.replace("pq = p*q", "a = p" + "^2" * 10000), encoding="utf-8")
    with pytest.raises(SystemSpecError, match="hamiltonian 'a': expression nested too deeply"):
        load_spec(str(bad))
    assert main(["check", "--system", str(bad)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: line 20: hamiltonian 'a': expression nested too deeply (at offset 401)")


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


# p^2^2^2^2^2^2 computed 2^(2^65536) exactly and did not return
TOWER_ERROR = "constant power too large: over 100000 bits (at offset 3)"


def test_an_exponent_tower_in_a_system_file_exits_two_at_once(tmp_path):
    tower = tmp_path / "tower.spec"
    tower.write_text(GOOD.replace("pq = p*q", "pq = p^2^2^2^2^2^2"), encoding="utf-8")
    run = run_bounded(["-m", "gqw.cli", "check", "--system", str(tower)])
    assert run.returncode == 2
    assert run.stderr.strip() == f"error: line 20: hamiltonian 'pq': {TOWER_ERROR}"


def test_an_exponent_tower_in_a_poisson_bracket_exits_two_at_once():
    run = run_bounded(["-m", "gqw.cli", "poisson", "-f", "p^2^2^2^2^2^2", "-g", "q"])
    assert (run.returncode, run.stderr.strip()) == (2, f"error: {TOWER_ERROR}")


# (p+1)^65536 built about 2e9 products and did not return
SUM_POWER_ERROR = "expansion too large: over 500000 products (at offset 5)"


def test_a_large_power_of_a_sum_in_a_system_file_exits_two_at_once(tmp_path):
    spec = tmp_path / "sum.spec"
    spec.write_text(GOOD.replace("pq = p*q", "pq = (p+1)^65536"), encoding="utf-8")
    run = run_bounded(["-m", "gqw.cli", "check", "--system", str(spec)])
    assert run.returncode == 2
    assert run.stderr.strip() == f"error: line 20: hamiltonian 'pq': {SUM_POWER_ERROR}"


def test_a_large_power_of_a_sum_in_a_poisson_bracket_exits_two_at_once():
    run = run_bounded(["-m", "gqw.cli", "poisson", "-f", "(p+1)^65536", "-g", "q"])
    assert (run.returncode, run.stderr.strip()) == (2, f"error: {SUM_POWER_ERROR}")


# no limit guarded a product of two sums: this one formed 1891^2 products
# in about 28 s
SUM_PRODUCT = "(p+q+1)^60*(p+q+2)^60"
SUM_PRODUCT_ERROR = "expansion too large: over 500000 products (at offset 10)"


@pytest.mark.parametrize("line, text, error", [
    ("pq = p*q", f"pq = {SUM_PRODUCT}", f"line 20: hamiltonian 'pq': {SUM_PRODUCT_ERROR}"),
    ("omega = dp^dq", f"omega = {SUM_PRODUCT}*dp^dq",
     f"line 11: omega: bad form literal: {SUM_PRODUCT_ERROR}"),
], ids=["hamiltonian", "omega"])
def test_a_large_product_of_sums_in_a_system_file_exits_two_at_once(line, text, error, tmp_path):
    spec = tmp_path / "product.spec"
    spec.write_text(GOOD.replace(line, text), encoding="utf-8")
    run = run_bounded(["-m", "gqw.cli", "check", "--system", str(spec)])
    assert (run.returncode, run.stderr.strip()) == (2, f"error: {error}")


def test_a_large_product_of_sums_in_a_poisson_bracket_exits_two_at_once():
    run = run_bounded(["-m", "gqw.cli", "poisson", "-f", SUM_PRODUCT, "-g", "q"])
    assert (run.returncode, run.stderr.strip()) == (2, f"error: {SUM_PRODUCT_ERROR}")


@pytest.mark.parametrize("f", ["2^20000*p", "p^2^2^2^2^2"])
def test_a_constant_too_long_to_print_is_a_one_line_error(f, capsys):
    # str() of an int past sys.get_int_max_str_digits() raised ValueError,
    # and gqw poisson exited 1 with a traceback
    assert main(["poisson", "-f", f, "-g", "q"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: a constant of over {sys.get_int_max_str_digits()} "
                   f"digits cannot be printed\n")


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


@pytest.mark.parametrize("hbar", ["1e-4", "1e-5", "-1e-5", "1e-8", "1e-12", "1e-15"])
def test_check_passes_at_small_hbar(hbar, capsys):
    # the gamma rows took pushforwards by central differences with step 1e-6,
    # whose rounding gamma's 1/hbar multiplied: twist-gamma-preserved read
    # 1.6e-6 at 1e-4, prequant-invariance 1.5e-6 at 1e-5, both up to 161 at
    # 1e-12.  The Mp^c bracket-flow-oracle integrated its flows for a fixed
    # time 1e-3 and read 2.4e-3 at 1e-8, 14 at 1e-12 and 6.6e3 at 1e-15.
    # Both now take complex steps, and no row fails at any hbar
    code = main(["check", "--hbar", hbar, "--format", "json"])
    rows = json.loads(capsys.readouterr().out)["checks"]
    assert [r["id"] for r in rows if r["status"] != "pass"] == []
    assert code == 0


def _bench_inputs():
    """perfbench/inputs.py, loaded read-only by its path."""
    root = pathlib.Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", root / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


def test_systems_on_the_same_coordinates_keep_their_own_chart():
    # parsed scalar regions are stored per vocabulary; a form carries its
    # chart, so the form grammar must not store them: shared with the
    # scalar table, the annulus's beta came back on the bundled chart
    from gqw import parse
    from gqw.forms import parse_form
    bundled = load_bundled()
    annulus = load_spec_text(_bench_inputs().annulus_spec())
    assert annulus.chart is not bundled.chart
    for spec in (bundled, annulus):
        assert spec.beta.chart is spec.chart
        assert spec.sympl.omega.chart is spec.chart

    def stored():
        return {vocab: dict(table) for vocab, table in parse._REGIONS.items()}

    before = stored()
    for text in ["1/2*(p*dq - q*dp)", "dp^dq", "(p+q)*dp", "(p + q)^2", "sin((p))"]:
        parse_form(text, annulus.chart)
    assert stored() == before


# comparisons that overflow at some points of the bundled box: exp(800*p)
# overflows for p > 0.887, exp(-800*p) for p < -0.887, and the points where
# the difference fails to evaluate are skipped
OVERFLOWING = [("exp(800*p)*sin(q)*exp(-800*p)", "sin(q)"),
               ("exp(800*p)*exp(q)", "exp(800*p + q)"),
               ("exp(-800*p)*exp(800*p + q)", "exp(q)")]


def _outcome(compare):
    try:
        return compare()
    except SamplingError as exc:
        return type(exc)


@pytest.mark.parametrize("samples", [None, 1, 2])
@pytest.mark.parametrize("chart", ["plane", "annulus"])
def test_sampled_comparisons_match_a_pointwise_oracle(chart, samples):
    # on a warm {seed}:equal stream, expr_equal evaluates the second to n-th
    # points as one block; each comparison still gives the verdict and the
    # residual of evaluating its points one at a time on a fresh stream
    inputs = _bench_inputs()
    text = GOOD if chart == "plane" else inputs.annulus_spec()
    sampler = load_spec_text(text, samples=samples).chart.sampler
    pairs = [(lhs, rhs) for _, lhs, rhs, _ in inputs.identity_corpus(1, 16)] + OVERFLOWING
    outcomes = []
    for lhs, rhs in pairs + pairs:  # the second round runs on a warm stream
        a, b = parse_expr(lhs, sampler.coords), parse_expr(rhs, sampler.coords)
        fresh = load_spec_text(text, samples=samples).chart.sampler
        got = _outcome(lambda: expr_equal(a, b, sampler))
        assert got == _outcome(lambda: expr_equal_pointwise(a, b, fresh)), (lhs, rhs)
        outcomes.append(got if isinstance(got, type) else got[0])
    assert outcomes.count(True) > 4 and outcomes.count(False) > 4, outcomes


def _oracle_system(system: str):
    kind, value = system.split("=")
    if kind == "corpus":
        return load_spec_text(_bench_inputs().corpus_spec(int(value)))
    return load_bundled(**{kind: float(value) if kind == "hbar" else int(value)})


def _flow_oracle_verdicts(spec) -> list:
    """Whether the circle and Mp^c bracket-flow-oracle rows pass."""
    out = []
    for suite in ("circle-iso", "mpc-iso"):
        checks = {cid: fn for cid, _, fn in suites._SUITE_BUILDERS[suite](spec)}
        out.append(checks["bracket-flow-oracle"]()[0])
    return out


_SCALE = Fraction(10001, 10000)


def _scaled_base(b) -> VectorField:
    return VectorField(b.base.chart, [mul(rational(_SCALE), c) for c in b.base.components])


def _scaled_circle(bracket):
    def fn(z1, z2):
        b = bracket(z1, z2)
        return CircleLiftedVF(b.bundle, _scaled_base(b), mul(rational(_SCALE), b.fiber))
    return fn


def _unlifted_circle(bracket):
    return lambda z1, z2: CircleLiftedVF(z1.bundle, bracket(z1, z2).base, ZERO)


def _scaled_mpc(bracket):
    def fn(z1, z2):
        b = bracket(z1, z2)
        s, f = rational(_SCALE), float(_SCALE)
        return StructuredVF(b.bundle, _scaled_base(b), tuple(mul(s, c) for c in b.a_r),
                            mul(s, b.tau_r), tuple(f * v for v in b.a_l), f * b.tau_l)
    return fn


def _unlifted_mpc(bracket):
    def fn(z1, z2):
        b = bracket(z1, z2)
        return StructuredVF(b.bundle, b.base, a_r=b.a_r, a_l=b.a_l)
    return fn


@pytest.mark.parametrize("system", ["seed=42", "seed=7", *(f"corpus={k}" for k in range(1, 11)),
                                    "hbar=1e-5", "hbar=1e-12"])
def test_flow_oracles_pass_and_catch_a_scaled_or_unlifted_bracket(system, monkeypatch):
    # the brackets scaled by 1 + 1e-4 read 1e-4 against the bound 1e-5; with
    # the vertical (central u(1)) term dropped the oracle pair (lin_p, r2)
    # reads 0.21 and 1.9 on the bundled system, and more at small hbar.  The
    # corpus has degree-4 Hamiltonians, on which a flow over a fixed time 1e-3
    # read 2.4e-3 to 1.4 in these rows
    spec = _oracle_system(system)
    assert _flow_oracle_verdicts(spec) == [True, True]
    circle_bracket, mpc_bracket = suites.bracket_lifted, suites.structured_bracket
    for circle_mutant, mpc_mutant in [(_scaled_circle, _scaled_mpc),
                                      (_unlifted_circle, _unlifted_mpc)]:
        monkeypatch.setattr(suites, "bracket_lifted", circle_mutant(circle_bracket))
        monkeypatch.setattr(suites, "structured_bracket", mpc_mutant(mpc_bracket))
        assert _flow_oracle_verdicts(spec) == [False, False], circle_mutant.__name__


# SHA-256 of the CLI's JSON output, `gqw check --format json --seed S` for
# `all` and `gqw group selftest --format json --seed S` for `group`
REPORT_DIGESTS = {
    ("all", 42): "78f9c7b0aeb4be9ce66942de7216832f82e7cceaa9f6bed19dd783bc8a316dac",
    ("all", 7): "d03f062a2b2d27ad65750a3aecddd810a0133cffb0efdf77550c9d631c62edb0",
    ("all", 7919): "8ebb7f5a7dab932c6f18d232251c23d85999a8cf193c7ad2522594b0057da5ca",
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


# SHA-256 of repr([(verdict, residual.hex()), ...]) for expr_equal over the
# benchmark's identity_corpus(1, 600); 558 of its pairs reach the sampled path.
# A false pair's residual is its first witness, the first point over the
# tolerance; a true pair's is the largest of its 32
IDENTITY_CORPUS_DIGEST = "781d748c2e4f37ec4c4655a7f90a513757fe348e5517d4860454b0a80b82b98b"
# the same over the true pairs alone: a true pair evaluates all its points,
# so its residual does not depend on where a false pair stops
TRUE_IDENTITIES_DIGEST = "f0f3483ba3ab953d1fd5d61af94b0fd6c5b87378addfa962cd8a1c45e7d01582"


def _decide_identity_corpus(tmp_path, seed: int) -> list:
    """(verdict, residual, truth) for each pair of the benchmark's
    identity_corpus(seed, 600), decided as its identities workload decides
    it: seeded identities on the plane and on a thin annulus, whose
    differences do not cancel structurally."""
    inputs = _bench_inputs()
    annulus = tmp_path / "annulus.spec"
    annulus.write_text(inputs.annulus_spec(), encoding="utf-8")
    samplers = {"plane": load_bundled(seed=1).chart.sampler,
                "annulus": load_spec(str(annulus)).chart.sampler}
    decided = []
    for chart, lhs, rhs, truth in inputs.identity_corpus(seed, 600):
        a, b = parse_expr(lhs, inputs.COORDS), parse_expr(rhs, inputs.COORDS)
        decided.append((*expr_equal(a, b, samplers[chart]), truth))
    return decided


def _digest(decided) -> str:
    return hashlib.sha256(repr([(ok, r.hex()) for ok, r, _ in decided]).encode()).hexdigest()


def test_sampled_identities_match_their_pinned_digest(tmp_path):
    """The sampled path of expr_equal, decided bit for bit as pinned."""
    decided = _decide_identity_corpus(tmp_path, 1)
    assert all(ok is truth for ok, _, truth in decided)
    assert _digest(decided) == IDENTITY_CORPUS_DIGEST
    assert _digest([d for d in decided if d[2]]) == TRUE_IDENTITIES_DIGEST


def test_parsing_and_the_kernel_never_hash_a_fraction(tmp_path, monkeypatch):
    """Intern keys hold ints and nodes: a Fraction's hash is a Python-level
    modular inverse, and the identities and symbolic workloads take none."""
    hashed = []

    def refused(self):
        hashed.append(self)
        raise TypeError("a Fraction was hashed")

    monkeypatch.setattr(Fraction, "__hash__", refused)
    decided = _decide_identity_corpus(tmp_path, 1)
    assert all(ok is truth for ok, _, truth in decided)
    spec = load_bundled()
    assert all(run_suite(spec, suite).passed for suite in ("poisson", "dirac"))
    assert hashed == []


def test_sampled_identities_of_another_seed_are_decided_right(tmp_path):
    decided = _decide_identity_corpus(tmp_path, 7919)
    assert [ok for ok, _, _ in decided] == [truth for _, _, truth in decided]


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


# the bundled system's Hamiltonians on a polar chart (r, t): omega = r dr^dt
POLAR = """
[manifold]
coordinates = r, t
domain = r > 0
box r = 1/2, 2
box t = -3, 3

[symplectic]
omega = r*dr^dt

[prequant]
beta = 1/2*r^2*dt

[hamiltonians]
one = 1
lin_p = r
lin_q = t
pq = r*t
r2 = r^2 + t^2
energy = 1/2*(r^2 + t^2)
hyperbolic = r^2 - t^2
"""
# the README's example of an omega with non-constant coefficients, with the
# built-in Hamiltonians
NON_CONSTANT_AREA = GOOD.replace("omega = dp^dq", "omega = (2+2*p^2)*dp^dq").replace(
    "beta = 1/2*(p*dq - q*dp)", "beta = (2*p + 2/3*p^3)*dq")
CONSTANT_AREA = GOOD.replace("omega = dp^dq", "omega = 2*dp^dq").replace(
    "beta = 1/2*(p*dq - q*dp)", "beta = p*dq - q*dp")

# SHA-256 of `gqw check --format json --seed S --system <POLAR>`
POLAR_DIGESTS = {
    42: "9d1ad72ba13724663cebe9946d28e27f1ee7ea8cc07f097e3a678867760ab4aa",
    7: "9bf8b47eac28f22e4f3d5345f213816edeb2d005a51229be059e9924ef92d49c",
}


@pytest.mark.parametrize("text", [POLAR, NON_CONSTANT_AREA], ids=["polar", "non-constant"])
def test_every_mpc_row_runs_on_a_non_constant_area_form(text):
    # the bundle refused every omega but dx^dy: its mpc-iso, delta and
    # counterexamples suites were three failed setup rows.  The chart's
    # rotation preserves neither omega nor beta here, so the counterexample's
    # hypothesis fails and its row with it
    report = run_suite(load_spec_text(text), "all")
    assert len(report.checks) == 47
    assert [c.id for c in report.checks if not c.passed] == ["rotation-gamma-equivariance"]


def test_every_row_passes_on_a_constant_area_form(tmp_path, capsys):
    path = tmp_path / "two.spec"
    path.write_text(CONSTANT_AREA)
    assert main(["check", "--system", str(path)]) == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("seed", sorted(POLAR_DIGESTS))
def test_polar_reports_match_their_pinned_digests(seed, tmp_path, capsys):
    path = tmp_path / "polar.spec"
    path.write_text(POLAR)
    assert main(["check", "--format", "json", "--seed", str(seed), "--system", str(path)]) == 1
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == POLAR_DIGESTS[seed]


def test_the_coordinate_jacobian_fails_on_a_polar_chart(monkeypatch):
    # a bundle that kept the coordinate frame on r dr^dt: its lifts are not
    # traceless, and the rows that build them fail
    def coordinate_frame(self, v):
        x, y = (symbol(c) for c in self.chart.coords)
        return tuple(diff(c, s) for c in v.components for s in (x, y))

    monkeypatch.setattr(MpcPrequant, "linearization", coordinate_frame)
    failed = [c for c in run_suite(load_spec_text(POLAR), "all").checks if not c.passed]
    assert any(c.error and "right-invariant matrix coefficient has trace" in c.error
               for c in failed)


@pytest.mark.parametrize("omega, beta", [
    ("(2+2*p^2)*dp^dq", "(2*p + 2/3*p^3)*dq"),
    ("(1+p^2+q^2)*dp^dq", "(p + 1/3*p^3 + p*q^2)*dq"),
], ids=["readme", "radial"])
def test_delta_rows_sample_the_fiber_entries(omega, beta):
    # three pairs of delta-homomorphism do not cancel structurally here, and
    # were sampled on the chart's context, which binds no fiber entry:
    # "UnboundSymbolError: unbound symbol 'g11'"
    spec = load_spec_text(GOOD.replace("omega = dp^dq", f"omega = {omega}").replace(
        "beta = 1/2*(p*dq - q*dp)", f"beta = {beta}"))
    rows = {c.id: c for c in run_suite(spec, "delta").checks}
    assert rows["delta-homomorphism"].passed and 0 < rows["delta-homomorphism"].residual < 1e-14


def test_cli_demo_on_a_system_it_cannot_use_is_a_load_error(tmp_path, capsys):
    path = tmp_path / "four.spec"
    path.write_text(FOUR_DIM)
    assert main(["demo", "a1", "--system", str(path)]) == 2
    assert "2-dimensional" in capsys.readouterr().err
