"""Command-line front end.

    gqw check [--system FILE] [--suite NAME] [--samples N] [--tol EPS]
              [--seed N] [--hbar H] [--format text|json]
    gqw poisson [--system FILE] -f EXPR -g EXPR
    gqw demo {a1,a2}
    gqw group selftest [--seed N] [--format text|json]

``demo a1``/``a2`` print the ``twist-*``/``rotation-*`` rows of the
``counterexamples`` suite, in the text format of ``check``.

Exit codes: 0 all checks passed, 1 at least one failed, 2 a system file
failed to load or validate.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from .errors import GqwError
from .parse import parse_expr
from .suites import SUITE_NAMES, Report, run_suite
from .symplectic import hamiltonian_vf, poisson
from .system import SystemSpec, load_bundled, load_spec


def _load(args) -> SystemSpec:
    overrides = {}
    for name in ("samples", "tol", "seed", "hbar"):
        v = getattr(args, name, None)
        if v is not None:
            overrides[name] = v
    if getattr(args, "system", None):
        return load_spec(args.system, **overrides)
    return load_bundled(**overrides)


def _print_report(report: Report, fmt: str) -> int:
    try:
        print(report.to_json() if fmt == "json" else report.to_text(), flush=True)
    except BrokenPipeError:
        # the reader left early (``gqw check | head``); send what is left,
        # and the interpreter's flush at exit, to devnull instead
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if report.passed else 1


def _cmd_check(args) -> int:
    return _print_report(run_suite(_load(args), args.suite), args.format)


def _cmd_poisson(args) -> int:
    spec = _load(args)
    try:
        f = parse_expr(args.f, spec.coords)
        g = parse_expr(args.g, spec.coords)
    except GqwError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    xi = hamiltonian_vf(f, spec.sympl)
    print(f"xi_f = {xi!r}")
    print(f"{{f, g}} = {poisson(f, g, spec.sympl)!r}")
    return 0


def _cmd_demo(args) -> int:
    spec = _load(args)
    spec.mpc_bundle()  # a system the constructions cannot use is a load error
    report = run_suite(spec, "counterexamples")
    prefix = {"a1": "twist-", "a2": "rotation-"}[args.which]
    rows = [c for c in report.checks if c.id.startswith(prefix)]
    return _print_report(Report(report.suite, rows, report.elapsed), "text")


_NUMBER_OPTIONS = ("--samples", "--tol", "--seed", "--hbar")
_EXPRESSION_OPTIONS = ("-f", "-g")
_SHORT_OPTIONS = _EXPRESSION_OPTIONS + ("-h",)


def _attach_signed_values(argv: list) -> list:
    """Join each number or expression option to a following value that
    starts with one '-' (``--hbar -1e-3`` becomes ``--hbar=-1e-3``, ``-f
    -p^2`` becomes ``-f=-p^2``): argparse reads a token such as ``-1e-3``,
    ``-inf`` or ``-p^2`` as an option string, not as a value, and the loader
    or the parser is the one to judge it.  An expression option is not
    joined to another short option, so ``-f -g q`` still fails."""
    out = []
    for tok in argv:
        signed = tok.startswith("-") and not tok.startswith("--")
        if signed and out and (out[-1] in _NUMBER_OPTIONS or (
                out[-1] in _EXPRESSION_OPTIONS and tok not in _SHORT_OPTIONS)):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gqw",
                                     description="prequantization geometry workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run a property suite against a system")
    check.add_argument("--system", help="system file (bundled default if omitted)")
    check.add_argument("--suite", default="all", choices=SUITE_NAMES + ("all",))
    check.add_argument("--samples", type=int)
    check.add_argument("--tol", type=float)
    check.add_argument("--seed", type=int)
    check.add_argument("--hbar", type=float)
    check.add_argument("--format", default="text", choices=("text", "json"))
    check.set_defaults(fn=_cmd_check)

    pois = sub.add_parser("poisson", help="print a Hamiltonian field and a bracket")
    pois.add_argument("--system")
    pois.add_argument("-f", required=True, help="first function")
    pois.add_argument("-g", required=True, help="second function")
    pois.set_defaults(fn=_cmd_poisson)

    demo = sub.add_parser("demo", help="run one of the counterexample constructions")
    demo.add_argument("which", choices=("a1", "a2"))
    demo.add_argument("--system")
    demo.set_defaults(fn=_cmd_demo)

    group = sub.add_parser("group", help="group-arithmetic selftest")
    group.add_argument("action", choices=("selftest",))
    group.add_argument("--seed", type=int)
    group.add_argument("--format", default="text", choices=("text", "json"))
    group.set_defaults(fn=_cmd_check, suite="group")

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_signed_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.fn(args)
    except GqwError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
