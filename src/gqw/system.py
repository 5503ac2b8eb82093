"""System description files: a sectioned key-value format that carries a
chart, its domain, the symplectic form, the potential, named Hamiltonians,
and tolerances.

    [manifold]
    coordinates = p, q
    domain = p^2 + q^2 > 0
    box p = -2, 2
    box q = -2, 2

    [symplectic]
    omega = dp^dq

    [prequant]
    beta = 1/2*(p*dq - q*dp)

    [hamiltonians]
    energy = 1/2*(p^2 + q^2)

    [tolerances]
    epsilon = 1e-9
    samples = 32
    seed = 42
    hbar = 1

Expressions use the scalar grammar; omega and beta use the form grammar.
Lines starting with '#' are comments.  An unknown section or key, or a
repeated key, is a load error that names its line.  Loading validates
d(beta) = omega and nondegeneracy of omega at the sampled points.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .errors import GqwError, SystemSpecError
from .expr import Expr, add, mul, rational
from .forms import Chart, KForm, check_coordinate_names, parse_form
from .mpc_bundle import MpcPrequant
from .circle import PrequantCircle
from .sample import (
    DEFAULT_HBAR, DEFAULT_SAMPLES, DEFAULT_SEED, DEFAULT_TOLERANCE, DomainSampler,
)
from .symplectic import SymplecticChart
from .parse import parse_expr

class SystemSpec:
    """A loaded system.  The chart, its coordinates and the evaluation
    context (seed, sample count, tolerance, hbar) are read-only views of
    ``sympl.chart`` and its sampler; the bundles are built on first use."""

    def __init__(self, sympl: SymplecticChart, beta: KForm, hamiltonians: Dict[str, Expr]):
        self.sympl = sympl
        self.beta = beta
        self.hamiltonians = hamiltonians

    @property
    def chart(self) -> Chart:
        return self.sympl.chart

    @property
    def coords(self) -> Tuple[str, ...]:
        return self.chart.coords

    @property
    def seed(self) -> int:
        return self.chart.sampler.seed

    @property
    def samples(self) -> int:
        return self.chart.sampler.n_samples

    @property
    def epsilon(self) -> float:
        return self.chart.sampler.tolerance

    @property
    def hbar(self) -> float:
        return self.chart.sampler.hbar

    @functools.cached_property
    def _circle(self) -> PrequantCircle:
        return PrequantCircle(self.sympl, self.beta)

    @functools.cached_property
    def _mpc(self) -> MpcPrequant:
        return MpcPrequant(self._circle)

    def circle_bundle(self) -> PrequantCircle:
        return self._circle

    def mpc_bundle(self) -> MpcPrequant:
        return self._mpc


# the keys each section takes; [hamiltonians] takes any name
_KEYS = {
    "manifold": ("coordinates", "domain", "box <coordinate>"),
    "symplectic": ("omega",),
    "prequant": ("beta",),
    "hamiltonians": None,
    "tolerances": ("epsilon", "samples", "seed", "hbar"),
}


def _parse_sections(text: str) -> Dict[str, List[Tuple[str, str, int]]]:
    sections: Dict[str, List[Tuple[str, str, int]]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _KEYS:
                raise SystemSpecError(f"line {lineno}: unknown section [{current}]; the "
                                      f"sections are {', '.join(f'[{s}]' for s in _KEYS)}")
            sections.setdefault(current, [])
            continue
        if current is None:
            raise SystemSpecError(f"line {lineno}: content before any [section]")
        if "=" not in line:
            raise SystemSpecError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise SystemSpecError(f"line {lineno}: '{line}' has no key before '='")
        known = _KEYS[current]
        name = "box <coordinate>" if key.startswith("box ") else key
        if known is not None and name not in known:
            raise SystemSpecError(f"line {lineno}: unknown key '{key}' in [{current}], "
                                  f"which takes {', '.join(known)}")
        sections[current].append((key, value, lineno))
    return sections


def _entry(entries, key: str) -> Tuple[Optional[str], str]:
    """The value of ``key``, or None, with its "line N: " prefix for error
    messages ("" when the key is absent)."""
    found = [(v, f"line {n}: ") for k, v, n in entries if k == key]
    if len(found) > 1:
        raise SystemSpecError(f"{found[1][1]}duplicate key '{key}'")
    return found[0] if found else (None, "")


def _number(entries, key: str, convert, default, override):
    """The [tolerances] value of ``key`` converted by ``convert`` (int or
    float): the override when one is given, else the file's value, else
    ``default``.  Also returns the "line N: " prefix for error messages."""
    if override is not None:
        return override, ""
    text, where = _entry(entries, key)
    if text is None:
        return default, ""
    try:
        return convert(text), where
    except ValueError:
        kind = "an integer" if convert is int else "a number"
        raise SystemSpecError(f"{where}'{key} = {text}' is not {kind}") from None


def load_spec_text(text: str, samples: Optional[int] = None, tol: Optional[float] = None,
                   seed: Optional[int] = None, hbar: Optional[float] = None) -> SystemSpec:
    sections = _parse_sections(text)
    for required in ("manifold", "symplectic", "prequant"):
        if required not in sections:
            raise SystemSpecError(f"missing [{required}] section")

    man = sections["manifold"]
    coords_text, coords_at = _entry(man, "coordinates")
    if not coords_text:
        raise SystemSpecError("missing 'coordinates' in [manifold]")
    coords = tuple(c.strip() for c in coords_text.replace(",", " ").split())
    try:
        # before the box and domain lines, which are read with these names
        check_coordinate_names(coords)
    except ValueError as exc:
        raise SystemSpecError(
            f"{coords_at}'coordinates = {coords_text}': {exc}") from None

    tols = sections.get("tolerances", [])
    epsilon, epsilon_at = _number(tols, "epsilon", float, DEFAULT_TOLERANCE, tol)
    n_samples, samples_at = _number(tols, "samples", int, DEFAULT_SAMPLES, samples)
    seed_v, _ = _number(tols, "seed", int, DEFAULT_SEED, seed)
    hbar_v, hbar_at = _number(tols, "hbar", float, DEFAULT_HBAR, hbar)
    if not n_samples >= 1:
        raise SystemSpecError(f"{samples_at}samples = {n_samples}: at least 1 is needed")
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise SystemSpecError(f"{epsilon_at}epsilon = {epsilon}: it must be finite and positive")
    if not (math.isfinite(hbar_v) and hbar_v != 0):
        raise SystemSpecError(f"{hbar_at}hbar = {hbar_v}: it must be finite and nonzero")
    if not math.isfinite(1 / hbar_v):
        # gamma carries 1/(i hbar), which would be infinite at every point
        raise SystemSpecError(f"{hbar_at}hbar = {hbar_v}: 1/hbar overflows; |hbar| must "
                              f"be at least about {1 / sys.float_info.max:.2g}")

    box = {}
    for k, v, lineno in man:
        if k.startswith("box "):
            name = k[4:].strip()
            if name in box:
                raise SystemSpecError(f"line {lineno}: duplicate key '{k}'")
            try:
                # Fraction reads 3/2, 0.5 and 1e-3 alike and refuses nan and inf
                bounds = tuple(float(Fraction(x)) for x in v.replace(",", " ").split())
            except (ValueError, ZeroDivisionError, OverflowError):
                bounds = ()
            if name not in coords or len(bounds) != 2:
                raise SystemSpecError(f"line {lineno}: bad box entry '{k} = {v}'")
            if not bounds[0] < bounds[1]:
                raise SystemSpecError(
                    f"line {lineno}: '{k} = {v}': the lower bound must be below the upper")
            if not math.isfinite(bounds[1] - bounds[0]):
                # every draw lo + (hi - lo) * r would be infinite
                raise SystemSpecError(
                    f"line {lineno}: '{k} = {v}': the width of the box overflows")
            box[name] = bounds
    for c in coords:
        box.setdefault(c, (-2.0, 2.0))

    positive = []
    for k, v, lineno in man:
        if k != "domain":
            continue
        if ">" not in v:
            raise SystemSpecError(f"line {lineno}: domain entries need 'expr > expr'")
        lhs, rhs = v.split(">", 1)
        try:
            le = parse_expr(lhs.strip(), coords)
            re = parse_expr(rhs.strip(), coords)
        except GqwError as exc:
            raise SystemSpecError(f"line {lineno}: {exc}") from exc
        positive.append(add(le, mul(rational(-1), re)))

    sampler = DomainSampler(coords=coords, box=box, positive=tuple(positive),
                            seed=seed_v, n_samples=n_samples, tolerance=epsilon,
                            hbar=hbar_v)
    chart = Chart(sampler)

    omega_text, omega_at = _entry(sections["symplectic"], "omega")
    beta_text, beta_at = _entry(sections["prequant"], "beta")
    if not omega_text or not beta_text:
        raise SystemSpecError("both 'omega' ([symplectic]) and 'beta' ([prequant]) are required")
    forms = []
    for name, text, at, degree in (("omega", omega_text, omega_at, 2),
                                   ("beta", beta_text, beta_at, 1)):
        try:
            form = parse_form(text, chart)
        except GqwError as exc:
            raise SystemSpecError(f"{at}{name}: bad form literal: {exc}") from exc
        if not isinstance(form, KForm) or form.degree != degree:
            raise SystemSpecError(f"{at}{name} must be a degree-{degree} form literal")
        forms.append(form)
    omega, beta = forms

    hams: Dict[str, Expr] = {}
    entries = sections.get("hamiltonians", [])
    if not entries:
        if not {"p", "q"} <= set(coords):
            raise SystemSpecError(
                f"the built-in Hamiltonians are written in p, q, but the coordinates "
                f"are {', '.join(coords)}: declare a [hamiltonians] section")
        entries = _parse_sections(bundled_spec_text())["hamiltonians"]
    for k, v, lineno in entries:
        if k in hams:
            raise SystemSpecError(f"line {lineno}: duplicate key '{k}'")
        try:
            hams[k] = parse_expr(v, coords)
        except GqwError as exc:
            raise SystemSpecError(f"line {lineno}: hamiltonian '{k}': {exc}") from exc

    try:
        # the nondegeneracy check draws the domain's first points, so an
        # empty domain fails here; the bundle checks d(beta) = omega
        spec = SystemSpec(sympl=SymplecticChart(chart, omega), beta=beta, hamiltonians=hams)
        spec.circle_bundle()
    except GqwError as exc:
        raise SystemSpecError(f"validation failed: {exc}") from exc
    return spec


def load_spec(path: str, **overrides) -> SystemSpec:
    """Load a system file.  It is read as UTF-8; a leading byte-order mark
    is dropped, as the utf-8-sig codec does."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise SystemSpecError(f"cannot read '{path}': {exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise SystemSpecError(f"'{path}' is not UTF-8: {exc.reason} at byte offset "
                              f"{exc.start} (line {line})") from exc
    return load_spec_text(text.removeprefix("\ufeff"), **overrides)


def bundled_spec_text() -> str:
    # a plain open: importlib.resources imports inspect from Python 3.12 on
    path = os.path.join(os.path.dirname(__file__), "data", "punctured_plane.spec")
    with open(path, encoding="utf-8") as f:
        return f.read()


def load_bundled(**overrides) -> SystemSpec:
    return load_spec_text(bundled_spec_text(), **overrides)
