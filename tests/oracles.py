"""Oracles of the tests: a field's numeric right-hand side and RK4 flow, the
Lie derivative of a form as a centered finite difference of its pullbacks
under that flow, the lift of a matrix path evaluated afresh at every point,
the cocycle kappa as three separate automorphy angles, and a product and
power that store nothing.  The first two use nothing of the symbolic bracket
or Lie-derivative code they check, only ``gqw.flows``' RK4 step and the
chart's evaluation context; the lift uses neither kappa nor the powers of one
step that ``gqw.mpc_group.lift_path`` multiplies; the cocycle takes each
angle, the Mobius image and the whole product g1 g2 by its own call; the
product never reads the kernel's table of expanded products and rebuilds
every factor through its power; the sum splits and rebuilds every term and
always runs the sin^2 + cos^2 pass."""

import cmath
import math
from fractions import Fraction
from typing import Callable, List, Optional, Sequence

from gqw.expr import (
    IMAG, MINUS_ONE, ONE, ZERO, Add, Expr, Mul, Pow, Rational, _key, _pythagoras,
    add, evalf, rational,
)
from gqw.flows import RHS, components_rhs, rk4_step
from gqw.forms import KForm, VectorField
from gqw.mpc_group import Mat, MpElement, automorphy_angle, mat_mul, mp_identity


def vf_rhs(v: VectorField) -> RHS:
    """Numeric right-hand side of a symbolic vector field on its chart."""
    return components_rhs(v.chart, v.components)


def flow_point(v: VectorField, x: Sequence[float], t: float,
               steps: int = 16) -> List[float]:
    f = vf_rhs(v)
    h = t / steps
    y = list(x)
    for _ in range(steps):
        y = rk4_step(f, y, h)
    return y


def _pullback_at(v: VectorField, a: KForm, x: Sequence[float],
                 t: float) -> List[float]:
    """Coefficients at x of the pullback of ``a`` under the time-t flow of v,
    with the flow's Jacobian taken by central differences."""
    chart = v.chart
    n = chart.dim

    def flowed(pt):
        return flow_point(v, pt, t, steps=4)

    def coeffs_at(pt):
        env = chart.sampler.env(pt)
        return [evalf(c, env).real for c in a.coeffs]

    y = flowed(list(x))
    if a.degree == 0:
        return coeffs_at(y)
    dx = 1e-5
    jac = [[0.0] * n for _ in range(n)]  # jac[i][k] = d(flow_i)/dx_k
    for k in range(n):
        hi = list(x)
        lo = list(x)
        hi[k] += dx
        lo[k] -= dx
        fh, fl = flowed(hi), flowed(lo)
        for i in range(n):
            jac[i][k] = (fh[i] - fl[i]) / (2 * dx)
    ay = coeffs_at(y)
    if a.degree == 1:
        return [sum(ay[i] * jac[i][k] for i in range(n)) for k in range(n)]
    pairs = chart.pairs()
    out = []
    for (k, l) in pairs:
        pb = 0.0
        for c, (i, j) in zip(ay, pairs):
            pb += c * (jac[i][k] * jac[j][l] - jac[i][l] * jac[j][k])
        out.append(pb)
    return out


def pullback_under_flow(v: VectorField, a: KForm, x: Sequence[float],
                        h: float = 1e-4) -> List[float]:
    """Centered finite-difference Lie derivative:
    (phi_h^* a - phi_{-h}^* a) / (2h) evaluated at x."""
    hi = _pullback_at(v, a, x, h)
    lo = _pullback_at(v, a, x, -h)
    return [(p - m) / (2 * h) for p, m in zip(hi, lo)]


def lift_path_pointwise(path: Callable[[float], Mat], steps: int,
                        start: Optional[MpElement] = None) -> MpElement:
    """Continuous lift of a matrix path (path(0) must equal start's matrix,
    identity by default): unwrap the argument of the automorphy factor
    z = c i + d over path(k / steps), k = 1..steps; the sheet is the parity of
    the turns by which it leaves the principal branch."""
    current = start if start is not None else mp_identity()
    g = current.g
    wound = automorphy_angle(g, 1j) + 2 * math.pi * current.sheet
    z = g[2] * 1j + g[3]
    for k in range(1, steps + 1):
        g = path(k / steps)
        nz = g[2] * 1j + g[3]
        wound += cmath.phase(nz / z)
        z = nz
    return MpElement(g, round((wound - automorphy_angle(g, 1j)) / (2 * math.pi)) & 1)


def mobius(g: Mat, tau: complex) -> complex:
    return (g[0] * tau + g[1]) / (g[2] * tau + g[3])


def kappa_reference(g1: Mat, g2: Mat) -> int:
    """kappa(g1, g2) = (w(g1, g2 . i) + w(g2, i) - w(g1 g2, i)) / (2 pi), each
    term by its own call."""
    i0 = 1j
    total = (automorphy_angle(g1, mobius(g2, i0))
             + automorphy_angle(g2, i0)
             - automorphy_angle(mat_mul(g1, g2), i0))
    return round(total / (2 * math.pi))


def mul_rebuilt(*args: Expr) -> Expr:
    """The canonical product, folded afresh on every call: exponents of equal
    bases are summed, every factor is rebuilt by ``power_rebuilt`` and every
    sum is distributed, with nothing stored between calls."""
    coeff, powers = Fraction(1), {}
    for a in args:
        for f in (a.factors if type(a) is Mul else (a,)):
            if type(f) is Rational:
                coeff *= f.value
            else:
                base, exp = (f.base, f.exponent) if type(f) is Pow else (f, 1)
                powers[base] = powers.get(base, 0) + exp
    plain, sums = [], []
    for base, exp in powers.items():
        p = power_rebuilt(base, exp)
        for q in (p.factors if type(p) is Mul else (p,)):
            if type(q) is Rational:
                coeff *= q.value
            elif type(q) is Add:
                sums.append(q)
            else:
                plain.append(q)
    if coeff == 0:
        return ZERO
    if sums:
        combos = [[rational(coeff)] + plain]
        for s in sums:
            combos = [c + [t] for c in combos for t in s.terms]
        return add(*[mul_rebuilt(*c) for c in combos])
    if len({f.base if type(f) is Pow else f for f in plain}) != len(plain):
        return mul_rebuilt(rational(coeff), *plain)
    plain.sort(key=_key)
    if coeff != 1:
        plain.insert(0, rational(coeff))
    if not plain:
        return ONE
    return plain[0] if len(plain) == 1 else Mul(tuple(plain))


def power_rebuilt(base: Expr, exponent) -> Expr:
    """The canonical power, with every product in it taken by
    ``mul_rebuilt``."""
    exponent = Fraction(exponent)
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    integral = exponent.denominator == 1
    if type(base) is Rational:
        if integral:
            return rational(Fraction(base.value) ** exponent.numerator)
        return base if base.value in (0, 1) else Pow(base, exponent)
    if base is IMAG and integral:
        return (ONE, IMAG, MINUS_ONE, mul_rebuilt(MINUS_ONE, IMAG))[exponent.numerator % 4]
    if type(base) is Pow and integral:
        return power_rebuilt(base.base, base.exponent * exponent)
    if type(base) is Mul and integral:
        return mul_rebuilt(*[power_rebuilt(f, exponent) for f in base.factors])
    if type(base) is Add and integral and exponent >= 2:
        terms = [ONE]
        for _ in range(exponent.numerator):
            terms = [mul_rebuilt(t, s) for t in terms for s in base.terms]
        return add(*terms)
    return Pow(base, exponent)


def add_rebuilt(*args: Expr) -> Expr:
    """The canonical sum, collected afresh: every term is split into its
    coefficient and a monomial built anew, the sin^2 + cos^2 pass always
    runs, and every surviving term is rebuilt from its coefficient."""
    terms = {}
    for a in args:
        for t in (a.terms if type(a) is Add else (a,)):
            if type(t) is Rational:
                c, mono = t.value, ONE
            elif type(t) is Mul and type(t.factors[0]) is Rational:
                rest = t.factors[1:]
                c, mono = t.factors[0].value, rest[0] if len(rest) == 1 else Mul(rest)
            else:
                c, mono = 1, t
            terms[mono] = terms.get(mono, 0) + c
    _pythagoras(terms)
    out = []
    for mono in sorted(terms, key=_key):
        c = terms[mono]
        if c == 0:
            continue
        if mono is ONE:
            out.append(rational(c))
        elif c == 1:
            out.append(mono)
        else:
            out.append(Mul((rational(c),) + (mono.factors if type(mono) is Mul else (mono,))))
    if not out:
        return ZERO
    return out[0] if len(out) == 1 else Add(tuple(out))
