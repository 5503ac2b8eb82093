"""Oracles of the tests: a field's numeric right-hand side and RK4 flow, the
bracket of two fields from their loop of RK4 flows, the Lie derivative of a
form as a centered finite difference of its pullbacks under that flow, the
lift of a matrix path evaluated afresh at every point, the cocycle kappa as
three separate automorphy angles, and a product and power that store
nothing.  The first three use nothing of the symbolic bracket or
Lie-derivative code they check, only ``gqw.flows``' RK4 step and the chart's
evaluation context; the loop of flows takes no derivative, so it pins the
sign convention of ``gqw.flows.flow_commutator``.  The lift uses neither
kappa nor the powers of one step that ``gqw.mpc_group.lift_path``
multiplies; the cocycle takes each angle, the Mobius image and the whole
product g1 g2 by its own call; the product never reads the kernel's table of
expanded products and rebuilds every factor through its power; the sum
splits and rebuilds every term and always runs the sin^2 + cos^2 pass; the
tokenizer walks the text one character at a time, by the str predicates,
with no regular expression; the prequantum operators and the two E maps are
built as the connection reads them, r(f) through nabla and delta_f from the
horizontal lift, term by term, with f and beta(xi_f) multiplied apart."""

import cmath
import math
from fractions import Fraction
from typing import Callable, List, Optional, Sequence

from gqw.circle import (
    I_HBAR_INV, TWO_PI_HBAR_INV, TWO_PI_I, CircleLiftedVF, PrequantCircle, connection_nabla,
    horizontal_lift,
)
from gqw.errors import ExprSyntaxError
from gqw.expr import (
    HBAR, IMAG, MINUS_ONE, ONE, ZERO, Add, Expr, Mul, Pow, Rational, _key, _pythagoras,
    add, diff, evalf, mul, rational, symbol,
)
from gqw.flows import RHS, components_rhs, rk4_step
from gqw.forms import KForm, VectorField
from gqw.mpc_bundle import MpcPrequant, StructuredVF, emat_mul, hat_lift, section_sampler
from gqw.mpc_group import Mat, MpElement, automorphy_angle, mat_mul, mp_identity
from gqw.symplectic import hamiltonian_vf


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


def _loop_estimate(f1: RHS, f2: RHS, x: Sequence[float], t: float) -> List[float]:
    y = rk4_step(f1, x, t)
    y = rk4_step(f2, y, t)
    y = rk4_step(f1, y, -t)
    y = rk4_step(f2, y, -t)
    return [(yi - xi) / (t * t) for yi, xi in zip(y, x)]


def loop_commutator(f1: RHS, f2: RHS, x: Sequence[float], t: float = 1e-3) -> List[float]:
    """[f1, f2](x) from the loop of flows phi2_{-t} phi1_{-t} phi2_t phi1_t (x),
    one RK4 step per leg: (loop - x) / t^2 has error c3 t + c4 t^2 + O(t^3),
    and three-point Richardson extrapolation over t, t/2, t/4 removes both
    leading terms."""
    e1 = _loop_estimate(f1, f2, x, t)
    e2 = _loop_estimate(f1, f2, x, t / 2)
    e3 = _loop_estimate(f1, f2, x, t / 4)
    return [a / 3.0 - 2.0 * b + 8.0 * c / 3.0 for a, b, c in zip(e1, e2, e3)]


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
    pairs = chart.indices(2)
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
    bases are summed, every factor is rebuilt by ``power_rebuilt`` and the
    sums are distributed one at a time, every ordered product built, as
    ``power_rebuilt`` expands a power, with nothing stored between calls."""
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
        terms = [mul_rebuilt(rational(coeff), *plain)]
        for s in sums:
            terms = [mul_rebuilt(t, u) for t in terms for u in s.terms]
        return add(*terms)
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


def reference_tokenize(text: str) -> list:
    """(kind, text, offset) tuples of the expression grammar, kind one of
    int, dec, ident, op and end, or ExprSyntaxError at the first character
    no token can start with."""
    toks = []
    n = len(text)
    k = 0
    while k < n:
        c = text[k]
        if c.isspace():
            k += 1
            continue
        if c.isdecimal():
            start = k
            while k < n and text[k].isdecimal():
                k += 1
            if k < n and text[k] == "." and k + 1 < n and text[k + 1].isdecimal():
                k += 1
                while k < n and text[k].isdecimal():
                    k += 1
                toks.append(("dec", text[start:k], start))
            else:
                toks.append(("int", text[start:k], start))
            continue
        if c.isalpha():
            start = k
            while k < n and (text[k].isalnum() or text[k] == "_"):
                k += 1
            toks.append(("ident", text[start:k], start))
            continue
        if c in "+-*^()/":
            toks.append(("op", c, k))
            k += 1
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", k)
    toks.append(("end", "", n))
    return toks


def ks_operator_via_nabla(f: Expr, u: Expr, y: PrequantCircle) -> Expr:
    """r(f) u = i hbar nabla_{xi_f} u + f u, with nabla as the connection
    defines it."""
    xi = hamiltonian_vf(f, y.sympl)
    return add(mul(IMAG, HBAR, connection_nabla(xi, u, y)), mul(f, u))


def E_circle_via_horizontal_lift(f: Expr, y: PrequantCircle) -> CircleLiftedVF:
    """The horizontal lift of xi_f, then (1/(2 pi hbar)) f added to its fiber."""
    xi = hamiltonian_vf(f, y.sympl)
    return CircleLiftedVF(y, xi, add(horizontal_lift(xi, y).fiber, mul(TWO_PI_HBAR_INV, f)))


def E_mpc_via_hat_lift(f: Expr, bundle: MpcPrequant) -> StructuredVF:
    """The hat lift, then (1/(2 pi hbar)) f times the central generator 2 pi i."""
    z = hat_lift(f, bundle)
    tau = add(z.tau_r, mul(TWO_PI_HBAR_INV, TWO_PI_I, f))
    return StructuredVF(bundle, z.base, a_r=z.a_r, tau_r=tau)


def delta_operator_via_hat_lift(f: Expr, u: Expr, bundle: MpcPrequant) -> Expr:
    """delta_f u from the hat lift one term at a time: the base derivative,
    each fiber derivative, -tau u, then (1/(i hbar)) f u."""
    z = hat_lift(f, bundle)
    out = z.base.apply(u)
    gmat = tuple(symbol(s) for s in section_sampler(bundle).coords[2:])
    for coeff, gsym in zip(emat_mul(z.a_r, gmat), gmat):
        out = add(out, mul(coeff, diff(u, gsym)))
    out = add(out, mul(rational(-1), z.tau_r, u))
    return add(out, mul(I_HBAR_INV, f, u))
