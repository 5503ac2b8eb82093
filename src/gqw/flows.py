"""Numeric flow machinery: RK4 integration, flow commutators, and a
pullback-under-flow derivative.  These are the independent oracles that the
symbolic bracket and Lie-derivative code is checked against.  Fields and
forms are evaluated in their chart's context (``chart.sampler.env``), so
``hbar`` is the system's value."""

from __future__ import annotations

from typing import Callable, Iterable, List, Sequence

from .expr import Expr, evalf
from .forms import Chart, KForm, VectorField

RHS = Callable[[Sequence[float]], List[float]]


def rk4_step(f: RHS, x: Sequence[float], h: float) -> List[float]:
    k1 = f(x)
    k2 = f([xi + 0.5 * h * ki for xi, ki in zip(x, k1)])
    k3 = f([xi + 0.5 * h * ki for xi, ki in zip(x, k2)])
    k4 = f([xi + h * ki for xi, ki in zip(x, k3)])
    return [xi + h / 6.0 * (a + 2 * b + 2 * c + d)
            for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]


def _commutator_estimate(f1: RHS, f2: RHS, x: Sequence[float], t: float) -> List[float]:
    y = rk4_step(f1, x, t)
    y = rk4_step(f2, y, t)
    y = rk4_step(f1, y, -t)
    y = rk4_step(f2, y, -t)
    return [(yi - xi) / (t * t) for yi, xi in zip(y, x)]


COMMUTATOR_TIME = 1e-3


def flow_commutator(f1: RHS, f2: RHS, x: Sequence[float]) -> List[float]:
    """[f1, f2](x) estimated from the loop of flows for time t =
    COMMUTATOR_TIME.  The raw estimate has error c3 t + c4 t^2 + O(t^3);
    three-point Richardson extrapolation over t, t/2, t/4 removes both
    leading terms."""
    t = COMMUTATOR_TIME
    e1 = _commutator_estimate(f1, f2, x, t)
    e2 = _commutator_estimate(f1, f2, x, t / 2)
    e3 = _commutator_estimate(f1, f2, x, t / 4)
    return [a / 3.0 - 2.0 * b + 8.0 * c / 3.0 for a, b, c in zip(e1, e2, e3)]


def commutator_residual(f1: RHS, f2: RHS, bracket: RHS,
                        points: Iterable[Sequence[float]]) -> float:
    """Worst deviation, over the points and the components, of the field
    ``bracket`` from the flow-commutator estimate of [f1, f2]."""
    worst = 0.0
    for x in points:
        oracle = flow_commutator(f1, f2, x)
        worst = max(worst, max(abs(a - b) for a, b in zip(oracle, bracket(x))))
    return worst


def components_rhs(chart: Chart, components: Sequence[Expr]) -> RHS:
    """Numeric right-hand side with the given symbolic components, evaluated
    in the chart's context; coordinates of x past the chart's are ignored."""
    env = chart.sampler.env

    def f(x):
        e = env(x)
        return [evalf(c, e).real for c in components]

    return f


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
