"""Numeric flow machinery: RK4 steps and flow commutators, the independent
oracle that the symbolic brackets are checked against.  Fields are evaluated
in their chart's context (``chart.sampler.env``), so ``hbar`` is the
system's value."""

from __future__ import annotations

from typing import Callable, Iterable, List, Sequence

from .expr import Expr, evalf
from .forms import Chart
from .sample import worst_of

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
    return worst_of(abs(a - b) for x in points
                    for a, b in zip(flow_commutator(f1, f2, x), bracket(x)))


def components_rhs(chart: Chart, components: Sequence[Expr]) -> RHS:
    """Numeric right-hand side with the given symbolic components, evaluated
    in the chart's context; coordinates of x past the chart's are ignored."""
    env = chart.sampler.env

    def f(x):
        e = env(x)
        return [evalf(c, e).real for c in components]

    return f
