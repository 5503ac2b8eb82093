"""Numeric flow machinery: an RK4 step and the flow commutator by complex
steps, the independent oracle that the symbolic brackets are checked against.
Fields are holomorphic and evaluated in their chart's context
(``chart.sampler.env``), so ``hbar`` is the system's value."""

from __future__ import annotations

from typing import Callable, Iterable, List, Sequence

from .expr import Expr, evalf
from .forms import Chart
from .sample import worst_of

RHS = Callable[[Sequence[complex]], List[complex]]


def rk4_step(f: RHS, x: Sequence[float], h: float) -> List[float]:
    k1 = f(x)
    k2 = f([xi + 0.5 * h * ki for xi, ki in zip(x, k1)])
    k3 = f([xi + 0.5 * h * ki for xi, ki in zip(x, k2)])
    k4 = f([xi + h * ki for xi, ki in zip(x, k3)])
    return [xi + h / 6.0 * (a + 2 * b + 2 * c + d)
            for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]


def complex_step(f: Callable, x: Sequence[float], v: Sequence[float]):
    """(f(x), Df(x) v) for f holomorphic and real at real points, from the
    one evaluation y = f(x + i h v): Re y and Im y / h, exact to rounding for
    h = 1e-30 as nothing is subtracted (Squire & Trapp, SIAM Review 40, 1998)."""
    h = 1e-30
    y = f([a + 1j * h * b for a, b in zip(x, v)])
    return [c.real for c in y], [c.imag / h for c in y]


def flow_commutator(f1: RHS, f2: RHS, x: Sequence[float]) -> List[float]:
    """[f1, f2](x) = Df2(x) f1(x) - Df1(x) f2(x), the t^2 coefficient of the
    loop of flows phi2_{-t} phi1_{-t} phi2_t phi1_t (x), from three
    evaluations: the step along f1(x) also gives f2(x)."""
    v1 = [c.real for c in f1(x)]
    v2, d2 = complex_step(f2, x, v1)
    return [a - b for a, b in zip(d2, complex_step(f1, x, v2)[1])]


def commutator_residual(f1: RHS, f2: RHS, bracket: RHS,
                        points: Iterable[Sequence[float]]) -> float:
    """Worst |a - b| / max(1, |b|), over the points and the components, of
    the field ``bracket`` (b) against the flow commutator of f1 and f2 (a)."""
    return worst_of(abs(a - b) / max(1.0, abs(b)) for x in points
                    for a, b in zip(flow_commutator(f1, f2, x), bracket(x)))


def components_rhs(chart: Chart, components: Sequence[Expr]) -> RHS:
    """Numeric right-hand side with the given symbolic components, evaluated
    in the chart's context; coordinates of x past the chart's are ignored."""
    env = chart.sampler.env

    def f(x):
        e = env(x)
        return [evalf(c, e) for c in components]

    return f
