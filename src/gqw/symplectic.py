"""Symplectic structure on a chart: validation of the 2-form, Hamiltonian
vector fields, and the Poisson bracket.

Conventions (pinned, and cross-asserted in three independent routes):

    xi_f . omega = df
    {f, g} = -omega(xi_f, xi_g) = xi_f g

Sign errors are the dominant failure mode in this domain, so poisson_ways
computes the bracket through all three formulas and the callers assert they
agree identically.
"""

from __future__ import annotations

from typing import Dict, List

from .errors import DegeneracyError
from .expr import Expr, ZERO, add, diff, evalf, mul, power, rational, symbol
from .forms import Chart, KForm, VectorField, exterior_derivative, interior_product, scalar_form
from .sample import expr_equal

Matrix = List[List[Expr]]


def _minor(m: Matrix, drop) -> Matrix:
    keep = [k for k in range(len(m)) if k not in drop]
    return [[m[a][b] for b in keep] for a in keep]


def _pfaffian(m: Matrix) -> Expr:
    """Pf of an antisymmetric matrix by expansion along its first row:
    1 for the empty matrix, 0 for any odd size."""
    terms = []
    for j in range(1, len(m)):
        term = mul(m[0][j], _pfaffian(_minor(m, (0, j))))
        terms.append(term if j % 2 == 1 else mul(rational(-1), term))
    return add(*terms) if m else rational(1)


class SymplecticChart:
    """A chart together with a closed nondegenerate 2-form.

    The antisymmetric coefficient matrix W of omega is inverted symbolically
    once through Pfaffians: (W^-1)_ij = (-1)^(i+j) sgn(j-i) Pf(W_ij) / Pf(W),
    where W_ij drops rows and columns i and j (dimension <= 6, so this is
    cheap and exact).  Pf(W)^2 = det W, so in 2-d the inverse is +-1/w for
    omega = w dp^dq, and w * w^-1 cancels structurally.
    The chart also keeps each Hamiltonian field once built (see
    hamiltonian_vf).
    """

    def __init__(self, chart: Chart, omega: KForm):
        if omega.degree != 2 or omega.chart.coords != chart.coords:
            raise ValueError("omega must be a 2-form on the given chart")
        self.chart = chart
        self.omega = omega
        self._check_closed()
        self.matrix = self._coefficient_matrix()
        pf = _pfaffian(self.matrix)
        self._check_nondegenerate(pf)
        n, pfinv = chart.dim, power(pf, -1)
        self.inverse = [[ZERO] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                entry = mul(rational((-1) ** (i + j)),
                            _pfaffian(_minor(self.matrix, (i, j))), pfinv)
                self.inverse[i][j] = entry
                self.inverse[j][i] = mul(rational(-1), entry)
        self._fields: Dict[Expr, VectorField] = {}

    def _coefficient_matrix(self) -> Matrix:
        n = self.chart.dim
        m = [[ZERO] * n for _ in range(n)]
        for c, (i, j) in zip(self.omega.coeffs, self.chart.pairs()):
            m[i][j] = c
            m[j][i] = mul(rational(-1), c)
        return m

    def _check_closed(self):
        # the degree-3 coefficients of d(omega) must vanish identically;
        # KForm itself stays capped at degree 2, so expand them inline
        xs = [symbol(x) for x in self.chart.coords]
        idx = {pair: c for pair, c in zip(self.chart.pairs(), self.omega.coeffs)}
        n = self.chart.dim
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    c = add(diff(idx[(j, k)], xs[i]),
                            mul(rational(-1), diff(idx[(i, k)], xs[j])),
                            diff(idx[(i, j)], xs[k]))
                    if not c.is_zero():
                        raise DegeneracyError(
                            f"omega is not closed: d-omega coefficient {c} on "
                            f"(d{xs[i]},d{xs[j]},d{xs[k]})")

    def _check_nondegenerate(self, pf: Expr):
        # |det W| = Pf(W)^2
        sampler = self.chart.sampler
        for pt in sampler.points(seed_tag="nondegenerate"):
            v = evalf(pf, pt)
            if abs(v) ** 2 <= sampler.tolerance:
                raise DegeneracyError(f"omega degenerate at sample point {pt}")

    def gradient(self, f: Expr) -> List[Expr]:
        return [diff(f, symbol(x)) for x in self.chart.coords]


def hamiltonian_vf(f: Expr, s: SymplecticChart) -> VectorField:
    """The unique field with xi_f . omega = df, i.e. xi = -W^{-1} grad f
    for the antisymmetric coefficient matrix W of omega.  The defining
    equation is decided by expr_equal: it cancels structurally for a
    constant omega and for any omega in 2-d; a non-constant omega in 4-d or
    6-d leaves sums of Pfaffian quotients that the kernel does not cancel,
    so it is sampled.

    The field is built and checked once per (f, chart); a repeat f returns
    the stored field.  A build that fails the check raises DegeneracyError
    and stores nothing."""
    xi = s._fields.get(f)
    if xi is None:
        xi = s._fields[f] = _build_hamiltonian_vf(f, s)
    return xi


def _build_hamiltonian_vf(f: Expr, s: SymplecticChart) -> VectorField:
    grads = s.gradient(f)
    n = s.chart.dim
    comps = []
    for i in range(n):
        comps.append(add(*[mul(rational(-1), s.inverse[i][j], grads[j])
                           for j in range(n)]))
    xi = VectorField(s.chart, comps)
    got = interior_product(xi, s.omega)
    for a, b in zip(got.coeffs, grads):
        ok, res = expr_equal(a, b, s.chart.sampler)
        if not ok:
            raise DegeneracyError(
                f"defining equation xi_f . omega = df fails (residual {res:.3e})")
    return xi


def poisson(f: Expr, g: Expr, s: SymplecticChart) -> Expr:
    """{f, g} = xi_f g."""
    return hamiltonian_vf(f, s).apply(g)


def poisson_ways(f: Expr, g: Expr, s: SymplecticChart) -> Dict[str, Expr]:
    """The bracket through three routes that must agree identically:
    -omega(xi_f, xi_g), the directional derivative xi_f g, and the pairing
    of xi_f with dg through the interior product."""
    xi_f = hamiltonian_vf(f, s)
    xi_g = hamiltonian_vf(g, s)
    dg = exterior_derivative(scalar_form(s.chart, g))
    return {
        "minus_omega": mul(rational(-1), s.omega(xi_f, xi_g)),
        "directional": xi_f.apply(g),
        "interior": interior_product(xi_f, dg).coeffs[0],
    }


def lie_derivative_omega(f: Expr, s: SymplecticChart) -> KForm:
    """L_{xi_f} omega, computed as d(xi_f . omega); the d(omega) term of the
    Cartan formula is dropped because closedness is validated at
    construction."""
    return exterior_derivative(interior_product(hamiltonian_vf(f, s), s.omega))
