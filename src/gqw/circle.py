"""Prequantization on the trivialized circle bundle Y = M x U(1).

The connection form is gamma = (1/(i*hbar)) beta + (fiber Maurer-Cartan
form), where beta is a global potential with d(beta) = omega.  The fiber
coordinate is t with lambda = e^{2 pi i t}; the vertical generator is
normalized so that gamma(vertical) = 2 pi i.

Lifted fields are restricted to base + c(m) * vertical with c a function of
the base only: this class contains every connection-preserving field and is
closed under brackets, which keeps all computations exact.

A section of the associated line bundle is an Expr: its equivariant
function u(m), with s(m, t) = e^{-2 pi i t} u(m); the vertical generator
acts on it as multiplication by -2 pi i.
"""

from __future__ import annotations

from .errors import NotQuantomorphismError
from .expr import Expr, HBAR, IMAG, PI, ZERO, add, mul, power, rational
from .flows import RHS, components_rhs
from .forms import (
    KForm, VectorField, exterior_derivative, lie_bracket, lie_derivative, scalar_form,
)
from .sample import expr_equal, worst_residual
from .symplectic import SymplecticChart, hamiltonian_vf

TWO_PI_I = mul(rational(2), PI, IMAG)
I_HBAR_INV = power(mul(IMAG, HBAR), -1)          # 1/(i*hbar) = -i/hbar
TWO_PI_HBAR_INV = power(mul(rational(2), PI, HBAR), -1)


class PrequantCircle:
    """Bundle data: a symplectic chart plus a potential with d(beta) = omega."""

    def __init__(self, sympl: SymplecticChart, beta: KForm):
        if beta.degree != 1 or beta.chart.coords != sympl.chart.coords:
            raise ValueError("beta must be a 1-form on the symplectic chart")
        self.sympl = sympl
        self.chart = sympl.chart
        self.beta = beta
        for a, b in zip(exterior_derivative(beta).coeffs, sympl.omega.coeffs):
            ok, res = expr_equal(a, b, self.chart.sampler)
            if not ok:
                raise NotQuantomorphismError("d(beta) != omega for the supplied potential", res)


class CircleLiftedVF:
    """base + c(m) * vertical, with gamma(zeta) = (1/(i hbar)) beta(base) + 2 pi i c.
    Equality and hash leave ``bundle`` out."""

    __slots__ = ("bundle", "base", "fiber")

    def __init__(self, bundle: PrequantCircle, base: VectorField, fiber: Expr):
        self.bundle = bundle
        self.base = base
        self.fiber = fiber

    def __eq__(self, other):
        return (type(other) is CircleLiftedVF
                and self.base == other.base and self.fiber == other.fiber)

    def __hash__(self):
        return hash((self.base, self.fiber))

    def __repr__(self):
        return f"{self.base!r} + ({self.fiber!r}) * vertical"

    def gamma(self) -> Expr:
        return add(mul(I_HBAR_INV, self.bundle.beta(self.base)),
                   mul(TWO_PI_I, self.fiber))

    def is_zero(self) -> bool:
        return self.base.is_zero() and self.fiber.is_zero()


def horizontal_lift(xi: VectorField, y: PrequantCircle) -> CircleLiftedVF:
    """The lift with gamma = 0: the fiber coefficient solves
    (1/(i hbar)) beta(xi) + 2 pi i c = 0, i.e. c = beta(xi) / (2 pi hbar)."""
    c = mul(TWO_PI_HBAR_INV, y.beta(xi))
    return CircleLiftedVF(y, xi, c)


def lifted_rhs(z: CircleLiftedVF) -> RHS:
    """Numeric right-hand side of a lifted field in the coordinates (m, t)
    of Y: the base components, then the fiber coefficient."""
    return components_rhs(z.bundle.chart, z.base.components + (z.fiber,))


def shifted_hamiltonian(f: Expr, y: PrequantCircle) -> Expr:
    """f + beta(xi_f): the function of the base that E's central part and
    the operators r(f) and delta_f are built on."""
    return add(y.beta(hamiltonian_vf(f, y.sympl)), f)


def E_circle(f: Expr, y: PrequantCircle) -> CircleLiftedVF:
    """Horizontal lift of the Hamiltonian field plus (1/(2 pi hbar)) f * vertical:
    the fiber coefficient is (f + beta(xi_f)) / (2 pi hbar)."""
    return CircleLiftedVF(y, hamiltonian_vf(f, y.sympl),
                          mul(TWO_PI_HBAR_INV, shifted_hamiltonian(f, y)))


def bracket_lifted(z1: CircleLiftedVF, z2: CircleLiftedVF) -> CircleLiftedVF:
    """Bracket on the restricted class: fiber coefficients depend on the base
    only, so vertical parts commute and only get differentiated."""
    base = lie_bracket(z1.base, z2.base)
    fiber = add(z1.base.apply(z2.fiber), mul(rational(-1), z2.base.apply(z1.fiber)))
    return CircleLiftedVF(z1.bundle, base, fiber)


def connection_lie_derivative(y: PrequantCircle, base: VectorField,
                              central: Expr) -> KForm:
    """L_zeta gamma as a 1-form on the base, for a field zeta over ``base``
    with gamma(zeta) = (1/(i hbar)) beta(base) + central, central a function
    of the base: (1/(i hbar)) L_base beta + d(central).  The fiber directions
    contribute nothing because gamma(zeta) is a function of the base alone."""
    lb = lie_derivative(base, y.beta).scale(I_HBAR_INV)
    return lb.plus(exterior_derivative(scalar_form(y.chart, central)))


def gamma_lie_derivative(z: CircleLiftedVF) -> KForm:
    """L_zeta gamma; the central part of gamma(zeta) is 2 pi i c."""
    return connection_lie_derivative(z.bundle, z.base, mul(TWO_PI_I, z.fiber))


def quantomorphism_residual(z: CircleLiftedVF) -> float:
    return worst_residual(((c, ZERO) for c in gamma_lie_derivative(z).coeffs),
                          z.bundle.chart.sampler)


def F_circle(z: CircleLiftedVF) -> Expr:
    """Inverse of E on connection-preserving fields:
    -(1/(i hbar)) F(zeta) = gamma(zeta), so F = -(i hbar) gamma(zeta); the
    field must preserve gamma within its bundle's sampler tolerance."""
    res = quantomorphism_residual(z)
    if res > z.bundle.chart.sampler.tolerance:
        raise NotQuantomorphismError("the field does not preserve the connection form", res)
    return mul(rational(-1), IMAG, HBAR, z.gamma())


# ---------------------------------------------------------------------------
# sections of the associated line bundle and the operator representation


def connection_nabla(xi: VectorField, u: Expr, y: PrequantCircle) -> Expr:
    """Covariant derivative through the horizontal lift acting on the
    equivariant function: xi u + (1/(i hbar)) beta(xi) u.

    (The vertical part of the lift acts as multiplication by -2 pi i, and
    the lift's fiber coefficient is beta(xi)/(2 pi hbar).)
    """
    return add(xi.apply(u), mul(I_HBAR_INV, y.beta(xi), u))


def ks_operator(f: Expr, u: Expr, y: PrequantCircle) -> Expr:
    """r(f) u = (i hbar nabla_{xi_f} + f) u = i hbar xi_f u + (f + beta(xi_f)) u:
    the i hbar of the operator cancels the 1/(i hbar) of the connection, so the
    section is multiplied once, by ``shifted_hamiltonian``."""
    xi = hamiltonian_vf(f, y.sympl)
    return add(mul(IMAG, HBAR, xi.apply(u)), mul(shifted_hamiltonian(f, y), u))


def vertical_action(u: Expr) -> Expr:
    """Action of the vertical generator on an equivariant function:
    multiplication by -2 pi i."""
    return mul(rational(-1), TWO_PI_I, u)
