"""Prequantization on the trivialized bundle P = M x Mp^c over a 2-dimensional
chart with omega = w dx^dy.

The frame bundle is identified with M x SL(2,R) through the global
symplectic frame F = (d/dx, w^-1 d/dy); a field lifts to it with the matrix
of its linearized flow in F (``MpcPrequant.linearization``), which for
w = 1 is the coordinate Jacobian.

The prequantization form is gamma = (1/(i hbar)) beta + (half the determinant
character's derivative applied to the trivial connection).  Vector fields on
P are restricted to the structured class

    base field  +  right-invariant part (A(m), tau(m))  +  left-invariant
    constant part (B, c)

where right-invariant means the fiber tangent exp(t alpha) . a generated by
left translations (these carry the lifted Hamiltonian flows) and
left-invariant means a . exp(t alpha) (these are the vertical generators).
Because the determinant character kills the adjoint twist, gamma evaluates on
a structured field as a function of the base alone:

    gamma(zeta)(m) = (1/(i hbar)) beta(base)(m) + tau(m) + c.

The class is closed under brackets; the suites check the bracket against
the flow commutator of ``gqw.flows``, whose sign a loop of RK4 flows in the
tests pins.

The membership test and the counterexample constructions return numbers;
the bounds that make verdicts of them live in suites.py.  A field carries
its bundle, so F and the membership test take the field alone.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction
from typing import Callable, List, NamedTuple, Sequence, Tuple

from .circle import (
    I_HBAR_INV, PrequantCircle, connection_lie_derivative, shifted_hamiltonian,
)
from .errors import (
    DegenerateParameterError, NotQuantomorphismError, UnsupportedFieldError,
)
from .expr import Expr, HBAR, IMAG, ZERO, add, call, diff, evalf, mul, power, rational, symbol
from .flows import complex_step
from .forms import ChartMap, VectorField, lie_bracket, pullback, zero_vf
from .mpc_group import (
    IDENTITY, Mat, MpcElement, MpElement, eta, exp_mpc, mat_exp, mat_mul, mat_sub_norm,
    mp_mul, mpc_inv, mpc_mul, mu_loop, random_algebra, random_mpc, random_traceless,
    rotation,
)
from .sample import DomainSampler, worst_of, worst_residual
from .symplectic import hamiltonian_vf

EMat = Tuple[Expr, Expr, Expr, Expr]  # 2x2 matrix of expressions, row-major

E_ZERO: EMat = (ZERO, ZERO, ZERO, ZERO)
M_ZERO: Mat = (0.0, 0.0, 0.0, 0.0)

FIBER_SYMBOLS = ("g11", "g12", "g21", "g22")


def emat_mul(a: EMat, b: EMat) -> EMat:
    return tuple(add(mul(a[i], b[j]), mul(a[i + 1], b[j + 2])) for i in (0, 2) for j in (0, 1))


def emat_commutator(a: EMat, b: EMat) -> EMat:
    return tuple(add(x, mul(rational(-1), y)) for x, y in zip(emat_mul(a, b), emat_mul(b, a)))


def emat_apply(v: VectorField, a: EMat) -> EMat:
    return tuple(v.apply(entry) for entry in a)


def imag_expr(c: complex) -> Expr:
    """Embed an imaginary float as an exact expression c = (Im c) * i."""
    if abs(c.real) > 1e-12:
        raise UnsupportedFieldError(f"u(1) coefficient {c} is not imaginary")
    return mul(rational(Fraction(c.imag)), IMAG)


class MpcPrequant:
    """Bundle data for P = M x Mp^c over (M, w dx^dy), where (x, y) are the
    chart's coordinates, trivialized by the frame F = (d/dx, w^-1 d/dy), with
    the potential beta of the circle bundle (which validated d(beta) = omega)."""

    def __init__(self, circle: PrequantCircle):
        if circle.chart.dim != 2:
            raise UnsupportedFieldError("the trivialized construction needs a 2-dimensional chart")
        self.circle = circle
        self.sympl = circle.sympl
        self.chart = circle.chart
        self.beta = circle.beta
        self.w = circle.sympl.omega.coeffs[0]

    def linearization(self, v: VectorField) -> EMat:
        """The matrix of v's linearized flow in the frame, F^-1 (Dv F - v(F))
        = [[v1_x, v1_y / w], [w v2_x, v2_y + v(w) / w]]; its trace
        div(w v) / w is 0 for a Hamiltonian field."""
        x, y = (symbol(c) for c in self.chart.coords)
        v1, v2 = v.components
        w, w_inv = self.w, power(self.w, -1)
        return (diff(v1, x), mul(diff(v1, y), w_inv), mul(w, diff(v2, x)),
                add(diff(v2, y), mul(v.apply(w), w_inv)))


class StructuredVF:
    """base + right-invariant (A(m), tau(m)) + left-invariant constant (B, c).
    Equality and hash leave ``bundle`` out."""

    __slots__ = ("bundle", "base", "a_r", "tau_r", "a_l", "tau_l")

    def __init__(self, bundle: MpcPrequant, base: VectorField, a_r: EMat = E_ZERO,
                 tau_r: Expr = ZERO, a_l: Mat = M_ZERO, tau_l: complex = 0j):
        tr = add(a_r[0], a_r[3])
        if not tr.is_zero():
            raise UnsupportedFieldError(
                f"right-invariant matrix coefficient has trace {tr}")
        if abs(a_l[0] + a_l[3]) > 1e-12:
            raise UnsupportedFieldError("left-invariant matrix part must be traceless")
        if abs(tau_l.real) > 1e-12:
            raise UnsupportedFieldError("left-invariant u(1) part must be imaginary")
        self.bundle = bundle
        self.base = base
        self.a_r = a_r
        self.tau_r = tau_r
        self.a_l = a_l
        self.tau_l = tau_l

    def _fields(self):
        return (self.base, self.a_r, self.tau_r, self.a_l, self.tau_l)

    def __eq__(self, other):
        return type(other) is StructuredVF and self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def gamma(self) -> Expr:
        """gamma(zeta) as a function on the base; the adjoint twist on the
        right-invariant part is invisible because the determinant character
        is a character."""
        return add(mul(I_HBAR_INV, self.bundle.beta(self.base)),
                   self.tau_r, imag_expr(self.tau_l))

    def is_zero(self) -> bool:
        return (self.base.is_zero() and all(c.is_zero() for c in self.a_r)
                and self.tau_r.is_zero()
                and all(v == 0 for v in self.a_l) and self.tau_l == 0)


def left_invariant(bundle: MpcPrequant, a_l: Mat, tau_l: complex) -> StructuredVF:
    """The vertical generator of the right action by exp(t (B, c))."""
    return StructuredVF(bundle, zero_vf(bundle.chart), a_l=a_l, tau_l=tau_l)


def frame_lift(f: Expr, bundle: MpcPrequant) -> StructuredVF:
    """Lift of the Hamiltonian flow to the frame bundle: the fiber part is
    right-invariant with matrix the linearization of the Hamiltonian field
    in the bundle's frame (a symplectic flow, hence traceless)."""
    xi = hamiltonian_vf(f, bundle.sympl)
    return StructuredVF(bundle, xi, a_r=bundle.linearization(xi))


def hat_lift(f: Expr, bundle: MpcPrequant) -> StructuredVF:
    """Horizontal lift to P: the frame lift plus the central coefficient
    solving (1/(i hbar)) beta(xi_f) + tau = 0."""
    z = frame_lift(f, bundle)
    tau = mul(rational(-1), I_HBAR_INV, bundle.beta(z.base))
    return StructuredVF(bundle, z.base, a_r=z.a_r, tau_r=tau)


def E_mpc(f: Expr, bundle: MpcPrequant) -> StructuredVF:
    """hat lift plus (1/(2 pi hbar)) f times the central vertical generator:
    the frame lift with central coefficient (i/hbar)(f + beta(xi_f))."""
    z = frame_lift(f, bundle)
    tau = mul(rational(-1), I_HBAR_INV, shifted_hamiltonian(f, bundle.circle))
    return StructuredVF(bundle, z.base, a_r=z.a_r, tau_r=tau)


def structured_bracket(z1: StructuredVF, z2: StructuredVF) -> StructuredVF:
    """Closed-form bracket on the structured class.

    Right-invariant parts: derivative terms along the bases plus minus the
    matrix commutator (fields generated by left translations bracket
    anti-homomorphically).  Left-invariant parts: plus the commutator.
    Mixed right/left parts commute; central coefficients just get
    differentiated.  All signs are pinned by the flow-commutator oracle.
    """
    base = lie_bracket(z1.base, z2.base)
    a_r = emat_apply(z1.base, z2.a_r)
    a_r = tuple(add(x, mul(rational(-1), y), mul(rational(-1), z))
                for x, y, z in zip(a_r, emat_apply(z2.base, z1.a_r),
                                   emat_commutator(z1.a_r, z2.a_r)))
    tau_r = add(z1.base.apply(z2.tau_r), mul(rational(-1), z2.base.apply(z1.tau_r)))
    a_l = tuple(x - y for x, y in zip(mat_mul(z1.a_l, z2.a_l), mat_mul(z2.a_l, z1.a_l)))
    return StructuredVF(z1.bundle, base, a_r=a_r, tau_r=tau_r, a_l=a_l, tau_l=0j)


def quantomorphism_membership(z: StructuredVF) -> Tuple[float, float, float]:
    """The residuals (connection, left_sp, frame) of the two defining
    conditions on the structured class, on the sampler of ``z.bundle``:

    (1) the flow preserves gamma: (1/(i hbar)) L_base beta + d(tau_r) = 0;
    (2) the flow covers the lifted base flow: the left-invariant sp-part
        vanishes and the right-invariant matrix equals the linearization of
        the base field in the bundle's frame.
    """
    sampler = z.bundle.chart.sampler
    # the constant left-invariant u(1) part drops out of L_zeta gamma
    la = connection_lie_derivative(z.bundle.circle, z.base, z.tau_r)
    return (worst_residual(((c, ZERO) for c in la.coeffs), sampler),
            math.sqrt(math.fsum(v * v for v in z.a_l)),
            worst_residual(zip(z.a_r, z.bundle.linearization(z.base)), sampler))


def F_mpc(z: StructuredVF, *, check: bool = True) -> Expr:
    """-(1/(i hbar)) F(zeta) = gamma(zeta); inverse of E on the members,
    which ``check`` requires within the sampler tolerance of ``z.bundle``."""
    if check:
        residuals = quantomorphism_membership(z)
        if not all(r <= z.bundle.chart.sampler.tolerance for r in residuals):
            raise NotQuantomorphismError(
                "field is not an infinitesimal structure-preserving symmetry",
                worst_of(residuals))
    return mul(rational(-1), IMAG, HBAR, z.gamma())


# ---------------------------------------------------------------------------
# numeric flow oracle on the product coordinates (p, q, g11, g12, g21, g22, theta)


def structured_rhs(z: StructuredVF) -> Callable:
    """Holomorphic velocity field in covering coordinates: the base moves by
    the base field, the matrix part by A(m) g + g B, the fiber angle by -i
    times the (imaginary) u(1) coefficients.  Sheet bookkeeping is locally
    constant and does not enter the flow."""
    env_at = z.bundle.chart.sampler.env

    def fn(x: Sequence[complex]) -> List[complex]:
        env = env_at(x)
        vp = evalf(z.base.components[0], env)
        vq = evalf(z.base.components[1], env)
        a = tuple(evalf(c, env) for c in z.a_r)
        if max(abs(v.imag) for v in a) > 1e-9:
            raise UnsupportedFieldError("right-invariant matrix part must be real")
        g = x[2:6]
        ag = mat_mul(a, g)
        gb = mat_mul(g, z.a_l)
        tau = evalf(z.tau_r, env) + z.tau_l
        return [vp, vq, ag[0] + gb[0], ag[1] + gb[1], ag[2] + gb[2], ag[3] + gb[3],
                -1j * tau]

    return fn


def sample_fiber_points(bundle: MpcPrequant, n: int, seed_tag: str = "fiber"):
    """Covering-coordinate sample points (p, q, g, theta) with g in SL(2,R):
    the base points of the ``{seed}:{seed_tag}`` stream, and (g, theta)
    from the stream's own ``{seed}:{seed_tag}:fiber`` rng."""
    rng = bundle.chart.sampler.rng(f"{seed_tag}:fiber")
    base_pts = bundle.chart.sampler.points(n, seed_tag=seed_tag)
    out = []
    for pt in base_pts:
        g = mat_exp(random_traceless(rng, 0.8))
        theta = rng.uniform(-2.5, 2.5)
        out.append([pt[bundle.chart.coords[0]], pt[bundle.chart.coords[1]],
                    g[0], g[1], g[2], g[3], theta])
    return out


# ---------------------------------------------------------------------------
# gamma contract checks (numeric side)


def gamma_numeric(bundle: MpcPrequant, x: Sequence[float],
                  v: Sequence[float]) -> complex:
    """gamma evaluated on a coordinate tangent at a covering-coordinate point:
    (1/(i hbar)) beta(v_base) + i v_theta.  The matrix directions are
    annihilated because the determinant character only sees the phase."""
    sampler = bundle.chart.sampler
    env = sampler.env(x)
    bcoeffs = [evalf(c, env) for c in bundle.beta.coeffs]
    beta_v = bcoeffs[0] * v[0] + bcoeffs[1] * v[1]
    return beta_v / (1j * sampler.hbar) + 1j * v[6]


def pushforward_residual(bundle: MpcPrequant, fmap: Callable, x: Sequence[float]) -> float:
    """max over 4 random unit tangents v of |gamma(K_* v) - gamma(v)| / max(1, 1e-7 |gamma(v)|):
    against 1e-6, absolute while |gamma(v)| <= 1e7 and relative at 1e-13 above, where gamma's
    own rounding is about 1e-15 relative.  K(x) and K_* v come from one complex step
    (``flows.complex_step``), so ``fmap`` must be holomorphic."""
    rng = bundle.chart.sampler.rng("push")

    def gap() -> float:
        v = [rng.uniform(-1, 1) for _ in range(7)]
        norm = math.sqrt(math.fsum(c * c for c in v))
        v = [c / norm for c in v]
        want = gamma_numeric(bundle, x, v)
        got = gamma_numeric(bundle, *complex_step(fmap, x, v))
        return abs(got - want) / max(1.0, 1e-7 * abs(want))

    return worst_of(gap() for _ in range(4))


def right_action_map(b: MpcElement) -> Callable:
    """Right translation in covering coordinates, with the cocycle sign frozen
    (it is locally constant, hence invisible to derivatives)."""
    shift = cmath.phase(b.phase)

    def fn(x: Sequence[float]) -> List[float]:
        g = mat_mul((x[2], x[3], x[4], x[5]), b.g)
        return [x[0], x[1], g[0], g[1], g[2], g[3], x[6] + shift]

    return fn


def eta_ad_residual(n: int, rng: random.Random) -> float:
    """|eta(a exp(alpha) a^{-1}) - e^{2 tau}| at n pairs drawn from ``rng``:
    the determinant character is a character, so conjugation is invisible to
    it and to half its derivative, (1/2) d/dt arg eta(exp(t alpha)) = Im tau."""

    def gap() -> float:
        alg = random_algebra(rng)
        g = rng.uniform(-0.9, 0.9)
        a = MpcElement(
            mat_mul(rotation(rng.uniform(-2, 2)),
                    (math.exp(g), 0.0, rng.uniform(-0.5, 0.5), math.exp(-g))),
            cmath.exp(1j * rng.uniform(-3, 3)))
        conj = mpc_mul(mpc_mul(a, exp_mpc(alg, 1.0)), mpc_inv(a))
        return abs(eta(conj) - cmath.exp(2 * alg.tau))

    return worst_of(gap() for _ in range(n))


# ---------------------------------------------------------------------------
# the operator representation on centrally-equivariant sections


def _fiber_symbols(bundle: MpcPrequant) -> Tuple[str, ...]:
    """FIBER_SYMBOLS, the names of a section encoding's fiber entries, once
    no coordinate of the bundle's chart shares one."""
    for c in bundle.chart.coords:
        if c in FIBER_SYMBOLS:
            raise UnsupportedFieldError(
                f"coordinate '{c}' clashes with the fiber entries {', '.join(FIBER_SYMBOLS)} "
                f"of the section encoding: rename it")
    return FIBER_SYMBOLS


def section_sampler(bundle: MpcPrequant) -> DomainSampler:
    """The context a section encoding is written and decided in: the chart's
    sampler over its coordinates and then the fiber entries, which no
    coordinate may share, each drawn from [-1, 1]."""
    return bundle.chart.sampler.extended(dict.fromkeys(_fiber_symbols(bundle), (-1.0, 1.0)))


def delta_operator(f: Expr, u: Expr, bundle: MpcPrequant) -> Expr:
    """delta_f on a section encoded by u(p, q, g11, g12, g21, g22), where the
    equivariant function is s(m, (g, lambda)) = lambda^{-1} u(m, g) and the
    central circle acts on the fiber by scalars.

    The horizontal lift acts by base derivatives, the linear fiber field
    (A(m) g)_{ij} d/dg_{ij}, and -tau(m) = (1/(i hbar)) beta(xi_f) from the
    central part (the vertical generator acts on equivariant functions as
    -2 pi i); then (1/(i hbar)) f is added.  The two multiplications of u
    are one: delta_f u = xi_f u + sum (A g)_{ij} du/dg_{ij}
    + (1/(i hbar)) (f + beta(xi_f)) u, taken by a single sum.
    """
    z = frame_lift(f, bundle)
    gmat = tuple(symbol(s) for s in _fiber_symbols(bundle))
    return add(z.base.apply(u),
               *[mul(coeff, diff(u, gsym)) for coeff, gsym in zip(emat_mul(z.a_r, gmat), gmat)],
               mul(I_HBAR_INV, shifted_hamiltonian(f, bundle.circle), u))


# ---------------------------------------------------------------------------
# the two counterexample constructions: a bundle map in the trivialization is
# a chart map downstairs plus a closed-form fiber map


def fiber_twist(a: MpcElement) -> MpcElement:
    """The fiber map of the first counterexample: [h, e^{2 pi i t}] goes to
    [h mu(2t), e^{2 pi i t}] for the period-1 loop mu in the double cover."""
    t = cmath.phase(a.phase) / (2 * math.pi)
    prod = mp_mul(MpElement(a.g, 0), mu_loop(2 * t))
    sign = -1.0 if prod.sheet else 1.0
    return MpcElement(prod.g, a.phase * sign)


def _twist_covering_map(x: Sequence[float]) -> List[float]:
    # holomorphic representative in covering coordinates: theta is preserved
    # and the matrix picks up the projected loop factor R(4 theta)
    c, s = cmath.cos(4 * x[6]), cmath.sin(4 * x[6])
    g = mat_mul((x[2], x[3], x[4], x[5]), (c, -s, s, c))
    return [x[0], x[1], g[0], g[1], g[2], g[3], x[6]]


def _rotation_covering_map(c: float, s: float) -> Callable:
    # K(m, a) = (T(m), a): (p, q) turns by (cos, sin) = (c, s), (g, theta) stays
    return lambda x: [c * x[0] - s * x[1], s * x[0] + c * x[1], *x[2:7]]


class TwistReport(NamedTuple):
    gamma_residual: float
    fiber_gap: float
    eta_residual: float


def example_fiberwise_twist(bundle: MpcPrequant) -> TwistReport:
    """K(m, a) = (m, fiber_twist(a)): the worst gamma residual at 8 points,
    the frame gap between the images of two points of one Sigma-fiber, and
    the change of the determinant character."""
    pts = sample_fiber_points(bundle, 8, seed_tag="twist")
    worst = worst_of(pushforward_residual(bundle, _twist_covering_map, x) for x in pts)
    # two points of one Sigma-fiber: t = 0 and t = 1/8
    g0 = fiber_twist(MpcElement(IDENTITY, 1.0)).g
    g1 = fiber_twist(MpcElement(IDENTITY, cmath.exp(2j * math.pi / 8))).g
    gap = mat_sub_norm(g0, g1)
    rng = bundle.chart.sampler.rng("twist-eta")
    eta_worst = worst_of(abs(eta(fiber_twist(a)) - eta(a))
                         for a in (random_mpc(rng, 0.8, 3) for _ in range(20)))
    return TwistReport(gamma_residual=worst, fiber_gap=gap, eta_residual=eta_worst)


class RotationReport(NamedTuple):
    gamma_preserved: bool                # the pullbacks of beta and omega are exact
    equivariance_residual: float
    fiber_difference: float


def example_base_rotation(bundle: MpcPrequant, angle: Expr) -> RotationReport:
    """K(m, a) = (T(m), a) for the base rotation T by ``angle``: whether K
    preserves gamma symbolically, the worst |K(x b) - K(x) b| at 20 fiber
    points, and the gap between the induced frame map (the identity) and the
    lift of T."""
    angle_num = evalf(angle, bundle.chart.sampler.env(())).real
    if abs(math.remainder(angle_num, 2 * math.pi)) < 1e-9:
        raise DegenerateParameterError(
            f"rotation angle {angle_num} is an integer multiple of 2 pi")
    p, q = (symbol(c) for c in bundle.chart.coords)
    c, s = call("cos", angle), call("sin", angle)
    base = ChartMap(bundle.chart, bundle.chart, [
        add(mul(c, p), mul(rational(-1), s, q)),
        add(mul(s, p), mul(c, q)),
    ])
    gamma_sym = (pullback(base, bundle.beta) == bundle.beta
                 and pullback(base, bundle.sympl.omega) == bundle.sympl.omega)

    k = _rotation_covering_map(math.cos(angle_num), math.sin(angle_num))
    rng = bundle.chart.sampler.rng("rotation-equivariance")
    gaps = []
    for x in sample_fiber_points(bundle, 20, seed_tag="rotation"):
        act = right_action_map(random_mpc(rng, 0.8, 3))
        gaps.extend(abs(a - b) for a, b in zip(k(act(x)), act(k(x))))
    equiv = worst_of(gaps)

    # the induced frame map keeps g, while the lift of T rotates the frame
    return RotationReport(gamma_preserved=gamma_sym, equivariance_residual=equiv,
                          fiber_difference=mat_sub_norm(IDENTITY, rotation(angle_num)))
