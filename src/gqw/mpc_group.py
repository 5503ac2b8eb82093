"""Concrete arithmetic for Sp(R^2) = SL(2,R), its connected double cover,
and the circle extension Mp^c = (double cover) x_{Z_2} U(1).

The double cover is modeled by an explicit Z_2 cocycle: for g = [[a,b],[c,d]]
acting on the upper half plane, the factor of automorphy j(g, tau) = c tau + d
never vanishes, and the wrapping defect of its principal argument

    kappa(g1, g2) = (w(g1, g2 . i) + w(g2, i) - w(g1 g2, i)) / (2 pi)

is an integer in {-1, 0, 1} whose parity is a group 2-cocycle.  One-parameter
subgroups are closed form: the Cayley-Hamilton exponential, and a sheet rule
that counts the half-turns of c i + d.  Path lifting, an independent
oracle for both, follows a left-translated one-parameter path g0 exp(s A)
through the points g0 exp(A / n)^k and unwraps the argument of c i + d
there without calling kappa.  Since |d arg(c i + d) / ds| <= |A|_2, the step
count n = lift_steps(A) = max(1, ceil(2 |A|_2 / pi)) keeps each step's turn
within pi/2, so the unwrapping is certified; lift_path refuses fewer steps.

Elements of the circle extension are kept in canonical form (sp matrix,
unit phase) with the sheet normalized to 0; multiplication picks up a sign
(-1)^kappa.  Matrices are plain 4-tuples (a, b, c, d) in row-major order:
the group suites run hundreds of thousands of these products, and small
tuples keep that fast.
"""

from __future__ import annotations

import cmath
import math
import random
from typing import Tuple

from .errors import NumericError

Mat = Tuple[float, float, float, float]  # ((a, b), (c, d)) flattened

IDENTITY: Mat = (1.0, 0.0, 0.0, 1.0)


def mat_mul(x: Mat, y: Mat) -> Mat:
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def mat_det(x: Mat) -> float:
    return x[0] * x[3] - x[1] * x[2]


def mat_inv(x: Mat) -> Mat:
    det = mat_det(x)
    return (x[3] / det, -x[1] / det, -x[2] / det, x[0] / det)


def mat_sub_norm(x: Mat, y: Mat) -> float:
    return math.sqrt(sum((u - v) ** 2 for u, v in zip(x, y)))


def normalize_det(x: Mat) -> Mat:
    det = mat_det(x)
    if det <= 0:
        raise NumericError(f"matrix has non-positive determinant {det}")
    s = math.sqrt(det)
    return (x[0] / s, x[1] / s, x[2] / s, x[3] / s)


def rotation(theta: float) -> Mat:
    c, s = math.cos(theta), math.sin(theta)
    return (c, -s, s, c)


def mat_exp(x: Mat) -> Mat:
    """Closed-form 2x2 exponential (Cayley-Hamilton): with m = tr/2 and
    r = sqrt(-det(x - m I)), exp(x) = e^m (cosh r I + (sinh r / r)(x - m I)).
    r is real for hyperbolic and imaginary for elliptic x - m I; both
    coefficients are real either way."""
    m = 0.5 * (x[0] + x[3])
    a, b, c, d = x[0] - m, x[1], x[2], x[3] - m
    r = cmath.sqrt(a * a + b * c)
    ch = cmath.cosh(r).real
    sh = (cmath.sinh(r) / r).real if r else 1.0
    e = math.exp(m)
    return (e * (ch + sh * a), e * sh * b, e * sh * c, e * (ch + sh * d))


# ---------------------------------------------------------------------------
# the cocycle


def _arg_branch(z: complex) -> float:
    """Principal argument on the branch (-pi, pi]."""
    w = cmath.phase(z)
    if w <= -math.pi:
        w += 2 * math.pi
    return w


def automorphy_angle(g: Mat, tau: complex) -> float:
    """w(g, tau): argument of the factor of automorphy c tau + d."""
    return _arg_branch(g[2] * tau + g[3])


def kappa(g1: Mat, g2: Mat) -> int:
    """Angle-wrapping defect of the automorphy factor at i; in {-1, 0, 1}.

    One pass over w(g1, g2 . i) + w(g2, i) - w(g1 g2, i), doing the float
    operations of automorphy_angle, the Mobius image (a i + b) / (c i + d)
    and mat_mul in the same order (only the bottom row of g1 g2 is formed),
    so that ties on the branch cut round as they would through those calls."""
    a1, b1, c1, d1 = g1
    a2, b2, c2, d2 = g2
    z2 = c2 * 1j + d2
    w1 = cmath.phase(c1 * ((a2 * 1j + b2) / z2) + d1)
    if w1 <= -math.pi:
        w1 += 2 * math.pi
    w2 = cmath.phase(z2)
    if w2 <= -math.pi:
        w2 += 2 * math.pi
    w3 = cmath.phase((c1 * a2 + d1 * c2) * 1j + (c1 * b2 + d1 * d2))
    if w3 <= -math.pi:
        w3 += 2 * math.pi
    return round((w1 + w2 - w3) / (2 * math.pi))


# ---------------------------------------------------------------------------
# the double cover


class MpElement:
    __slots__ = ("g", "sheet")

    def __init__(self, g: Mat, sheet: int):
        self.g = normalize_det(g)
        self.sheet = sheet & 1

    def __eq__(self, other):
        return (type(other) is MpElement
                and self.g == other.g and self.sheet == other.sheet)

    def __hash__(self):
        return hash((self.g, self.sheet))


def mp_identity() -> MpElement:
    return MpElement(IDENTITY, 0)


def mp_mul(x: MpElement, y: MpElement) -> MpElement:
    return MpElement(mat_mul(x.g, y.g), x.sheet ^ y.sheet ^ (kappa(x.g, y.g) & 1))


def mp_inv(x: MpElement) -> MpElement:
    gi = mat_inv(x.g)
    return MpElement(gi, x.sheet ^ (kappa(x.g, gi) & 1))


# ---------------------------------------------------------------------------
# the circle extension, in canonical form (sheet normalized to 0)


class MpcElement:
    __slots__ = ("g", "phase")

    def __init__(self, g: Mat, phase: complex):
        self.g = normalize_det(g)
        r = abs(phase)
        if r == 0:
            raise NumericError("zero phase in a circle-extension element")
        self.phase = phase / r

    def __eq__(self, other):
        return (type(other) is MpcElement
                and self.g == other.g and self.phase == other.phase)

    def __hash__(self):
        return hash((self.g, self.phase))


def mpc_identity() -> MpcElement:
    return MpcElement(IDENTITY, 1.0 + 0.0j)


def mpc_mul(x: MpcElement, y: MpcElement) -> MpcElement:
    sign = -1.0 if (kappa(x.g, y.g) & 1) else 1.0
    return MpcElement(mat_mul(x.g, y.g), x.phase * y.phase * sign)


def mpc_inv(x: MpcElement) -> MpcElement:
    gi = mat_inv(x.g)
    sign = -1.0 if (kappa(x.g, gi) & 1) else 1.0
    return MpcElement(gi, sign / x.phase)


def sigma(x: MpcElement) -> Mat:
    """Projection onto the symplectic group."""
    return x.g


def eta(x: MpcElement) -> complex:
    """Determinant character: squares the phase; kernel = the double cover."""
    return x.phase * x.phase


def mpc_distance(x: MpcElement, y: MpcElement) -> float:
    return mat_sub_norm(x.g, y.g) + abs(x.phase - y.phase)


def central(phase: complex) -> MpcElement:
    return MpcElement(IDENTITY, phase)


# ---------------------------------------------------------------------------
# Lie algebra and one-parameter subgroups


class MpcAlgebra:
    """sp(R^2) + u(1) split: A is a traceless real 2x2 matrix, tau is the
    imaginary u(1) component (the value the connection form assigns to the
    generated vertical field)."""

    __slots__ = ("A", "tau")

    def __init__(self, A: Mat, tau: complex):
        if abs(A[0] + A[3]) > 1e-12:
            raise NumericError(f"algebra matrix has trace {A[0] + A[3]}")
        if abs(tau.real) > 1e-12:
            raise NumericError(f"u(1) component {tau} is not imaginary")
        self.A = A
        self.tau = tau

    def __eq__(self, other):
        return type(other) is MpcAlgebra and self.A == other.A and self.tau == other.tau

    def __hash__(self):
        return hash((self.A, self.tau))


ROTATION_GENERATOR: Mat = (0.0, -1.0, 1.0, 0.0)


def lift_steps(A: Mat) -> int:
    """Steps that certify lift_path(A, steps): max(1, ceil(2 |A|_2 / pi)).

    The bottom row r of g0 exp(s A) solves r' = r A, so z = c i + d turns at
    rate |d arg z / ds| <= |z'| / |z| <= |A|_2; with this many steps each
    step turns z by at most pi/2.  For a 2x2 matrix the spectral norm is
    (hypot(a + d, b - c) + hypot(a - d, b + c)) / 2."""
    a, b, c, d = A
    norm = 0.5 * (math.hypot(a + d, b - c) + math.hypot(a - d, b + c))
    if not math.isfinite(norm):
        raise NumericError(f"cannot lift along a matrix of norm {norm}")
    return max(1, math.ceil(2 * norm / math.pi))


def lift_path(A: Mat, steps: int, start: MpElement | None = None) -> MpElement:
    """Continuous lift of the path s -> g0 exp(s A), s in [0, 1], from
    ``start`` (over g0; identity by default), found without kappa or
    exp_sheet.  The path is sampled at s = k / steps as g_k = g_{k-1} S with
    S = exp(A / steps), since exp(A) = exp(A / steps)^steps, and its last
    point is exactly g0 exp(A): on the branch cut the sheet follows the
    endpoint's rounding.  The argument of the automorphy factor z = c i + d
    is unwrapped over those points; the sheet is the parity of the turns by
    which it leaves the principal branch.  Unwrapping is right while each
    step turns z by less than pi, which ``lift_steps(A)`` steps certify:
    fewer raise NumericError rather than return a sheet that may be wrong."""
    needed = lift_steps(A)
    if steps < needed:
        raise NumericError(f"lifting along a matrix of this norm needs at least "
                           f"{needed} steps, not {steps}")
    current = start if start is not None else mp_identity()
    g0 = g = current.g
    wound = automorphy_angle(g, 1j) + 2 * math.pi * current.sheet
    z = g[2] * 1j + g[3]
    step = mat_exp(tuple(v / steps for v in A))
    for k in range(1, steps + 1):
        g = mat_mul(g, step) if k < steps else mat_mul(g0, mat_exp(A))
        nz = g[2] * 1j + g[3]
        wound += cmath.phase(nz / z)
        z = nz
    return MpElement(g, round((wound - automorphy_angle(g, 1j)) / (2 * math.pi)) & 1)


def exp_sheet(A: Mat, t: float, g: Mat) -> int:
    """Sheet of g = exp(t A), A traceless, lifted along s -> exp(s t A).

    Only elliptic A (det A > 0) wind: c i + d then turns through the signed
    angle psi = t sqrt(det A) sign(A_c) and is real exactly at multiples of
    pi, so its continuous argument lies in the half-turn [k pi, (k + 1) pi]
    that holds psi.  The midpoint of that half-turn is within pi/2 of it,
    which fixes the whole turns off the principal argument of g's own factor;
    at a tie (psi an odd multiple of pi) the sheet follows g's rounding, as
    kappa does.
    """
    det = mat_det(A)
    if det <= 0:
        return 0
    psi = t * math.sqrt(det) * (1.0 if A[2] > 0 else -1.0)
    mid = (math.floor(psi / math.pi) + 0.5) * math.pi
    return round((mid - automorphy_angle(g, 1j)) / (2 * math.pi)) & 1


def exp_mpc(alpha: MpcAlgebra, t: float) -> MpcElement:
    """One-parameter subgroup exp(t alpha): the matrix exponential, with the
    central rotation e^{t tau} times the sign of the sheet of its lift."""
    g = mat_exp(tuple(t * v for v in alpha.A))
    sign = -1.0 if exp_sheet(alpha.A, t, g) else 1.0
    return MpcElement(g, cmath.exp(t * alpha.tau) * sign)


def mu_loop(t: float) -> MpElement:
    """A smooth nonconstant loop in the double cover with period exactly 1:
    the continuous lift of the rotation path R(4 pi s), s in [0, t mod 1],
    starting on sheet 0.  One full period winds through the rotation group
    twice, which closes up in the double cover."""
    theta = 4 * math.pi * (t % 1.0)
    g = rotation(theta)
    return MpElement(g, exp_sheet(ROTATION_GENERATOR, theta, g))


# ---------------------------------------------------------------------------
# seeded random elements (each draws its numbers in the order listed)


def random_traceless(rng: random.Random, r: float) -> Mat:
    """Traceless matrix (a, b, c, -a) with a, b, c uniform in [-r, r]."""
    a = rng.uniform(-r, r)
    return (a, rng.uniform(-r, r), rng.uniform(-r, r), -a)


def random_algebra(rng: random.Random) -> MpcAlgebra:
    """random_traceless(rng, 0.8), then tau = i u with u uniform in [-1, 1]."""
    return MpcAlgebra(random_traceless(rng, 0.8), 1j * rng.uniform(-1, 1))


def random_mpc(rng: random.Random, r: float, phase: float) -> MpcElement:
    """exp(random_traceless(rng, r)), then the phase e^{i u} with u uniform
    in [-phase, phase]."""
    return MpcElement(mat_exp(random_traceless(rng, r)),
                      cmath.exp(1j * rng.uniform(-phase, phase)))
