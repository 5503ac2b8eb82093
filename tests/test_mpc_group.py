"""Double cover and circle-extension arithmetic: the cocycle, the group laws,
one-parameter subgroups, and the periodic loop used by the counterexamples."""

import cmath
import math
import random

import pytest
from oracles import kappa_reference, lift_path_pointwise

from gqw import mpc_group
from gqw.errors import NumericError
from gqw.mpc_group import (
    IDENTITY, ROTATION_GENERATOR, MpcAlgebra, MpcElement, MpElement, central,
    eta, exp_mpc, exp_sheet, kappa, lift_path, lift_steps, mat_exp, mat_mul,
    mat_sub_norm, mp_identity, mp_inv, mp_mul, mpc_distance, mpc_identity,
    mpc_inv, mpc_mul, mu_loop, random_traceless, rotation, sigma,
)


def random_sp(rng):
    # exp of a random traceless matrix; covers elliptic/hyperbolic/parabolic
    a = rng.uniform(-1.2, 1.2)
    b = rng.uniform(-1.2, 1.2)
    c = rng.uniform(-1.2, 1.2)
    return mat_exp((a, b, c, -a))


def random_mpc(rng):
    return MpcElement(random_sp(rng), cmath.exp(1j * rng.uniform(-math.pi, math.pi)))


# ---------------------------------------------------------------------------
# the closed-form exponential


def test_mat_exp_rotation_generator_is_rotation():
    for theta in (0.3, -2.0, math.pi, 7.5):
        x = tuple(theta * v for v in ROTATION_GENERATOR)
        assert mat_sub_norm(mat_exp(x), rotation(theta)) < 1e-12


def test_mat_exp_diagonal():
    for a in (0.0, 0.7, -3.0):
        e, f, g, h = mat_exp((a, 0.0, 0.0, -a))
        assert abs(e / math.exp(a) - 1) < 1e-13 and abs(h / math.exp(-a) - 1) < 1e-13
        assert f == 0.0 and g == 0.0


def test_mat_exp_nilpotent_is_exact():
    # r == 0: exp(N) = I + N
    assert mat_exp((0.0, 1.0, 0.0, 0.0)) == (1.0, 1.0, 0.0, 1.0)


def test_mat_exp_trace_part_scales():
    # exp(m I + X) = e^m exp(X), for nilpotent and elliptic X
    e2 = math.exp(2.0)
    assert mat_sub_norm(mat_exp((2.0, 3.0, 0.0, 2.0)), (e2, 3 * e2, 0.0, e2)) < 1e-12
    want = tuple(math.exp(-0.5) * v for v in rotation(1.2))
    assert mat_sub_norm(mat_exp((-0.5, -1.2, 1.2, -0.5)), want) < 1e-12


# ---------------------------------------------------------------------------
# kappa


def test_kappa_identity_normalization():
    rng = random.Random("kappa-id")
    for _ in range(50):
        g = random_sp(rng)
        assert kappa(IDENTITY, g) == 0
        assert kappa(g, IDENTITY) == 0


def test_kappa_rotation_worked_example():
    # w-values: 2pi/3 + 2pi/3 - (-2pi/3) = 2pi, so kappa = 1
    r = rotation(2 * math.pi / 3)
    assert kappa(r, r) == 1


def test_kappa_against_angle_oracle():
    # independent oracle: for rotations the automorphy factor at i is e^{i theta},
    # so kappa counts wraps of theta1 + theta2 past the (-pi, pi] branch
    def wrap(t):
        while t > math.pi:
            t -= 2 * math.pi
        while t <= -math.pi:
            t += 2 * math.pi
        return t

    rng = random.Random("kappa-oracle")
    for _ in range(200):
        t1 = rng.uniform(-math.pi, math.pi)
        t2 = rng.uniform(-math.pi, math.pi)
        expected = round((wrap(t1) + wrap(t2) - wrap(t1 + t2)) / (2 * math.pi))
        assert kappa(rotation(t1), rotation(t2)) == expected


def test_kappa_matches_its_three_angle_definition_bit_for_bit():
    # kappa is one pass over the three automorphy angles; it must round every
    # pair as the separate calls do, ties on the branch cut included
    rng = random.Random("kappa-reference")
    for r in (1.2, 3.0):
        for _ in range(20000):
            g1 = mat_exp(random_traceless(rng, r))
            g2 = mat_exp(random_traceless(rng, r))
            assert kappa(g1, g2) == kappa_reference(g1, g2), (g1, g2)
    quarter = (0.0, -1.0, 1.0, 0.0)  # R(pi/2) exactly; its square is -I
    cut = [
        IDENTITY, (-1.0, 0.0, 0.0, -1.0), (-1.0, -0.0, -0.0, -1.0),
        (-1.0, 0.5, 0.0, -1.0), (-1.0, 0.5, -0.0, -1.0),
        (-2.0, 3.0, 0.0, -0.5), (-2.0, 3.0, -0.0, -0.5), (1.0, 2.0, 0.0, 1.0),
        (2.0, -1.0, -0.0, 0.5), quarter, tuple(-v for v in quarter),
        rotation(math.pi / 2), rotation(-math.pi / 2), rotation(math.pi),
        rotation(-math.pi),
    ]
    on_axis = 0
    for g1 in cut:
        for g2 in cut:
            assert kappa(g1, g2) == kappa_reference(g1, g2), (g1, g2)
            prod = mat_mul(g1, g2)
            on_axis += prod[2] == 0 and prod[3] < 0
    assert on_axis >= 30


def test_kappa_cocycle_identity():
    rng = random.Random("cocycle")
    for _ in range(1000):
        g1, g2, g3 = random_sp(rng), random_sp(rng), random_sp(rng)
        lhs = kappa(g1, g2) + kappa(mat_mul(g1, g2), g3)
        rhs = kappa(g2, g3) + kappa(g1, mat_mul(g2, g3))
        assert (lhs - rhs) % 2 == 0


# ---------------------------------------------------------------------------
# double cover


def test_deck_transformation_squares_to_identity():
    deck = MpElement(IDENTITY, 1)
    out = mp_mul(deck, deck)
    assert out.sheet == 0 and mat_sub_norm(out.g, IDENTITY) < 1e-12


def test_mp_projection_is_homomorphism():
    rng = random.Random("mp-proj")
    for _ in range(100):
        x = MpElement(random_sp(rng), rng.randint(0, 1))
        y = MpElement(random_sp(rng), rng.randint(0, 1))
        assert mat_sub_norm(mp_mul(x, y).g, mat_mul(x.g, y.g)) < 1e-9


def test_mp_inverse():
    rng = random.Random("mp-inv")
    for _ in range(100):
        x = MpElement(random_sp(rng), rng.randint(0, 1))
        out = mp_mul(x, mp_inv(x))
        assert out.sheet == 0 and mat_sub_norm(out.g, IDENTITY) < 1e-9


def test_full_rotation_lift_is_deck_transformation():
    # the loop R(2 pi t) lifts open: it ends on the other sheet
    lifted = lift_path(tuple(2 * math.pi * v for v in ROTATION_GENERATOR), 256)
    assert lifted.sheet == 1
    assert mat_sub_norm(lifted.g, IDENTITY) < 1e-9


def test_double_rotation_lift_closes():
    lifted = lift_path(tuple(4 * math.pi * v for v in ROTATION_GENERATOR), 256)
    assert lifted.sheet == 0
    assert mat_sub_norm(lifted.g, IDENTITY) < 1e-9


def test_path_lifting_agrees_with_cocycle_on_products():
    # lifting g1's path then continuing along g1 * g2(s) must equal the
    # product of the individual lifts
    rng = random.Random("path-cocycle")
    for _ in range(200):
        a1 = (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))
        a2 = (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))
        m1 = (a1[0], a1[1], a1[2], -a1[0])
        m2 = (a2[0], a2[1], a2[2], -a2[0])
        lift1 = lift_path(m1, 128)
        lift2 = lift_path(m2, 128)
        cont = lift_path(m2, 128, start=lift1)
        prod = mp_mul(lift1, lift2)
        assert cont.sheet == prod.sheet
        assert mat_sub_norm(cont.g, prod.g) < 1e-9
        # the certified counts the group suite lifts with give the same lifts
        assert lift_path(m1, lift_steps(m1)) == lift1
        assert lift_path(m2, lift_steps(m2), start=lift1) == cont


def test_lift_by_powers_matches_pointwise_lift():
    # stepping by powers of exp(A / steps) reaches the sheet, and within
    # 1e-12 relative the matrix, of evaluating g0 exp(s A) afresh at each
    # point; the rotation generator at odd multiples of pi ends on the cut
    rng = random.Random("lift-by-powers")
    cases = [(random_traceless(rng, 2.0), MpElement(random_sp(rng), rng.randint(0, 1)))
             for _ in range(400)]
    cases += [(tuple(k * math.pi * v for v in ROTATION_GENERATOR), None)
              for k in (-3, -1, 1, 3)]
    for A, start in cases:
        g0 = (start or mp_identity()).g
        want = lift_path_pointwise(
            lambda s: mat_mul(g0, mat_exp(tuple(s * v for v in A))), 128, start)
        got = lift_path(A, 128, start)
        assert got.sheet == want.sheet, (A, start)
        assert mat_sub_norm(got.g, want.g) <= 1e-12 * mat_sub_norm(want.g, (0.0,) * 4)


def test_lift_path_takes_two_exponentials_and_no_cocycle(monkeypatch):
    # the oracle checks kappa and exp_sheet, so it must not call them; and it
    # steps by one product, whatever the number of steps
    calls = []

    def counting(x):
        calls.append(x)
        return mat_exp(x)

    def forbidden(*args):
        raise AssertionError("lift_path called the closed form it checks")

    monkeypatch.setattr(mpc_group, "mat_exp", counting)
    monkeypatch.setattr(mpc_group, "kappa", forbidden)
    monkeypatch.setattr(mpc_group, "exp_sheet", forbidden)
    start = MpElement(mat_exp((0.4, 1.1, -0.9, -0.4)), 1)
    for steps in (2, 128, 1000):
        calls.clear()
        lift_path((0.3, -1.7, 1.1, -0.3), steps, start=start)
        assert len(calls) == 2, steps
    # this A has norm 1.82, which one step of at most pi/2 cannot cover
    with pytest.raises(NumericError):
        lift_path((0.3, -1.7, 1.1, -0.3), 1, start=start)


def _spectral_norm(A):
    # the square root of the largest eigenvalue of A^T A, from its trace and
    # determinant
    a, b, c, d = A
    tr = a * a + b * b + c * c + d * d
    det = (a * d - b * c) ** 2
    return math.sqrt(0.5 * (tr + math.sqrt(max(tr * tr - 4 * det, 0.0))))


def _step_cases():
    # traceless and general matrices small enough for normalize_det, and the
    # rotation generator at multiples of pi up to four full turns
    rng = random.Random("lift-steps")
    cases = [random_traceless(rng, r) for r in (0.5, 2.0, 5.0) for _ in range(100)]
    cases += [(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))
              for _ in range(100)]
    cases += [tuple(k * math.pi * v for v in ROTATION_GENERATOR) for k in range(-8, 9)]
    return cases


def test_lift_steps_keeps_each_turn_within_a_quarter():
    # n steps of at most |A|_2 / n radians each: n >= 2 |A|_2 / pi, and one
    # step more than that bound would be waste
    for A in _step_cases():
        n = lift_steps(A)
        bound = 2 * _spectral_norm(A) / math.pi
        assert n >= 1 and n >= bound * (1 - 1e-12), A
        assert n < max(1.0, bound) + 1 + 1e-9, A


def test_lift_path_refuses_fewer_steps_than_certified():
    # too few steps used to return a wrong sheet silently: one step along
    # the full turn R(2 pi s) reported sheet 0
    refused = 0
    for A in _step_cases():
        n = lift_steps(A)
        if n > 1:
            with pytest.raises(NumericError):
                lift_path(A, n - 1)
            refused += 1
        assert lift_path(A, n) == lift_path(A, 4 * n), A
    assert refused > 100
    with pytest.raises(NumericError):
        lift_path(tuple(2 * math.pi * v for v in ROTATION_GENERATOR), 1)
    with pytest.raises(NumericError):
        lift_steps((math.inf, 0.0, 0.0, -math.inf))


@pytest.mark.parametrize("k", [-3, 3])
def test_certified_lift_of_three_half_turns(k):
    # R(3 pi s) turns c i + d through 3 pi and ends on the branch cut; the
    # certified lift agrees with the closed-form sheet and with the lift
    # evaluated afresh at every point
    A = tuple(k * math.pi * v for v in ROTATION_GENERATOR)
    n = lift_steps(A)
    lifted = lift_path(A, n)
    g = mat_exp(A)
    assert lifted.sheet == exp_sheet(ROTATION_GENERATOR, k * math.pi, g) == 1
    pointwise = lift_path_pointwise(lambda s: mat_exp(tuple(s * v for v in A)), n)
    assert lifted.sheet == pointwise.sheet
    assert mat_sub_norm(lifted.g, pointwise.g) < 1e-12


# ---------------------------------------------------------------------------
# circle extension


def test_central_circle_multiplies():
    l1 = cmath.exp(0.7j)
    l2 = cmath.exp(-1.3j)
    out = mpc_mul(central(l1), central(l2))
    assert abs(out.phase - l1 * l2) < 1e-12
    assert mat_sub_norm(out.g, IDENTITY) < 1e-12


def test_rotation_square_flips_phase():
    # (R(2pi/3), 1)^2 = (R(4pi/3), -1) because kappa = 1
    x = MpcElement(rotation(2 * math.pi / 3), 1.0)
    out = mpc_mul(x, x)
    assert mat_sub_norm(out.g, rotation(4 * math.pi / 3)) < 1e-12
    assert abs(out.phase + 1.0) < 1e-12


def test_mpc_group_axioms():
    rng = random.Random("mpc-axioms")
    for _ in range(1000):
        a, b, c = random_mpc(rng), random_mpc(rng), random_mpc(rng)
        assoc = mpc_distance(mpc_mul(mpc_mul(a, b), c), mpc_mul(a, mpc_mul(b, c)))
        assert assoc <= 1e-9
        inv = mpc_distance(mpc_mul(a, mpc_inv(a)), mpc_identity())
        assert inv <= 1e-9


def test_sigma_projection_and_eta_character():
    rng = random.Random("sigma-eta")
    for _ in range(1000):
        a, b = random_mpc(rng), random_mpc(rng)
        assert mat_sub_norm(sigma(mpc_mul(a, b)), mat_mul(sigma(a), sigma(b))) < 1e-9
        assert abs(eta(mpc_mul(a, b)) - eta(a) * eta(b)) < 1e-9


def test_eta_squares_the_center():
    lam = cmath.exp(1j * math.pi / 3)
    assert abs(eta(central(lam)) - cmath.exp(2j * math.pi / 3)) < 1e-12


def test_kernels_of_the_two_projections():
    # sigma-kernel: central circle; eta-kernel: elements with phase +-1
    rng = random.Random("kernels")
    for _ in range(100):
        a = random_mpc(rng)
        if mat_sub_norm(sigma(a), IDENTITY) < 1e-12:
            pass  # central by construction only
        in_mp = abs(eta(a) - 1) < 1e-12
        assert in_mp == (abs(a.phase - 1) < 1e-9 or abs(a.phase + 1) < 1e-9)
    assert abs(eta(MpcElement(random_sp(rng), -1.0)) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# one-parameter subgroups


def test_exp_central_subgroup():
    alpha = MpcAlgebra((0.0, 0.0, 0.0, 0.0), 1j)
    for t in [0.0, 0.5, 2.0, -1.7]:
        out = exp_mpc(alpha, t)
        assert mat_sub_norm(out.g, IDENTITY) < 1e-12
        assert abs(out.phase - cmath.exp(1j * t)) < 1e-12


def test_exp_rotation_generator_full_turn():
    # exp(2 pi J) projects to the identity but lands on the other sheet
    alpha = MpcAlgebra(ROTATION_GENERATOR, 0.0j)
    out = exp_mpc(alpha, 2 * math.pi)
    assert mat_sub_norm(out.g, IDENTITY) < 1e-9
    assert abs(out.phase + 1.0) < 1e-12
    out2 = exp_mpc(alpha, 4 * math.pi)
    assert abs(out2.phase - 1.0) < 1e-12


def test_exp_one_parameter_property():
    rng = random.Random("exp-group")
    for _ in range(10):
        a = rng.uniform(-0.8, 0.8)
        alpha = MpcAlgebra((a, rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8), -a),
                           1j * rng.uniform(-1, 1))
        t, s = rng.uniform(-2, 2), rng.uniform(-2, 2)
        lhs = exp_mpc(alpha, t + s)
        rhs = mpc_mul(exp_mpc(alpha, t), exp_mpc(alpha, s))
        assert mpc_distance(lhs, rhs) <= 1e-9


def test_exp_inverse_along_subgroup():
    rng = random.Random("exp-inv")
    for _ in range(10):
        a = rng.uniform(-0.8, 0.8)
        alpha = MpcAlgebra((a, rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8), -a),
                           1j * rng.uniform(-1, 1))
        t = rng.uniform(-2, 2)
        out = mpc_mul(exp_mpc(alpha, t), exp_mpc(alpha, -t))
        assert mpc_distance(out, mpc_identity()) <= 1e-9


def test_algebra_split_recovered_by_finite_differences():
    # sigma_* and (1/2) eta_* recover the two components of the algebra
    rng = random.Random("split")
    h = 1e-6
    for _ in range(20):
        a = rng.uniform(-0.8, 0.8)
        A = (a, rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8), -a)
        tau = 1j * rng.uniform(-1, 1)
        alpha = MpcAlgebra(A, tau)
        out = exp_mpc(alpha, h)
        fd_A = tuple((g - e) / h for g, e in zip(out.g, IDENTITY))
        assert all(abs(x - y) < 1e-4 for x, y in zip(fd_A, A))
        fd_tau = 0.5 * cmath.phase(eta(out)) / h
        assert abs(fd_tau - tau.imag) < 1e-4


def test_algebra_validation():
    with pytest.raises(NumericError):
        MpcAlgebra((1.0, 0.0, 0.0, 1.0), 0j)  # nonzero trace
    with pytest.raises(NumericError):
        MpcAlgebra((0.0, 1.0, 1.0, 0.0), 1.0 + 0j)  # real u(1) part
    with pytest.raises(NumericError, match="zero phase"):
        MpcElement(IDENTITY, 0j)
    with pytest.raises(NumericError, match="non-positive determinant"):
        MpElement((1.0, 0.0, 0.0, -1.0), 0)


def test_group_elements_compare_and_hash_by_normalized_value():
    g = mat_exp((0.3, 0.5, -0.2, -0.3))
    twice = tuple(2.0 * v for v in g)  # normalize_det divides by sqrt(det) = 2, exactly
    assert MpElement(twice, 3) == MpElement(g, 1)  # the sheet is kept mod 2
    assert hash(MpElement(twice, 3)) == hash(MpElement(g, 1))
    assert MpElement(g, 0) != MpElement(g, 1)
    assert MpcElement(twice, 3j) == MpcElement(g, 1j)  # the phase is kept on the circle
    assert hash(MpcElement(twice, 3j)) == hash(MpcElement(g, 1j))
    assert MpcElement(g, 1.0) != MpcElement(g, -1.0)
    assert MpcElement(g, 1.0) != MpElement(g, 0)
    alpha = MpcAlgebra(ROTATION_GENERATOR, 0.5j)
    assert alpha == MpcAlgebra(ROTATION_GENERATOR, 0.5j) != MpcAlgebra(ROTATION_GENERATOR, 0j)
    assert len({alpha, MpcAlgebra(ROTATION_GENERATOR, 0.5j), mpc_identity(),
                mpc_mul(mpc_identity(), mpc_identity())}) == 2


# ---------------------------------------------------------------------------
# the periodic loop


def test_mu_is_periodic():
    assert mu_loop(0.0) == mp_identity()
    end = mu_loop(1.0)
    assert end.sheet == 0
    assert mat_sub_norm(end.g, IDENTITY) < 1e-9


def test_mu_halfway_sits_on_other_sheet():
    mid = mu_loop(0.5)
    assert mid.sheet == 1
    assert mat_sub_norm(mid.g, IDENTITY) < 1e-9


def test_mu_projection_is_nonconstant():
    assert mat_sub_norm(mu_loop(1 / 8).g, rotation(math.pi / 2)) < 1e-9
    assert mat_sub_norm(mu_loop(1 / 4).g, rotation(math.pi)) < 1e-9


def test_closed_form_sheets_match_path_lifting():
    # the sheet of exp_mpc (read off its phase at tau = 0) and of mu_loop
    # against lift_path, which unwraps arg(c i + d) without kappa; the
    # rotation generator at odd multiples of pi puts the endpoint on the
    # branch cut, where the sheet must still agree with the group law
    # (compared by phase: normalizing det of a large hyperbolic product
    # loses absolute digits in the matrix part)
    rng = random.Random("closed-form-sheets")
    cases = [(random_traceless(rng, 2.0), rng.uniform(-5, 5)) for _ in range(200)]
    cases += [(ROTATION_GENERATOR, k * math.pi) for k in (-3, -1, 1, 3)]
    for A, t in cases:
        alpha = MpcAlgebra(A, 0j)
        out = exp_mpc(alpha, t)
        lifted = lift_path(tuple(t * v for v in A), 256)
        assert int(out.phase.real < 0) == lifted.sheet, (A, t)
        half = exp_mpc(alpha, t / 2)
        assert abs(out.phase - mpc_mul(half, half).phase) < 1e-9, (A, t)
    for t in [k / 40 for k in range(-40, 41)] + [rng.uniform(-3, 3) for _ in range(20)]:
        lifted = lift_path(tuple(4 * math.pi * (t % 1.0) * v for v in ROTATION_GENERATOR),
                           256)
        assert mu_loop(t).sheet == lifted.sheet, t


def test_mu_analytic_sheet_oracle():
    # the lift of R(theta(s)) flips sheets each time theta passes pi + 2 pi k;
    # for theta = 4 pi t the flip count is ceil((4 pi t - pi) / (2 pi)) for
    # t past 1/4
    def expected_sheet(t):
        theta = 4 * math.pi * (t % 1.0)
        if theta <= math.pi:
            return 0
        return math.ceil((theta - math.pi) / (2 * math.pi)) % 2

    for t in [0.0, 0.1, 0.2, 0.3, 0.45, 0.5, 0.6, 0.76, 0.9, 0.99, 1.0]:
        assert mu_loop(t).sheet == expected_sheet(t), t
