"""Metaplectic-c prequantization over the punctured plane and over charts
with other area forms: lifts, the E/F pair on structured fields, the
membership conditions, the section operator, and the two counterexample
constructions."""

import cmath
import math
import random

import pytest

from gqw import mpc_bundle, suites
from gqw.circle import (
    I_HBAR_INV, TWO_PI_HBAR_INV, TWO_PI_I, E_circle, F_circle, PrequantCircle, ks_operator,
)
from gqw.errors import (
    DegenerateParameterError, NotQuantomorphismError, UnsupportedFieldError,
)
from gqw.expr import HBAR, IMAG, PI, ZERO, add, diff, mul, power, rational, symbol
from gqw.flows import commutator_residual
from gqw.forms import Chart, VectorField, parse_form, zero_vf
from gqw.mpc_bundle import (
    E_mpc, F_mpc, MpcPrequant, StructuredVF,
    delta_operator, eta_ad_residual, example_base_rotation,
    example_fiberwise_twist, fiber_twist, frame_lift, hat_lift,
    left_invariant, pushforward_residual, quantomorphism_membership,
    right_action_map, sample_fiber_points, section_sampler,
    structured_bracket, structured_rhs,
)
from gqw.mpc_group import (
    IDENTITY, MpcElement, eta, mat_mul, mat_sub_norm, random_mpc, rotation,
)
from gqw.parse import parse_expr
from gqw.sample import DomainSampler, expr_equal
from gqw.suites import run_suite
from gqw.symplectic import SymplecticChart, hamiltonian_vf, poisson
from gqw.system import load_bundled

from oracles import loop_commutator

P, Q = symbol("p"), symbol("q")
CORPUS = ["1", "p", "q", "p*q", "p^2+q^2", "1/2*(p^2+q^2)", "p^2-q^2"]


@pytest.fixture(scope="module")
def bundle():
    s = DomainSampler(coords=("p", "q"), box={"p": (-2, 2), "q": (-2, 2)},
                      positive=(add(power(P, 2), power(Q, 2)),), seed=42)
    chart = Chart(s)
    sympl = SymplecticChart(chart, parse_form("dp^dq", chart))
    return MpcPrequant(PrequantCircle(sympl, parse_form("1/2*(p*dq - q*dp)", chart)))


def hams(bundle):
    return [parse_expr(t, bundle.chart.coords) for t in CORPUS]


# ---------------------------------------------------------------------------
# construction constraints


@pytest.mark.parametrize("omega, beta, positive", [
    ("2*dp^dq", "p*dq - q*dp", None),
    ("p*dp^dq", "1/2*p^2*dq", "p"),
    ("(2+2*p^2)*dp^dq", "(2*p + 2/3*p^3)*dq", None),
    ("(2+sin(p*q))*dp^dq", "(2*p - cos(p*q)*q^(-1))*dq", "q"),
], ids=["constant", "linear", "polynomial", "sine"])
def test_lifts_linearize_in_the_symplectic_frame(omega, beta, positive):
    # omega = w dp^dq has the symplectic frame F = (d/dp, w^-1 d/dq); a lift's
    # matrix A is the linearized flow in it: F A = Dv F - v(F), traceless
    box = {"p": (-2, 2), "q": (-2, 2)}
    if positive:
        box[positive] = (0.5, 2)
    s = DomainSampler(coords=("p", "q"), box=box, seed=3,
                      positive=(parse_expr(positive, ("p", "q")),) if positive else ())
    chart = Chart(s)
    sympl = SymplecticChart(chart, parse_form(omega, chart))
    b = MpcPrequant(PrequantCircle(sympl, parse_form(beta, chart)))
    w = sympl.omega.coeffs[0]
    frame = (rational(1), ZERO, ZERO, power(w, -1))
    for f in hams(b):
        z = frame_lift(f, b)
        v1, v2 = z.base.components
        dv = (diff(v1, P), diff(v1, Q), diff(v2, P), diff(v2, Q))
        moved = tuple(add(x, mul(rational(-1), z.base.apply(y)))
                      for x, y in zip(mpc_bundle.emat_mul(dv, frame), frame))
        for lhs, rhs in zip(mpc_bundle.emat_mul(frame, z.a_r), moved):
            assert expr_equal(lhs, rhs, s)[0]
        assert add(z.a_r[0], z.a_r[3]).is_zero()
        assert F_mpc(E_mpc(f, b)) == f


def test_structured_fields_must_be_traceless(bundle):
    with pytest.raises(UnsupportedFieldError):
        StructuredVF(bundle, zero_vf(bundle.chart),
                     a_r=(rational(1), ZERO, ZERO, ZERO))
    with pytest.raises(UnsupportedFieldError):
        left_invariant(bundle, (1.0, 0.0, 0.0, 1.0), 0j)
    with pytest.raises(UnsupportedFieldError, match="must be imaginary"):
        left_invariant(bundle, (1.0, 0.0, 0.0, -1.0), 1.0 + 0j)


def test_structured_fields_compare_and_hash_without_their_bundle(bundle):
    other = load_bundled(seed=5).mpc_bundle()
    z = left_invariant(bundle, (1.0, 0.0, 0.0, -1.0), 0.5j)
    same = left_invariant(other, (1.0, 0.0, 0.0, -1.0), 0.5j)
    assert z.bundle is not same.bundle
    assert z == same and hash(z) == hash(same)
    assert z != left_invariant(bundle, (1.0, 0.0, 0.0, -1.0), 0.25j)
    assert z != StructuredVF(bundle, z.base, tau_r=P, a_l=z.a_l, tau_l=z.tau_l)


# ---------------------------------------------------------------------------
# frame lift


def test_frame_lift_of_rotation_hamiltonian(bundle):
    # xi = q d/dp - p d/dq has constant Jacobian [[0, 1], [-1, 0]]
    f = mul(rational(1, 2), add(power(P, 2), power(Q, 2)))
    z = frame_lift(f, bundle)
    assert z.base == VectorField(bundle.chart, [Q, mul(rational(-1), P)])
    assert z.a_r == (ZERO, rational(1), rational(-1), ZERO)
    assert z.tau_r.is_zero() and z.a_l == (0.0, 0.0, 0.0, 0.0)


def test_frame_lift_of_constant_vanishes(bundle):
    z = frame_lift(rational(3), bundle)
    assert z.is_zero()


def test_frame_lift_is_bracket_homomorphism(bundle):
    f = mul(rational(1, 2), add(power(P, 2), power(Q, 2)))
    g = mul(P, Q)
    lhs = frame_lift(poisson(f, g, bundle.sympl), bundle)
    rhs = structured_bracket(frame_lift(f, bundle), frame_lift(g, bundle))
    assert lhs == rhs


def test_frame_lift_commutes_with_vertical_generators(bundle):
    z = frame_lift(mul(P, Q), bundle)
    for b in [(0.0, 1.0, 0.0, 0.0), (1.0, 0.0, 0.0, -1.0)]:
        v = left_invariant(bundle, b, 0j)
        assert structured_bracket(z, v).is_zero()


# ---------------------------------------------------------------------------
# horizontal lift and E


def test_hat_lift_of_rotation_hamiltonian(bundle):
    # beta(xi) = -(p^2+q^2)/2, so tau solves (1/(i hbar)) beta(xi) + tau = 0
    f = mul(rational(1, 2), add(power(P, 2), power(Q, 2)))
    z = hat_lift(f, bundle)
    expected = mul(power(mul(IMAG, HBAR), -1), f)
    assert z.tau_r == expected
    assert z.gamma().is_zero()


def test_hat_lift_of_zero(bundle):
    assert hat_lift(ZERO, bundle).is_zero()


def test_hat_lift_annihilates_gamma_on_corpus(bundle):
    for f in hams(bundle):
        assert hat_lift(f, bundle).gamma().is_zero()


def test_hat_lift_matrix_is_base_jacobian(bundle):
    # omega = dp^dq: the frame is the coordinate frame, and the linearization
    # in it is the coordinate Jacobian, node for node
    for f in hams(bundle):
        z = hat_lift(f, bundle)
        v1, v2 = z.base.components
        assert z.a_r == bundle.linearization(z.base) == (
            diff(v1, P), diff(v1, Q), diff(v2, P), diff(v2, Q))


def test_E_of_one_is_central_vertical(bundle):
    z = E_mpc(rational(1), bundle)
    assert z.base.is_zero()
    # (1/(2 pi hbar)) times the central vertical generator, which gamma
    # assigns 2 pi i
    assert z == StructuredVF(bundle, zero_vf(bundle.chart),
                             tau_r=mul(TWO_PI_I, power(mul(rational(2), PI, HBAR), -1)))


def test_E_base_projection(bundle):
    for f in hams(bundle):
        assert E_mpc(f, bundle).base == hamiltonian_vf(f, bundle.sympl)


def test_E_homomorphism_worked_pair(bundle):
    f = mul(rational(1, 2), add(power(P, 2), power(Q, 2)))
    g = mul(P, Q)
    lhs = E_mpc(poisson(f, g, bundle.sympl), bundle)
    rhs = structured_bracket(E_mpc(f, bundle), E_mpc(g, bundle))
    assert lhs == rhs


def test_E_homomorphism_on_corpus_pairs(bundle):
    hs = hams(bundle)
    for f in hs:
        for g in hs[2:6]:
            lhs = E_mpc(poisson(f, g, bundle.sympl), bundle)
            rhs = structured_bracket(E_mpc(f, bundle), E_mpc(g, bundle))
            assert lhs == rhs


def test_lifted_bracket_formula_mpc(bundle):
    # [hat f, hat g] = hat {f,g} - (1/(2 pi hbar)) {f,g} central
    from gqw.circle import TWO_PI_HBAR_INV, TWO_PI_I
    f = add(power(P, 2), power(Q, 2))
    g = mul(P, Q)
    br = poisson(f, g, bundle.sympl)
    lhs = structured_bracket(hat_lift(f, bundle), hat_lift(g, bundle))
    hfg = hat_lift(br, bundle)
    rhs = StructuredVF(bundle, hfg.base, a_r=hfg.a_r,
                       tau_r=add(hfg.tau_r,
                                 mul(rational(-1), TWO_PI_HBAR_INV, TWO_PI_I, br)))
    assert lhs == rhs


# ---------------------------------------------------------------------------
# structured bracket properties


def test_central_parts_commute(bundle):
    v1 = left_invariant(bundle, (0.0, 0.0, 0.0, 0.0), 2j)
    v2 = left_invariant(bundle, (0.0, 0.0, 0.0, 0.0), -0.5j)
    assert structured_bracket(v1, v2).is_zero()


def test_hat_lift_commutes_with_all_vertical_generators(bundle):
    z = hat_lift(mul(P, Q), bundle)
    rng = random.Random("vertical")
    for _ in range(5):
        a = rng.uniform(-1, 1)
        v = left_invariant(bundle, (a, rng.uniform(-1, 1), rng.uniform(-1, 1), -a),
                           1j * rng.uniform(-1, 1))
        assert structured_bracket(z, v).is_zero()
        assert structured_bracket(v, z).is_zero()


def test_left_invariant_bracket_is_matrix_commutator(bundle):
    v1 = left_invariant(bundle, (0.0, 1.0, 0.0, 0.0), 0j)  # e
    v2 = left_invariant(bundle, (0.0, 0.0, 1.0, 0.0), 0j)  # f
    out = structured_bracket(v1, v2)
    assert out.a_l == (1.0, 0.0, 0.0, -1.0)  # [e, f] = h
    assert out.base.is_zero() and out.tau_r.is_zero()


def test_structured_bracket_matches_flow_commutator(bundle):
    f = add(power(P, 2), power(Q, 2))
    g = mul(P, Q)
    pairs = [
        (E_mpc(f, bundle), E_mpc(g, bundle)),
        (hat_lift(f, bundle), left_invariant(bundle, (0.0, 1.0, 1.0, 0.0), 0.7j)),
        (left_invariant(bundle, (1.0, 0.0, 0.0, -1.0), 0j),
         left_invariant(bundle, (0.0, 1.0, 0.0, 0.0), 0.3j)),
    ]
    pts = sample_fiber_points(bundle, 8)
    for z1, z2 in pairs:
        f1, f2 = structured_rhs(z1), structured_rhs(z2)
        exact = structured_rhs(structured_bracket(z1, z2))
        assert commutator_residual(f1, f2, exact, pts) < 1e-13
        # the loop of RK4 flows pins the sign of the complex-step commutator
        for x in pts:
            assert max(abs(a - b) for a, b in zip(loop_commutator(f1, f2, x), exact(x))) < 1e-5


# ---------------------------------------------------------------------------
# membership and the F map


def test_E_image_is_member(bundle):
    for f in hams(bundle):
        connection, left_sp, frame = quantomorphism_membership(E_mpc(f, bundle))
        assert connection == 0.0
        assert max(left_sp, frame) <= bundle.chart.sampler.tolerance


def test_noncentral_left_part_fails_condition_two(bundle):
    # constant field: condition (1) holds, condition (2) sees the sp-part
    z = StructuredVF(bundle, zero_vf(bundle.chart),
                     a_l=(1.0, 0.0, 0.0, -1.0), tau_l=0j)
    connection, left_sp, frame = quantomorphism_membership(z)
    assert connection <= bundle.chart.sampler.tolerance < max(left_sp, frame)


def test_hat_lift_alone_fails_condition_one(bundle):
    # without the central correction the flow does not preserve gamma
    connection, left_sp, frame = quantomorphism_membership(hat_lift(mul(P, Q), bundle))
    assert max(left_sp, frame) <= bundle.chart.sampler.tolerance < connection


def test_F_inverts_E(bundle):
    for f in hams(bundle):
        assert F_mpc(E_mpc(f, bundle)) == f


def test_F_of_central_unit(bundle):
    z = StructuredVF(bundle, zero_vf(bundle.chart), tau_r=mul(TWO_PI_I, TWO_PI_HBAR_INV))
    assert F_mpc(z, check=False).is_one()


def test_E_F_round_trip_on_image(bundle):
    for f in hams(bundle)[:10]:
        z = E_mpc(f, bundle)
        assert E_mpc(F_mpc(z), bundle) == z


def test_F_rejects_nonmember(bundle):
    z = StructuredVF(bundle, zero_vf(bundle.chart), tau_r=mul(P, Q))
    with pytest.raises(NotQuantomorphismError):
        F_mpc(z)


def test_F_takes_no_second_bundle(bundle):
    # the bundle comes with the field; a second positional argument must not
    # be taken for ``check``
    z = E_mpc(P, bundle)
    with pytest.raises(TypeError):
        F_mpc(z, bundle)
    with pytest.raises(TypeError):
        F_circle(E_circle(P, bundle.circle), bundle.circle)


def test_dropping_condition_two_breaks_the_inverse(bundle):
    # a field with well-defined F-value that is not in the image of E:
    # E(F(zeta)) recovers only the membership part
    f = mul(P, Q)
    good = E_mpc(f, bundle)
    bad = StructuredVF(bundle, good.base, a_r=good.a_r, tau_r=good.tau_r,
                       a_l=(1.0, 0.0, 0.0, -1.0), tau_l=0j)
    connection, left_sp, frame = quantomorphism_membership(bad)
    assert connection <= bundle.chart.sampler.tolerance < max(left_sp, frame)
    fval = F_mpc(bad, check=False)
    assert fval == f                      # gamma never sees the sp-part
    assert E_mpc(fval, bundle) != bad     # so F cannot invert E without (2)


# ---------------------------------------------------------------------------
# gamma contract


def test_gamma_right_invariance_sampled(bundle):
    rng = random.Random("right-invariance")
    from gqw.mpc_group import mat_exp
    pts = sample_fiber_points(bundle, 4, seed_tag="inv")
    for x in pts:
        d = rng.uniform(-0.8, 0.8)
        b = MpcElement(mat_exp((d, rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8), -d)),
                       cmath.exp(1j * rng.uniform(-3, 3)))
        assert pushforward_residual(bundle, right_action_map(b), x) < 1e-12


def test_gamma_on_vertical_generators_is_algebra_component(bundle):
    rng = random.Random("vertical-gamma")
    for _ in range(10):
        a = rng.uniform(-1, 1)
        tau = 1j * rng.uniform(-1, 1)
        v = left_invariant(bundle, (a, rng.uniform(-1, 1), rng.uniform(-1, 1), -a), tau)
        from gqw.mpc_bundle import imag_expr
        assert add(v.gamma(), mul(rational(-1), imag_expr(tau))).is_zero()


def test_eta_blind_to_conjugation(bundle):
    assert eta_ad_residual(50, bundle.chart.sampler.rng("eta-ad")) < 1e-12


def test_dgamma_equals_curvature_on_structured_pairs(bundle):
    # d gamma = (1/(i hbar)) omega, evaluated invariantly on structured pairs:
    # zeta1 gamma(zeta2) - zeta2 gamma(zeta1) - gamma([zeta1, zeta2])
    f = add(power(P, 2), power(Q, 2))
    g = mul(P, Q)
    for z1, z2 in [
        (E_mpc(f, bundle), E_mpc(g, bundle)),
        (hat_lift(f, bundle), hat_lift(g, bundle)),
        (hat_lift(g, bundle), left_invariant(bundle, (0.0, 1.0, 1.0, 0.0), 0.4j)),
    ]:
        lhs = add(z1.base.apply(z2.gamma()),
                  mul(rational(-1), z2.base.apply(z1.gamma())),
                  mul(rational(-1), structured_bracket(z1, z2).gamma()))
        rhs = mul(I_HBAR_INV, bundle.sympl.omega(z1.base, z2.base))
        assert expr_equal(lhs, rhs, bundle.chart.sampler) == (True, 0.0)


# ---------------------------------------------------------------------------
# the delta operator on centrally-equivariant sections


def sections(bundle):
    vocab = section_sampler(bundle).coords
    return [parse_expr(t, vocab) for t in ["1", "g11*p", "p*q + g21"]]


def test_delta_of_one_is_scalar(bundle):
    for u in sections(bundle):
        out = delta_operator(rational(1), u, bundle)
        assert out == mul(power(mul(IMAG, HBAR), -1), u)


def test_delta_of_zero_section(bundle):
    assert delta_operator(mul(P, Q), ZERO, bundle).is_zero()


def test_delta_homomorphism_worked_example(bundle):
    f = mul(rational(1, 2), add(power(P, 2), power(Q, 2)))
    g = mul(P, Q)
    u = parse_expr("g11*p", section_sampler(bundle).coords)
    lhs = add(delta_operator(f, delta_operator(g, u, bundle), bundle),
              mul(rational(-1),
                  delta_operator(g, delta_operator(f, u, bundle), bundle)))
    rhs = delta_operator(poisson(f, g, bundle.sympl), u, bundle)
    assert lhs == rhs


def test_delta_homomorphism_on_grid(bundle):
    hs = hams(bundle)
    for u in sections(bundle):
        for f in hs[3:6]:
            for g in hs[4:7]:
                lhs = add(delta_operator(f, delta_operator(g, u, bundle), bundle),
                          mul(rational(-1),
                              delta_operator(g, delta_operator(f, u, bundle), bundle)))
                rhs = delta_operator(poisson(f, g, bundle.sympl), u, bundle)
                assert lhs == rhs


def test_delta_consistent_with_circle_operator(bundle):
    # on sections that do not touch the frame variables, i hbar delta_f
    # reproduces the circle-bundle operator
    f = mul(rational(1, 2), add(power(P, 2), power(Q, 2)))
    for u in [rational(1), mul(P, Q), add(power(P, 2), mul(rational(-1), Q))]:
        lhs = mul(IMAG, HBAR, delta_operator(f, u, bundle))
        rhs = ks_operator(f, u, bundle.circle)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# counterexample 1: the fiberwise twist


def test_twist_preserves_eta_exactly():
    a = MpcElement(rotation(0.7), cmath.exp(0.9j))
    assert eta(fiber_twist(a)) == eta(a)


def test_twist_fiber_values_differ_by_half_turn(bundle):
    # t = 0 gives sigma mu(0) = I; t = 1/8 gives sigma mu(1/4) = R(pi)
    g0 = fiber_twist(MpcElement(IDENTITY, 1.0)).g
    g1 = fiber_twist(MpcElement(IDENTITY, cmath.exp(2j * math.pi / 8))).g
    assert mat_sub_norm(g0, IDENTITY) < 1e-9
    assert mat_sub_norm(g1, rotation(math.pi)) < 1e-9
    assert mat_sub_norm(g0, g1) >= 0.5


def test_twist_report(bundle):
    rep = example_fiberwise_twist(bundle)
    assert rep.gamma_residual <= 1e-12
    assert rep.fiber_gap >= 0.5
    assert rep.eta_residual < 1e-12


def theta_scaled(fmap):
    """``fmap`` with the theta of its image scaled by 1 + 1e-4: the map moves
    gamma by 1e-4 v_theta on a tangent v, still holomorphically."""
    def mutant(x):
        y = fmap(x)
        return y[:6] + [y[6] * (1 + 1e-4)]
    return mutant


@pytest.mark.parametrize("hbar", [1.0, 1e-5, -1e-5, 1e-8])
def test_gamma_rows_fail_a_map_that_moves_gamma(hbar, monkeypatch):
    # here the clean maps read at most 3e-9 and the mutants 7.2e-5.  Below
    # |hbar| about 1e-11 the two cannot be told apart: the measurement is
    # relative to a gamma near 1/|hbar|, of which the mutants move 1e-4 |hbar|
    # (at 1e-12 the mutants read 3e-8 and 4e-7)
    spec = load_bundled(hbar=hbar)

    def verdict(row_id):
        rows = suites.mpc_checks(spec) + suites.counterexample_checks(spec)
        return next(fn for i, _, fn in rows if i == row_id)()

    assert verdict("prequant-invariance")[0] and verdict("twist-gamma-preserved")[0]
    monkeypatch.setattr(mpc_bundle, "_twist_covering_map",
                        theta_scaled(mpc_bundle._twist_covering_map))
    ok, worst, _ = verdict("twist-gamma-preserved")
    assert not ok and worst > 1e-5
    assert verdict("prequant-invariance")[0]
    monkeypatch.setattr(suites, "right_action_map",
                        lambda b: theta_scaled(right_action_map(b)))
    ok, worst, _ = verdict("prequant-invariance")
    assert not ok and worst > 1e-5


# ---------------------------------------------------------------------------
# counterexample 2: the base rotation


def test_rotation_report(bundle):
    angle = mul(rational(1, 2), PI)
    rep = example_base_rotation(bundle, angle)
    assert rep.gamma_preserved
    assert rep.equivariance_residual <= 1e-12
    assert abs(rep.fiber_difference - 2.0) < 1e-12  # |I - R(pi/2)| Frobenius


def turning_fiber(side):
    """A mutant of the base rotation's covering map that also turns the
    fiber matrix by the rotation, from the given side."""
    def covering_map(c, s):
        def fn(x):
            g, turn = (x[2], x[3], x[4], x[5]), (c, -s, s, c)
            g = mat_mul(g, turn) if side == "right" else mat_mul(turn, g)
            return [c * x[0] - s * x[1], s * x[0] + c * x[1], *g, x[6]]
        return fn
    return covering_map


def test_rotation_equivariance_is_measured(bundle, monkeypatch):
    # right translation commutes with a left turn of the fiber, not a right one
    angle = mul(rational(1, 2), PI)
    monkeypatch.setattr(mpc_bundle, "_rotation_covering_map", turning_fiber("left"))
    assert example_base_rotation(bundle, angle).equivariance_residual <= 1e-12
    monkeypatch.setattr(mpc_bundle, "_rotation_covering_map", turning_fiber("right"))
    assert example_base_rotation(bundle, angle).equivariance_residual > 1.0
    row = {c.id: c for c in run_suite(load_bundled(), "counterexamples").checks}[
        "rotation-gamma-equivariance"]
    assert row.status == "fail" and row.residual > 1.0 and row.n_samples == 20


def test_rotation_rejects_degenerate_angle(bundle):
    with pytest.raises(DegenerateParameterError):
        example_base_rotation(bundle, mul(rational(2), PI))


def test_rotation_arbitrary_angle(bundle):
    rep = example_base_rotation(bundle, rational(1))  # one radian
    assert rep.gamma_preserved and rep.equivariance_residual <= 1e-12
    assert abs(rep.fiber_difference - mat_sub_norm(IDENTITY, rotation(1.0))) < 1e-12


@pytest.mark.parametrize("construct", [
    example_fiberwise_twist, lambda bundle: example_base_rotation(bundle, rational(1)),
], ids=["twist-eta", "rotation-equivariance"])
def test_group_element_streams_follow_the_seed(monkeypatch, construct):
    drawn = []

    def recording(rng, r, phase):
        drawn.append(random_mpc(rng, r, phase))
        return drawn[-1]

    monkeypatch.setattr(mpc_bundle, "random_mpc", recording)
    by_seed = []
    for seed in (42, 7):
        construct(load_bundled(seed=seed).mpc_bundle())
        by_seed.append(drawn[:])
        drawn.clear()
    assert len(by_seed[0]) == len(by_seed[1]) == 20
    assert all(a != b for a, b in zip(*by_seed))


def test_fiber_coordinates_are_not_drawn_from_the_base_stream(bundle):
    # theta = -5/2 + 5 u for a uniform u of the fiber rng; were that rng the
    # base-point stream's, u would be one of the stream's own uniforms
    base = random.Random(f"{bundle.chart.sampler.seed}:fiber")
    uniforms = [base.random() for _ in range(2000)]
    for x in sample_fiber_points(bundle, 8):
        u = (x[6] + 2.5) / 5
        assert all(abs(u - v) > 1e-12 for v in uniforms)


def test_zero_field_is_member(bundle):
    z = StructuredVF(bundle, zero_vf(bundle.chart))
    assert quantomorphism_membership(z) == (0.0, 0.0, 0.0)


def test_membership_is_decided_at_the_system_hbar():
    spec = load_bundled(hbar=2.0)
    bundle = spec.mpc_bundle()
    f = parse_expr("p^3", spec.coords)
    z = hat_lift(f, bundle)
    # the central coefficient of E(p^3) written for hbar = 1:
    # -(1/i) beta(xi) + i p^3
    tau = mul(IMAG, add(bundle.beta(z.base), f))
    wrong = StructuredVF(bundle, z.base, a_r=z.a_r, tau_r=tau)
    connection, left_sp, frame = quantomorphism_membership(wrong)
    assert connection > 1.0 and max(left_sp, frame) <= spec.epsilon
    with pytest.raises(NotQuantomorphismError):
        F_mpc(wrong)
