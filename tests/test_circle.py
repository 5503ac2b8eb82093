"""Circle-bundle prequantization: lifts, the E/F pair, and the operator
representation with its axioms."""

import random

import pytest

from gqw.circle import (
    CircleLiftedVF, E_circle, F_circle, PrequantCircle, TWO_PI_HBAR_INV, bracket_lifted, connection_nabla, gamma_lie_derivative,
    horizontal_lift, ks_operator, quantomorphism_residual, vertical_action,
)
from gqw.errors import NotQuantomorphismError
from gqw.expr import (
    HBAR, IMAG, ZERO, add, evalf, mul, power, rational, symbol,
)
from gqw.flows import flow_commutator
from gqw.forms import Chart, VectorField, parse_form, zero_vf
from gqw.parse import parse_expr
from gqw.sample import DomainSampler
from gqw.symplectic import SymplecticChart, hamiltonian_vf, poisson

from oracles import loop_commutator

P, Q = symbol("p"), symbol("q")
CORPUS = ["1", "p", "q", "p*q", "p^2+q^2", "1/2*(p^2+q^2)", "p^2-q^2"]


@pytest.fixture
def bundle():
    s = DomainSampler(coords=("p", "q"), box={"p": (-2, 2), "q": (-2, 2)},
                      positive=(add(power(P, 2), power(Q, 2)),), seed=42)
    chart = Chart(s)
    sympl = SymplecticChart(chart, parse_form("dp^dq", chart))
    return PrequantCircle(sympl, parse_form("1/2*(p*dq - q*dp)", chart))


def hams(bundle):
    return [parse_expr(t, bundle.chart.coords) for t in CORPUS]


def random_poly(rng):
    terms = []
    for _ in range(rng.randint(1, 4)):
        dp = rng.randint(0, 2)
        dq = rng.randint(0, 2)
        c = rng.choice([-2, -1, 1, 2])
        terms.append(mul(rational(c), power(P, dp), power(Q, dq)))
    return add(*terms)


def test_potential_validation():
    s = DomainSampler(coords=("p", "q"), box={"p": (-2, 2), "q": (-2, 2)}, seed=7)
    chart = Chart(s)
    sympl = SymplecticChart(chart, parse_form("dp^dq", chart))
    with pytest.raises(NotQuantomorphismError):
        PrequantCircle(sympl, parse_form("p*dp", chart))  # d(p dp) = 0 != omega
    PrequantCircle(sympl, parse_form("p*dq", chart))      # alternative potential


def test_lifted_fields_compare_and_hash_without_their_bundle(bundle):
    other = PrequantCircle(bundle.sympl, parse_form("p*dq", bundle.chart))
    xi = hamiltonian_vf(mul(P, Q), bundle.sympl)
    z = CircleLiftedVF(bundle, xi, P)
    same = CircleLiftedVF(other, VectorField(bundle.chart, xi.components), P)
    assert z == same and hash(z) == hash(same)
    assert z != CircleLiftedVF(bundle, xi, Q)
    assert z != CircleLiftedVF(bundle, zero_vf(bundle.chart), P)


# ---------------------------------------------------------------------------
# horizontal lift


def test_lift_of_zero_vanishes(bundle):
    z = horizontal_lift(zero_vf(bundle.chart), bundle)
    assert z.is_zero()


def test_lift_of_rotation_generator(bundle):
    # beta(xi) = -1/2 (p^2+q^2), so c = -(p^2+q^2)/(4 pi hbar)
    f = mul(rational(1, 2), add(power(P, 2), power(Q, 2)))
    xi = hamiltonian_vf(f, bundle.sympl)
    z = horizontal_lift(xi, bundle)
    expected_c = mul(rational(-1), TWO_PI_HBAR_INV,
                     mul(rational(1, 2), add(power(P, 2), power(Q, 2))))
    assert z.fiber == expected_c
    assert z.gamma().is_zero()


def test_lift_annihilates_gamma_for_corpus(bundle):
    rng = random.Random("lifted")
    for _ in range(10):
        xi = hamiltonian_vf(random_poly(rng), bundle.sympl)
        assert horizontal_lift(xi, bundle).gamma().is_zero()


# ---------------------------------------------------------------------------
# the E map


def test_E_of_constant_is_vertical(bundle):
    z = E_circle(rational(1), bundle)
    assert z.base.is_zero()
    assert z.fiber == TWO_PI_HBAR_INV
    assert E_circle(ZERO, bundle).is_zero()


def test_E_is_homomorphism_on_worked_pair(bundle):
    f = add(power(P, 2), power(Q, 2))
    g = mul(P, Q)
    lhs = E_circle(poisson(f, g, bundle.sympl), bundle)
    rhs = bracket_lifted(E_circle(f, bundle), E_circle(g, bundle))
    assert lhs == rhs


def test_E_is_homomorphism_on_random_pairs(bundle):
    rng = random.Random("e-hom")
    for _ in range(20):
        f, g = random_poly(rng), random_poly(rng)
        lhs = E_circle(poisson(f, g, bundle.sympl), bundle)
        rhs = bracket_lifted(E_circle(f, bundle), E_circle(g, bundle))
        assert lhs == rhs


def test_E_image_preserves_connection(bundle):
    for f in hams(bundle):
        assert gamma_lie_derivative(E_circle(f, bundle)).is_zero()


def test_lifted_bracket_formula(bundle):
    # [hor(xi_f), hor(xi_g)] = hor(xi_{f,g}) - (1/(2 pi hbar)) {f,g} vertical
    f = add(power(P, 2), power(Q, 2))
    g = mul(P, Q)
    br = poisson(f, g, bundle.sympl)
    lhs = bracket_lifted(horizontal_lift(hamiltonian_vf(f, bundle.sympl), bundle),
                         horizontal_lift(hamiltonian_vf(g, bundle.sympl), bundle))
    hor = horizontal_lift(hamiltonian_vf(br, bundle.sympl), bundle)
    rhs = CircleLiftedVF(bundle, hor.base,
                         add(hor.fiber, mul(rational(-1), TWO_PI_HBAR_INV, br)))
    assert lhs == rhs


def test_bracket_of_field_with_itself(bundle):
    z = E_circle(mul(P, Q), bundle)
    assert bracket_lifted(z, z).is_zero()


def test_bracket_matches_flow_commutator_on_circle_bundle(bundle):
    # flow on (p, q, t): base field plus dt/ds = c(p, q), holomorphic, as
    # the complex step needs; the loop of RK4 flows pins the sign
    f = add(power(P, 2), power(Q, 2))
    g = mul(P, Q)
    z1, z2 = E_circle(f, bundle), E_circle(g, bundle)
    z12 = bracket_lifted(z1, z2)

    def rhs(z):
        def fn(x):
            env = {"p": x[0], "q": x[1], "hbar": 1.0}
            return [evalf(c, env) for c in z.base.components + (z.fiber,)]
        return fn

    rng = random.Random("circle-flow")
    for _ in range(8):
        x = (rng.uniform(0.3, 1.5), rng.uniform(0.3, 1.5), rng.uniform(0, 1))
        exact = rhs(z12)(x)
        for a, b in zip(flow_commutator(rhs(z1), rhs(z2), x), exact):
            assert abs(a - b) < 1e-13
        for a, b in zip(loop_commutator(rhs(z1), rhs(z2), x), exact):
            assert abs(a - b) < 1e-5


# ---------------------------------------------------------------------------
# the F map and the round trips


def test_F_inverts_E_on_worked_example(bundle):
    f = mul(P, Q)
    assert F_circle(E_circle(f, bundle)) == f


def test_F_of_unit_vertical(bundle):
    z = CircleLiftedVF(bundle, zero_vf(bundle.chart), TWO_PI_HBAR_INV)
    assert F_circle(z).is_one()


def test_F_round_trip_on_corpus(bundle):
    for f in hams(bundle):
        assert F_circle(E_circle(f, bundle)) == f


def test_E_F_round_trip_on_image(bundle):
    f = add(power(P, 2), power(Q, 2))
    z = E_circle(f, bundle)
    # perturb by a zero expression: same canonical field
    z2 = CircleLiftedVF(bundle, z.base, add(z.fiber, add(P, mul(rational(-1), P))))
    back = E_circle(F_circle(z2), bundle)
    assert back == z


def test_F_rejects_non_quantomorphism(bundle):
    z = CircleLiftedVF(bundle, zero_vf(bundle.chart), mul(P, Q))  # L_zeta gamma != 0
    with pytest.raises(NotQuantomorphismError):
        F_circle(z)
    assert quantomorphism_residual(z) > 1e-3


# ---------------------------------------------------------------------------
# operator representation


def sections():
    return [parse_expr(t, ("p", "q")) for t in ["1", "p*q", "p^2 - q"]]


def test_r_of_one_is_identity(bundle):
    for s in sections():
        assert ks_operator(rational(1), s, bundle) == s


def test_r_of_zero_section(bundle):
    out = ks_operator(mul(P, Q), ZERO, bundle)
    assert out.is_zero()


def test_dirac_commutator_axiom(bundle):
    # [r(f), r(g)] = i hbar r({f,g}) on a 5-hamiltonian x 3-section grid
    for f in hams(bundle)[1:6]:
        for s in sections():
            for g in hams(bundle)[2:4]:
                fg = ks_operator(f, ks_operator(g, s, bundle), bundle)
                gf = ks_operator(g, ks_operator(f, s, bundle), bundle)
                lhs = add(fg, mul(rational(-1), gf))
                rhs = mul(IMAG, HBAR,
                          ks_operator(poisson(f, g, bundle.sympl), s, bundle))
                assert add(lhs, mul(rational(-1), rhs)).is_zero()


def test_specific_dirac_pair(bundle):
    s = mul(P, Q)
    fg = ks_operator(P, ks_operator(Q, s, bundle), bundle)
    gf = ks_operator(Q, ks_operator(P, s, bundle), bundle)
    lhs = add(fg, mul(rational(-1), gf))
    rhs = mul(IMAG, HBAR, ks_operator(poisson(P, Q, bundle.sympl), s, bundle))
    assert lhs == rhs


def test_nabla_worked_example(bundle):
    # u = 1, xi = d/dp: u' = (1/(i hbar)) beta(d/dp) = -q/(2 i hbar)
    xi = VectorField(bundle.chart, [rational(1), ZERO])
    out = connection_nabla(xi, rational(1), bundle)
    expected = mul(rational(-1, 2), Q, power(mul(IMAG, HBAR), -1))
    assert out == expected


def test_nabla_of_zero_field(bundle):
    out = connection_nabla(zero_vf(bundle.chart), mul(P, Q), bundle)
    assert out.is_zero()


def test_curvature_identity(bundle):
    # (nabla_xi nabla_eta - nabla_eta nabla_xi - nabla_[xi,eta]) s
    #   = (1/(i hbar)) omega(xi, eta) s
    from gqw.forms import lie_bracket
    xi = VectorField(bundle.chart, [rational(1), ZERO])
    eta = VectorField(bundle.chart, [ZERO, rational(1)])
    for u0 in [rational(1), mul(P, Q)]:
        a = connection_nabla(xi, connection_nabla(eta, u0, bundle), bundle)
        b = connection_nabla(eta, connection_nabla(xi, u0, bundle), bundle)
        c = connection_nabla(lie_bracket(xi, eta), u0, bundle)
        lhs = add(a, mul(rational(-1), b), mul(rational(-1), c))
        rhs = mul(power(mul(IMAG, HBAR), -1), bundle.sympl.omega(xi, eta), u0)
        assert lhs == rhs


def test_ks_operator_consistency_with_nabla(bundle):
    f = add(power(P, 2), power(Q, 2))
    s = mul(P, Q)
    xi = hamiltonian_vf(f, bundle.sympl)
    direct = ks_operator(f, s, bundle)
    via_nabla = add(mul(IMAG, HBAR, connection_nabla(xi, s, bundle)), mul(f, s))
    assert direct == via_nabla


def test_vertical_action_is_minus_two_pi_i(bundle):
    from gqw.expr import PI
    out = vertical_action(mul(P, Q))
    assert out == mul(rational(-2), PI, IMAG, P, Q)


def test_flow_oracle_fiber_coordinates_are_not_drawn_from_the_base_stream(monkeypatch):
    # the circle bracket-flow oracle draws theta uniform in [0, 1) beside the
    # base points of its {seed}:circle-flow stream, from a rng of its own
    from gqw import suites
    from gqw.system import load_bundled
    spec = load_bundled()
    calls = []
    monkeypatch.setattr(suites, "commutator_residual",
                        lambda f, g, h, pts: calls.append(pts) or 0.0)
    checks = {cid: fn for cid, _, fn in suites._SUITE_BUILDERS["circle-iso"](spec)}
    checks["bracket-flow-oracle"]()
    base = random.Random(f"{spec.seed}:circle-flow")
    uniforms = [base.random() for _ in range(2000)]
    # one call per oracle pair, both at the same 8 points
    assert len(calls) == 2 and calls[0] == calls[1] and len(calls[0]) == 8
    for pt in calls[0]:
        assert all(abs(pt[-1] - v) > 1e-12 for v in uniforms)
