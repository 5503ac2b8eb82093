"""Exterior calculus on charts: d, interior product, brackets, pullback."""

import math

import pytest

from gqw.errors import ChartMismatchError, DegreeError, ExprSyntaxError
from gqw.expr import ZERO, add, call, diff, mul, power, rational, symbol
from gqw.flows import commutator_residual, flow_commutator
from gqw.forms import (
    Chart, ChartMap, VectorField, exterior_derivative, interior_product,
    lie_bracket, lie_derivative, parse_form, pullback, scalar_form, wedge,
)
from gqw.sample import DomainSampler, expr_equal

from oracles import pullback_under_flow, vf_rhs

P, Q = symbol("p"), symbol("q")


@pytest.fixture
def chart():
    s = DomainSampler(coords=("p", "q"), box={"p": (-2, 2), "q": (-2, 2)},
                      positive=(add(power(P, 2), power(Q, 2)),), seed=42)
    return Chart(s)


@pytest.mark.parametrize("coords, message", [
    (("p", "p"), "must be distinct"),
    (("p", "q", "r", "s", "t", "u", "v"), "between 1 and 6"),
    (("p", "1q"), "not an identifier"),
    (("p", "sin"), "reserved name"),
    (("p", "dp"), "collides with the form token"),
])
def test_a_chart_refuses_coordinate_names_the_grammar_cannot_read(coords, message):
    s = DomainSampler(coords=coords, box={c: (-1, 1) for c in coords})
    with pytest.raises(ValueError, match=message):
        Chart(s)


@pytest.fixture
def beta(chart):
    return parse_form("1/2*(p*dq - q*dp)", chart)


def test_exterior_derivative_of_potential_is_area_form(chart, beta):
    # d(1/2 (p dq - q dp)) = dp^dq
    assert exterior_derivative(beta) == parse_form("dp^dq", chart)


def test_constants_are_closed(chart):
    f = scalar_form(chart, rational(3))
    assert exterior_derivative(f).is_zero()


def test_d_squared_vanishes(chart):
    f = scalar_form(chart, call("sin", mul(P, Q)))
    assert exterior_derivative(exterior_derivative(f)).is_zero()
    g = scalar_form(chart, add(power(P, 3), mul(P, Q)))
    assert exterior_derivative(exterior_derivative(g)).is_zero()


def test_interior_product_of_area_form(chart):
    # derived by expanding the antisymmetric pairing by hand:
    # (2q dp - 2p dq-dual) . dp^dq = 2p dp + 2q dq = d(p^2+q^2)
    v = VectorField(chart, [mul(rational(2), Q), mul(rational(-2), P)])
    omega = parse_form("dp^dq", chart)
    got = interior_product(v, omega)
    expected = exterior_derivative(scalar_form(chart, add(power(P, 2), power(Q, 2))))
    assert got == expected
    for a, b in zip(got.coeffs, expected.coeffs):
        ok, _ = expr_equal(a, b, chart.sampler)
        assert ok


def test_interior_product_degree_zero_rejected(chart):
    v = VectorField(chart, [rational(1), ZERO])
    with pytest.raises(DegreeError):
        interior_product(v, scalar_form(chart, P))


def test_dual_pairing(chart):
    dq = parse_form("dq", chart)
    ddp = VectorField(chart, [rational(1), ZERO])
    assert interior_product(ddp, dq).is_zero()


def test_repeated_contraction_vanishes(chart):
    v = VectorField(chart, [mul(P, Q), add(P, Q)])
    omega = parse_form("dp^dq", chart)
    w = interior_product(v, omega)
    assert scalar_form(chart, w(v)).is_zero()


def test_chart_mismatch_raises(chart):
    other = Chart(DomainSampler(coords=("x", "y"), box={"x": (-1, 1), "y": (-1, 1)}))
    v = VectorField(other, [rational(1), ZERO])
    with pytest.raises(ChartMismatchError):
        interior_product(v, parse_form("dp^dq", chart))


# ---------------------------------------------------------------------------
# stored results: each is computed once per owner, and checks still run


def test_directional_derivatives_are_computed_once_per_field(chart, monkeypatch):
    from gqw import forms
    calls = []

    def counted(e, v):
        calls.append((e, v))
        return diff(e, v)

    monkeypatch.setattr(forms, "diff", counted)
    v = VectorField(chart, [mul(P, Q), add(P, power(Q, 3))])
    f = call("sin", mul(rational(3), P, Q))
    first = v.apply(f)
    assert v.apply(f) is first
    assert len(calls) == chart.dim  # one derivative per coordinate, once
    assert VectorField(chart, v.components).apply(f) is first  # a new field computes it anew
    assert len(calls) == 2 * chart.dim


def test_form_values_are_computed_once_and_still_checked(chart, beta, monkeypatch):
    from gqw.forms import KForm
    evaluated = []
    evaluate = KForm._evaluate

    def counted(self, fields):
        evaluated.append(fields)
        return evaluate(self, fields)

    monkeypatch.setattr(KForm, "_evaluate", counted)
    omega = parse_form("dp^dq", chart)
    u = VectorField(chart, [mul(P, Q), add(P, Q)])
    v = VectorField(chart, [Q, power(P, 2)])
    for form, fields in ((beta, (u,)), (omega, (u, v))):
        value = form(*fields)
        assert form(*fields) is value
        assert form(*[VectorField(chart, w.components) for w in fields]) is value
    assert evaluated == [(u,), (u, v)]
    # after the hits, a field on other coordinates and a wrong field count
    # are still refused before the stored values are looked up
    other = Chart(DomainSampler(coords=("x", "y"), box={"x": (-1, 1), "y": (-1, 1)}))
    moved = VectorField(other, u.components)
    with pytest.raises(ChartMismatchError):
        beta(moved)
    with pytest.raises(ChartMismatchError):
        omega(u, moved)
    with pytest.raises(DegreeError):
        beta(u, v)
    with pytest.raises(DegreeError):
        omega(u)
    assert len(evaluated) == 2


# ---------------------------------------------------------------------------
# Lie bracket


def test_coordinate_fields_commute(chart):
    u = VectorField(chart, [rational(1), ZERO])
    v = VectorField(chart, [ZERO, rational(1)])
    assert lie_bracket(u, v).is_zero()


def test_bracket_component_formula(chart):
    # [p d/dq, q d/dp] = p d/dp - q d/dq
    u = VectorField(chart, [ZERO, P])
    v = VectorField(chart, [Q, ZERO])
    got = lie_bracket(u, v)
    assert got == VectorField(chart, [P, mul(rational(-1), Q)])


def test_bracket_antisymmetry(chart):
    fields = [
        VectorField(chart, [mul(P, Q), power(Q, 2)]),
        VectorField(chart, [call("sin", P), Q]),
        VectorField(chart, [add(P, Q), mul(rational(-1), P)]),
    ]
    for u in fields:
        for v in fields:
            lhs = lie_bracket(u, v)
            rhs = lie_bracket(v, u)
            assert lhs == VectorField(chart, [mul(rational(-1), c) for c in rhs.components])


def test_bracket_matches_flow_commutator(chart):
    u = VectorField(chart, [ZERO, P])
    v = VectorField(chart, [Q, ZERO])
    br = lie_bracket(u, v)
    rhs = vf_rhs(br)
    for x in [(0.7, 0.4), (-1.1, 0.9), (0.3, -1.2)]:
        oracle = flow_commutator(vf_rhs(u), vf_rhs(v), x)
        exact = rhs(x)
        for a, b in zip(oracle, exact):
            assert abs(a - b) < 1e-5


def test_commutator_residual_keeps_a_nan_at_a_later_point():
    # the fields commute; the claimed bracket is nan at the second point only,
    # which a reduction by max() would read as residual 0.0
    def bracket(x):
        return [0.0, float("nan") if x[0] > 0 else 0.0]

    def shift(k):
        return lambda x: [1.0 if i == k else 0.0 for i in range(2)]

    assert math.isnan(commutator_residual(shift(0), shift(1), bracket, [(-1.0, 0.0), (1.0, 0.0)]))
    assert commutator_residual(shift(0), shift(1), bracket, [(-1.0, 0.0)]) == 0.0


def test_jacobi_identity_on_corpus(chart):
    fields = [
        VectorField(chart, [Q, mul(rational(-1), P)]),
        VectorField(chart, [mul(P, Q), power(Q, 2)]),
        VectorField(chart, [power(P, 2), mul(P, Q)]),
    ]
    u, v, w = fields
    total = [add(a, b, c) for a, b, c in zip(
        lie_bracket(u, lie_bracket(v, w)).components,
        lie_bracket(v, lie_bracket(w, u)).components,
        lie_bracket(w, lie_bracket(u, v)).components)]
    assert all(t.is_zero() for t in total)


# ---------------------------------------------------------------------------
# Lie derivative


def test_lie_derivative_hamiltonian_rotation_preserves_area(chart):
    # the rotation generator q d/dp - p d/dq preserves dp^dq
    v = VectorField(chart, [Q, mul(rational(-1), P)])
    omega = parse_form("dp^dq", chart)
    assert lie_derivative(v, omega).is_zero()


def test_lie_derivative_naturality(chart):
    v = VectorField(chart, [mul(P, Q), power(Q, 2)])
    for f in [mul(P, Q), add(power(P, 2), Q), call("sin", P)]:
        df = exterior_derivative(scalar_form(chart, f))
        lhs = lie_derivative(v, df)
        rhs = exterior_derivative(lie_derivative(v, scalar_form(chart, f)))
        assert lhs == rhs


def test_lie_derivative_hand_checked(chart):
    # L_{d/dp}(p dq) = dq
    v = VectorField(chart, [rational(1), ZERO])
    a = parse_form("p*dq", chart)
    assert lie_derivative(v, a) == parse_form("dq", chart)


@pytest.mark.parametrize("form_text,degree", [("p*dq - q^2*dp", 1), ("(p*q)*dp^dq", 2)])
def test_lie_derivative_matches_flow_pullback(chart, form_text, degree):
    v = VectorField(chart, [mul(P, Q), add(P, power(Q, 2))])
    a = parse_form(form_text, chart)
    la = lie_derivative(v, a)
    for x in [(0.8, 0.5), (-0.9, 1.1)]:
        oracle = pullback_under_flow(v, a, x, h=1e-4)
        env = {"p": x[0], "q": x[1], "hbar": 1.0}
        from gqw.expr import evalf
        exact = [evalf(c, env).real for c in la.coeffs]
        for o, e in zip(oracle, exact):
            assert abs(o - e) < 1e-3


# ---------------------------------------------------------------------------
# pullback


def rotation_map(chart, angle):
    c, s = call("cos", angle), call("sin", angle)
    return ChartMap(chart, chart, [
        add(mul(c, P), mul(rational(-1), s, Q)),
        add(mul(s, P), mul(c, Q)),
    ])


def test_rotation_preserves_area_form(chart):
    lam = symbol("lam")
    phi = rotation_map(chart, lam)
    omega = parse_form("dp^dq", chart)
    assert pullback(phi, omega) == omega


def test_rotation_preserves_potential(chart):
    lam = symbol("lam")
    phi = rotation_map(chart, lam)
    beta = parse_form("1/2*(p*dq - q*dp)", chart)
    assert pullback(phi, beta) == beta


def test_identity_pullback(chart):
    phi = ChartMap(chart, chart, [P, Q])
    for text in ["p*dq", "dp^dq", "(p^2+q^2)*dp"]:
        a = parse_form(text, chart)
        assert pullback(phi, a) == a


def test_pullback_functorial(chart):
    lam = symbol("lam")
    phi = rotation_map(chart, lam)
    psi = ChartMap(chart, chart, [mul(rational(2), P), mul(rational(1, 2), Q)])
    a = parse_form("p*dq - q*dp", chart)
    lhs = pullback(phi.compose(psi), a)
    rhs = pullback(psi, pullback(phi, a))
    assert lhs == rhs


def test_pullback_commutes_with_d(chart):
    lam = symbol("lam")
    phi = rotation_map(chart, lam)
    for text in ["p*q*dq", "1/2*(p*dq - q*dp)"]:
        a = parse_form(text, chart)
        assert pullback(phi, exterior_derivative(a)) == exterior_derivative(pullback(phi, a))


# ---------------------------------------------------------------------------
# form grammar


def test_form_literal_wedge(chart):
    w = parse_form("dp^dq", chart)
    assert w.degree == 2 and w.coeffs[0].is_one()


def test_wedge_antisymmetry(chart):
    assert parse_form("dq^dp", chart) == parse_form("dp^dq", chart).scale(rational(-1))
    dp = parse_form("dp", chart)
    assert wedge(dp, dp).is_zero()


def test_form_scalar_mix_rejected(chart):
    with pytest.raises(ExprSyntaxError):
        parse_form("dp + p", chart)
    with pytest.raises(ExprSyntaxError):
        parse_form("p ^ dq", chart)


@pytest.mark.parametrize("text, message", [
    ("dp + dp^dq", "cannot add forms of different degree"),
    ("dp*dq", "use ^ for the wedge of two forms"),
    ("sin(dp)^dq", "function arguments must be scalars"),
])
def test_malformed_form_literals_name_the_rule(chart, text, message):
    with pytest.raises(ExprSyntaxError) as err:
        parse_form(text, chart)
    assert message in str(err.value)


def test_form_literals_negate_and_take_scalar_factors_on_either_side(chart):
    assert parse_form("-dp^dq", chart) == parse_form("dp^dq", chart).scale(rational(-1))
    assert parse_form("dp*2", chart) == parse_form("2*dp", chart)


def test_plain_scalar_text_parses_to_expr(chart):
    e = parse_form("p^2 + q^2", chart)
    assert e == add(power(P, 2), power(Q, 2))


def test_exterior_derivative_of_degree_two_rejected(chart):
    with pytest.raises(DegreeError):
        exterior_derivative(parse_form("dp^dq", chart))


def test_lie_derivative_of_degree_two_needs_surface():
    coords = ("a", "b", "c")
    s = DomainSampler(coords=coords, box={k: (-1, 1) for k in coords})
    big = Chart(s)
    v = VectorField(big, [rational(1), ZERO, ZERO])
    w = parse_form("da^db", big)
    with pytest.raises(DegreeError):
        lie_derivative(v, w)
