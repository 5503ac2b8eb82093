"""Hamiltonian fields, the Poisson bracket, and their compatibility laws."""

import itertools
import random

import pytest

from gqw.errors import DegeneracyError
from gqw.expr import ONE, ZERO, add, evalf, mul, power, rational, symbol, to_str
from gqw.forms import (
    Chart, KForm, VectorField, exterior_derivative, interior_product,
    lie_bracket, parse_form, scalar_form,
)
from gqw.parse import parse_expr
from gqw.sample import DomainSampler, expr_equal
from gqw.suites import run_suite
from gqw import symplectic
from gqw.symplectic import (
    SymplecticChart, hamiltonian_vf, lie_derivative_omega, poisson,
    poisson_ways,
)
from gqw.system import load_bundled, load_spec_text

from oracles import flow_point

P, Q = symbol("p"), symbol("q")

CORPUS = ["1", "p", "q", "p*q", "p^2+q^2", "1/2*(p^2+q^2)", "p^2-q^2"]


@pytest.fixture
def sc():
    s = DomainSampler(coords=("p", "q"), box={"p": (-2, 2), "q": (-2, 2)},
                      positive=(add(power(P, 2), power(Q, 2)),), seed=42)
    chart = Chart(s)
    return SymplecticChart(chart, parse_form("dp^dq", chart))


def hams(sc):
    from gqw.parse import parse_expr
    return [parse_expr(t, sc.chart.coords) for t in CORPUS]


def random_poly(rng, max_degree=3):
    terms = []
    for _ in range(rng.randint(1, 4)):
        dp = rng.randint(0, max_degree)
        dq = rng.randint(0, max_degree - dp)
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        terms.append(mul(rational(c), power(P, dp), power(Q, dq)))
    return add(*terms)


# ---------------------------------------------------------------------------
# Hamiltonian vector fields


def test_hamiltonian_field_of_squared_radius(sc):
    # solve the 2x2 system by hand: xi = 2q d/dp - 2p d/dq
    f = add(power(P, 2), power(Q, 2))
    assert hamiltonian_vf(f, sc) == VectorField(
        sc.chart, [mul(rational(2), Q), mul(rational(-2), P)])


def test_hamiltonian_field_of_constant_vanishes(sc):
    assert hamiltonian_vf(rational(5), sc).is_zero()


def test_rotation_generator(sc):
    f = mul(rational(1, 2), add(power(P, 2), power(Q, 2)))
    assert hamiltonian_vf(f, sc) == VectorField(sc.chart, [Q, mul(rational(-1), P)])


def test_defining_equation_holds_symbolically(sc):
    from gqw.forms import exterior_derivative, interior_product, scalar_form
    for f in hams(sc):
        xi = hamiltonian_vf(f, sc)
        lhs = interior_product(xi, sc.omega)
        rhs = exterior_derivative(scalar_form(sc.chart, f))
        assert lhs == rhs


def _count_builds(monkeypatch) -> list:
    """(f, id(chart)) of every Hamiltonian field actually built, as opposed
    to returned from the chart's store."""
    builds = []
    build = symplectic._build_hamiltonian_vf

    def counted(f, s):
        builds.append((f, id(s)))
        return build(f, s)

    monkeypatch.setattr(symplectic, "_build_hamiltonian_vf", counted)
    return builds


def test_equal_hamiltonians_share_one_field(sc):
    f1, f2 = parse_expr("p*q + q^3", sc.chart.coords), parse_expr("q^3 + q*p", sc.chart.coords)
    assert f1 is f2
    assert hamiltonian_vf(f1, sc) is hamiltonian_vf(f2, sc)


def test_each_chart_builds_its_own_field(sc):
    twice = SymplecticChart(sc.chart, parse_form("2*dp^dq", sc.chart))
    f = mul(P, Q)
    xi, xi2 = hamiltonian_vf(f, sc), hamiltonian_vf(f, twice)
    assert xi == VectorField(sc.chart, [P, mul(rational(-1), Q)])
    assert xi2 == VectorField(sc.chart, [mul(rational(1, 2), P), mul(rational(-1, 2), Q)])
    assert hamiltonian_vf(f, sc) is xi and hamiltonian_vf(f, twice) is xi2


def test_failed_field_is_not_stored(sc, monkeypatch):
    # a wrong inverse (twice the true one) makes xi_f . omega = 2 df
    true_inverse = sc.inverse
    sc.inverse = [[mul(rational(2), w) for w in row] for row in true_inverse]
    builds = _count_builds(monkeypatch)
    f = mul(P, Q)
    for _ in range(2):
        with pytest.raises(DegeneracyError):
            hamiltonian_vf(f, sc)
    assert len(builds) == 2
    sc.inverse = true_inverse
    assert hamiltonian_vf(f, sc) == VectorField(sc.chart, [P, mul(rational(-1), Q)])
    assert len(builds) == 3


def test_poisson_suite_builds_each_field_once(monkeypatch):
    # the suite asks for each Hamiltonian field many times over; a field
    # built twice for one (f, chart) means its memo was lost
    builds = _count_builds(monkeypatch)
    assert run_suite(load_bundled(), "poisson").passed
    assert builds and len(builds) == len(set(builds))


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_pfaffian_inverse_is_exact_for_constant_omegas(dim):
    # W W^-1 = I exactly for random constant omegas: the Pfaffian sign rule
    # gives the true inverse in every supported dimension
    coords = tuple(f"x{k}" for k in range(dim))
    sampler = DomainSampler(coords=coords, box={x: (-1, 1) for x in coords}, seed=dim)
    chart = Chart(sampler)
    rng = random.Random(f"pfaffian:{dim}")
    for _ in range(3):
        coeffs = [rational(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
                  for _ in chart.pairs()]
        s = SymplecticChart(chart, KForm(chart, 2, coeffs))
        for i in range(dim):
            for j in range(dim):
                entry = add(*[mul(s.matrix[i][k], s.inverse[k][j]) for k in range(dim)])
                assert entry is (ONE if i == j else ZERO), (i, j)


def test_degenerate_omega_rejected():
    s = DomainSampler(coords=("p", "q"), box={"p": (-2, 2), "q": (-2, 2)}, seed=1)
    chart = Chart(s)
    with pytest.raises(DegeneracyError):
        SymplecticChart(chart, parse_form("0*dp^dq", chart))


def test_nonclosed_omega_rejected_in_four_dimensions():
    coords = ("p1", "p2", "q1", "q2")
    s = DomainSampler(coords=coords, box={c: (-2, 2) for c in coords}, seed=1)
    chart = Chart(s)
    good = parse_form("dp1^dq1 + dp2^dq2", chart)
    SymplecticChart(chart, good)  # closed, constant coefficients
    bad = parse_form("dp1^dq1 + dp2^dq2 + q2*dp1^dq1", chart)
    with pytest.raises(DegeneracyError):
        SymplecticChart(chart, bad)


# ---------------------------------------------------------------------------
# Poisson bracket


def test_canonical_bracket_sign(sc):
    # xi_p = -d/dq, so {p, q} = xi_p q = -1
    assert poisson(P, Q, sc) == rational(-1)
    assert poisson(Q, P, sc) == rational(1)


def test_bracket_antisymmetry_and_self(sc):
    f = add(power(P, 2), mul(P, Q))
    assert poisson(f, f, sc).is_zero()
    g = power(Q, 3)
    assert add(poisson(f, g, sc), poisson(g, f, sc)).is_zero()


def test_bracket_worked_example(sc):
    # xi_{p^2+q^2} = 2q d/dp - 2p d/dq applied to pq gives 2q^2 - 2p^2
    f = add(power(P, 2), power(Q, 2))
    got = poisson(f, mul(P, Q), sc)
    assert got == add(mul(rational(2), power(Q, 2)), mul(rational(-2), power(P, 2)))


def test_bracket_matches_flow_derivative_oracle(sc):
    # d/dt g(flow_t(x)) at t=0 along xi_f equals {f,g}(x)
    f = add(power(P, 2), power(Q, 2))
    g = mul(P, Q)
    br = poisson(f, g, sc)
    xi = hamiltonian_vf(f, sc)
    t = 1e-6
    for x in [(0.7, 0.3), (-1.1, 0.8)]:
        hi = flow_point(xi, x, t)
        lo = flow_point(xi, x, -t)
        env_hi = {"p": hi[0], "q": hi[1]}
        env_lo = {"p": lo[0], "q": lo[1]}
        oracle = (evalf(g, env_hi).real - evalf(g, env_lo).real) / (2 * t)
        exact = evalf(br, {"p": x[0], "q": x[1]}).real
        assert abs(oracle - exact) < 1e-6


def test_three_routes_agree_identically(sc):
    for f in hams(sc):
        for g in hams(sc):
            ways = poisson_ways(f, g, sc)
            assert ways["minus_omega"] == ways["directional"] == ways["interior"]


# ---------------------------------------------------------------------------
# bracket compatibility: [xi_f, xi_g] = xi_{f,g}


def bracket_lemma(f, g, sc):
    """expr_equal on each (lhs, rhs) component pair of [xi_f, xi_g] and
    xi_{f,g}, the pairs the bracket-compat checks yield."""
    lhs = lie_bracket(hamiltonian_vf(f, sc), hamiltonian_vf(g, sc))
    rhs = hamiltonian_vf(poisson(f, g, sc), sc)
    return [expr_equal(a, b, sc.chart.sampler)
            for a, b in zip(lhs.components, rhs.components)]


def test_bracket_lemma_constant_coefficient_fields(sc):
    # both sides cancel structurally: residual exactly 0.0
    assert bracket_lemma(P, Q, sc) == [(True, 0.0), (True, 0.0)]


def test_bracket_lemma_worked_pair(sc):
    assert all(ok for ok, _ in bracket_lemma(add(power(P, 2), power(Q, 2)), mul(P, Q), sc))


def test_bracket_lemma_random_polynomials(sc):
    rng = random.Random("bracket-lemma")
    for _ in range(20):
        assert all(ok for ok, _ in bracket_lemma(random_poly(rng), random_poly(rng), sc))


# ---------------------------------------------------------------------------
# algebra laws


def test_jacobi_identity(sc):
    rng = random.Random("jacobi")
    triples = [tuple(hams(sc)[k] for k in (3, 4, 6))]
    triples += [(random_poly(rng), random_poly(rng), random_poly(rng)) for _ in range(5)]
    for f, g, h in triples:
        total = add(poisson(f, poisson(g, h, sc), sc),
                    poisson(g, poisson(h, f, sc), sc),
                    poisson(h, poisson(f, g, sc), sc))
        assert total.is_zero()


def test_leibniz_rule(sc):
    rng = random.Random("leibniz")
    for _ in range(5):
        f, g, h = random_poly(rng), random_poly(rng), random_poly(rng)
        lhs = poisson(f, mul(g, h), sc)
        rhs = add(mul(poisson(f, g, sc), h), mul(g, poisson(f, h, sc)))
        assert lhs == rhs


def test_hamiltonian_flows_preserve_omega(sc):
    for f in hams(sc):
        assert lie_derivative_omega(f, sc).is_zero()


# ---------------------------------------------------------------------------
# non-constant omega: the defining equation leaves quotients such as w / w^2
# that the kernel does not cancel, so hamiltonian_vf decides it by sampling

NON_CONSTANT = """
[manifold]
coordinates = p, q
box p = -2, 2
box q = -2, 2

[symplectic]
omega = (2+2*p^2)*dp^dq

[prequant]
beta = (2*p + 2/3*p^3)*dq
"""


def test_non_constant_omega_hamiltonian_field_and_circle_suite():
    spec = load_spec_text(NON_CONSTANT)
    # xi_f = (1/w) (df/dq d/dp - df/dp d/dq) with w = 2 + 2 p^2
    xi = hamiltonian_vf(mul(P, Q), spec.sympl)
    inv_w = power(add(rational(2), mul(rational(2), power(P, 2))), -1)
    for got, want in zip(xi.components, (mul(P, inv_w), mul(rational(-1), Q, inv_w))):
        assert expr_equal(got, want, spec.chart.sampler)[0]
    report = run_suite(spec, "circle-iso")
    assert report.passed, report.to_text()


def _polynomial_area_system(seed):
    """omega = w dp^dq with w = 1 + c m for a seeded even monomial m and
    c > 0, so w >= 1 on the box; beta = (integral of w dp) dq."""
    rng = random.Random(f"area:{seed}")
    a, b = rng.choice(((2, 0), (0, 2)))
    c = rational(rng.randint(1, 4), 2)
    w = add(rational(1), mul(c, power(P, a), power(Q, b)))
    beta = add(P, mul(c, rational(1, a + 1), power(P, a + 1), power(Q, b)))
    return (f"[manifold]\ncoordinates = p, q\n"
            f"[symplectic]\nomega = ({to_str(w)})*dp^dq\n"
            f"[prequant]\nbeta = ({to_str(beta)})*dq\n")


@pytest.mark.parametrize("seed", [1, 2])
def test_poisson_suite_on_polynomial_area_forms(seed):
    report = run_suite(load_spec_text(_polynomial_area_system(seed)), "poisson")
    assert report.passed, report.to_text()


def test_area_form_defining_equation_cancels_structurally():
    # omega = w dp^dq inverts to +-1/w, so xi_f . omega = df cancels exactly
    text = ("[manifold]\ncoordinates = p, q\n"
            "[symplectic]\nomega = (1 + 3/2*p^2 + 3/2*p^2*q^2)*dp^dq\n"
            "[prequant]\nbeta = (p + 1/2*p^3 + 1/2*p^3*q^2)*dq\n")
    report = run_suite(load_spec_text(text), "poisson")
    assert report.passed, report.to_text()
    (defining,) = [c for c in report.checks if c.id == "hamiltonian-defining"]
    assert defining.residual == 0.0


@pytest.mark.parametrize("seed", [1, 2])
def test_four_dimensional_liouville_perturbation(seed):
    # omega = d(beta), beta = p dq + r ds + c x_a x_k dx_j with (x_k, x_j)
    # a conjugate pair and x_a from the other pair: the Pfaffian is
    # 1 + c x_a, at least 3/4 on the unit box for |c| <= 1/4
    coords = ("p", "q", "r", "s")
    rng = random.Random(f"liouville:{seed}")
    k, j = rng.choice(((0, 1), (2, 3)))
    a = rng.choice([x for x in range(4) if x not in (k, j)])
    c = rng.choice(["1/8", "-1/8", "1/4", "-1/4"])
    sampler = DomainSampler(coords=coords, box={x: (-1, 1) for x in coords}, seed=seed)
    chart = Chart(sampler)
    beta = parse_form(f"p*dq + r*ds + {c}*{coords[a]}*{coords[k]}*d{coords[j]}", chart)
    omega = exterior_derivative(beta)
    s = SymplecticChart(chart, omega)
    w = dict(zip(chart.pairs(), omega.coeffs))
    pf = add(mul(w[0, 1], w[2, 3]), mul(rational(-1), w[0, 2], w[1, 3]),
             mul(w[0, 3], w[1, 2]))
    assert not pf.is_one()
    assert all(abs(evalf(pf, dict(pt, hbar=1.0))) >= 0.5 for pt in sampler.points())
    hs = [parse_expr(t, coords) for t in ("p*q + r*s", "p^2 - s^2", "q*r + p")]
    for f in hs:
        got = interior_product(hamiltonian_vf(f, s), omega)
        df = exterior_derivative(scalar_form(chart, f))
        assert all(expr_equal(x, y, sampler)[0] for x, y in zip(got.coeffs, df.coeffs))
    for f, g in itertools.combinations(hs, 2):
        ways = poisson_ways(f, g, s)
        assert expr_equal(ways["minus_omega"], ways["directional"], sampler)[0]
        assert expr_equal(ways["interior"], ways["directional"], sampler)[0]
