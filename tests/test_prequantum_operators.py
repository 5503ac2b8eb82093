"""The prequantum operators and the E maps multiply by f + beta(xi_f) once;
built the long way, as the connection and the horizontal lift read them, they
give the same interned node.  Checked on the bundled system and on the
symbolic-corpus systems, over the sections the dirac and delta suites use."""

import pytest

from gqw.circle import E_circle, ks_operator
from gqw.expr import add, mul, power, rational, symbol
from gqw.mpc_bundle import E_mpc, delta_operator, section_sampler
from gqw.parse import parse_expr
from gqw.system import load_bundled, load_spec_text

from oracles import (
    E_circle_via_horizontal_lift, E_mpc_via_hat_lift, delta_operator_via_hat_lift,
    ks_operator_via_nabla,
)
from test_system import _bench_inputs

SYSTEMS = ["bundled", "corpus=1", "corpus=2", "corpus=3"]


@pytest.fixture(scope="module", params=SYSTEMS)
def spec(request):
    if request.param == "bundled":
        return load_bundled()
    return load_spec_text(_bench_inputs().corpus_spec(int(request.param.split("=")[1])))


def dirac_sections(spec):
    x0, x1 = symbol(spec.coords[0]), symbol(spec.coords[1])
    return [rational(1), mul(x0, x1), add(power(x0, 2), mul(rational(-1), x1))]


def delta_sections(spec):
    x1, x2 = spec.coords
    coords = section_sampler(spec.mpc_bundle()).coords
    return [parse_expr(t, coords) for t in ["1", f"g11*{x1}", f"{x1}*{x2} + g21"]]


def test_r_f_is_the_operator_through_nabla(spec):
    y = spec.circle_bundle()
    for f in spec.hamiltonians.values():
        for sec in dirac_sections(spec):
            assert ks_operator(f, sec, y) is ks_operator_via_nabla(f, sec, y)


def test_delta_f_is_the_operator_through_the_hat_lift(spec):
    bundle = spec.mpc_bundle()
    for f in spec.hamiltonians.values():
        for u in delta_sections(spec):
            assert delta_operator(f, u, bundle) is delta_operator_via_hat_lift(f, u, bundle)


def test_E_circle_is_the_horizontal_lift_plus_f(spec):
    y = spec.circle_bundle()
    for f in spec.hamiltonians.values():
        got, want = E_circle(f, y), E_circle_via_horizontal_lift(f, y)
        assert got.base is want.base and got.fiber is want.fiber


def test_E_mpc_is_the_hat_lift_plus_f(spec):
    bundle = spec.mpc_bundle()
    for f in spec.hamiltonians.values():
        got, want = E_mpc(f, bundle), E_mpc_via_hat_lift(f, bundle)
        assert got.base is want.base and got.tau_r is want.tau_r
        assert all(a is b for a, b in zip(got.a_r, want.a_r))
