"""Property suites over a loaded system, with machine-readable reports.

Each check carries an identifier, an anchor string stating the verified
identity, a pass/fail status, the worst residual observed, and the number of
samples involved.  Checks never raise: an exception inside a check surfaces
as a failed check with the error message attached.

A check is a row ``(id, anchor, fn)``, and one rule decides every residual
check (``_decide``): it takes the check's measurements ``(residual, n)`` in
order, reports their worst residual and summed ``n``, and fails the row at
the first residual over the row's bound.  A non-finite residual raises
``NumericError``: the row fails with an error, not a number.  A symbolic
``fn`` yields ``(lhs, rhs)`` expression pairs, each measured by
``expr_equal`` (exactly 0.0 when it cancels structurally) against epsilon; a
numeric row ``_within(bound, measure)`` names its bound in the row, and
``measure`` only yields measurements; the gamma rows measure exact
pushforwards (``pushforward_residual``), the bracket-flow-oracle rows the
exact flow commutator (``commutator_residual``).  ``prequant-vertical``
holds two bounds, epsilon and 1e-12.  The witness rows ``twist-no-frame-map``,
``rotation-frame-mismatch`` and ``membership-regression`` decide
themselves: their number is a separation that must be large.

Reports are deterministic for a fixed system and seed; timing is kept out of
the JSON rendering so that identical runs produce byte-identical reports.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import json
import math
import random
import time
from typing import Callable, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .circle import (
    CircleLiftedVF, E_circle, F_circle, I_HBAR_INV, TWO_PI_HBAR_INV, TWO_PI_I,
    bracket_lifted, connection_nabla, gamma_lie_derivative, horizontal_lift,
    ks_operator, lifted_rhs, vertical_action,
)
from .errors import NumericError, SystemSpecError
from .expr import Expr, HBAR, IMAG, PI, ZERO, add, mul, power, rational, symbol
from .flows import commutator_residual
from .forms import (
    VectorField, exterior_derivative, interior_product, lie_bracket, lie_derivative,
    scalar_form, zero_vf,
)
from .mpc_bundle import (
    E_mpc, F_mpc, StructuredVF, delta_operator,
    eta_ad_residual, example_base_rotation, example_fiberwise_twist, hat_lift,
    frame_lift, imag_expr, left_invariant, pushforward_residual,
    quantomorphism_membership, right_action_map, sample_fiber_points,
    section_sampler, structured_bracket, structured_rhs,
)
from .mpc_group import (
    IDENTITY, MpcAlgebra, ROTATION_GENERATOR, central, eta, exp_mpc, kappa,
    lift_path, lift_steps, mat_exp, mat_mul, mat_sub_norm, mp_mul,
    mpc_distance, mpc_identity, mpc_inv, mpc_mul, mu_loop, random_algebra,
    random_mpc, random_traceless, sigma,
)
from .parse import parse_expr
from .sample import DomainSampler, expr_equal, worst_of
from .symplectic import hamiltonian_vf, poisson, poisson_ways
from .system import SystemSpec


class CheckResult(NamedTuple):
    id: str
    anchor: str
    status: str
    residual: Optional[float]
    n_samples: int
    error: Optional[str] = None
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return self.status == "pass"


class Report(NamedTuple):
    suite: str
    checks: List[CheckResult]
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        payload = {
            "suite": self.suite,
            "checks": [
                {
                    "id": c.id,
                    "anchor": c.anchor,
                    "status": c.status,
                    "residual": c.residual,
                    "n_samples": c.n_samples,
                    **({"error": c.error} if c.error else {}),
                }
                for c in self.checks
            ],
        }
        return json.dumps(payload, indent=2)

    def to_text(self) -> str:
        lines = [f"suite {self.suite}: {'PASS' if self.passed else 'FAIL'} "
                 f"({self.elapsed:.2f} s)"]
        for c in self.checks:
            res = "-" if c.residual is None else f"{c.residual:.3e}"
            line = (f"  [{'pass' if c.passed else 'FAIL'}] {c.id}: {c.anchor} "
                    f"(residual {res}, n={c.n_samples}, {c.elapsed:.2f} s)")
            if c.error:
                line += f" error: {c.error}"
            lines.append(line)
        return "\n".join(lines)


Verdict = Tuple[bool, float, int]
Measurement = Tuple[float, int]  # (residual, points it covers)
# fn returns a Verdict or an iterable of (lhs, rhs) expression pairs
Check = Tuple[str, str, Callable[[], object]]


def _run_checks(suite: str, checks: Sequence[Check]) -> Report:
    results = []
    t0 = time.perf_counter()
    for cid, anchor, fn in checks:
        t1 = time.perf_counter()
        try:
            ok, residual, n = fn()
            results.append(CheckResult(cid, anchor, "pass" if ok else "fail",
                                       residual, n, elapsed=time.perf_counter() - t1))
        except Exception as exc:  # a crashed check is a failed check
            results.append(CheckResult(cid, anchor, "fail", None, 0,
                                       error=f"{type(exc).__name__}: {exc}",
                                       elapsed=time.perf_counter() - t1))
    return Report(suite, results, elapsed=time.perf_counter() - t0)


def _random_polynomial(rng: random.Random, coords: Sequence[str]) -> Expr:
    """One to four terms with coefficients in +-{1, 2, 3}, of degree <= 3."""
    xs = [symbol(c) for c in coords]
    terms = []
    for _ in range(rng.randint(1, 4)):
        exps = [0] * len(xs)
        budget = 3
        for k in range(len(xs)):
            exps[k] = rng.randint(0, budget)
            budget -= exps[k]
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        terms.append(mul(rational(c), *[power(x, e) for x, e in zip(xs, exps)]))
    return add(*terms)


def _decide(measurements: Iterable[Measurement], bound: float) -> Verdict:
    """The worst residual and summed n of the measurements, in order up to
    the first residual over ``bound``; a non-finite residual raises."""
    worst, n = 0.0, 0
    for r, k in measurements:
        if not math.isfinite(r):
            raise NumericError(f"non-finite residual {r}")
        worst = max(worst, r)
        n += k
        if r > bound:
            return False, worst, n
    return True, worst, n


def _within(bound: float, measure: Callable[[], Iterable[Measurement]]):
    """A numeric row's check: the measurements of ``measure()`` against ``bound``."""
    return lambda: _decide(measure(), bound)


def _compared(sampler: DomainSampler, pairs) -> Iterator[Measurement]:
    """The measurement of each (lhs, rhs) expression pair by expr_equal."""
    for lhs, rhs in pairs:
        yield expr_equal(lhs, rhs, sampler)[1], sampler.n_samples


def _verdict(spec: SystemSpec, fn: Callable[[], object]) -> Verdict:
    """Runs one check.  A tuple is the check's own verdict; anything else is
    its (lhs, rhs) pairs, all built before any is decided against epsilon."""
    out = fn()
    return out if isinstance(out, tuple) else _decide(
        _compared(spec.chart.sampler, list(out)), spec.epsilon)


def _deciding(build: Callable[[SystemSpec], List[Check]]):
    """The builder whose checks return verdicts (see _verdict); a check is
    built and decided inside its callable, so timing that times it all."""
    return lambda spec: [(cid, anchor, functools.partial(_verdict, spec, fn))
                         for cid, anchor, fn in build(spec)]


def _ham_pairs(spec: SystemSpec):
    hs = list(spec.hamiltonians.values())
    return list(itertools.combinations(hs, 2))


def _oracle_pair(spec: SystemSpec) -> Tuple[Expr, Expr]:
    """The fifth and fourth Hamiltonians: the flow oracles (with the second
    and fifth), the curvature check and the membership regression use them."""
    hs = list(spec.hamiltonians.values())
    if len(hs) < 5:
        raise SystemSpecError("this check needs at least 5 Hamiltonians; "
                              f"the system declares {len(hs)}")
    return hs[4], hs[3]


# ---------------------------------------------------------------------------
# poisson suite


def poisson_checks(spec: SystemSpec) -> List[Check]:
    s = spec.sympl
    hs = list(spec.hamiltonians.values())

    def defining_equation():
        for f in hs:
            lhs = interior_product(hamiltonian_vf(f, s), s.omega)
            rhs = exterior_derivative(scalar_form(spec.chart, f))
            yield from zip(lhs.coeffs, rhs.coeffs)

    def bracket_compat(function_pairs):
        for f, g in function_pairs:
            lhs = lie_bracket(hamiltonian_vf(f, s), hamiltonian_vf(g, s))
            yield from zip(lhs.components, hamiltonian_vf(poisson(f, g, s), s).components)

    def random_pairs():
        rng = spec.chart.sampler.rng("bracket-random")
        for _ in range(20):
            yield _random_polynomial(rng, spec.coords), _random_polynomial(rng, spec.coords)

    def jacobi():
        rng = spec.chart.sampler.rng("jacobi")
        triples = list(itertools.combinations(hs, 3))[:10]
        triples += [tuple(_random_polynomial(rng, spec.coords) for _ in range(3))
                    for _ in range(5)]
        for f, g, h in triples:
            total = add(poisson(f, poisson(g, h, s), s),
                        poisson(g, poisson(h, f, s), s),
                        poisson(h, poisson(f, g, s), s))
            yield total, ZERO

    def leibniz():
        rng = spec.chart.sampler.rng("leibniz")
        for _ in range(8):
            f = _random_polynomial(rng, spec.coords)
            g = _random_polynomial(rng, spec.coords)
            h = _random_polynomial(rng, spec.coords)
            lhs = poisson(f, mul(g, h), s)
            rhs = add(mul(poisson(f, g, s), h), mul(g, poisson(f, h, s)))
            yield lhs, rhs

    def sign_coherence():
        for f, g in _ham_pairs(spec):
            ways = poisson_ways(f, g, s)
            yield ways["minus_omega"], ways["directional"]
            yield ways["interior"], ways["directional"]

    def flows_preserve_omega():
        for f in hs:
            for c in lie_derivative(hamiltonian_vf(f, s), s.omega).coeffs:
                yield c, ZERO

    return [
        ("hamiltonian-defining", "xi_f . omega = df", defining_equation),
        ("bracket-compat-corpus", "[xi_f, xi_g] = xi_{f,g} on the corpus",
         lambda: bracket_compat(_ham_pairs(spec))),
        ("bracket-compat-random", "[xi_f, xi_g] = xi_{f,g} on 20 random polynomial pairs",
         lambda: bracket_compat(random_pairs())),
        ("jacobi", "{f,{g,h}} + {g,{h,f}} + {h,{f,g}} = 0", jacobi),
        ("leibniz", "{f, g*h} = {f,g}*h + g*{f,h}", leibniz),
        ("sign-coherence", "xi_f g = -omega(xi_f, xi_g) = <dg, xi_f>", sign_coherence),
        ("flows-preserve-omega", "L_{xi_f} omega = 0", flows_preserve_omega),
    ]


# ---------------------------------------------------------------------------
# circle-iso suite


def circle_checks(spec: SystemSpec) -> List[Check]:
    y = spec.circle_bundle()
    s = spec.sympl
    hs = list(spec.hamiltonians.values())

    def field_pairs(z1: CircleLiftedVF, z2: CircleLiftedVF):
        yield from zip(z1.base.components, z2.base.components)
        yield z1.fiber, z2.fiber

    def lifted_bracket():
        for f, g in _ham_pairs(spec):
            br = poisson(f, g, s)
            lhs = bracket_lifted(horizontal_lift(hamiltonian_vf(f, s), y),
                                 horizontal_lift(hamiltonian_vf(g, s), y))
            hor = horizontal_lift(hamiltonian_vf(br, s), y)
            rhs = CircleLiftedVF(y, hor.base,
                                 add(hor.fiber, mul(rational(-1), TWO_PI_HBAR_INV, br)))
            yield from field_pairs(lhs, rhs)

    def e_homomorphism():
        for f, g in _ham_pairs(spec):
            lhs = E_circle(poisson(f, g, s), y)
            rhs = bracket_lifted(E_circle(f, y), E_circle(g, y))
            yield from field_pairs(lhs, rhs)

    def e_preserves_connection():
        for f in hs:
            for c in gamma_lie_derivative(E_circle(f, y)).coeffs:
                yield c, ZERO

    def f_inverts_e():
        for f in hs:
            yield F_circle(E_circle(f, y)), f

    def e_inverts_f():
        for f in hs:
            z = E_circle(f, y)
            back = E_circle(F_circle(z), y)
            yield from field_pairs(back, z)

    def horizontal_gamma():
        rng = spec.chart.sampler.rng("hlift")
        for _ in range(10):
            f = _random_polynomial(rng, spec.coords)
            z = horizontal_lift(hamiltonian_vf(f, s), y)
            yield z.gamma(), ZERO

    def bracket_flow_oracle():
        f, g = _oracle_pair(spec)
        rng = spec.chart.sampler.rng("circle-flow:fiber")
        pts = [[pt[c] for c in spec.coords] + [rng.uniform(0, 1)]
               for pt in spec.chart.sampler.points(8, seed_tag="circle-flow")]
        pairs = [(E_circle(f, y), E_circle(g, y)), (E_circle(hs[1], y), E_circle(f, y))]
        yield worst_of(commutator_residual(lifted_rhs(z1), lifted_rhs(z2),
                                           lifted_rhs(bracket_lifted(z1, z2)), pts)
                       for z1, z2 in pairs), len(pts)

    return [
        ("lifted-bracket-formula",
         "[lift xi_f, lift xi_g] = lift xi_{f,g} - (1/(2 pi hbar)) {f,g} vertical",
         lifted_bracket),
        ("e-homomorphism", "E({f,g}) = [E(f), E(g)]", e_homomorphism),
        ("e-preserves-connection", "L_{E(f)} gamma = 0", e_preserves_connection),
        ("f-inverts-e", "F(E(f)) = f", f_inverts_e),
        ("e-inverts-f", "E(F(zeta)) = zeta on the image of E", e_inverts_f),
        ("horizontal-lift-gamma", "gamma(horizontal lift) = 0", horizontal_gamma),
        ("bracket-flow-oracle",
         "lifted bracket agrees with the numeric flow commutator",
         _within(1e-5, bracket_flow_oracle)),
    ]


# ---------------------------------------------------------------------------
# dirac suite


def dirac_checks(spec: SystemSpec) -> List[Check]:
    y = spec.circle_bundle()
    s = spec.sympl
    hs = list(spec.hamiltonians.values())
    x0, x1 = symbol(spec.coords[0]), symbol(spec.coords[1])
    sects = [rational(1), mul(x0, x1), add(power(x0, 2), mul(rational(-1), x1))]

    def identity_axiom():
        for sec in sects:
            yield ks_operator(rational(1), sec, y), sec

    def commutator_axiom():
        for f in hs[1:6]:
            for g in hs[2:5]:
                for sec in sects:
                    fg = ks_operator(f, ks_operator(g, sec, y), y)
                    gf = ks_operator(g, ks_operator(f, sec, y), y)
                    lhs = add(fg, mul(rational(-1), gf))
                    rhs = mul(IMAG, HBAR, ks_operator(poisson(f, g, s), sec, y))
                    yield lhs, rhs

    def curvature():
        n = spec.chart.dim

        def basis(k):
            return VectorField(spec.chart,
                               [rational(1) if i == k else ZERO for i in range(n)])

        mixed = [ZERO] * n
        mixed[0], mixed[1] = x1, x0
        fields = [basis(0), basis(1), VectorField(spec.chart, mixed)]
        for xi in fields:
            for etaf in fields:
                for sec in sects[:2]:
                    a = connection_nabla(xi, connection_nabla(etaf, sec, y), y)
                    b = connection_nabla(etaf, connection_nabla(xi, sec, y), y)
                    c = connection_nabla(lie_bracket(xi, etaf), sec, y)
                    lhs = add(a, mul(rational(-1), b), mul(rational(-1), c))
                    rhs = mul(I_HBAR_INV, s.omega(xi, etaf), sec)
                    yield lhs, rhs

    def operator_via_connection():
        for f in hs:
            for sec in sects:
                xi = hamiltonian_vf(f, s)
                lhs = ks_operator(f, sec, y)
                rhs = add(mul(IMAG, HBAR, connection_nabla(xi, sec, y)), mul(f, sec))
                yield lhs, rhs

    def vertical_rule():
        for sec in sects:
            yield vertical_action(sec), mul(rational(-1), TWO_PI_I, sec)

    return [
        ("identity-axiom", "r(1) = id", identity_axiom),
        ("commutator-axiom", "[r(f), r(g)] = i hbar r({f,g})", commutator_axiom),
        ("curvature-identity",
         "(nabla nabla - nabla nabla - nabla_[,]) = (1/(i hbar)) omega", curvature),
        ("operator-via-connection", "r(f) = i hbar nabla_{xi_f} + f",
         operator_via_connection),
        ("vertical-action", "the vertical generator acts on sections by -2 pi i",
         vertical_rule),
    ]


# ---------------------------------------------------------------------------
# group suite (independent of the system's forms; draws the sampler's streams)


def group_checks(spec: SystemSpec) -> List[Check]:
    def rand_sp(rng):
        return mat_exp(random_traceless(rng, 1.2))

    def rand_mpc(rng):
        return random_mpc(rng, 1.2, math.pi)

    def cocycle_identity(rng):
        g1, g2, g3 = rand_sp(rng), rand_sp(rng), rand_sp(rng)
        lhs = kappa(g1, g2) + kappa(mat_mul(g1, g2), g3)
        rhs = kappa(g2, g3) + kappa(g1, mat_mul(g2, g3))
        return float((lhs - rhs) % 2 != 0)

    def drawn(tag: str, n: int, residual: Callable[[random.Random], float]):
        """Measurements residual(rng) of n draws of the {seed}:{tag} stream."""
        def measure():
            rng = spec.chart.sampler.rng(tag)
            for _ in range(n):
                yield residual(rng), 1
        return measure

    def axioms(rng):
        a, b, c = rand_mpc(rng), rand_mpc(rng), rand_mpc(rng)
        return worst_of((mpc_distance(mpc_mul(mpc_mul(a, b), c), mpc_mul(a, mpc_mul(b, c))),
                         mpc_distance(mpc_mul(a, mpc_inv(a)), mpc_identity())))

    def eta_on_center(rng):
        lam = cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        return abs(eta(central(lam)) - lam * lam)

    def homomorphisms(rng):
        a, b = rand_mpc(rng), rand_mpc(rng)
        ab = mpc_mul(a, b)
        return worst_of((mat_sub_norm(sigma(ab), mat_mul(sigma(a), sigma(b))),
                         abs(eta(ab) - eta(a) * eta(b))))

    def path_lift_vs_cocycle(rng):
        a1 = random_traceless(rng, 2)
        a2 = random_traceless(rng, 2)
        n2 = lift_steps(a2)
        lift1 = lift_path(a1, lift_steps(a1))
        lift2 = lift_path(a2, n2)
        cont = lift_path(a2, n2, start=lift1)
        prod = mp_mul(lift1, lift2)
        return float(cont.sheet != prod.sheet or not mat_sub_norm(cont.g, prod.g) <= 1e-9)

    def loop_lifts():
        turn = tuple(2 * math.pi * v for v in ROTATION_GENERATOR)
        double_turn = tuple(4 * math.pi * v for v in ROTATION_GENERATOR)
        single = lift_path(turn, lift_steps(turn))
        double = lift_path(double_turn, lift_steps(double_turn))
        ok = (single.sheet == 1 and double.sheet == 0
              and mat_sub_norm(single.g, IDENTITY) < 1e-9
              and mat_sub_norm(double.g, IDENTITY) < 1e-9)
        ok = ok and mu_loop(0.5).sheet == 1 and mu_loop(1.0).sheet == 0
        yield float(not ok), 2

    def one_parameter(rng):
        alpha = random_algebra(rng)
        t, u = rng.uniform(-2, 2), rng.uniform(-2, 2)
        return mpc_distance(exp_mpc(alpha, t + u),
                            mpc_mul(exp_mpc(alpha, t), exp_mpc(alpha, u)))

    def exp_one_parameter():
        yield from drawn("exp", 20, one_parameter)()
        full_turn = exp_mpc(MpcAlgebra(ROTATION_GENERATOR, 0j), 2 * math.pi)
        yield abs(full_turn.phase + 1.0), 0

    def algebra_split(rng):
        h = 1e-6
        alpha = random_algebra(rng)
        out = exp_mpc(alpha, h)
        fd_A = tuple((g - e) / h for g, e in zip(out.g, IDENTITY))
        return worst_of((*(abs(x - y) for x, y in zip(fd_A, alpha.A)),
                         abs(0.5 * cmath.phase(eta(out)) / h - alpha.tau.imag)))

    return [
        ("cocycle-identity", "kappa parity satisfies the 2-cocycle identity",
         _within(0.0, drawn("cocycle", 1000, cocycle_identity))),
        ("group-axioms", "associativity and inverses in the circle extension",
         _within(1e-9, drawn("axioms", 1000, axioms))),
        ("eta-center", "eta(lambda) = lambda^2 on the central circle",
         _within(1e-12, drawn("center", 200, eta_on_center))),
        ("sigma-eta-homomorphisms", "sigma and eta are group homomorphisms",
         _within(1e-9, drawn("homs", 1000, homomorphisms))),
        ("path-lift-vs-cocycle",
         "continuous path lifting agrees with the cocycle sheets on products",
         _within(0.0, drawn("pathlift", 200, path_lift_vs_cocycle))),
        ("loop-lifts", "R(2 pi t) lifts open; R(4 pi t) lifts closed", _within(0.0, loop_lifts)),
        ("exp-one-parameter", "exp((t+s) alpha) = exp(t alpha) exp(s alpha)",
         _within(1e-9, exp_one_parameter)),
        ("algebra-split", "sigma_* and (1/2) eta_* recover the algebra components",
         _within(1e-4, drawn("split", 20, algebra_split))),
    ]


# ---------------------------------------------------------------------------
# mpc-iso suite


def mpc_checks(spec: SystemSpec) -> List[Check]:
    bundle = spec.mpc_bundle()
    s = spec.sympl
    hs = list(spec.hamiltonians.values())

    def struct_check(produce):
        """The check that pairs of structured fields agree: the symbolic
        slots are decided like (lhs, rhs) pairs, and the constant
        left-invariant slots must agree within epsilon."""
        def measure():
            pairs = []
            consts = []
            for z1, z2 in produce():
                pairs.extend(zip(z1.base.components, z2.base.components))
                pairs.extend(zip(z1.a_r, z2.a_r))
                pairs.append((z1.tau_r, z2.tau_r))
                consts.extend(zip((z1.tau_l, *z1.a_l), (z2.tau_l, *z2.a_l)))
            yield from _compared(spec.chart.sampler, pairs)
            yield from ((abs(a - b), 0) for a, b in consts)
        return _within(spec.epsilon, measure)

    def invariance():
        rng = spec.chart.sampler.rng("invariance")
        for x in sample_fiber_points(bundle, 4, seed_tag="inv"):
            b = random_mpc(rng, 0.8, 3)
            yield pushforward_residual(bundle, right_action_map(b), x), 1

    def vertical_pairing():
        rng = spec.chart.sampler.rng("vertical")
        pairs = []
        for _ in range(10):
            a = rng.uniform(-1, 1)
            tau = 1j * rng.uniform(-1, 1)
            v = left_invariant(bundle, (a, rng.uniform(-1, 1), rng.uniform(-1, 1), -a),
                               tau)
            pairs.append((v.gamma(), imag_expr(tau)))
        ok, worst, n = _decide(_compared(spec.chart.sampler, pairs), spec.epsilon)
        ad = eta_ad_residual(30, spec.chart.sampler.rng("eta-ad"))
        ad_ok, ad, ad_n = _decide([(ad, 30)], 1e-12)
        return ok and ad_ok, max(worst, ad), n + ad_n

    def curvature_structured():
        # d gamma evaluated invariantly on structured pairs:
        # zeta1 gamma(zeta2) - zeta2 gamma(zeta1) - gamma([zeta1, zeta2])
        f, g = _oracle_pair(spec)
        for z1, z2 in [
            (E_mpc(f, bundle), E_mpc(g, bundle)),
            (hat_lift(f, bundle), hat_lift(g, bundle)),
            (hat_lift(g, bundle), left_invariant(bundle, (0.0, 1.0, 1.0, 0.0), 0.4j)),
        ]:
            lhs = add(z1.base.apply(z2.gamma()),
                      mul(rational(-1), z2.base.apply(z1.gamma())),
                      mul(rational(-1), structured_bracket(z1, z2).gamma()))
            yield lhs, mul(I_HBAR_INV, s.omega(z1.base, z2.base))

    def frame_homomorphism():
        for f, g in _ham_pairs(spec)[:10]:
            lhs = frame_lift(poisson(f, g, s), bundle)
            yield lhs, structured_bracket(frame_lift(f, bundle), frame_lift(g, bundle))

    def hat_contract():
        for f in hs:
            z = hat_lift(f, bundle)
            yield z.gamma(), ZERO
            yield from zip(z.a_r, bundle.linearization(z.base))
            yield from zip(z.base.components, hamiltonian_vf(f, s).components)

    def e_homomorphism_mpc():
        for f, g in _ham_pairs(spec)[:12]:
            lhs = E_mpc(poisson(f, g, s), bundle)
            yield lhs, structured_bracket(E_mpc(f, bundle), E_mpc(g, bundle))

    def e_membership():
        for f in hs:
            yield worst_of(quantomorphism_membership(E_mpc(f, bundle))), 3 * spec.samples

    def hat_commutes_vertical():
        rng = spec.chart.sampler.rng("hatvert")
        for f in hs[1:]:
            v = left_invariant(bundle, random_traceless(rng, 1), 1j * rng.uniform(-1, 1))
            out = structured_bracket(hat_lift(f, bundle), v)
            yield out, StructuredVF(bundle, zero_vf(bundle.chart))

    def f_inverts_e_mpc():
        for f in hs:
            yield F_mpc(E_mpc(f, bundle)), f

    def e_inverts_f_mpc():
        for f in hs:
            z = E_mpc(f, bundle)
            yield E_mpc(F_mpc(z), bundle), z

    def bracket_oracle():
        f, g = _oracle_pair(spec)
        pts = sample_fiber_points(bundle, 8)
        pairs = [(E_mpc(f, bundle), E_mpc(g, bundle)),
                 (hat_lift(f, bundle), left_invariant(bundle, (0.0, 1.0, 1.0, 0.0), 0.7j)),
                 (E_mpc(hs[1], bundle), E_mpc(f, bundle))]
        yield worst_of(commutator_residual(structured_rhs(z1), structured_rhs(z2),
                                           structured_rhs(structured_bracket(z1, z2)), pts)
                       for z1, z2 in pairs), len(pts)

    def membership_regression():
        _, f = _oracle_pair(spec)
        good = E_mpc(f, bundle)
        bad = StructuredVF(bundle, good.base, a_r=good.a_r, tau_r=good.tau_r,
                           a_l=(1.0, 0.0, 0.0, -1.0), tau_l=0j)
        connection, left_sp, frame = quantomorphism_membership(bad)
        fval = F_mpc(bad, check=False)
        ok_value, _ = expr_equal(fval, f, spec.chart.sampler)
        broke = E_mpc(fval, bundle) != bad
        ok = connection <= spec.epsilon < max(left_sp, frame) and ok_value and broke
        return ok, left_sp, spec.samples

    return [
        ("prequant-invariance", "gamma is invariant under the right action (sampled)",
         _within(1e-6, invariance)),
        ("prequant-vertical",
         "gamma(vertical generator) = u(1) algebra component; conjugation invisible",
         vertical_pairing),
        ("prequant-curvature",
         "d gamma = (1/(i hbar)) omega upstairs (structured evaluation)",
         curvature_structured),
        ("frame-lift-homomorphism", "lift of {f,g} = bracket of the lifts",
         struct_check(frame_homomorphism)),
        ("hat-lift-contract",
         "gamma(hat xi_f) = 0 and the frame part is the base Jacobian", hat_contract),
        ("e-homomorphism", "E({f,g}) = [E(f), E(g)] on structured fields",
         struct_check(e_homomorphism_mpc)),
        ("e-membership", "E(f) satisfies both membership conditions",
         _within(spec.epsilon, e_membership)),
        ("hat-commutes-vertical", "[hat xi_f, vertical generator] = 0",
         struct_check(hat_commutes_vertical)),
        ("f-inverts-e", "F(E(f)) = f", f_inverts_e_mpc),
        ("e-inverts-f", "E(F(zeta)) = zeta on the image of E", struct_check(e_inverts_f_mpc)),
        ("bracket-flow-oracle",
         "structured bracket agrees with the flow commutator at 8 points",
         _within(1e-5, bracket_oracle)),
        ("membership-regression",
         "dropping the covering condition breaks E(F(zeta)) = zeta",
         membership_regression),
    ]


# ---------------------------------------------------------------------------
# delta suite


def delta_checks(spec: SystemSpec) -> List[Check]:
    bundle = spec.mpc_bundle()
    s = spec.sympl
    hs = list(spec.hamiltonians.values())
    sampler = section_sampler(bundle)
    x1, x2 = spec.coords  # the bundle exists, so the chart is 2-d
    sections = [parse_expr(t, sampler.coords) for t in ["1", f"g11*{x1}", f"{x1}*{x2} + g21"]]

    def on_sections(pairs):
        return lambda: _decide(_compared(sampler, list(pairs())), spec.epsilon)

    def identity_rule():
        for u in sections:
            yield delta_operator(rational(1), u, bundle), mul(I_HBAR_INV, u)

    def homomorphism():
        for u in sections:
            for f, g in _ham_pairs(spec)[:7]:
                lhs = add(delta_operator(f, delta_operator(g, u, bundle), bundle),
                          mul(rational(-1),
                              delta_operator(g, delta_operator(f, u, bundle), bundle)))
                yield lhs, delta_operator(poisson(f, g, s), u, bundle)

    def scaled_operator():
        y = spec.circle_bundle()
        for f in hs[3:6]:
            for t in ["1", f"{x1}*{x2}"]:
                u = parse_expr(t, spec.coords)
                lhs = mul(IMAG, HBAR, delta_operator(f, u, bundle))
                yield lhs, ks_operator(f, u, y)

    return [
        ("delta-identity", "delta_1 = (1/(i hbar)) id", on_sections(identity_rule)),
        ("delta-homomorphism", "[delta_f, delta_g] = delta_{f,g}", on_sections(homomorphism)),
        ("delta-scaled-operator",
         "i hbar delta_f matches the line-bundle operator on base-only sections",
         on_sections(scaled_operator)),
    ]


# ---------------------------------------------------------------------------
# counterexamples suite


def counterexample_checks(spec: SystemSpec) -> List[Check]:
    bundle = spec.mpc_bundle()
    # each report is built once, by the first check that needs it
    twist_report = functools.cache(lambda: example_fiberwise_twist(bundle))
    rotation_report = functools.cache(
        lambda: example_base_rotation(bundle, mul(rational(1, 2), PI)))

    def twist():
        yield twist_report().gamma_residual, 8

    def twist_fiber():
        rep = twist_report()
        return rep.fiber_gap >= 0.5, rep.fiber_gap, 2

    def twist_eta():
        yield twist_report().eta_residual, 20

    def rotation_gamma():
        rep = rotation_report()
        yield rep.equivariance_residual, 20
        yield float(not rep.gamma_preserved), 0

    def rotation_mismatch():
        rep = rotation_report()
        return abs(rep.fiber_difference - 2.0) < 1e-9, rep.fiber_difference, 1

    return [
        ("twist-gamma-preserved",
         "the fiberwise twist preserves the connection form (sampled)", _within(1e-6, twist)),
        ("twist-no-frame-map",
         "the twisted image is fiber-dependent: no frame-bundle map exists",
         twist_fiber),
        ("twist-eta-preserved", "the determinant character is preserved exactly",
         _within(1e-12, twist_eta)),
        ("rotation-gamma-equivariance", "the base rotation preserves gamma and is equivariant",
         _within(1e-12, rotation_gamma)),
        ("rotation-frame-mismatch",
         "induced frame map differs from the lifted base map (gap |I - R| = 2)",
         rotation_mismatch),
    ]


# ---------------------------------------------------------------------------


_SUITE_BUILDERS = {name: _deciding(build) for name, build in (
    ("poisson", poisson_checks),
    ("circle-iso", circle_checks),
    ("dirac", dirac_checks),
    ("group", group_checks),
    ("mpc-iso", mpc_checks),
    ("delta", delta_checks),
    ("counterexamples", counterexample_checks),
)}
SUITE_NAMES = tuple(_SUITE_BUILDERS)


def _build(name: str, spec: SystemSpec) -> List[Check]:
    # a builder that cannot set up (e.g. the 2-dim-only bundle on another
    # system) must surface as a failed check, not a crash
    try:
        return _SUITE_BUILDERS[name](spec)
    except Exception as exc:
        err = exc  # the except clause unbinds exc when it ends

        def failed():
            raise err

        return [(f"{name}-setup", "suite construction", failed)]


def run_suite(spec: SystemSpec, suite: str) -> Report:
    """Execute one named suite (or 'all') against a loaded system."""
    choices = SUITE_NAMES + ("all",)
    if suite not in choices:
        raise ValueError(f"unknown suite '{suite}' (choose from {', '.join(choices)})")
    names = SUITE_NAMES if suite == "all" else (suite,)
    return _run_checks(suite, [c for name in names for c in _build(name, spec)])
