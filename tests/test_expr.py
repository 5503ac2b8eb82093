"""Expression kernel: parsing, canonical forms, differentiation, equality."""

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from gqw.errors import (
    EvaluationError, ExprSyntaxError, SamplingError, UnboundSymbolError, UnknownSymbolError,
)
from gqw.expr import (
    HBAR, IMAG, ONE, PI, ZERO, Add, Block, Call, Constant, Mul, Pow, Rational, Symbol, add,
    call, diff, evalf, mul, power, rational, subs, symbol, to_str,
)
from gqw.parse import _tokenize, parse_expr
from gqw.sample import DomainSampler, expr_equal
from bounded import run_bounded
from oracles import add_rebuilt, evalf_walk, mul_rebuilt, power_rebuilt, reference_tokenize

P = symbol("p")
Q = symbol("q")
VOCAB = ("p", "q")


def sampler(**kw):
    args = dict(coords=("p", "q"),
                box={"p": (-2.0, 2.0), "q": (-2.0, 2.0)},
                positive=(add(power(P, 2), power(Q, 2)),),
                seed=42, n_samples=32, tolerance=1e-9)
    args.update(kw)
    return DomainSampler(**args)


# ---------------------------------------------------------------------------
# parsing


def test_parse_sum_of_squares():
    assert parse_expr("p^2 + q^2", VOCAB) == add(power(P, 2), power(Q, 2))


def test_parse_rational_coefficient():
    got = parse_expr("1/2*(p^2+q^2)", VOCAB)
    assert got == mul(rational(1, 2), add(power(P, 2), power(Q, 2)))


def test_parse_unknown_symbol_names_it():
    with pytest.raises(UnknownSymbolError) as err:
        parse_expr("(p*dq", VOCAB)
    assert err.value.name == "dq"


def test_parse_syntax_error_has_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("p + * q", VOCAB)
    assert err.value.offset == 4


def test_parse_decimal_is_exact():
    assert parse_expr("0.5", VOCAB) == rational(1, 2)
    assert parse_expr("2.25*p", VOCAB) == mul(rational(9, 4), P)


def test_parse_reserved_constants():
    assert parse_expr("pi", VOCAB) == PI
    assert parse_expr("i^2", VOCAB) == rational(-1)
    assert parse_expr("hbar", VOCAB) == HBAR


def test_parse_precedence():
    # ^ binds tighter than unary minus, which binds tighter than *
    assert parse_expr("-p^2", VOCAB) == mul(rational(-1), power(P, 2))
    assert parse_expr("p^(-1)", VOCAB) == power(P, -1)
    assert parse_expr("2*p + q*3", VOCAB) == add(mul(rational(2), P), mul(rational(3), Q))


def test_general_division_is_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_expr("p/q", VOCAB)


DEEP = 10000
TOO_DEEP = "expression nested too deeply"


@pytest.mark.parametrize("text, message, offset", [
    ("p $ q", "unexpected character '$'", 2),
    ("(p", "expected ')'", 2),
    ("p^q", "exponent must be a rational literal", 1),
    ("1/0", "zero denominator", 1),
    ("sin p", "function 'sin' needs an argument list", 0),
    # str.isdigit() accepted '²', and int('²') raised a bare ValueError
    ("p^²", "unexpected character '²'", 2),
    # each nesting raised RecursionError; the right operands of + and *
    # nest too, three levels to each parenthesis of the last
    pytest.param("(" * DEEP + "p" + ")" * DEEP, TOO_DEEP, 200, id="deep-parentheses"),
    pytest.param("-" * DEEP + "p", TOO_DEEP, 200, id="deep-unary-minus"),
    pytest.param("sin(" * DEEP + "p" + ")" * DEEP, TOO_DEEP, 803, id="deep-sin"),
    pytest.param("p" + "^2" * DEEP, TOO_DEEP, 401, id="deep-caret"),
    pytest.param("(p+q*" * DEEP + "p" + ")" * DEEP, TOO_DEEP, 334, id="deep-sum-and-product"),
    # the kernel's errors in a constant power are reported at its '^'
    ("p + 0^(-1)", "division by zero in a constant power", 5),
    ("2^100001", "constant power too large: over 100000 bits", 1),
    ("p*(1/3)^(-100001)", "constant power too large: over 100000 bits", 7),
    # the group (p) is stored before the unclosed one is reached
    ("(p)+(p", "expected ')'", 6),
    # an offset indexes characters: U+3000 is one, and three UTF-8 bytes
    ("p +\u3000)", "unexpected ')'", 4),
])
def test_parse_errors_name_the_problem_and_its_offset(text, message, offset):
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr(text, VOCAB)
    assert err.value.offset == offset
    assert str(err.value) == f"{message} (at offset {offset})"


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ExprSyntaxError as err:
        return str(err), err.offset


@given(st.text())
@example("²")
@example("p²")
@example("½")
@example("Ⅻ")
@example("٣.٥")
@example("_p")
@example("1.")
@example("1.5.2")
@example("\u3000p")  # an ideographic space
@example("\x1cq")  # str.isspace() holds for the file separator
@example("p\nq")
@example("p\tq")
@example("٣")  # an Arabic-Indic digit three
@example("p + q$")
@example("p2.5")
def test_tokenize_matches_the_character_loop(text):
    expected = _tokens_or_error(reference_tokenize, text)
    if isinstance(expected, list):  # an operator's kind is its own character
        expected = [(tok if kind == "op" else kind, tok, at) for kind, tok, at in expected]
    assert _tokens_or_error(_tokenize, text) == expected


# these parsed as p + q, 2^(1/2) and p^(-1/2): the rational literal after
# '^' took the '/' that a reader takes for a quotient
@pytest.mark.parametrize("text, offset", [
    ("p^2/2 + q^2/2", 3), ("2^1/2", 3), ("p^-1/2", 4), ("p^+1/2", 4),
])
def test_a_rational_literal_exponent_needs_parentheses(text, offset):
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr(text, VOCAB)
    assert err.value.offset == offset
    assert "write p^(3/2) for a fractional exponent, 1/2*p^3 for a quotient" in str(err.value)


def test_parenthesized_exponents_and_rational_coefficients_still_parse():
    assert parse_expr("p^(1/2)", VOCAB) == power(P, Fraction(1, 2))
    assert parse_expr("p^(-1/2)", VOCAB) == power(P, Fraction(-1, 2))
    assert parse_expr("1/2*p^2", VOCAB) == mul(rational(1, 2), power(P, 2))
    assert parse_expr("p*1/2", VOCAB) == mul(rational(1, 2), P)


def test_nesting_up_to_the_limit_parses():
    # a chain of + or * nests no deeper than its first operand
    assert parse_expr(" + ".join(["p"] * 1000), VOCAB) is mul(rational(1000), P)
    assert parse_expr("*".join(["(-p)"] * 1000), VOCAB) is power(P, 1000)
    assert parse_expr("(" * 200 + "p" + ")" * 200, VOCAB) is P
    assert parse_expr("-" * 200 + "p", VOCAB) is P
    assert parse_expr("p" + "^1" * 200, VOCAB) is P
    deep = parse_expr("sin(" * 200 + "p" + ")" * 200, VOCAB)
    assert parse_expr(to_str(deep), VOCAB) is deep


def test_offsets_index_characters_not_utf8_bytes():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("é + )", ("é",))
    assert err.value.offset == 4  # the UTF-8 byte offset is 5


# ---------------------------------------------------------------------------
# the table of parsed regions: a text, group or argument list parsed before
# is read from parse._REGIONS, which must never change a result


@pytest.fixture
def cold_regions(monkeypatch):
    """An empty table of parsed regions for one test."""
    from gqw import parse
    table = {}
    monkeypatch.setattr(parse, "_REGIONS", table)
    return table


def _outcome(text, vocab=VOCAB):
    """The node ``text`` parses to, or its error's type, message and offset."""
    try:
        return parse_expr(text, vocab)
    except ExprSyntaxError as err:
        return type(err), str(err), err.offset


def test_an_unclosed_group_stays_an_error_once_the_closed_one_is_stored(cold_regions):
    assert parse_expr("(p)", VOCAB) is P
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("(p", VOCAB)
    assert str(err.value) == "expected ')' (at offset 2)"
    assert list(cold_regions[frozenset(VOCAB)]) == ["(p)"]


def test_a_region_is_stored_for_its_own_vocabulary(cold_regions):
    x = symbol("x")
    for text, offset in [("(p+x)", 3), ("q*(p+x)", 5), ("sin(p+x)", 6)]:
        assert _outcome(text) == (UnknownSymbolError, f"unknown symbol 'x' (at offset {offset})",
                                  offset)
        assert parse_expr(text, ("p", "q", "x")) is parse_expr(text, ("x", "q", "p"))
        assert _outcome(text) == (UnknownSymbolError, f"unknown symbol 'x' (at offset {offset})",
                                  offset)
    assert parse_expr("(p+x)", ("p", "q", "x")) is add(P, x)


def test_a_stored_group_does_not_lift_the_product_limit(cold_regions, monkeypatch):
    from gqw import expr
    monkeypatch.setattr(expr, "_MAX_PRODUCTS", 1000)
    for stored in (False, True):
        if stored:
            assert parse_expr("(p+q)", VOCAB) is add(P, Q)
        for text in ["(p+q)^32", "q*(p+q)^32"]:
            with pytest.raises(ExprSyntaxError, match="over 1000 products") as err:
                parse_expr(text, VOCAB)
            assert err.value.offset == text.index("^")
    assert "(p+q)" in cold_regions[frozenset(VOCAB)]


@pytest.mark.parametrize("region", ["(p+q)", "sin((p+q)^2)", "(" * 9 + "p*q" + ")" * 9])
def test_a_stored_region_nested_deeper_still_meets_the_depth_limit(region, monkeypatch):
    # stored at depth 0, then read at each depth around the limit: every
    # outcome is that of a parse with an empty table
    from gqw import parse
    texts = ["(" * n + region + ")" * n for n in range(185, 202)]
    cold = []
    for text in texts:
        monkeypatch.setattr(parse, "_REGIONS", {})
        cold.append(_outcome(text))
    monkeypatch.setattr(parse, "_REGIONS", {})
    parse_expr(region, VOCAB)
    assert [_outcome(text) for text in texts] == cold
    # the 201st parenthesis is the first in the region that opens a level
    deepest = "(" * 200 + region + ")" * 200
    offset = deepest.index("(", 200)
    assert cold[texts.index(deepest)][1:] == (f"{TOO_DEEP} (at offset {offset})", offset)


def test_a_warm_table_gives_the_node_a_cold_parse_builds(monkeypatch):
    from gqw import parse
    texts = [to_str(_random_expr(random.Random(seed), 3, mul, power)) for seed in range(300)]
    cold = []
    for text in texts:
        monkeypatch.setattr(parse, "_REGIONS", {})
        cold.append(parse_expr(text, VOCAB))
    warm = {}
    monkeypatch.setattr(parse, "_REGIONS", warm)
    assert all(parse_expr(t, VOCAB) is e for t, e in zip(texts, cold))
    # without the whole texts, the regions in them are read from the table
    regions = warm[frozenset(VOCAB)]
    for text in texts:
        regions.pop(text, None)
    assert sum(key.startswith("(") for key in regions) >= 100
    assert all(parse_expr(t, VOCAB) is e for t, e in zip(texts, cold))


@pytest.mark.parametrize("shape", ["deep-sum", "deep-groups"])
def test_the_table_grows_by_at_most_twice_each_texts_length(shape, cold_regions):
    # a parse stores its whole text and at most its length again of region
    # keys, inner regions first: all 98 groups of the second shape would
    # store about 10,000 characters for a text of 200
    regions = cold_regions.setdefault(frozenset(VOCAB), {})
    for k in range(40):
        if shape == "deep-sum":
            terms = [f"(q+{k})"] + [f"(p+{j})" for j in range(1, 300)]
            text = "(" * 190 + " + ".join(terms) + ")" * 190
        else:
            text = "(" * 99 + f"p+{k}" + ")" * 99
        before = sum(map(len, regions))
        node = parse_expr(text, VOCAB)
        assert sum(map(len, regions)) - before <= 2 * len(text)
        if shape == "deep-groups":
            assert node is add(P, rational(k))
    assert len(regions) > 80


def test_constant_powers_are_exact_up_to_the_size_limit():
    assert parse_expr("2^100000", VOCAB).value == 2 ** 100000
    assert parse_expr("(1/2)^100000", VOCAB).value == Fraction(1, 2 ** 100000)
    # 0, 1 and -1 have no bits to grow, and a symbol's exponent is not computed
    assert parse_expr("1^1000000000 + (-1)^1000000001 + 0^1000000000", VOCAB) is ZERO
    assert parse_expr("p^2^2^2^2", VOCAB) is power(P, 65536)
    with pytest.raises(EvaluationError, match="constant power too large"):
        power(rational(3), 10 ** 6)
    # exponents that merge in a product are bounded as well
    half = power(rational(2), Fraction(200001, 2))
    with pytest.raises(EvaluationError, match="constant power too large"):
        mul(half, half)


def _parse_in_a_child(text: str) -> str:
    code = f"from gqw.parse import parse_expr\nprint(parse_expr({text!r}, ('p', 'q')))"
    run = run_bounded(["-c", code])
    return run.stdout.strip() or run.stderr.strip().splitlines()[-1]


def test_an_exponent_tower_over_literals_fails_fast():
    # the innermost 2^(2^65536) was computed exactly and did not return
    assert _parse_in_a_child("p^2^2^2^2^2^2") == (
        "gqw.errors.ExprSyntaxError: constant power too large: over 100000 bits (at offset 3)")


def test_a_power_of_a_sum_expands_in_polynomial_time():
    # every ordered product of terms was built: 3^14 of them for 120 terms
    expanded = _parse_in_a_child("(p+q+1)^14")
    assert expanded.startswith("1 + 14*p + 14*q + 91*p^2 + 364*p^3")
    assert expanded.count(" + ") == 119


EXPANSION_ERROR = "gqw.errors.ExprSyntaxError: expansion too large: over 500000 products"


def test_a_power_of_a_sum_past_the_product_limit_fails_fast():
    # every step forms two products or more, so a power of a sum past half
    # the limit is refused before its steps are laid out
    for n in (250_001, 10 ** 30):
        with pytest.raises(ExprSyntaxError, match=r"over 500000 products \(at offset 5\)"):
            parse_expr(f"(p+1)^{n}", VOCAB)


def test_a_power_of_a_sum_whose_products_collide_is_accepted():
    # both were refused on a count of products that took every product to
    # be distinct: 542,640 for the first, and for the second, i's 4-cycle
    # leaves four partial products a step
    seven = "(p + q + p*q + p^2 + q^2 + p^2*q + 1)^14"
    assert _parse_in_a_child(seven).count(" + ") == 630
    assert _parse_in_a_child("(i*p + p)^2000") == f"{2 ** 1000}*p^2000"


def test_a_product_of_two_sums_past_the_product_limit_fails_fast():
    # no limit guarded a product of sums: it formed 1891^2 products in about
    # 28 s and 1 GB; the refusal is reported at the '*'
    assert _parse_in_a_child("(p+q+1)^60*(p+q+2)^60") == f"{EXPANSION_ERROR} (at offset 10)"


def test_a_power_of_a_sum_is_charged_for_its_coefficients(monkeypatch):
    # each stays refused within the time bound: the first four took 2-6 s
    # to expand, the next two form coefficients of 5.4 million and 100,000
    # bits, and the last formed about 2e9 products
    for text in ["(2*p+3*q)^706", "(123456789*p+987654321*q)^706",
                 "(123456789/1000*p+987654321/7*q)^706", "(12345*p+54321*q+6789*r+1)^40",
                 "(2^90000*p+3^50000*q)^60", "(2^141*p+3^89*q)^706", "(p+1)^65536"]:
        code = f"from gqw.parse import parse_expr\nparse_expr({text!r}, ('p', 'q', 'r'))"
        run = run_bounded(["-c", code])
        assert run.stderr.strip().splitlines()[-1] == (
            f"{EXPANSION_ERROR} (at offset {text.rindex('^')})"), text
    # under a cap of 1,000: steps 1 to n-1 of (p+q)^n each form 2 (j+1)
    # products, n (n+1) - 2 in all (990 for n = 31, 1,054 for 32); a
    # product is charged a further b1 b2 / 100,000 for the bit lengths b1
    # and b2 of the coefficients it multiplies, which lowers the largest
    # power accepted where coefficients are large
    from gqw import expr
    monkeypatch.setattr(expr, "_MAX_PRODUCTS", 1000)
    for text, largest in [("(p+q)^", 31), ("(123456789*p+987654321*q)^", 28),
                          ("(2^1000*p+3^1000*q)^", 4)]:
        parse_expr(f"{text}{largest}", VOCAB)
        with pytest.raises(ExprSyntaxError, match="over 1000 products"):
            parse_expr(f"{text}{largest + 1}", VOCAB)


def test_sqrt_normalizes_to_half_power():
    assert parse_expr("sqrt(p^2+q^2)", VOCAB) == power(add(power(P, 2), power(Q, 2)),
                                                       Fraction(1, 2))


# ---------------------------------------------------------------------------
# canonicalization


def test_polynomial_identity_is_structural():
    lhs = parse_expr("(p+q)^2", VOCAB)
    rhs = parse_expr("p^2 + 2*p*q + q^2", VOCAB)
    assert lhs == rhs


def test_i_cycle_folds():
    assert power(IMAG, 2) == rational(-1)
    assert power(IMAG, -1) == mul(rational(-1), IMAG)
    assert mul(IMAG, IMAG, IMAG, IMAG) == rational(1)


def test_like_terms_collect():
    e = add(P, P, mul(rational(-2), P))
    assert e.is_zero()


def test_power_merge():
    assert mul(P, P, power(P, -2)).is_one()
    assert mul(call("sin", P), power(call("sin", P), 2)) == power(call("sin", P), 3)


def test_sin_cos_square_identity():
    e = add(power(call("sin", Q), 2), power(call("cos", Q), 2))
    assert e.is_one()
    # with a shared residual monomial and matching coefficients
    e2 = add(mul(rational(-1, 2), power(call("sin", Q), 2), P),
             mul(rational(-1, 2), power(call("cos", Q), 2), P))
    assert e2 == mul(rational(-1, 2), P)


def test_sign_orientation_of_trig_args():
    assert call("sin", mul(rational(-1), P)) == mul(rational(-1), call("sin", P))
    assert call("cos", add(Q, mul(rational(-1), P))) == call("cos", add(Q, mul(rational(-1), P)))


# Canonical forms that put every node kind side by side in one sum or
# product (as terms, factors, Call arguments and Pow bases), pinned as
# printed: the term order is part of every report.
TERM_ORDER = [
    ("sin(p+1) + sin(p*q) + sin(p^(1/2)) + sin(sin(p)) + sin(p) + sin(pi) + sin(3)",
     "sin(3) + sin(pi) + sin(p) + sin(sin(p)) + sin(p^(1/2)) + sin(p*q) + sin(1 + p)"),
    ("(p+1)^(1/2) + (p*q)^(1/3) + (p^(1/3))^(1/2) + cos(p)^(1/2) + p^(-1/2) + pi^(1/2) + 3^(1/2)",
     "3^(1/2) + pi^(1/2) + p^(-1/2) + cos(p)^(1/2) + (p^(1/3))^(1/2) + (p*q)^(1/3) + (1 + p)^(1/2)"),
    ("p*q + p^2 + exp(p) + q + p + hbar + pi + 7/2 + (p+q)^(-3/2)*exp(q) + sin(p)*q^(-1)",
     "7/2 + hbar + pi + p + q + exp(p) + p^2 + p*q + exp(q)*(p + q)^(-3/2) + sin(p)*q^(-1)"),
    ("2/3*pi*hbar*q*p*exp(sin(p))*cos(q+1)*(p+q)^(1/2)*p^(-1/2)*(exp(p)+1)^(-1/3)",
     "2/3*hbar*pi*q*cos(1 + q)*exp(sin(p))*p^(1/2)*(1 + exp(p))^(-1/3)*(p + q)^(1/2)"),
    ("exp(exp(p)+p) + exp(p^(-2)*q) + exp(cos(p)) + exp(hbar) + exp(-1/2) + q^(-3/2)*sin(q) - p*q^2 - p^2*q",
     "exp(-1/2) + exp(hbar) + exp(cos(p)) + exp(q*p^(-2)) + exp(p + exp(p)) - p*q^2 - q*p^2 + sin(q)*q^(-3/2)"),
]


@pytest.mark.parametrize("text, canonical", TERM_ORDER,
                         ids=["call-args", "pow-bases", "sum", "product", "nested"])
def test_term_order_is_pinned(text, canonical):
    assert to_str(parse_expr(text, VOCAB)) == canonical


# ---------------------------------------------------------------------------
# differentiation


def test_power_rule():
    e = parse_expr("p^2 + q^2", VOCAB)
    assert diff(e, P) == mul(rational(2), P)


def test_chain_rule():
    e = call("sin", mul(P, Q))
    assert diff(e, Q) == mul(P, call("cos", mul(P, Q)))


def test_derivative_of_constants():
    assert diff(PI, P).is_zero()
    assert diff(rational(7, 3), P).is_zero()


@pytest.mark.parametrize("text", [
    "p^3*q - 2*q^2", "sin(p*q)", "exp(p)*cos(q)", "(p^2+q^2)^(-1)",
    "sqrt(p^2+q^2)", "p*sin(q)^2 + q", "exp(2*p - q)",
])
def test_derivative_matches_central_difference(text):
    # independent oracle: central difference with h = 1e-5, 32 points
    e = parse_expr(text, VOCAB)
    h = 1e-5
    for v in ("p", "q"):
        sym_d = diff(e, symbol(v))
        for pt in sampler().points(32, seed_tag="fd"):
            hi = dict(pt)
            lo = dict(pt)
            hi[v] += h
            lo[v] -= h
            fd = (evalf(e, hi) - evalf(e, lo)) / (2 * h)
            exact = evalf(sym_d, pt)
            scale = max(1.0, abs(exact))
            assert abs(fd - exact) / scale < 1e-6


# ---------------------------------------------------------------------------
# hypothesis property suite

_atoms = st.sampled_from([P, Q, rational(2), rational(-1, 2), PI, HBAR])


def _combine(children):
    return st.one_of(
        st.tuples(children, children).map(lambda ab: add(*ab)),
        st.tuples(children, children).map(lambda ab: mul(*ab)),
        st.tuples(children, st.integers(-2, 3)).map(lambda be: power(be[0], be[1])),
        children.map(lambda a: call("sin", a)),
        children.map(lambda a: call("cos", a)),
    )


exprs = st.recursive(_atoms, _combine, max_leaves=12)


@settings(max_examples=80, deadline=None)
@given(exprs)
def test_canonicalization_is_idempotent(e):
    rebuilt = subs(e, {})  # full reconstruction through the constructors
    assert rebuilt == e


@settings(max_examples=80, deadline=None)
@given(exprs)
def test_print_parse_roundtrip(e):
    assert parse_expr(to_str(e), VOCAB) == e


@settings(max_examples=60, deadline=None)
@given(exprs)
def test_mixed_partials_commute(e):
    assert diff(diff(e, P), Q) == diff(diff(e, Q), P)


# ---------------------------------------------------------------------------
# stored derivatives


def test_each_derivative_is_built_once_per_node_and_symbol(monkeypatch):
    from collections import Counter
    from gqw import expr
    built = Counter()
    walk = expr._diff

    def counted(e, v):
        built[e, v] += 1
        return walk(e, v)

    monkeypatch.setattr(expr, "_diff", counted)
    x, y = symbol("stored_x"), symbol("stored_y")  # nodes new to this process
    xy = mul(x, y)
    e = add(mul(call("sin", xy), xy), power(add(xy, x), 3), call("exp", xy))
    first = diff(e, x)
    assert diff(e, x) is first
    diff(e, y)
    diff(diff(e, x), y)
    assert built and max(built.values()) == 1
    assert built[xy, x] == built[xy, y] == 1  # a shared child, once per symbol


def _reference_diff(e, v):
    """A plain tree walk over the node classes, storing nothing."""
    if isinstance(e, (Rational, Constant)):
        return rational(0)
    if isinstance(e, Symbol):
        return ONE if e is v else rational(0)
    if isinstance(e, Add):
        return add(*[_reference_diff(t, v) for t in e.terms])
    if isinstance(e, Mul):
        return add(*[mul(_reference_diff(f, v), *e.factors[:k], *e.factors[k + 1:])
                     for k, f in enumerate(e.factors)])
    if isinstance(e, Pow):
        return mul(rational(e.exponent), power(e.base, e.exponent - 1),
                   _reference_diff(e.base, v))
    assert isinstance(e, Call)
    outer = {"sin": lambda u: call("cos", u),
             "cos": lambda u: mul(rational(-1), call("sin", u)),
             "exp": lambda u: call("exp", u)}[e.fn](e.arg)
    return mul(outer, _reference_diff(e.arg, v))


@settings(max_examples=120, deadline=None)
@given(exprs)
def test_diff_matches_a_tree_walk_by_identity(e):
    for v in (P, Q):
        first = diff(e, v)
        assert first is _reference_diff(e, v)
        assert diff(e, v) is first


# ---------------------------------------------------------------------------
# expanded products


def test_a_product_over_a_sum_is_distributed_once(monkeypatch):
    from gqw import expr
    distributed = []
    expand = expr._expand_product

    def counted(coeff, plain, sums):
        distributed.append(sums)
        return expand(coeff, plain, sums)

    monkeypatch.setattr(expr, "_expand_product", counted)
    x, y = symbol("expanded_x"), symbol("expanded_y")  # nodes new to this process
    s = add(x, y)
    first = mul(x, s)
    assert mul(x, s) is first
    assert distributed == [[s]]
    assert expr._EXPANDED[x, s] is first
    assert first is add(power(x, 2), mul(x, y))


def test_a_product_without_a_sum_factor_is_not_stored():
    from gqw import expr
    x, y = symbol("unexpanded_x"), symbol("unexpanded_y")
    inverse = power(add(x, y), -1)  # a power of a sum, but not a sum
    before = dict(expr._EXPANDED)
    mul(rational(3), x, power(y, 2), inverse, power(IMAG, 3), call("sin", x))
    mul(x, x, inverse)
    assert expr._EXPANDED == before


def _pair_products(name):
    """Products of sums, each formed twice with other coefficients, the
    pair of monomials both form, and that pair's product, which is not a
    bare monomial (or, for sin^2 + cos^2, meets its partner in the final
    sum).  Every symbol is new to this process."""
    x, y, z, u = (symbol(f"{name}_{v}") for v in "xyzu")
    s = add(x, y)
    half_i, three_halves_i = power(IMAG, Fraction(1, 2)), power(IMAG, Fraction(3, 2))
    half_s = power(s, Fraction(1, 2))
    sin2, cos2 = power(call("sin", u), 2), power(call("cos", u), 2)
    pair = add(mul(sin2, x), mul(cos2, y)), add(y, x)
    return {
        # i^(1/2)*x * i^(3/2)*y is -x*y: a rational times a monomial
        "i-halves": ([(mul(half_i, x), add(mul(three_halves_i, y), z)),
                      (mul(rational(2), half_i, x),
                       add(mul(rational(-3, 5), three_halves_i, y), z))],
                     (mul(half_i, x), mul(three_halves_i, y)), mul(rational(-1), x, y)),
        # s^(1/2)*x * s^(1/2)*y is x*y*s distributed: a sum
        "sum-halves": ([(mul(half_s, x), add(mul(half_s, y), z)),
                        (mul(rational(2, 3), half_s, x),
                         add(mul(rational(3, 2), half_s, y), z))],
                       (mul(half_s, x), mul(half_s, y)), add(mul(x, x, y), mul(x, y, y))),
        # sin(u)^2*x*y + cos(u)^2*x*y collapse to x*y in the final add
        "sin2-cos2": ([pair, (mul(rational(3), pair[0]), mul(rational(-2), pair[1]))],
                      (mul(sin2, x), y), mul(sin2, x, y)),
    }


@pytest.mark.parametrize("name", ["i-halves", "sum-halves", "sin2-cos2"])
def test_a_stored_product_of_monomials_gives_the_rebuilt_node(name):
    # the first product fills the table of monomial products, the second,
    # with other coefficients, reads it back and scales it
    from gqw import expr
    products, (ma, mb), stored = _pair_products(f"stored_{name.replace('-', '_')}")[name]
    assert ma not in expr._MONOMIAL_PRODUCTS
    first = mul(*products[0])
    assert expr._MONOMIAL_PRODUCTS[ma][mb] is stored is mul_rebuilt(ma, mb)
    assert first is mul_rebuilt(*products[0])
    assert mul(*products[1]) is mul_rebuilt(*products[1])


def _stored_monomial_products():
    from gqw import expr
    return sum(map(len, expr._MONOMIAL_PRODUCTS.values()))


def test_the_monomial_product_table_grows_only_with_input_term_pairs():
    # only the first two steps store their products: 3 pairs of 1 with
    # the sum's terms, then 3 partial products times 3 terms
    x, y = symbol("growth_x"), symbol("growth_y")
    before = _stored_monomial_products()
    expanded = power(add(x, y, ONE), 40)
    assert _stored_monomial_products() - before <= 3 + 9
    # power_rebuilt would form 3^40 ordered products: the multinomial
    # theorem gives the same sum
    f = math.factorial
    assert expanded is add(*[mul(rational(f(40) // (f(a) * f(b) * f(40 - a - b))),
                                 power(x, a), power(y, b))
                             for a in range(41) for b in range(41 - a)])
    assert power(add(x, y, ONE), 5) is power_rebuilt(add(x, y, ONE), 5)
    for m, n in ((2, 3), (4, 5)):
        first = add(*[symbol(f"growth_a{m}_{k}") for k in range(m)])
        second = add(*[symbol(f"growth_b{n}_{k}") for k in range(n)])
        before = _stored_monomial_products()
        assert mul(first, second) is mul_rebuilt(first, second)
        assert _stored_monomial_products() - before <= m + m * n


def test_a_factor_met_once_is_kept_not_rebuilt(monkeypatch):
    x, y = symbol("kept_x"), symbol("kept_y")
    square = power(x, 2)
    root = power(add(x, y), Fraction(1, 2))
    built = []
    new = Pow.__new__

    def counted(cls, base, exponent):
        built.append((base, exponent))
        return new(cls, base, exponent)

    monkeypatch.setattr(Pow, "__new__", staticmethod(counted))
    assert mul(square) is square
    product = mul(rational(2), y, square, root)
    assert built == []
    assert any(f is square for f in product.factors)
    assert any(f is root for f in product.factors)


def _random_expr(rng, depth, mul_, power_):
    """A seeded expression over sums, products, powers of sums, powers of i
    and sin/cos, built with the given product and power; the draws do not
    depend on what is built, so one seed gives the same tree whichever pair
    builds it."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice([P, Q, HBAR, IMAG, PI, rational(3, 2), rational(-2)])

    def parts(k):
        return [_random_expr(rng, depth - 1, mul_, power_) for _ in range(k)]

    kind = rng.randrange(6)
    if kind == 0:
        return add(*parts(rng.randint(2, 3)))
    if kind == 1:
        return mul_(*parts(rng.randint(2, 3)))
    if kind == 2:
        return power_(add(*parts(2)), rng.choice([2, 3, -1, Fraction(1, 2)]))
    if kind == 3:
        return mul_(power_(IMAG, rng.randint(-5, 5)), *parts(1))
    if kind == 4:
        return power_(parts(1)[0], rng.choice([2, -2, Fraction(3, 2)]))
    return call(rng.choice(["sin", "cos"]), *parts(1))


SUMS = {
    "two-terms": add(P, Q),
    "with-a-constant": add(P, Q, ONE),
    "with-i": add(mul(IMAG, P), rational(-1, 2), Q),
    "sin-and-cos": add(call("sin", P), call("cos", P)),
    "sin-cos-and-i": add(call("sin", Q), mul(IMAG, call("cos", Q)), P, rational(2)),
    "half-powers": add(power(P, Fraction(1, 2)), power(Q, Fraction(-1, 2)), HBAR),
}


@pytest.mark.parametrize("s", SUMS.values(), ids=SUMS.keys())
def test_powers_of_sums_match_the_expansion_by_every_ordered_product(s):
    for n in range(2, 7):
        assert power(s, n) is power_rebuilt(s, n)


def test_a_product_of_sums_distributes_one_sum_at_a_time():
    # as a power of a sum is expanded: with s = p + q, x s^(1/2) times the
    # first sum gives x s, whose s is opened, so the second keeps s^(1/2)
    # beside p and q; the product of every choice of terms at once, as mul
    # distributed before, merged three half powers into s^(3/2)
    h = power(add(P, Q), Fraction(1, 2))
    args = (symbol("x"), h, add(h, ONE), add(h, rational(2)))
    assert mul(*args) is mul_rebuilt(*args)
    assert to_str(mul(*args)) == ("3*p*x + p*x*(p + q)^(1/2) + 3*q*x + q*x*(p + q)^(1/2)"
                                  " + 2*x*(p + q)^(1/2)")


def test_products_and_powers_match_a_fold_that_stores_nothing_by_identity():
    composite = set()
    for seed in range(600):
        kernel = _random_expr(random.Random(seed), 3, mul, power)
        assert kernel is _random_expr(random.Random(seed), 3, mul_rebuilt, power_rebuilt)
        assert _random_expr(random.Random(seed), 3, mul, power) is kernel
        if type(kernel) in (Add, Mul, Pow, Call):
            composite.add(kernel)
    assert len(composite) >= 300


# ---------------------------------------------------------------------------
# products by a rational

SCALES = [rational(-1), rational(2), rational(-1, 3), rational(7, 2)]
# one node of each kind, then sums with a constant term
SCALED = {
    "rational": rational(5, 4),
    "symbol": P,
    "pi": PI,
    "i": IMAG,
    "hbar": HBAR,
    "power": power(P, 3),
    "rational-base-power": power(rational(2), Fraction(1, 2)),
    "power-of-a-sum": power(add(P, Q), -1),
    "call": call("sin", P),
    "product": mul(P, Q),
    "product-with-coefficient": mul(rational(-3, 2), IMAG, Q),
    "sum": add(rational(3), mul(rational(2), P), mul(rational(-1, 2), IMAG, Q), power(P, 2)),
    "sum-of-fractions": add(rational(1, 3), mul(rational(-2, 3), call("cos", Q)), P),
}


def _assert_scaled_as_distributed(c, x):
    assert mul(c, x) is mul_rebuilt(c, x)
    assert mul(x, c) is mul_rebuilt(x, c)


@pytest.mark.parametrize("x", SCALED.values(), ids=SCALED.keys())
def test_a_rational_times_one_node_is_the_distributed_product(x):
    from gqw.expr import _split_coeff
    for c in SCALES:
        _assert_scaled_as_distributed(c, x)
    # scales that bring a term's coefficient to 1, so the term loses it, or to -1
    for t in (x.terms if type(x) is Add else (x,)):
        v = _split_coeff(t)[0]
        _assert_scaled_as_distributed(Rational(Fraction(1) / v), x)
        _assert_scaled_as_distributed(Rational(Fraction(-1) / v), x)


def test_a_rational_times_a_seeded_tree_is_the_distributed_product():
    for seed in range(120):
        x = _random_expr(random.Random(seed), 3, mul, power)
        for c in SCALES:
            _assert_scaled_as_distributed(c, x)


def test_a_coefficient_times_one_sum_is_the_distributed_product():
    s = SCALED["sum"]
    assert mul(ZERO, s) is ZERO and mul(s, ZERO) is ZERO
    assert mul(ONE, s) is s and mul(s, ONE) is s
    root = power(s, Fraction(1, 2))
    for args in [(rational(1, 2), rational(2), s),      # the coefficients multiply to 1
                 (rational(-1, 3), s, rational(6)),
                 (root, rational(3), root),             # the sum comes from a merged power
                 (rational(2), P, power(P, -1), s)]:    # the other factors cancel
        assert mul(*args) is mul_rebuilt(*args)
    assert mul(rational(1, 2), rational(2), s) is s


def test_a_rational_times_a_sum_is_rescaled_not_distributed(monkeypatch):
    from gqw import expr
    x, y = symbol("scaled_x"), symbol("scaled_y")  # nodes new to this process
    s = add(rational(1), mul(rational(2), x), mul(rational(3), y))
    half, third = mul_rebuilt(rational(-1, 2), s), mul_rebuilt(rational(1, 3), s)
    called = []
    monkeypatch.setattr(expr, "_expand_product", lambda *a: called.append(a))
    monkeypatch.setattr(expr, "add", lambda *a: called.append(a))
    before = dict(expr._EXPANDED)
    assert mul(rational(-1, 2), s) is half
    assert mul(s, rational(-1, 2)) is half
    assert mul(rational(2, 3), s, rational(1, 2)) is third
    assert called == []
    assert expr._EXPANDED == before
    assert third.terms[2] is y  # 1/3 * 3 y: the coefficient 1 is dropped


def test_the_sin_power_test_runs_only_on_powers_of_a_call(monkeypatch):
    from gqw import expr
    tested = []
    is_sin_power = expr._is_sin_power

    def counted(f):
        tested.append(f)
        return is_sin_power(f)

    monkeypatch.setattr(expr, "_is_sin_power", counted)
    add(mul(rational(3), power(P, 2), Q), power(Q, 3), power(add(P, Q), -1),
        mul(rational(-1, 2), power(rational(2), Fraction(1, 2)), P))
    assert tested == []
    u = add(P, mul(rational(2), Q))
    sin, cos = call("sin", u), call("cos", u)
    assert add(power(sin, 2), power(cos, 2)) is ONE
    assert add(mul(rational(3), power(sin, 3), Q),
               mul(rational(3), sin, power(cos, 2), Q)) is mul(rational(3), sin, Q)
    assert tested


# ---------------------------------------------------------------------------
# collected sums

SIN_P, COS_P = call("sin", P), call("cos", P)


def test_the_sin_cos_pass_runs_only_on_a_sum_with_a_sin_power(monkeypatch):
    from gqw import expr
    passes = []
    pythagoras = expr._pythagoras

    def counted(terms):
        passes.append(dict(terms))
        pythagoras(terms)

    monkeypatch.setattr(expr, "_pythagoras", counted)
    add(mul(rational(3), power(P, 2), Q), power(Q, 3), rational(-1, 2), mul(P, Q))
    add(SIN_P, COS_P, power(COS_P, 2), mul(SIN_P, power(COS_P, 3)))  # no sin(u)^k, k >= 2
    assert passes == []
    add(mul(Q, power(SIN_P, 2)), P)
    assert len(passes) == 1


@pytest.mark.parametrize("reverse", [False, True], ids=["sin-first", "cos-first"])
def test_matched_sin_cos_squares_collapse(reverse):
    pair = [mul(rational(3), Q, power(SIN_P, 2)), mul(rational(3), Q, power(COS_P, 2))]
    if reverse:
        pair.reverse()
    assert add(*pair) is mul(rational(3), Q)
    assert add(pair[0]) is pair[0]  # a lone term is returned as it is


def test_a_sin_power_collapses_against_its_partner():
    assert add(power(SIN_P, 4), mul(power(SIN_P, 2), power(COS_P, 2))) is power(SIN_P, 2)


def test_unequal_sin_cos_coefficients_do_not_collapse():
    a, b = mul(rational(2), power(SIN_P, 2)), mul(rational(3), power(COS_P, 2))
    e = add(a, b)
    assert type(e) is Add and set(e.terms) == {a, b}


def test_a_term_met_once_is_reused_not_rebuilt(monkeypatch):
    x, y, z = symbol("collected_x"), symbol("collected_y"), symbol("collected_z")
    term = mul(rational(3), x, y)  # nodes new to this process
    first = add(term, z)
    built = []
    new = Mul.__new__

    def counted(cls, factors):
        built.append(factors)
        return new(cls, factors)

    monkeypatch.setattr(Mul, "__new__", staticmethod(counted))
    assert add(term, z) is first
    assert built == []
    assert any(t is term for t in first.terms)


_coeffs = st.sampled_from([rational(1), rational(-1), rational(3), rational(-2, 3)])


@st.composite
def _term_lists(draw):
    """Terms over ``exprs`` in any order: repeated monomials, coefficients
    that cancel, and sin^k*R, sin^(k-2)*cos^2*R pairs whose coefficients
    may or may not match."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        e, c = draw(exprs), draw(_coeffs)
        terms.append(mul(c, e))
        again = draw(st.sampled_from(["once", "repeat", "cancel"]))
        if again == "repeat":
            terms.append(mul(draw(_coeffs), e))
        elif again == "cancel":
            terms.append(mul(rational(-1), c, e))
    for _ in range(draw(st.integers(1, 2))):
        u, r, c, k = draw(exprs), draw(exprs), draw(_coeffs), draw(st.integers(2, 4))
        terms.append(mul(c, r, power(call("sin", u), k)))
        partner = draw(st.sampled_from([c, rational(2)]))
        terms.append(mul(partner, r, power(call("sin", u), k - 2), power(call("cos", u), 2)))
    return draw(st.permutations(terms)), draw(st.integers(0, len(terms)))


@settings(max_examples=300, deadline=None)
@given(_term_lists())
def test_add_matches_a_collection_that_rebuilds_every_term_by_identity(case):
    terms, cut = case
    assert add(*terms) is add_rebuilt(*terms)
    grouped = (add(*terms[:cut]), *terms[cut:])  # sums among the arguments
    assert add(*grouped) is add_rebuilt(*grouped)


# ---------------------------------------------------------------------------
# sampling equality


def test_expr_equal_structural_zero_reports_zero_residual():
    a = parse_expr("(p+q)^2", VOCAB)
    b = parse_expr("p^2+2*p*q+q^2", VOCAB)
    ok, res = expr_equal(a, b, sampler())
    assert ok and res == 0.0


def test_expr_equal_distinguishes_coordinates():
    ok, res = expr_equal(P, Q, sampler())
    assert not ok and res > 1e-2


def test_expr_equal_is_deterministic():
    a = parse_expr("sin(p)^2", VOCAB)
    b = parse_expr("1 - cos(p)^2", VOCAB)
    r1 = expr_equal(a, b, sampler())
    r2 = expr_equal(a, b, sampler())
    assert r1 == r2
    assert r1[0]


def test_expr_equal_resamples_on_evaluation_failure():
    # (p^2+q^2)^(-1) can overflow near the puncture; points get resampled
    a = parse_expr("(p^2+q^2)^(-1)", VOCAB)
    b = parse_expr("(p^2+q^2)^(-1)", VOCAB)
    ok, res = expr_equal(a, b, sampler())
    assert ok and res == 0.0


def test_sampler_deterministic_and_respects_domain():
    s = sampler(tolerance=1e-3)
    pts1 = s.points()
    pts2 = s.points()
    assert pts1 == pts2
    for pt in pts1:
        assert pt["p"] ** 2 + pt["q"] ** 2 > 1e-3


def test_hbar_binding_defaults_to_one():
    a = mul(HBAR, P)
    ok, _ = expr_equal(a, P, sampler())
    assert ok
    ok2, _ = expr_equal(a, P, sampler(hbar=2.0))
    assert not ok2


def test_unbound_hbar_raises():
    # hbar comes from the evaluation context like any symbol; no silent 1.0
    with pytest.raises(EvaluationError):
        evalf(HBAR, {})
    assert evalf(HBAR, {"hbar": 2.0}) == 2.0


ANNULUS = (add(power(P, 2), power(Q, 2), rational(-19, 20)),
           add(rational(21, 20), mul(rational(-1), add(power(P, 2), power(Q, 2)))))


@pytest.mark.parametrize("kw", [dict(n_samples=1001), dict(positive=ANNULUS)],
                         ids=["1001-samples", "thin-annulus"])
def test_sampled_comparison_draws_within_one_cap(kw):
    # a sampled (non-structural) identity: the draw cap scales with the
    # sample count, so neither many samples nor a domain accepting about
    # 2 % of the box's draws exhausts it
    a = parse_expr("exp(p)*exp(q)", VOCAB)
    b = parse_expr("exp(p+q)", VOCAB)
    ok, res = expr_equal(a, b, sampler(**kw))
    assert ok and 0.0 < res <= 1e-9


def test_expr_equal_symmetric():
    a = parse_expr("sin(p)^2 + cos(p)^2", VOCAB)
    b = parse_expr("1", VOCAB)
    assert expr_equal(a, b, sampler()) == expr_equal(b, a, sampler())


@pytest.mark.parametrize("text", ["sin(p)^2 + exp(q)*(p+q)^(1/2)", "p + z"],
                         ids=["bound", "unbound-z"])
def test_a_node_equals_itself_without_a_difference_or_a_draw(text, monkeypatch):
    # nodes are interned, so a is b exactly when a - b is ZERO: the one node
    # is decided before the kernel forms the difference, and no stream is
    # opened.  The unbound z never reaches evalf, as before the shortcut.
    from gqw import sample

    a = parse_expr(text, VOCAB + ("z",))

    def refused(*args):
        raise AssertionError("expr_equal built a difference")

    monkeypatch.setattr(sample, "add", refused)
    monkeypatch.setattr(sample, "mul", refused)
    s = sampler()
    assert expr_equal(a, a, s) == (True, 0.0)
    assert s._streams == {}


def test_a_symbol_the_sampler_does_not_bind_raises_at_once():
    # it fails at every point: expr_equal and the domain test skipped each
    # point and raised "could not find 32 usable points in 32000 draws"
    z = symbol("z")
    with pytest.raises(EvaluationError, match="unbound symbol 'z'") as err:
        expr_equal(add(P, z), P, sampler())
    assert type(err.value) is UnboundSymbolError
    with pytest.raises(EvaluationError, match="unbound symbol 'z'") as err:
        sampler(positive=(add(power(P, 2), z),)).points()
    assert type(err.value) is UnboundSymbolError


def test_a_sampler_needs_a_box_for_each_coordinate():
    with pytest.raises(SamplingError, match="no bounding box for coordinate 'q'"):
        sampler(box={"p": (-2.0, 2.0)})


@pytest.mark.parametrize("n", [0, -1])
def test_a_sampler_with_no_points_is_refused(n):
    # with no points, expr_equal(p, q, ...) read (True, 0.0): every identity
    # that does not cancel structurally would pass
    with pytest.raises(SamplingError, match=f"n_samples = {n}: at least 1"):
        sampler(n_samples=n)


def test_resample_cap_raises():
    # exp(exp(p^2*100 + 10)) overflows at every admissible point
    blow = call("exp", call("exp", add(mul(rational(100), power(P, 2)), rational(10))))
    s = sampler()
    with pytest.raises(SamplingError):
        expr_equal(blow, rational(0), s)
    with pytest.raises(SamplingError):  # again once the stream is drawn
        expr_equal(blow, rational(0), s)


def test_a_difference_failing_at_admissible_points_is_named_as_the_cause():
    # exp(A) and exp(-A), A = 10^6 (p^2 + q^2), overflow and underflow at
    # nearly every point of the domain, and where both evaluate their
    # product is 1; the error said "could not find 32 usable points in 32000
    # draws", which blamed the domain
    big = mul(rational(1000000), add(power(P, 2), power(Q, 2)))
    product = mul(call("exp", big), call("exp", mul(rational(-1), big)))
    with pytest.raises(SamplingError, match=(
            r"^the difference failed to evaluate at 31998 of 32000 admissible points "
            r"\(last: numeric failure: .*\), so could not find 32 usable points")):
        expr_equal(product, ONE, sampler())
    # a domain with no admissible point is still the domain's fault
    with pytest.raises(SamplingError, match="^could not find 32 usable points in 32000"):
        expr_equal(P, Q, sampler(positive=(rational(-1),)))


def test_one_admissible_point_over_tolerance_decides_false():
    # exp(10^6 (p^2 + q^2)) fails to evaluate at 31998 of 32000 admissible
    # points, and the two where it evaluates are witnesses against q: this
    # raised SamplingError at the draw cap
    blow = call("exp", mul(rational(1000000), add(power(P, 2), power(Q, 2))))
    ok, residual = expr_equal(blow, Q, sampler())
    assert ok is False and residual > 1e-9


def test_a_false_comparison_stops_at_its_first_witness(monkeypatch):
    # |p - q| exceeds 2 at some points of the box and not at others: the
    # comparison evaluates up to the first point over the tolerance, not 32,
    # and returns that point's residual
    s = sampler(positive=(), tolerance=2.0)
    residuals = [abs(pt["p"] - pt["q"]) for pt in s.points(seed_tag="equal")]
    first = next(k for k, r in enumerate(residuals) if r > 2.0)
    assert 0 < first < 31
    calls = []

    def counting_evalf(e, env):
        calls.append(env)
        return evalf(e, env)

    monkeypatch.setattr("gqw.sample.evalf", counting_evalf)
    ok, residual = expr_equal(P, Q, s)
    assert (ok, len(calls)) == (False, first + 1)
    assert residual == pytest.approx(residuals[first], abs=1e-15)


# ---------------------------------------------------------------------------
# memoized point streams


def test_warm_sampler_answers_like_a_fresh_one():
    pairs = [(parse_expr("sin(p)^2", VOCAB), parse_expr("1 - cos(p)^2", VOCAB)),
             (parse_expr("exp(p)*exp(q)", VOCAB), parse_expr("exp(p+q)", VOCAB)),
             (P, Q)]
    warm = sampler()
    warm.points()
    for a, b in pairs:
        expr_equal(a, b, warm)
    for tag in ("", "equal"):
        assert warm.points(seed_tag=tag) == sampler().points(seed_tag=tag)
    for a, b in pairs:
        assert expr_equal(a, b, warm) == expr_equal(a, b, sampler())


def test_returned_points_are_the_callers_own():
    s = sampler()
    first = s.points(4)
    expected = [dict(pt) for pt in first]
    for pt in first:
        pt["p"] = 99.0
        pt["hbar"] = 5.0
    assert s.points(4) == expected


def test_samplers_differing_in_hbar_keep_separate_streams():
    below_hbar = (add(HBAR, mul(rational(-1), P)),)  # admissible where p < hbar
    one = sampler(positive=below_hbar, hbar=1.0)
    one.points()
    two = sampler(positive=below_hbar, hbar=2.0)
    assert two.points() == sampler(positive=below_hbar, hbar=2.0).points()
    assert max(pt["p"] for pt in two.points()) > 1.0
    assert max(pt["p"] for pt in one.points()) < 1.0


# 249/250 < p^2 + q^2 < 251/250 takes about one box draw in 640; at seed 8
# the {seed}:thin stream finds its first two points past draws 1000 and 2000
THIN = (add(power(P, 2), power(Q, 2), rational(-249, 250)),
        add(rational(251, 250), mul(rational(-1), add(power(P, 2), power(Q, 2)))))


def _thin_points(s, n):
    try:
        return s.points(n, seed_tag="thin")
    except SamplingError:
        return "raised"


def test_small_request_after_a_large_one_keeps_its_own_cap():
    warm = sampler(positive=THIN, seed=8)
    assert len(warm.points(30, seed_tag="thin")) == 30
    outcomes = []
    for n in (1, 2, 3, 4):
        fresh = _thin_points(sampler(positive=THIN, seed=8), n)
        assert _thin_points(warm, n) == fresh
        outcomes.append(fresh == "raised")
    assert outcomes == [True, True, False, False]


# ---------------------------------------------------------------------------
# evaluation


EVAL_POINTS = ({"p": 0.7, "q": -1.3, "hbar": 1.5},
               {"p": -2.0, "q": 0.25, "hbar": 1.0},
               {"p": 0.0, "q": 1.0, "hbar": -0.5},
               {"p": 1.25, "q": 0.5, "hbar": 2.0},  # -2*p*q < 0: on the half power's cut
               {"p": -0.0, "q": -0.75, "hbar": 0.5})


@settings(max_examples=120, deadline=None)
@given(exprs)
@example(parse_expr("p^2*q + sin(p)*hbar + cos(q)^2 + 1/3", VOCAB))  # order-sensitive sum
@example(parse_expr("(q + i)*sin(p)*p^(1/2)*hbar*(p - i)^(-1/3)", VOCAB))
# evalf folds a sum's or product's leading rationals, i and pi into one start
# value; the sign of a zero imaginary part picks the side of a branch cut
@example(parse_expr("(-2*p*q)^(1/2)", VOCAB))
@example(parse_expr("1/3 + i + pi + p*q - q^(1/2)", VOCAB))  # constant leading terms
@example(parse_expr("i*hbar*p", VOCAB))  # the run stops at hbar, which comes first
@example(parse_expr("1/2*i*pi*q", VOCAB))  # the run is 1/2, i and pi
@example(parse_expr("1/3*hbar*i*pi*(p*q)^(1/2)", VOCAB))  # i and pi follow hbar: not folded
def test_evalf_matches_a_tree_walk_bit_for_bit(e):
    for env in EVAL_POINTS:
        try:
            ref = evalf_walk(e, env)
        except (ZeroDivisionError, OverflowError, ValueError):
            ref = None
        if ref is None or not (math.isfinite(ref.real) and math.isfinite(ref.imag)):
            with pytest.raises(EvaluationError):
                evalf(e, env)
        else:
            got = evalf(e, env)
            assert (got.real.hex(), got.imag.hex()) == (ref.real.hex(), ref.imag.hex())


def test_constant_children_are_folded_into_their_parent():
    # a rational factor or term is read when its parent's evaluator is
    # built, so it never gets an evaluator of its own
    c = rational(12347, 9973)
    for e in (mul(c, P, Q), add(c, P)):
        assert evalf(e, EVAL_POINTS[0]) == evalf_walk(e, EVAL_POINTS[0])
        assert evalf(e, Block(EVAL_POINTS).points[0]) == evalf_walk(e, EVAL_POINTS[0])
        assert not hasattr(c, "_col")


def test_evalf_reads_only_the_names_the_expression_names():
    # an entry of env the node never reads is never converted to a number
    env = {"p": 1.0, "q": 2.0, "tag": "x", "note": None}
    assert evalf(P, env) == 1
    assert evalf(add(P, mul(rational(3), Q)), env) == 7
    block = Block([env, {**env, "p": 5.0}])
    assert [evalf(add(P, Q), pt) for pt in block.points] == [3, 7]
    with pytest.raises(EvaluationError, match="numeric failure"):
        evalf(add(P, symbol("tag")), env)
    for point in block.points:  # a column that reads "tag" fails; each point alone raises
        with pytest.raises(EvaluationError, match="numeric failure"):
            evalf(add(P, symbol("tag")), point)


@pytest.mark.parametrize("value", [None, [1.0]], ids=["none", "list"])
def test_a_symbol_bound_to_a_non_number_fails_to_evaluate(value):
    e = mul(symbol("bad_value"), symbol("bad_value"))
    env = {"bad_value": value, "p": 1.0}
    with pytest.raises(EvaluationError, match="numeric failure: 'bad_value'"):
        evalf(e, env)
    block = Block([{"bad_value": 2.0, "p": 1.0}, env])
    assert evalf(e, block.points[0]) == 4.0  # the column fails; each point is alone
    with pytest.raises(EvaluationError, match="numeric failure: 'bad_value'"):
        evalf(e, block.points[1])


def test_a_point_alone_and_a_block_share_one_evaluator():
    e = parse_expr("sin(p)*q^(1/2) + 7/3*p*q + exp(hbar)", VOCAB)
    alone = evalf(e, EVAL_POINTS[0])
    fn = e._col
    block = Block(EVAL_POINTS)
    assert evalf(e, block.points[0]) == alone
    assert e._col is fn and block._last[0] is e and block._last[1] is not None


@pytest.mark.parametrize("make, env", [
    (lambda: add(symbol("unbound_x"), P), {"p": 1.0}),
    (lambda: mul(HBAR, symbol("unbound_h")), {"unbound_h": 1.0}),
    (lambda: power(symbol("zero_base"), Fraction(-1, 2)), {"zero_base": 0.0}),
    (lambda: call("exp", mul(rational(3), symbol("overflow_x"))), {"overflow_x": 1000.0}),
], ids=["unbound-symbol", "unbound-hbar", "zero-to-negative-half", "exp-overflow"])
def test_evalf_errors_survive_the_cached_evaluator(make, env):
    e = make()
    for _ in range(2):  # the second call runs the evaluator cached by the first
        with pytest.raises(EvaluationError):
            evalf(e, env)
    assert e._col is make()._col


# ---------------------------------------------------------------------------
# blocks: each node evaluated over many points as one column

# zeros of either sign, negative bases under a half power on both sides of
# its cut, and values whose powers and exponentials overflow
HARD_POINTS = ({"p": 0.0, "q": 0.0, "hbar": 0.0},
               {"p": -0.0, "q": 0.0, "hbar": 1.0},
               {"p": -0.0, "q": -0.0, "hbar": -0.0},
               {"p": -1.5, "q": -0.0, "hbar": 1.0},
               {"p": -2.0, "q": 0.5, "hbar": -1.0},
               {"p": 1.0, "q": -800.0, "hbar": 1e300})


def _assert_block_matches_the_walk(e, envs):
    """evalf at each point of a Block over ``envs`` gives the tree walk's
    value there bit for bit, signed zeros included, and raises
    EvaluationError where the walk raises or is not finite.  The block keeps
    one column for e, which is None exactly when the walk raises at some
    point, so that every point was then evaluated alone."""
    block = Block(envs)
    raised = False
    for point, env in zip(block.points, envs):
        assert point == env
        try:
            ref = evalf_walk(e, env)
        except (ZeroDivisionError, OverflowError, ValueError):
            ref, raised = None, True
        if ref is None or not cmath.isfinite(ref):
            with pytest.raises(EvaluationError):
                evalf(e, point)
        else:
            got = evalf(e, point)
            assert (got.real.hex(), got.imag.hex()) == (ref.real.hex(), ref.imag.hex())
        if point.index == 0:
            last = block._last
    assert block._last is last and last[0] is e
    assert (last[1] is None) == raised


_coordinate = st.floats(-3.0, 3.0)  # 0.0 and -0.0 included
_envs = st.lists(st.builds(lambda p, q, h: {"p": p, "q": q, "hbar": h},
                           _coordinate, _coordinate, _coordinate), min_size=1, max_size=6)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32), _envs)
def test_block_values_match_the_tree_walk_bit_for_bit(seed, envs):
    e = _random_expr(random.Random(seed), 3, mul, power)
    _assert_block_matches_the_walk(e, envs)
    _assert_block_matches_the_walk(e, list(HARD_POINTS))
    for env in HARD_POINTS:  # one hard point raises the column of the drawn ones
        _assert_block_matches_the_walk(e, envs + [env])


@pytest.mark.parametrize("text", [
    "exp(800*p)", "(p + q)^(1/2)", "(p*q)^(-1/2) + hbar", "sin(q)*hbar^(-1) - (p - 1)^(3/2)",
    "p^2*q + sin(p)*hbar + cos(q)^2 + 1/3", "1/3 + i + pi + p*q - q^(1/2)",
])
def test_block_values_match_the_tree_walk_at_hand_picked_points(text):
    e = parse_expr(text, VOCAB)
    points = list(EVAL_POINTS + HARD_POINTS)
    _assert_block_matches_the_walk(e, points)
    for env in points:
        _assert_block_matches_the_walk(e, [env])
        _assert_block_matches_the_walk(e, list(EVAL_POINTS) + [env])


def test_a_block_reads_an_unbound_symbol_at_each_point():
    block = Block([{"p": 1.0}, {"p": 2.0}])
    for point in block.points:
        with pytest.raises(UnboundSymbolError, match="unbound symbol 'q'"):
            evalf(add(P, Q), point)
    assert evalf(P, block.points[1]) == 2.0


def test_half_powers_merging_to_integers_stay_canonical():
    pq = mul(P, Q)
    half = Pow(pq, Fraction(1, 2))     # sqrt(p*q), base deliberately a product
    e = mul(half, half, power(P, -1))  # (p*q)^(1/2) twice must merge to p*q
    assert e == Q
    assert subs(e, {}) == e


SQRT2 = call("sqrt", rational(2))
ONE_PLUS_I = add(ONE, IMAG)


@pytest.mark.parametrize("args, expected", [
    ((IMAG, IMAG, IMAG), mul(rational(-1), IMAG)),
    ((IMAG, P, IMAG, Q, IMAG), mul(rational(-1), IMAG, P, Q)),
    ((power(IMAG, 2), IMAG, IMAG), ONE),
    ((ONE_PLUS_I, ONE_PLUS_I), mul(rational(2), IMAG)),
    ((SQRT2, SQRT2), rational(2)),
], ids=["i-i-i", "i-p-i-q-i", "i^2-i-i", "(1+i)^2", "sqrt2-sqrt2"])
def test_merged_bases_fold_through_power(args, expected):
    # power() of a merged base may give a rational, or a product whose
    # rational factor joins the coefficient: i^3 = -i and (1+i)^2 = 2i
    assert mul(*args) is mul_rebuilt(*args) is expected


# add and mul test a coefficient for 0 or 1, and build a power, only where
# they merged something: a term or factor met once is kept as it is
@pytest.mark.parametrize("fold, rebuilt, args", [
    (add, add_rebuilt, (ZERO, mul(rational(2), P))),
    (add, add_rebuilt, (P, ZERO, ZERO)),
    (add, add_rebuilt, (ZERO, ZERO)),
    (add, add_rebuilt, (mul(rational(1, 2), P), mul(rational(1, 2), P))),
    (add, add_rebuilt, (rational(1, 2), P, rational(1, 2))),
    (mul, mul_rebuilt, (power(P, Fraction(1, 2)), power(P, Fraction(-1, 2)))),
    (mul, mul_rebuilt, (IMAG, IMAG)),
    (mul, mul_rebuilt, (rational(1, 2), P, rational(2), Q)),
    (mul, mul_rebuilt, (rational(2, 3), power(P, Fraction(1, 2)), rational(3, 2), Q)),
], ids=["0+2p", "p+0+0", "0+0", "p/2+p/2", "1/2+p+1/2", "p^(1/2)*p^(-1/2)", "i*i",
        "1/2*p*2*q", "2/3*p^(1/2)*3/2*q"])
def test_merged_coefficients_and_exponents_match_the_rebuilt_folds(fold, rebuilt, args):
    assert fold(*args) is rebuilt(*args)


# ---------------------------------------------------------------------------
# interning and machine-integer coefficients


def test_rationals_are_interned_and_integral_values_are_ints():
    assert rational(4, 2) is rational(2)
    assert Rational(Fraction(6, 4)) is rational(3, 2)
    assert Rational(Fraction(4, 2)) is rational(2)
    assert type(rational(2).value) is int
    assert rational(1, 2).value == Fraction(1, 2)
    assert type(rational(1, 2).value) is Fraction


def test_integral_pow_exponents_are_ints():
    inv = power(add(P, Q), -1)
    assert type(inv.exponent) is int and inv.exponent == -1
    assert type(power(add(P, Q), Fraction(-4, 2)).exponent) is int
    half = power(P, Fraction(1, 2))
    assert half.exponent == Fraction(1, 2)
    assert power(P, Fraction(6, 4)) is power(P, Fraction(3, 2))
    merged = mul(half, power(P, Fraction(3, 2)))  # exponents sum to Fraction(2)
    assert merged is power(P, 2) and type(merged.exponent) is int


def test_constant_powers_with_negative_exponents_stay_exact():
    # int ** negative int is a float; constant powers must stay rational
    assert power(rational(2), -2) is rational(1, 4)
    assert mul(power(rational(2), -1), rational(2)) is ONE
    with pytest.raises(EvaluationError):
        power(rational(0), -1)


def test_diff_subs_and_parse_return_the_interned_node():
    assert diff(parse_expr("p^2*q", VOCAB), P) is parse_expr("2*p*q", VOCAB)
    assert subs(parse_expr("p + q", VOCAB), {"q": P}) is mul(rational(2), P)
    assert parse_expr("q*p", VOCAB) is mul(P, Q)


_poly_terms = st.lists(
    st.tuples(st.integers(-3, 3), st.sampled_from([1, 2, 3]),
              st.integers(0, 2), st.integers(0, 2)),
    max_size=4)


def _poly(terms):
    return add(*[mul(rational(c, d), power(P, i), power(Q, j)) for c, d, i, j in terms])


@settings(max_examples=80, deadline=None)
@given(_poly_terms, _poly_terms, st.randoms(use_true_random=False))
def test_polynomials_are_interned(ta, tb, rnd):
    a, b = _poly(ta), _poly(tb)
    assert parse_expr(to_str(a), VOCAB) is a
    assert (a == b) == (to_str(a) == to_str(b))
    shuffled = list(ta)
    rnd.shuffle(shuffled)
    assert _poly(shuffled) is a


def _race(work):
    """``work()``'s result in each of 8 threads released at once by a
    barrier, with the interpreter switching threads as often as it can."""
    import sys
    import threading
    results = [None] * 8
    barrier = threading.Barrier(len(results))

    def run(slot):
        barrier.wait(timeout=60)
        results[slot] = work()

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert all(r is not None for r in results)
    return results


def test_threads_building_the_same_nodes_get_one_node():
    # every thread that races to build a node, or to store a term's monomial,
    # must get the node stored first
    names = [f"race{k}" for k in range(1000)]  # symbols new to this process
    results = _race(lambda: [add(power(symbol(n), 2), mul(rational(3, 7), symbol(n), Q))
                             for n in names])
    for other in results[1:]:
        assert all(a is b for a, b in zip(results[0], other))
    for n, e in zip(names, results[0]):
        [term] = [t for t in e.terms if type(t) is Mul]
        assert term._mono is mul(symbol(n), Q)


def test_threads_expanding_the_same_products_get_one_node():
    # threads race to distribute products never expanded before; each must
    # get the node the table stored first
    from gqw import expr
    names = [f"expandrace{k}" for k in range(300)]
    products = [(symbol(n), add(symbol(n), P)) for n in names]
    results = _race(lambda: [mul(*args) for args in products])
    for other in results[1:]:
        assert all(a is b for a, b in zip(results[0], other))
    assert all(expr._EXPANDED[args] is e for args, e in zip(products, results[0]))
    assert all(e is mul_rebuilt(*args) for args, e in zip(products, results[0]))


def test_threads_expanding_products_of_two_sums_store_one_product_per_pair():
    # threads race to fill the table of monomial products with pairs never
    # multiplied before; each must get the stored node, one per pair
    from gqw import expr
    names = [f"pairrace{k}" for k in range(200)]
    products = [(add(symbol(f"{n}_a"), mul(rational(2), symbol(f"{n}_b"))),
                 add(mul(rational(-1, 3), symbol(f"{n}_c")), P)) for n in names]
    results = _race(lambda: [mul(*args) for args in products])
    for other in results[1:]:
        assert all(a is b for a, b in zip(results[0], other))
    assert all(e is mul_rebuilt(*args) for args, e in zip(products, results[0]))
    for n in names:
        a, b, c = (symbol(f"{n}_{v}") for v in "abc")
        pairs = [(ONE, a), (ONE, b), (a, c), (a, P), (b, c), (b, P)]
        assert all(expr._MONOMIAL_PRODUCTS[ma][mb] is mul_rebuilt(ma, mb) for ma, mb in pairs)


def test_threads_evaluating_new_nodes_agree_with_a_tree_walk():
    # threads race to build and store the evaluators of nodes never evaluated
    # before; every value must still be the tree walk's
    names = [f"evalrace{k}" for k in range(300)]
    nodes = [add(power(symbol(n), 3), mul(rational(2, 7), call("sin", symbol(n))), PI)
             for n in names]
    env = {n: 0.01 * k for k, n in enumerate(names)}
    expected = [evalf_walk(e, env) for e in nodes]
    results = _race(lambda: [evalf(e, env) for e in nodes])
    assert all(r == expected for r in results)



def test_threads_differentiating_new_nodes_agree_with_a_tree_walk():
    # threads race to fill the stored derivatives of nodes never
    # differentiated before; every result must be the tree walk's node
    names = [f"diffrace{k}" for k in range(200)]
    nodes = [mul(power(add(symbol(n), P), 3), call("sin", mul(symbol(n), Q)))
             for n in names]
    expected = [_reference_diff(e, P) for e in nodes]
    results = _race(lambda: [diff(e, P) for e in nodes])
    assert all(all(a is b for a, b in zip(r, expected)) for r in results)


def test_threads_parsing_the_same_texts_get_one_node():
    # threads race to store texts and regions never parsed before; each
    # must get the node stored first
    from gqw import parse
    names = [f"parserace{k}" for k in range(200)]
    vocab = ("p", "q", *names)
    texts = [f"sin(({n} + p)^2)*({n} + p) - ({n} + p)" for n in names]
    results = _race(lambda: [parse_expr(t, vocab) for t in texts])
    for other in results[1:]:
        assert all(a is b for a, b in zip(results[0], other))
    regions = parse._REGIONS[frozenset(vocab)]
    assert all(regions[t] is e for t, e in zip(texts, results[0]))
    assert all(regions[f"({n} + p)"] is add(symbol(n), P) for n in names)
