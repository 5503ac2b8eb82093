"""Symbolic expression kernel.

Expressions are immutable trees over exact rationals, named symbols, the
reserved constants pi / i / hbar, n-ary sums and products, rational powers,
and the unary functions sin, cos, exp.  Every constructor returns a
canonical form:

  * sums and products are flattened and sorted under a fixed term order,
  * rational constants are folded exactly; a coefficient or exponent is an
    int when integral and a fractions.Fraction otherwise,
  * like terms are collected and equal bases have their exponents merged,
  * products distribute over sums and positive integer powers of sums are
    expanded, so polynomial identities collapse to a structural zero,
  * integer powers of the imaginary unit fold through the 4-cycle,
  * matched sin(u)^2 + cos(u)^2 pairs collapse to 1.

There is no division node: quotients are powers with negative exponents.
sqrt(x) is accepted by the parser and normalized to x^(1/2).

Nodes are interned (hash-consed): each node class keeps a table from its
fields to the one node built with them, so structurally equal expressions
are the same object, and == and hash are object identity.  The tables live
for the process.

evalf runs one closure per node, ``env -> complex``: it is built on the
node's first evaluation from its children's closures and kept in the node,
like the node's sort key, so each node is dispatched on its type once per
process.

mul keeps each product that distributed a sum in ``_EXPANDED``, a table
from its argument tuple to the result, and answers a repeat from it, so a
product over a sum is distributed once per process.  Products with no sum
factor are cheap to rebuild and are not stored, which keeps the table small.
The table lives for the process; racing threads fill it with
dict.setdefault, like the intern tables, so they get the same node.

add collects terms by monomial.  A product with a coefficient keeps its
monomial (its factors after the coefficient, as one node) in ``_mono``,
filled on its first split and kept as long as the product, so a term is
taken apart once per process.  A term whose monomial add meets once is
appended as the node it was given, since rebuilding it from its coefficient
and monomial gives that node.  The sin(u)^2 + cos(u)^2 pass runs only when
a collected monomial has a factor sin(u)^k with integral k >= 2, the factor
every rewrite starts from; after it, every surviving term is rebuilt.

diff keeps each derivative in the node it was taken of: the node's ``_d``
maps a symbol to the derivative by it, so each (node, symbol) derivative is
computed once and lives as long as the node.  Nodes are only ever built by
their class's ``__new__``, never subclassed, so the kernel dispatches on the
exact type (``type(e) is Mul``).

All operations are pure; expressions may be shared freely across threads.
Threads that build the same node at once get one node: the table is filled
with dict.setdefault, and the first node stored wins.  Threads that evaluate
or differentiate a node for the first time at once each store an equal
value: an equivalent closure, or the same derivative node.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Mapping

from .errors import EvaluationError, UnboundSymbolError

__all__ = [
    "Expr", "Rational", "Symbol", "Constant", "Add", "Mul", "Pow", "Call",
    "PI", "IMAG", "HBAR", "ZERO", "ONE", "rational", "symbol", "add", "mul",
    "power", "call", "diff", "evalf", "subs", "to_str",
]

_FUNCTIONS = ("cos", "exp", "sin")
_CONSTANTS = ("hbar", "i", "pi")


class Expr:
    """Base class.  Instances are immutable, canonical by construction and
    interned: each node class builds one node per distinct field tuple, so
    ``==`` and ``hash`` are object identity."""

    __slots__ = ("_sortkey", "_fn", "_d")

    def __repr__(self):
        return to_str(self)

    def is_zero(self) -> bool:
        return self is ZERO

    def is_one(self) -> bool:
        return self is ONE


def _exact(value):
    """An exact rational as nodes store it: an int when integral, else a
    Fraction."""
    return value.numerator if value.denominator == 1 else value


def _interned(cls, key, *fields):
    """The node of ``cls`` stored in its table under ``key``, built from
    ``fields`` (in ``__slots__`` order) on a miss.  ``setdefault`` keeps the
    first node stored when threads race to build the same one.  The tables
    live for the process."""
    table = cls._table
    node = table.get(key)
    if node is None:
        node = object.__new__(cls)
        for name, value in zip(cls.__slots__, fields):
            setattr(node, name, value)
        node = table.setdefault(key, node)
    return node


class Rational(Expr):
    """Exact rational literal."""

    __slots__ = ("value",)
    _table: dict = {}

    def __new__(cls, value):
        value = _exact(value)
        return _interned(cls, value, value)


class Symbol(Expr):
    """A named coordinate, parameter, or fiber variable."""

    __slots__ = ("name",)
    _table: dict = {}

    def __new__(cls, name: str):
        return _interned(cls, name, name)


class Constant(Expr):
    """Reserved constant: pi, i, or hbar."""

    __slots__ = ("name",)
    _table: dict = {}

    def __new__(cls, name: str):
        assert name in _CONSTANTS
        return _interned(cls, name, name)


PI = Constant("pi")
IMAG = Constant("i")
HBAR = Constant("hbar")
ZERO = Rational(0)
ONE = Rational(1)
MINUS_ONE = Rational(-1)


class Add(Expr):
    __slots__ = ("terms",)
    _table: dict = {}

    def __new__(cls, terms: tuple):
        return _interned(cls, terms, terms)


class Mul(Expr):
    __slots__ = ("factors", "_mono")  # _mono: see _split_coeff
    _table: dict = {}

    def __new__(cls, factors: tuple):
        return _interned(cls, factors, factors)


class Pow(Expr):
    """base raised to an exact rational exponent (never 0 or 1)."""

    __slots__ = ("base", "exponent")
    _table: dict = {}

    def __new__(cls, base: Expr, exponent):
        exponent = _exact(exponent)
        return _interned(cls, (base, exponent), base, exponent)


class Call(Expr):
    """Unary function application: sin, cos, exp."""

    __slots__ = ("fn", "arg")
    _table: dict = {}

    def __new__(cls, fn: str, arg: Expr):
        assert fn in _FUNCTIONS
        return _interned(cls, (fn, arg), fn, arg)


# ---------------------------------------------------------------------------
# canonical term order


def _key(e: Expr):
    """The node's canonical sort key, built once from its children's stored
    keys and kept in the node (filling it twice stores the same value)."""
    try:
        return e._sortkey
    except AttributeError:
        pass
    # Rank-first tuples: payloads are only compared between same-rank nodes,
    # so the heterogeneous nesting is safe under tuple comparison.
    t = type(e)
    if t is Rational:
        k = (0, (e.value.numerator, e.value.denominator))
    elif t is Constant:
        k = (1, e.name)
    elif t is Symbol:
        k = (2, e.name)
    elif t is Call:
        k = (3, (e.fn, _key(e.arg)))
    elif t is Pow:
        k = (4, (_key(e.base), (e.exponent.numerator, e.exponent.denominator)))
    elif t is Mul:
        k = (5, tuple(_key(f) for f in e.factors))
    elif t is Add:
        k = (6, tuple(_key(term) for term in e.terms))
    else:
        raise TypeError(type(e))
    e._sortkey = k
    return k


# ---------------------------------------------------------------------------
# constructors


def rational(num, den=1) -> Expr:
    return Rational(num if den == 1 and isinstance(num, int) else Fraction(num, den))


def symbol(name: str) -> Symbol:
    return Symbol(name)


def _split_coeff(term: Expr):
    """term -> (Fraction coefficient, monomial Expr).  A product with a
    coefficient keeps its monomial in ``_mono``, filled on the first split
    (a race stores the same interned node twice)."""
    t = type(term)
    if t is Rational:
        return term.value, ONE
    if t is Mul and type(term.factors[0]) is Rational:
        try:
            mono = term._mono
        except AttributeError:
            rest = term.factors[1:]
            mono = term._mono = rest[0] if len(rest) == 1 else Mul(rest)
        return term.factors[0].value, mono
    return 1, term


def _monomial_factors(mono: Expr) -> tuple:
    return mono.factors if type(mono) is Mul else (mono,)


def _is_sin_power(f: Expr) -> bool:
    """sin(u)^k with integral k >= 2: every sin^2 + cos^2 rewrite starts
    from such a factor."""
    return (type(f) is Pow and type(f.base) is Call and f.base.fn == "sin"
            and f.exponent.denominator == 1 and f.exponent >= 2)


def _has_sin_power(monomials) -> bool:
    """Whether a monomial has a factor sin(u)^k with integral k >= 2.  add
    asks this of every sum, so the loop is inlined and most factors fail the
    type test before any call."""
    for mono in monomials:
        for f in (mono.factors if type(mono) is Mul else (mono,)):
            if type(f) is Pow and _is_sin_power(f):
                return True
    return False


def _pythagoras(terms: dict) -> None:
    """Collapse matched c*sin(u)^k*R + c*sin(u)^(k-2)*cos(u)^2*R pairs into
    c*sin(u)^(k-2)*R, in place.  Each rewrite lowers the total trig degree,
    so the loop terminates."""
    changed = True
    while changed:
        changed = False
        for mono in sorted(terms, key=_key):
            c = terms.get(mono)
            if c is None or c == 0:
                continue
            factors = _monomial_factors(mono)
            for idx, f in enumerate(factors):
                if not _is_sin_power(f):
                    continue
                u = f.base.arg
                k = int(f.exponent)
                rest = factors[:idx] + factors[idx + 1:]
                sin_rem = () if k == 2 else (power(Call("sin", u), k - 2),)
                partner = mul(*rest, *sin_rem, Pow(Call("cos", u), 2))
                if terms.get(partner) != c:
                    continue
                residual = mul(*rest, *sin_rem) if rest or sin_rem else ONE
                del terms[mono]
                del terms[partner]
                prev = terms.get(residual)
                terms[residual] = c if prev is None else prev + c
                changed = True
                break
            if changed:
                break


def add(*args: Expr) -> Expr:
    terms: dict = {}  # monomial -> summed coefficient
    single: dict = {}  # monomial -> its term node, while the monomial is met once
    for a in args:
        parts = a.terms if type(a) is Add else (a,)
        for t in parts:
            c, mono = _split_coeff(t)
            prev = terms.get(mono)
            if prev is None:
                terms[mono] = c
                single[mono] = t
            else:
                terms[mono] = prev + c
                single.pop(mono, None)
    if _has_sin_power(terms):
        _pythagoras(terms)
        single = {}  # the pass may have rewritten any coefficient
    out = []
    for mono in sorted(terms, key=_key):
        c = terms[mono]
        if c == 0:
            continue
        node = single.get(mono)
        if node is not None:
            # a term met once is canonical: rebuilding it from (c, mono) gives it
            out.append(node)
        elif mono is ONE:
            out.append(Rational(c))
        elif c == 1:
            out.append(mono)
        elif type(mono) is Mul:
            out.append(Mul((Rational(c),) + mono.factors))
        else:
            out.append(Mul((Rational(c), mono)))
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    return Add(tuple(out))


# mul's argument tuple -> its result, for the products that distributed a sum
_EXPANDED: dict = {}


def _expand_product(coeff: Fraction, plain: list, sums: list) -> Expr:
    # Distribute the Add factors; their terms are monomials, so the inner
    # products cannot reintroduce sums and the recursion is flat.
    partial = [Rational(coeff)] + plain
    out_terms = [tuple(partial)]
    for s in sums:
        out_terms = [prev + (t,) for prev in out_terms
                     for t in (s.terms if type(s) is Add else (s,))]
    return add(*[mul(*combo) for combo in out_terms])


def mul(*args: Expr) -> Expr:
    expanded = _EXPANDED.get(args)
    if expanded is not None:
        return expanded
    coeff = 1
    powers: dict = {}  # base -> summed exponent, in order of first appearance
    single: dict = {}  # base -> its factor node, while the base is met once
    for a in args:
        for f in (a.factors if type(a) is Mul else (a,)):
            t = type(f)
            if t is Rational:
                if f is ZERO:
                    return ZERO
                coeff = f.value if coeff == 1 else coeff * f.value
                continue
            # power() folds a rational base under an integral exponent, so a
            # rational base met here carries a fractional one and stays a power
            base, exp = (f.base, f.exponent) if t is Pow else (f, 1)
            prev = powers.get(base)
            if prev is None:
                powers[base] = exp
                single[base] = f
            else:
                powers[base] = prev + exp
                single.pop(base, None)

    plain, sums = [], []
    for base, exp in powers.items():
        if exp == 0:
            continue
        # a factor met once is a canonical node: power(base, exp) is it
        p = single.get(base) or power(base, exp)
        t = type(p)
        if t is Rational:
            coeff *= p.value
        elif t is Add:
            sums.append(p)
        elif t is Mul:
            # power() may fold a piece into a product (e.g. i^3 = -i)
            for q in p.factors:
                if type(q) is Rational:
                    coeff *= q.value
                elif type(q) is Add:
                    sums.append(q)
                else:
                    plain.append(q)
        else:
            plain.append(p)
    if coeff == 0:
        return ZERO
    if sums:
        return _EXPANDED.setdefault(args, _expand_product(coeff, plain, sums))
    bases = [f.base if type(f) is Pow else f for f in plain]
    if len(set(bases)) != len(bases):
        # a distributed power reintroduced an existing base; one more merge
        # pass strictly shrinks the factor list, so this terminates
        return mul(Rational(coeff), *plain)
    plain.sort(key=_key)
    if not plain:
        return Rational(coeff)
    if coeff == 1:
        return plain[0] if len(plain) == 1 else Mul(tuple(plain))
    return Mul((Rational(coeff),) + tuple(plain))


def power(base: Expr, exponent) -> Expr:
    if type(exponent) is Rational:
        exponent = exponent.value
    elif not isinstance(exponent, int):
        exponent = _exact(Fraction(exponent))
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    t = type(base)
    if t is Rational:
        if exponent.denominator == 1:
            if base.value == 0 and exponent < 0:
                raise EvaluationError("division by zero in a constant power")
            return Rational(Fraction(base.value) ** exponent.numerator)
        if base is ZERO or base is ONE:
            return base
        return Pow(base, exponent)
    if base is IMAG and exponent.denominator == 1:
        r = exponent.numerator % 4
        return (ONE, IMAG, MINUS_ONE, mul(MINUS_ONE, IMAG))[r]
    if t is Pow and exponent.denominator == 1:
        return power(base.base, base.exponent * exponent)
    if t is Mul and exponent.denominator == 1:
        return mul(*[power(f, exponent) for f in base.factors])
    if t is Add and exponent.denominator == 1 and exponent >= 2:
        # expand by distributing term lists; the terms are monomials, so the
        # inner products cannot re-enter this branch with the same base
        terms = [ONE]
        for _ in range(int(exponent)):
            terms = [mul(t, s) for t in terms for s in base.terms]
        return add(*terms)
    return Pow(base, exponent)


def call(fn: str, arg: Expr) -> Expr:
    if fn == "sqrt":
        return power(arg, Fraction(1, 2))
    if fn not in _FUNCTIONS:
        raise ValueError(f"unsupported function '{fn}'")
    if arg.is_zero():
        return ZERO if fn == "sin" else ONE
    if fn in ("sin", "cos"):
        sign, stripped = _extract_sign(arg)
        if sign < 0:
            inner = Call(fn, stripped)
            return mul(MINUS_ONE, inner) if fn == "sin" else inner
    return Call(fn, arg)


def _extract_sign(e: Expr):
    """Deterministic sign split used to orient sin/cos arguments."""
    t = type(e)
    if t is Rational:
        return (1, e) if e.value > 0 else (-1, Rational(-e.value))
    if t is Mul and type(e.factors[0]) is Rational:
        c = e.factors[0].value
        if c < 0:
            return -1, mul(Rational(-c), *e.factors[1:])
        return 1, e
    if t is Add:
        c, _ = _split_coeff(e.terms[0])
        if c < 0:
            return -1, mul(MINUS_ONE, e)
        return 1, e
    return 1, e


# ---------------------------------------------------------------------------
# calculus / evaluation / substitution


def diff(e: Expr, v: Symbol) -> Expr:
    """Exact partial derivative, returned in canonical form.  It is computed
    once per (node, symbol) and kept in the node's ``_d``; a race between
    threads stores the same derivative node twice."""
    try:
        stored = e._d
    except AttributeError:
        stored = e._d = {}
    d = stored.get(v)
    if d is None:
        d = stored[v] = _diff(e, v)
    return d


def _diff(e: Expr, v: Symbol) -> Expr:
    """The derivative by a walk over one node, its children's taken by
    ``diff``."""
    t = type(e)
    if t is Rational or t is Constant:
        return ZERO
    if t is Symbol:
        return ONE if e is v else ZERO
    if t is Add:
        return add(*[diff(term, v) for term in e.terms])
    if t is Mul:
        pieces = []
        for k, f in enumerate(e.factors):
            dk = diff(f, v)
            if dk.is_zero():
                continue
            pieces.append(mul(dk, *e.factors[:k], *e.factors[k + 1:]))
        return add(*pieces) if pieces else ZERO
    if t is Pow:
        db = diff(e.base, v)
        if db.is_zero():
            return ZERO
        return mul(Rational(e.exponent), power(e.base, e.exponent - 1), db)
    if t is Call:
        da = diff(e.arg, v)
        if da.is_zero():
            return ZERO
        if e.fn == "sin":
            outer = call("cos", e.arg)
        elif e.fn == "cos":
            outer = mul(MINUS_ONE, call("sin", e.arg))
        else:
            outer = e
        return mul(outer, da)
    raise TypeError(type(e))


def evalf(e: Expr, env: Mapping[str, complex]) -> complex:
    """Evaluate over complex doubles.  pi and i are bound; hbar and all
    symbols come from ``env``.  Raises EvaluationError on unbound symbols,
    division by zero, or non-finite results."""
    try:
        val = _compiled(e)(env)
    except ZeroDivisionError as exc:
        raise EvaluationError("division by zero during evaluation") from exc
    except (OverflowError, ValueError) as exc:
        raise EvaluationError(f"numeric failure: {exc}") from exc
    if not (math.isfinite(val.real) and math.isfinite(val.imag)):
        raise EvaluationError("non-finite value during evaluation")
    return val


def _compiled(e: Expr):
    """The node's evaluator ``env -> complex``, built once from its
    children's evaluators and kept in the node (filling it twice stores an
    equivalent closure)."""
    try:
        return e._fn
    except AttributeError:
        pass
    t = type(e)
    if t is Rational or e is PI or e is IMAG:
        value = (1j if e is IMAG else complex(math.pi) if e is PI
                 else complex(e.value.numerator / e.value.denominator))

        def fn(env):
            return value
    elif t is Symbol or t is Constant:  # a symbol or hbar: read from env
        name = e.name
        unbound = f"unbound {'constant' if e is HBAR else 'symbol'} '{name}'"

        def fn(env):
            try:
                return complex(env[name])
            except KeyError:
                raise UnboundSymbolError(unbound) from None
    elif t is Add:
        terms = tuple(_compiled(term) for term in e.terms)

        def fn(env):
            return sum([term(env) for term in terms])
    elif t is Mul:
        factors = tuple(_compiled(f) for f in e.factors)

        def fn(env):
            out = complex(1)
            for f in factors:
                out *= f(env)
            return out
    elif t is Pow and e.exponent.denominator == 1:
        base, n = _compiled(e.base), e.exponent.numerator

        def fn(env):
            return base(env) ** n
    elif t is Pow:
        base, x, positive = _compiled(e.base), float(e.exponent), e.exponent > 0

        def fn(env):
            b = base(env)
            if b == 0:
                if positive:
                    return complex(0)
                raise ZeroDivisionError
            return b ** x
    elif t is Call:
        f, arg = getattr(cmath, e.fn), _compiled(e.arg)

        def fn(env):
            return f(arg(env))
    else:
        raise TypeError(type(e))
    e._fn = fn
    return fn


def subs(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Substitute symbols by name; the result is re-canonicalized."""
    t = type(e)
    if t is Symbol:
        return mapping.get(e.name, e)
    if t is Rational or t is Constant:
        return e
    if t is Add:
        return add(*[subs(term, mapping) for term in e.terms])
    if t is Mul:
        return mul(*[subs(f, mapping) for f in e.factors])
    if t is Pow:
        return power(subs(e.base, mapping), e.exponent)
    if t is Call:
        return call(e.fn, subs(e.arg, mapping))
    raise TypeError(type(e))


# ---------------------------------------------------------------------------
# printing (parse(to_str(e)) == e)


def _frac_str(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def _paren_for_pow_base(b: Expr) -> bool:
    if type(b) is Rational:
        return not (b.value.denominator == 1 and b.value >= 0)
    return type(b) in (Add, Mul, Pow)


def _factor_str(f: Expr) -> str:
    s = to_str(f)
    return f"({s})" if type(f) is Add else s


def to_str(e: Expr) -> str:
    t = type(e)
    if t is Rational:
        return _frac_str(e.value)
    if t is Symbol or t is Constant:
        return e.name
    if t is Call:
        return f"{e.fn}({to_str(e.arg)})"
    if t is Pow:
        b = to_str(e.base)
        if _paren_for_pow_base(e.base):
            b = f"({b})"
        exp = e.exponent
        if exp.denominator == 1 and exp >= 0:
            return f"{b}^{exp.numerator}"
        return f"{b}^({_frac_str(exp)})"
    if t is Mul:
        factors = e.factors
        prefix = ""
        if type(factors[0]) is Rational:
            c = factors[0].value
            factors = factors[1:]
            if c == -1:
                prefix = "-"
            else:
                prefix = ("-" if c < 0 else "") + _frac_str(abs(c)) + "*"
        return prefix + "*".join(_factor_str(f) for f in factors)
    if t is Add:
        parts = []
        for k, t in enumerate(e.terms):
            c, _ = _split_coeff(t)
            if k == 0:
                parts.append(to_str(t))
            elif c < 0:
                parts.append(" - " + to_str(mul(MINUS_ONE, t)))
            else:
                parts.append(" + " + to_str(t))
        return "".join(parts)
    raise TypeError(type(e))
