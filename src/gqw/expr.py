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
    expanded, so polynomial identities collapse to a structural zero.  Both
    go through one routine, which distributes one sum at a time and keeps
    each distinct partial product once with its multiplicity, so (p+q+1)^n
    costs a polynomial in n.  It raises an EvaluationError once the
    products it has formed, each charged for the size of the coefficients
    it multiplies, pass _MAX_PRODUCTS, or once a coefficient passes
    _MAX_POWER_BITS bits,
  * a rational raised to an integer is computed exactly, and refused with
    an EvaluationError when its numerator or denominator would pass
    _MAX_POWER_BITS bits (a symbol's exponent is never computed, so p^65536
    stays a power),
  * integer powers of the imaginary unit fold through the 4-cycle,
  * matched sin(u)^2 + cos(u)^2 pairs collapse to 1.

There is no division node: quotients are powers with negative exponents.
sqrt(x) is accepted by the parser and normalized to x^(1/2).

Nodes are interned (hash-consed): each node class keeps a table from its
fields to the one node built with them, so structurally equal expressions
are the same object, and == and hash are object identity.  The tables live
for the process.  A key holds ints and nodes, never a Fraction, whose hash
is a Python-level modular inverse: a rational is keyed by its int or by
(numerator, denominator), and a power by (base, int) or (base, numerator,
denominator).  A probe that finds the node hashes only ints and nodes.

evalf runs one closure per node, ``env -> complex``: it is built on the
node's first evaluation from its children's closures and kept in the node,
like the node's sort key, so each node is dispatched on its type once per
process.  A sum or product folds its leading constants (rationals, i, pi)
into one start value when its closure is built, and those constants get no
closure of their own, so an evaluation makes one closure call per node that
reads the point, with the float operations of a plain tree walk.

mul keeps each product that distributed a sum in ``_EXPANDED``, a table
from its argument tuple to the result, and answers a repeat from it, so a
product over a sum is distributed once per process.  A rational times one
node (a sum included) is rescaled, not distributed: each term keeps its
monomial and its place and has its coefficient scaled, which gives the node
distribution would build, since no terms can merge and no sin^2 + cos^2
pair can appear.  Rescaled products and products with no sum factor are
cheap to rebuild and are not stored, which keeps the table small.  The
table lives for the process; racing threads fill it with dict.setdefault,
like the intern tables, so they get the same node.

The first two steps of a distribution multiply input terms: the plain
monomial by the first sum's terms, then those products by the second sum's
terms.  Each such product is the two coefficients times the product of the
two monomials, which ``_MONOMIAL_PRODUCTS`` keeps: it maps a monomial to a
row that maps a monomial to the product of the two.  The same pairs recur
across the products of a process; a probe hashes two interned nodes and
builds no key tuple, so a product of two large sums, whose pairs never
recur, costs little more than without the table.  Later steps multiply
partial products, which a long power makes by the hundred thousand and
which seldom recur, so they call mul and store nothing.  This table also
lives for the process; its rows and their entries are filled with
dict.setdefault.

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
import sys
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
    _table: dict = {}  # keyed by the int, or by (numerator, denominator)

    def __new__(cls, value):
        if type(value) is int:
            return _interned(cls, value, value)
        n, d = value.numerator, value.denominator
        if d == 1:
            return _interned(cls, n, n)
        return _interned(cls, (n, d), value)


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
    _table: dict = {}  # keyed by (base, int) or (base, numerator, denominator)

    def __new__(cls, base: Expr, exponent):
        if type(exponent) is int:
            return _interned(cls, (base, exponent), base, exponent)
        n, d = exponent.numerator, exponent.denominator
        if d == 1:
            return _interned(cls, (base, n), base, n)
        return _interned(cls, (base, n, d), base, exponent)


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
            if type(f) is Pow and type(f.base) is Call and _is_sin_power(f):
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
        if type(a) is Add:
            parts = a.terms
        elif a is ZERO:  # the one term with a zero coefficient
            continue
        else:
            parts = (a,)
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
        # a term met once is canonical, so nonzero, and rebuilding it from
        # (c, mono) gives it; only a merged coefficient can be 0
        node = single.get(mono)
        if node is None:
            c = terms[mono]
            if c == 0:
                continue
            node = _scaled(_exact(c), mono)
        out.append(node)
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    return Add(tuple(out))


# mul's argument tuple -> its result, for the products that distributed a sum
_EXPANDED: dict = {}
# monomial -> {monomial -> their product}, for the products of input terms
# that the first two steps of _expand_product form
_MONOMIAL_PRODUCTS: dict = {}

# power() refuses a rational raised to an integer whose exact value would
# pass this many bits in its numerator or denominator, and _expand_product
# a coefficient whose numerator and denominator together pass it
_MAX_POWER_BITS = 100_000
# _expand_product refuses once the products it has formed, each charged for
# its coefficients, pass this many; the largest accepted, such as (p+q)^706,
# (p+q+1)^99 or (2*p+3*q)^700, take 1 to 2 s
_MAX_PRODUCTS = 500_000


def _coefficient_bits(term: Expr) -> int:
    """The bit lengths of the numerator and the denominator of a term's
    coefficient together (2 for a term without one).  Unlike _split_coeff,
    this builds no monomial node."""
    t = type(term)
    if t is Rational:
        c = term.value
    elif t is Mul and type(term.factors[0]) is Rational:
        c = term.factors[0].value
    else:
        return 2
    return c.numerator.bit_length() + c.denominator.bit_length()


def _expand_product(coeff, plain: list, sums: list) -> Expr:
    """coeff times the factors of ``plain`` and the sums of ``sums``, each sum
    distributed in turn over the partial product, which keeps each distinct
    product once with the number of ordered products that give it.

    A step that starts from two products or more is charged before it forms
    its products: one for each, plus the bit lengths of the two coefficients
    it multiplies, multiplied together, over _MAX_POWER_BITS (a step from
    one product forms no more products than the sum has terms).  The
    expansion is refused once the charge passes _MAX_PRODUCTS, or a
    coefficient passes _MAX_POWER_BITS bits.

    The first two steps, which multiply input terms, read the product of
    the two monomials from _MONOMIAL_PRODUCTS and scale it by the two
    coefficients, which gives the node mul builds."""
    counts, spent = {mul(Rational(coeff), *plain): 1}, 0
    for step, s in enumerate(sums):
        if len(counts) > 1:
            sizes = list(map(_coefficient_bits, counts))
            spent += (len(sizes) * len(s.terms) * _MAX_POWER_BITS
                      + sum(sizes) * sum(map(_coefficient_bits, s.terms)))
            if spent > _MAX_PRODUCTS * _MAX_POWER_BITS or max(sizes) > _MAX_POWER_BITS:
                raise EvaluationError(f"expansion too large: over {_MAX_PRODUCTS} products")
        prev, counts = counts, {}
        if step < 2:
            split = [_split_coeff(t) for t in s.terms]
            for node, count in prev.items():
                ca, ma = _split_coeff(node)
                row = _MONOMIAL_PRODUCTS.get(ma)
                if row is None:
                    row = _MONOMIAL_PRODUCTS.setdefault(ma, {})
                for cb, mb in split:
                    m = row.get(mb)
                    if m is None:
                        m = row.setdefault(mb, mul(ma, mb))
                    c = ca * cb
                    if c != 1:  # so a Fraction c is neither 0 nor 1
                        m = _scaled(c, m)
                    counts[m] = counts.get(m, 0) + count
        else:
            for node, count in prev.items():
                for t in s.terms:
                    m = mul(node, t)
                    counts[m] = counts.get(m, 0) + count
    return add(*[_scaled(count, node) for node, count in counts.items()])


def _scaled_term(c, t: Expr) -> Expr:
    """c * t for a nonzero exact rational c, stored as nodes store it, and a
    canonical t that is not a sum: the coefficient is scaled, and a term whose
    coefficient becomes 1 is its bare monomial."""
    tt = type(t)
    if tt is Rational:
        return Rational(c * t.value)
    if tt is not Mul:
        return Mul((Rational(c), t))
    if type(t.factors[0]) is not Rational:
        return Mul((Rational(c),) + t.factors)
    v = _exact(c * t.factors[0].value)
    if type(v) is int and v == 1:
        return _split_coeff(t)[1]
    return Mul((Rational(v),) + t.factors[1:])


def _scaled(c, x: Expr) -> Expr:
    """c * x for an exact rational c (an int when integral, so a Fraction is
    never 0 or 1) and a canonical x.  Scaling keeps every monomial, so no
    terms merge, the term order stands and no sin^2 + cos^2 pair appears:
    the result is the node that distributing c over x builds."""
    if type(c) is int:
        if c == 0:
            return ZERO
        if c == 1:
            return x
    if type(x) is Add:
        return Add(tuple([_scaled_term(c, t) for t in x.terms]))
    return _scaled_term(c, x)


def mul(*args: Expr) -> Expr:
    if len(args) == 2:
        a, b = args
        if type(a) is Rational:
            return _scaled(a.value, b)
        if type(b) is Rational:
            return _scaled(b.value, a)
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
    reopened = False  # whether power() built a factor, which can bring back a base
    for base, exp in powers.items():
        # a factor met once is a canonical node: power(base, exp) is it
        p = single.get(base)
        if p is None:
            if exp == 0:
                continue
            p = power(base, exp)
            reopened = True
        t = type(p)
        if t is Rational:
            coeff *= p.value
        elif t is Add:
            sums.append(p)
        elif t is Mul:
            # power() may fold a piece into a product (e.g. i^3 = -i); products
            # distribute over sums, so no Mul has an Add factor
            for q in p.factors:
                if type(q) is Rational:
                    coeff *= q.value
                else:
                    plain.append(q)
        else:
            plain.append(p)
    if sums:
        if not plain and len(sums) == 1:
            return _scaled(_exact(coeff), sums[0])
        return _EXPANDED.setdefault(args, _expand_product(coeff, plain, sums))
    if reopened:
        bases = [f.base if type(f) is Pow else f for f in plain]
        if len(set(bases)) != len(bases):
            # a distributed power reintroduced an existing base; one more
            # merge pass strictly shrinks the factor list, so this terminates
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
            v = base.value
            if v == 0 and exponent < 0:
                raise EvaluationError("division by zero in a constant power")
            # the larger of |numerator| and denominator is at least 2^(b-1)
            # for b its bit length, so that part of v^n has over |n|*(b-1)
            # bits: a lower bound, and 0, 1 and -1 are never refused
            bits = max(abs(v.numerator), v.denominator).bit_length() - 1
            if abs(exponent) * bits > _MAX_POWER_BITS:
                raise EvaluationError(f"constant power too large: over "
                                      f"{_MAX_POWER_BITS} bits")
            return Rational(Fraction(v) ** exponent.numerator)
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
        if 2 * exponent > _MAX_PRODUCTS:  # every step forms two products or more
            raise EvaluationError(f"expansion too large: over {_MAX_PRODUCTS} products")
        return _expand_product(1, [], [base] * exponent)
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
    if not cmath.isfinite(val):
        raise EvaluationError("non-finite value during evaluation")
    return val


def _constant(e: Expr):
    """The value of a node that reads no environment (a rational, pi or i),
    else None."""
    if type(e) is Rational:
        return complex(e.value.numerator / e.value.denominator)
    if e is PI:
        return complex(math.pi)
    if e is IMAG:
        return 1j
    return None


def _compiled(e: Expr):
    """The node's evaluator ``env -> complex``, built once from its
    children's evaluators and kept in the node (filling it twice stores an
    equivalent closure).  A sum or product folds its leading constants into
    its start value, so a call adds or multiplies in order, as a tree walk
    does, with one closure call per child that reads the environment."""
    try:
        return e._fn
    except AttributeError:
        pass
    t = type(e)
    value = _constant(e)
    if value is not None:

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
    elif t is Add or t is Mul:
        children = e.terms if t is Add else e.factors
        start = 0 if t is Add else complex(1)  # sum() starts from the int 0
        k = 0
        while k < len(children):
            c = _constant(children[k])
            if c is None:
                break
            start = start + c if t is Add else start * c
            k += 1
        rest = tuple([_compiled(x) for x in children[k:]])
        if t is Add:

            def fn(env):
                out = start
                for term in rest:
                    out = out + term(env)
                return out
        else:

            def fn(env):
                out = start
                for f in rest:
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
    try:
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
    except ValueError:  # past sys.get_int_max_str_digits(), 4300 by default
        raise EvaluationError(f"a constant of over {sys.get_int_max_str_digits()} "
                              "digits cannot be printed") from None


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
            return f"{b}^{_frac_str(exp)}"
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
