"""Expression grammar.

Infix with precedence  ^ (right-assoc)  >  unary -  >  *  >  + - ,
parentheses, function calls f(x) for f in {sin, cos, exp, sqrt},
identifiers [a-zA-Z][a-zA-Z0-9_]*, rational literals 123 or 123/456 or
decimals like 0.5 (converted to exact rationals), reserved constants
pi, i, hbar.

There is no division operator: '/' is only legal between two integer
literals, where it forms a rational constant; as an exponent that constant
is parenthesized, p^(1/2), since p^1/2 is refused rather than read as
either p^(1/2) or 1/2*p.  General quotients are written with negative
exponents, e.g. p*q^(-1).  Digits are decimal digits: '²' is not one.

An EvaluationError the kernel raises for an infix operator is an
ExprSyntaxError at that operator.  So a rational raised to an integer past
the kernel's size limit (expr._MAX_POWER_BITS, 100,000 bits in the
numerator or denominator), such as the 2^(2^65536) inside p^2^2^2^2^2^2,
and 0 to a negative power are errors at their '^', and an expansion past
500,000 products, each charged for its coefficients (expr._MAX_PRODUCTS),
is an error at its '^' or '*': (p+1)^65536 at offset 5,
(p+q+1)^60*(p+q+2)^60 at offset 10.  A symbol's exponent is never
computed: p^2^2^2^2 is p^65536.

The text is split into tokens by one regular-expression pass, in full
before parsing, so a character no token can start with is reported before
any syntax error.  A token is a (kind, text, offset) tuple: the kind is
int, dec, ident, end, or an operator's own character.

Nesting is limited to 200 levels, CPython's own limit on parentheses.  A
group, a call, a unary sign, an exponent and the right operand of + - *
each open a level; deeper text is an ExprSyntaxError, "expression nested
too deeply", at the offset of the token that opens the 201st level.

parse_expr keeps, for each vocabulary, a table from the text of a region to
the node it parses to, for the process.  A region is a whole text, a
parenthesized group or a call's argument list; a group's or an argument
list's key runs from its '(' to its matching ')', both included, so (p+q)
is one key wherever it appears.  A region met again is read from the table
and the cursor moves past its ')'; the kernel interns its nodes, so the
stored node is the one a new parse would build.  Only the scalar grammar
uses the table: a form carries its chart, which the text does not name.
Only a parse that succeeded is stored, so every error keeps its message and
offset, and a group is read or stored only when it has fewer tokens than
the levels of nesting left, so none can hide a "nested too deeply".  One
parse adds at most its text's length in region keys besides the whole text,
inner regions first, as they close.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Sequence

from .errors import EvaluationError, ExprSyntaxError, UnknownSymbolError
from .expr import _CONSTANTS, _FUNCTIONS as _CALLS
from .expr import MINUS_ONE, Constant, Expr, Rational, call, add, mul, power, symbol

_RESERVED = set(_CONSTANTS)
_FUNCTIONS = {*_CALLS, "sqrt"}  # call() reads sqrt(x) as x^(1/2)

_BP_ADD = 10
_BP_MUL = 20
_BP_NEG = 25
_BP_POW = 30
_INFIX = {"+": _BP_ADD, "-": _BP_ADD, "*": _BP_MUL, "^": _BP_POW}

# each level of nesting costs the parser at most two frames (expr and prefix),
# so it and the kernel's recursion over the tree it returns stay well inside
# Python's recursion limit
_MAX_DEPTH = 200

# an operator, a run of spaces, a run of decimal digits with an optional
# fraction, a word, or any other character: every character is in one match,
# so the matches tile the text and a token's offset is the length before it.
# No character matches two alternatives but a digit, which is also a word
# character, so the commonest come first and digits before words.
_TOKEN = re.compile(r"([-+*^()/])|(\s+)|(\d+(?:\.\d+)?)|(\w+)|(.)", re.DOTALL)


def _tokenize(text: str) -> list:
    """(kind, text, offset) tuples, ending with ("end", "", len(text)).  The
    kind of an operator is its own character; the others are int, dec and
    ident.  A word must start with a letter: '²' and '_p' are refused."""
    toks = []
    at = 0
    for op, space, number, word, bad in _TOKEN.findall(text):
        if op:
            toks.append((op, op, at))
            at += 1
        elif space:
            at += len(space)
        elif word:
            if not word[0].isalpha():
                raise ExprSyntaxError(f"unexpected character {word[0]!r}", at)
            toks.append(("ident", word, at))
            at += len(word)
        elif number:
            toks.append(("dec" if "." in number else "int", number, at))
            at += len(number)
        else:
            raise ExprSyntaxError(f"unexpected character {bad!r}", at)
    toks.append(("end", "", len(text)))
    return toks


class _Parser:
    """Precedence-climbing parser shared by the scalar and form grammars."""

    def __init__(self, text: str, vocabulary: Sequence[str]):
        self.vocab = set(vocabulary)
        self.toks = _tokenize(text)
        self.k = 0
        self.depth = -1  # the outermost expression is not nested

    def expect_op(self, ch: str):
        kind, _, pos = self.toks[self.k]
        self.k += 1
        if kind != ch:
            raise ExprSyntaxError(f"expected '{ch}'", pos)

    # -- hooks the form grammar overrides -----------------------------------
    def atom_for_ident(self, name: str, pos: int):
        if name in self.vocab:
            return symbol(name)
        raise UnknownSymbolError(name, pos)

    def combine_mul(self, a, b, pos: int):
        return mul(a, b)

    def combine_caret(self, a, b, pos: int):
        if not isinstance(b, Rational):
            raise ExprSyntaxError("exponent must be a rational literal", pos)
        return power(a, b.value)

    def combine_add(self, a, b, pos: int):
        return add(a, b)

    def negate(self, a, pos: int):
        return mul(MINUS_ONE, a)

    # -- grammar -------------------------------------------------------------
    def parse(self):
        out = self.expr(0)
        kind, text, pos = self.toks[self.k]
        if kind != "end":
            raise ExprSyntaxError(f"unexpected {text!r}", pos)
        return out

    def expr(self, min_bp: int):
        """The expression at the cursor, its operators binding at least
        ``min_bp``.  Every call but the outermost is one level of nesting,
        opened by the token just read: '(', a unary sign, or the operator
        whose right operand it is."""
        if self.depth == _MAX_DEPTH:
            raise ExprSyntaxError("expression nested too deeply", self.toks[self.k - 1][2])
        self.depth += 1
        left = self.prefix()
        while True:
            op, _, pos = self.toks[self.k]
            bp = _INFIX.get(op)
            if bp is None or bp < min_bp:
                break
            self.k += 1
            if op == "^":
                self._reject_bare_fraction()
            right = self.expr(bp if op == "^" else bp + 1)  # ^ is right associative
            if op == "-":  # a - b is a + (-b)
                right = self.negate(right, pos)
            combine = (self.combine_caret if op == "^" else
                       self.combine_mul if op == "*" else self.combine_add)
            try:
                left = combine(left, right, pos)
            except EvaluationError as err:  # 0^(-1), or a power or product too large to build
                raise ExprSyntaxError(str(err), pos) from None
        self.depth -= 1
        return left

    def group(self):
        """The expression between the '(' just read and its ')'."""
        inner = self.expr(0)
        self.expect_op(")")
        return inner

    def _reject_bare_fraction(self):
        """p^2/2 would read as p^(2/2) and p^-1/2 as p^(-1/2): a rational
        literal right after '^', signed or not, must be parenthesized."""
        toks = self.toks
        k = self.k + (toks[self.k][0] in ("+", "-"))
        if toks[k][0] == "int" and toks[k + 1][0] == "/" and toks[k + 2][0] == "int":
            raise ExprSyntaxError("ambiguous '/' in an exponent: write p^(3/2) for a "
                                  "fractional exponent, 1/2*p^3 for a quotient",
                                  toks[k + 1][2])

    def prefix(self):
        toks = self.toks
        kind, text, pos = toks[self.k]
        self.k += 1
        if kind == "int":
            value = int(text)
            if toks[self.k][0] == "/" and toks[self.k + 1][0] == "int":
                den = int(toks[self.k + 1][1])
                if den == 0:
                    raise ExprSyntaxError("zero denominator", toks[self.k][2])
                self.k += 2
                value = Fraction(value, den)
            return Rational(value)
        if kind == "dec":
            return Rational(Fraction(text))
        if kind == "ident":
            if text in _FUNCTIONS:
                if toks[self.k][0] == "(":
                    self.k += 1
                    arg = self.group()
                    if not isinstance(arg, Expr):
                        raise ExprSyntaxError("function arguments must be scalars", pos)
                    return call(text, arg)
                raise ExprSyntaxError(f"function '{text}' needs an argument list", pos)
            if text in _RESERVED:
                return Constant(text)  # interned: the one PI, IMAG or HBAR
            return self.atom_for_ident(text, pos)
        if kind == "(":
            return self.group()
        if kind == "-":
            return self.negate(self.expr(_BP_NEG), pos)
        if kind == "+":
            return self.expr(_BP_NEG)
        raise ExprSyntaxError(f"unexpected {text!r}" if text else "unexpected end of input", pos)


def _closing(toks: list) -> dict:
    """The index of each '(' token's matching ')', for those that have one."""
    close, opened = {}, []
    for k, (kind, _, _) in enumerate(toks):
        if kind == "(":
            opened.append(k)
        elif kind == ")" and opened:
            close[opened.pop()] = k
    return close


# vocabulary (a frozenset of names) -> {region text -> the node it parses to},
# filled by the scalar grammar only and kept for the process
_REGIONS: dict = {}


class _ExprParser(_Parser):
    """The scalar grammar, reading each region parsed before from a table."""

    def __init__(self, text: str, vocabulary: Sequence[str], regions: dict):
        super().__init__(text, vocabulary)
        self.text = text
        self.regions = regions
        self.close = _closing(self.toks)
        self.room = len(text)  # the key characters this parse may still store

    def group(self):
        # a region of fewer tokens than the levels left cannot nest too
        # deeply: each level it opens is opened by one of its tokens
        start = self.k - 1
        end = self.close.get(start)
        if end is None or end - start + 1 >= _MAX_DEPTH - self.depth:
            return super().group()
        key = self.text[self.toks[start][2]:self.toks[end][2] + 1]
        node = self.regions.get(key)
        if node is not None:
            self.k = end + 1
            return node
        node = super().group()
        if len(key) <= self.room:  # inner regions close first, so they are kept
            self.room -= len(key)
            node = self.regions.setdefault(key, node)
        return node


def parse_expr(text: str, vocabulary: Sequence[str]) -> Expr:
    """Parse ``text`` into a canonical expression.

    Free identifiers must appear in ``vocabulary``; pi, i, hbar are always
    available.  Raises ExprSyntaxError / UnknownSymbolError with the
    character offset (the index in ``text``) of the problem.
    """
    vocab = frozenset(vocabulary)
    regions = _REGIONS.setdefault(vocab, {})
    node = regions.get(text)
    if node is None:
        node = regions.setdefault(text, _ExprParser(text, vocab, regions).parse())
    return node
