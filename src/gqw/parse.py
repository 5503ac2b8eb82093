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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import ExprSyntaxError, UnknownSymbolError
from .expr import _CONSTANTS, _FUNCTIONS as _CALLS
from .expr import Constant, Expr, Rational, call, add, mul, power, rational, symbol

_RESERVED = set(_CONSTANTS)
_FUNCTIONS = {*_CALLS, "sqrt"}  # call() reads sqrt(x) as x^(1/2)

_BP_ADD = 10
_BP_MUL = 20
_BP_NEG = 25
_BP_POW = 30


@dataclass
class _Token:
    kind: str  # int, dec, ident, op, end
    text: str
    pos: int


def _tokenize(text: str) -> list:
    toks = []
    n = len(text)
    k = 0
    while k < n:
        c = text[k]
        if c.isspace():
            k += 1
            continue
        if c.isdecimal():
            start = k
            while k < n and text[k].isdecimal():
                k += 1
            if k < n and text[k] == "." and k + 1 < n and text[k + 1].isdecimal():
                k += 1
                while k < n and text[k].isdecimal():
                    k += 1
                toks.append(_Token("dec", text[start:k], start))
            else:
                toks.append(_Token("int", text[start:k], start))
            continue
        if c.isalpha():
            start = k
            while k < n and (text[k].isalnum() or text[k] == "_"):
                k += 1
            toks.append(_Token("ident", text[start:k], start))
            continue
        if c in "+-*^()/":
            toks.append(_Token("op", c, k))
            k += 1
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", k)
    toks.append(_Token("end", "", n))
    return toks


class _Parser:
    """Precedence-climbing parser shared by the scalar and form grammars."""

    def __init__(self, text: str, vocabulary: Sequence[str]):
        self.text = text
        self.vocab = set(vocabulary)
        self.toks = _tokenize(text)
        self.k = 0

    def peek(self) -> _Token:
        return self.toks[self.k]

    def advance(self) -> _Token:
        t = self.toks[self.k]
        self.k += 1
        return t

    def expect_op(self, ch: str):
        t = self.advance()
        if t.kind != "op" or t.text != ch:
            raise ExprSyntaxError(f"expected '{ch}'", t.pos)

    # -- hooks the form grammar overrides -----------------------------------
    def atom_for_ident(self, name: str, pos: int):
        if name in self.vocab:
            return symbol(name)
        raise UnknownSymbolError(name, pos)

    def combine_mul(self, a, b, pos: int):
        return mul(a, b)

    def combine_caret(self, a, b, pos: int):
        return self._scalar_power(a, b, pos)

    def combine_add(self, a, b, sign: int, pos: int):
        if sign < 0:
            b = mul(rational(-1), b)
        return add(a, b)

    def negate(self, a, pos: int):
        return mul(rational(-1), a)

    def _scalar_power(self, base, exp, pos: int):
        if not isinstance(exp, Rational):
            raise ExprSyntaxError("exponent must be a rational literal", pos)
        return power(base, exp.value)

    # -- grammar -------------------------------------------------------------
    def parse(self):
        out = self.expr(0)
        t = self.peek()
        if t.kind != "end":
            raise ExprSyntaxError(f"unexpected {t.text!r}", t.pos)
        return out

    def expr(self, min_bp: int):
        left = self.prefix()
        while True:
            t = self.peek()
            if t.kind != "op":
                break
            if t.text in "+-" and _BP_ADD >= min_bp:
                self.advance()
                right = self.expr(_BP_ADD + 1)
                left = self.combine_add(left, right, -1 if t.text == "-" else 1, t.pos)
            elif t.text == "*" and _BP_MUL >= min_bp:
                self.advance()
                right = self.expr(_BP_MUL + 1)
                left = self.combine_mul(left, right, t.pos)
            elif t.text == "^" and _BP_POW >= min_bp:
                self.advance()
                self._reject_bare_fraction()
                right = self.expr(_BP_POW)  # right associative
                left = self.combine_caret(left, right, t.pos)
            else:
                break
        return left

    def _reject_bare_fraction(self):
        """p^2/2 would read as p^(2/2) and p^-1/2 as p^(-1/2): a rational
        literal right after '^', signed or not, must be parenthesized."""
        k = self.k + (self.peek().text in ("+", "-"))
        if (self.toks[k].kind == "int" and self.toks[k + 1].text == "/"
                and self.toks[k + 2].kind == "int"):
            raise ExprSyntaxError("ambiguous '/' in an exponent: write p^(3/2) for a "
                                  "fractional exponent, 1/2*p^3 for a quotient",
                                  self.toks[k + 1].pos)

    def prefix(self):
        t = self.advance()
        if t.kind == "int":
            value = Fraction(int(t.text))
            nxt = self.peek()
            if (nxt.kind == "op" and nxt.text == "/"
                    and self.toks[self.k + 1].kind == "int"):
                self.advance()
                den = int(self.advance().text)
                if den == 0:
                    raise ExprSyntaxError("zero denominator", nxt.pos)
                value = Fraction(value.numerator, den)
            return Rational(value)
        if t.kind == "dec":
            return Rational(Fraction(t.text))
        if t.kind == "ident":
            if t.text in _FUNCTIONS:
                nxt = self.peek()
                if nxt.kind == "op" and nxt.text == "(":
                    self.advance()
                    arg = self.expr(0)
                    self.expect_op(")")
                    if not isinstance(arg, Expr):
                        raise ExprSyntaxError("function arguments must be scalars", t.pos)
                    return call(t.text, arg)
                raise ExprSyntaxError(f"function '{t.text}' needs an argument list", t.pos)
            if t.text in _RESERVED:
                return Constant(t.text)  # interned: the one PI, IMAG or HBAR
            return self.atom_for_ident(t.text, t.pos)
        if t.kind == "op" and t.text == "(":
            inner = self.expr(0)
            self.expect_op(")")
            return inner
        if t.kind == "op" and t.text == "-":
            return self.negate(self.expr(_BP_NEG), t.pos)
        if t.kind == "op" and t.text == "+":
            return self.expr(_BP_NEG)
        raise ExprSyntaxError(f"unexpected {t.text!r}" if t.text else "unexpected end of input", t.pos)


def parse_expr(text: str, vocabulary: Sequence[str]) -> Expr:
    """Parse ``text`` into a canonical expression.

    Free identifiers must appear in ``vocabulary``; pi, i, hbar are always
    available.  Raises ExprSyntaxError / UnknownSymbolError with the byte
    offset of the problem.
    """
    return _Parser(text, vocabulary).parse()
