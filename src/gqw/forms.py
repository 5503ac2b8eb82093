"""Chart-based exterior calculus: vector fields and k-forms of every degree.

Everything lives on a single global chart with a domain predicate; this
covers products of intervals, the punctured plane, and trivialized bundles.
Coefficients are symbolic expressions.  A k-form keeps one coefficient per
increasing index tuple of length k, so forms go up to the chart's dimension;
a form of higher degree has no coefficients and is zero.
"""

from __future__ import annotations

import functools
from itertools import combinations
from typing import Sequence, Tuple

from .errors import ChartMismatchError, DegreeError, ExprSyntaxError
from .expr import Expr, ZERO, add, diff, mul, rational, subs, symbol
from .parse import _FUNCTIONS, _RESERVED, _Parser
from .sample import DomainSampler


def check_coordinate_names(coords: Sequence[str]) -> None:
    """Raise ValueError unless ``coords`` can be a chart's coordinates: one to
    six distinct identifiers that the grammar reads as symbols, not as
    reserved constants, functions or form tokens."""
    if len(set(coords)) != len(coords):
        raise ValueError("coordinate names must be distinct")
    if not 1 <= len(coords) <= 6:
        raise ValueError("chart dimension must be between 1 and 6")
    for c in coords:
        if not (c[:1].isalpha() and all(ch.isalnum() or ch == "_" for ch in c)):
            raise ValueError(f"coordinate '{c}' is not an identifier")
        if c in _RESERVED or c in _FUNCTIONS:
            raise ValueError(f"coordinate '{c}' is a reserved name of the grammar")
        if c.startswith("d") and c[1:] in coords:
            raise ValueError(f"coordinate '{c}' collides with the form token d{c[1:]}")


class Chart:
    """A global chart, built from its evaluation context: its coordinates are
    the sampler's, and must pass ``check_coordinate_names``."""

    __slots__ = ("sampler",)

    def __init__(self, sampler: DomainSampler):
        check_coordinate_names(sampler.coords)
        self.sampler = sampler

    @property
    def coords(self) -> Tuple[str, ...]:
        return self.sampler.coords

    @property
    def dim(self) -> int:
        return len(self.coords)

    def indices(self, k: int) -> Tuple[Tuple[int, ...], ...]:
        """The increasing index tuples of length k, in lexicographic order:
        one per coefficient of a k-form, none when k exceeds the dimension."""
        return _index_tuples(self.dim, k)


@functools.lru_cache(maxsize=None)
def _index_tuples(n: int, k: int) -> Tuple[Tuple[int, ...], ...]:
    return tuple(combinations(range(n), k))


def _same_chart(a, b):
    if a.chart.coords != b.chart.coords:
        raise ChartMismatchError(
            f"charts differ: {a.chart.coords} vs {b.chart.coords}")


class VectorField:
    """Coefficients of d/dx_i on a chart.  ``_applied`` keeps each scalar's
    directional derivative, so it is computed once per (field, scalar)."""

    __slots__ = ("chart", "components", "_applied")

    def __init__(self, chart: Chart, components: Sequence[Expr]):
        if len(components) != chart.dim:
            raise ValueError("component count must equal the chart dimension")
        self.chart = chart
        self.components = tuple(components)
        self._applied = {}

    def __eq__(self, other):
        return (isinstance(other, VectorField)
                and self.chart.coords == other.chart.coords
                and self.components == other.components)

    def __hash__(self):
        return hash((self.chart.coords, self.components))

    def __repr__(self):
        parts = [f"({c}) d/d{x}" for c, x in zip(self.components, self.chart.coords)]
        return " + ".join(parts)

    def apply(self, f: Expr) -> Expr:
        """Directional derivative of a scalar."""
        out = self._applied.get(f)
        if out is None:
            out = self._applied[f] = add(*[
                mul(c, diff(f, symbol(x)))
                for c, x in zip(self.components, self.chart.coords)])
        return out

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)


def zero_vf(chart: Chart) -> VectorField:
    return VectorField(chart, [ZERO] * chart.dim)


class KForm:
    """Differential form of degree k >= 0: one coefficient of
    dx_I = dx_i1^...^dx_ik per tuple I of ``chart.indices(k)``, so a 0-form
    has a single scalar coefficient and a form above the chart's dimension
    none.  ``_values`` keeps the form's value on each tuple of fields it was
    evaluated on, so each is computed once.
    """

    __slots__ = ("chart", "degree", "coeffs", "_values")

    def __init__(self, chart: Chart, degree: int, coeffs: Sequence[Expr]):
        if degree < 0:
            raise DegreeError(f"unsupported form degree {degree}")
        expected = len(chart.indices(degree))
        if len(coeffs) != expected:
            raise ValueError(f"degree-{degree} form needs {expected} coefficients")
        self.chart = chart
        self.degree = degree
        self.coeffs = tuple(coeffs)
        self._values = {}

    def __eq__(self, other):
        return (isinstance(other, KForm)
                and self.chart.coords == other.chart.coords
                and self.degree == other.degree and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.chart.coords, self.degree, self.coeffs))

    def __repr__(self):
        xs = self.chart.coords
        terms = []
        for c, idx in zip(self.coeffs, self.chart.indices(self.degree)):
            wedge = "^".join(f"d{xs[i]}" for i in idx)
            terms.append(f"({c})*{wedge}" if idx else f"({c})")
        return " + ".join(terms) or "0"

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def scale(self, s: Expr) -> "KForm":
        return KForm(self.chart, self.degree, [mul(s, c) for c in self.coeffs])

    def plus(self, other: "KForm") -> "KForm":
        _same_chart(self, other)
        if self.degree != other.degree:
            raise DegreeError("cannot add forms of different degree")
        return KForm(self.chart, self.degree,
                     [add(a, b) for a, b in zip(self.coeffs, other.coeffs)])

    def __call__(self, *fields: VectorField) -> Expr:
        """Evaluate a k-form on k vector fields."""
        if len(fields) != self.degree:
            raise DegreeError(f"degree-{self.degree} form takes {self.degree} fields")
        for v in fields:
            _same_chart(self, v)
        out = self._values.get(fields)
        if out is None:
            out = self._values[fields] = self._evaluate(fields)
        return out

    def _evaluate(self, fields) -> Expr:
        # a(v_1..v_k) = sum_I a_I det[v_r^(I_s)]
        return add(*[mul(c, _det([[v.components[i] for i in idx] for v in fields]))
                     for c, idx in zip(self.coeffs, self.chart.indices(self.degree))])


def _signed(odd, *factors: Expr) -> Expr:
    """The product of ``factors``, negated when ``odd``."""
    return mul(rational(-1), *factors) if odd else mul(*factors)


def _det(m) -> Expr:
    """Determinant of a square matrix of expressions by expansion along its
    first row; a single row is its entry, the empty matrix 1."""
    if len(m) < 2:
        return m[0][0] if m else rational(1)
    return add(*[_signed(j % 2, entry, _det([row[:j] + row[j + 1:] for row in m[1:]]))
                 for j, entry in enumerate(m[0])])


def scalar_form(chart: Chart, f: Expr) -> KForm:
    return KForm(chart, 0, [f])


def exterior_derivative(a: KForm) -> KForm:
    """d a: the coefficient on J is the alternating sum over the positions p
    of J of d(a_{J without J_p})/dx_{J_p}."""
    chart = a.chart
    xs = [symbol(x) for x in chart.coords]
    if a.degree == 0:
        return KForm(chart, 1, [diff(a.coeffs[0], x) for x in xs])
    coeff = dict(zip(chart.indices(a.degree), a.coeffs))
    out = []
    for idx in chart.indices(a.degree + 1):
        terms = []
        for p, i in enumerate(idx):
            term = diff(coeff[idx[:p] + idx[p + 1:]], xs[i])
            terms.append(mul(rational(-1), term) if p % 2 else term)
        out.append(add(*terms))
    return KForm(chart, a.degree + 1, out)


def interior_product(v: VectorField, a: KForm) -> KForm:
    """v . a: the coefficient on J sums v_m a_I over the m outside J, with
    I = J plus m, signed by the position of m in I."""
    if a.degree == 0:
        raise DegreeError("interior product needs a form of degree >= 1")
    _same_chart(v, a)
    chart = a.chart
    if a.degree == 1:
        return scalar_form(chart, a(v))
    coeff = dict(zip(chart.indices(a.degree), a.coeffs))
    out = []
    for idx in chart.indices(a.degree - 1):
        terms = []
        for m, vm in enumerate(v.components):
            if m in idx:
                continue
            p = sum(i < m for i in idx)
            c = coeff[idx[:p] + (m,) + idx[p:]]
            terms.append(_signed(p % 2, c, vm))
        out.append(add(*terms))
    return KForm(chart, a.degree - 1, out)


def lie_bracket(u: VectorField, v: VectorField) -> VectorField:
    """[u, v]^i = u^k d_k v^i - v^k d_k u^i."""
    _same_chart(u, v)
    comps = [add(u.apply(vc), mul(rational(-1), v.apply(uc)))
             for uc, vc in zip(u.components, v.components)]
    return VectorField(u.chart, comps)


def lie_derivative(v: VectorField, a: KForm) -> KForm:
    """Cartan's formula L_v a = v . da + d(v . a); a 0-form has no v . a."""
    _same_chart(v, a)
    out = interior_product(v, exterior_derivative(a))
    if a.degree == 0:
        return out
    return out.plus(exterior_derivative(interior_product(v, a)))


class ChartMap:
    """Smooth map between charts, given by target coordinates expressed in
    source coordinates (parameters may appear as extra symbols)."""

    __slots__ = ("source", "target", "components")

    def __init__(self, source: Chart, target: Chart, components: Sequence[Expr]):
        if len(components) != target.dim:
            raise ValueError("need one component per target coordinate")
        self.source = source
        self.target = target
        self.components = tuple(components)

    def substitution(self):
        return {name: comp for name, comp in zip(self.target.coords, self.components)}

    def compose(self, inner: "ChartMap") -> "ChartMap":
        """self after inner (inner's target must be self's source)."""
        if inner.target.coords != self.source.coords:
            raise ChartMismatchError("composition chart mismatch")
        sub = inner.substitution()
        return ChartMap(inner.source, self.target,
                        [subs(c, sub) for c in self.components])


def pullback(phi: ChartMap, a: KForm) -> KForm:
    """phi^* a, computed by substitution and the Jacobian J of phi: the
    coefficient on L sums a_I(phi) det J[I, L] over I."""
    if a.chart.coords != phi.target.coords:
        raise ChartMismatchError("form does not live on the map's target chart")
    src = phi.source
    sub = phi.substitution()
    sx = [symbol(x) for x in src.coords]
    jac = [[diff(comp, x) for x in sx] for comp in phi.components]
    cs = [subs(c, sub) for c in a.coeffs]
    out = []
    for cols in src.indices(a.degree):
        out.append(add(*[mul(c, _det([[jac[i][k] for k in cols] for i in rows]))
                         for c, rows in zip(cs, a.chart.indices(a.degree))]))
    return KForm(src, a.degree, out)


# ---------------------------------------------------------------------------
# form grammar: the expression grammar plus dx_i atoms, with ^ meaning the
# wedge product whenever a form of degree >= 1 is involved.


class _FormParser(_Parser):
    def __init__(self, text: str, chart: Chart):
        super().__init__(text, chart.coords)
        self.chart = chart

    def atom_for_ident(self, name: str, pos: int):
        if name.startswith("d") and name[1:] in self.chart.coords:
            k = self.chart.coords.index(name[1:])
            coeffs = [ZERO] * self.chart.dim
            coeffs[k] = rational(1)
            return KForm(self.chart, 1, coeffs)
        return super().atom_for_ident(name, pos)

    def combine_mul(self, a, b, pos: int):
        a_form = isinstance(a, KForm)
        b_form = isinstance(b, KForm)
        if a_form and b_form:
            raise ExprSyntaxError("use ^ for the wedge of two forms", pos)
        if a_form:
            return a.scale(b)
        if b_form:
            return b.scale(a)
        return mul(a, b)

    def combine_caret(self, a, b, pos: int):
        a_form = isinstance(a, KForm)
        b_form = isinstance(b, KForm)
        if not a_form and not b_form:
            return super().combine_caret(a, b, pos)
        if a_form and b_form:
            return wedge(a, b)
        raise ExprSyntaxError("cannot mix a form and a scalar under ^", pos)

    def combine_add(self, a, b, pos: int):
        if isinstance(a, KForm) != isinstance(b, KForm):
            raise ExprSyntaxError("cannot add a form and a scalar", pos)
        if isinstance(a, KForm):
            if a.degree != b.degree:
                raise ExprSyntaxError("cannot add forms of different degree", pos)
            return a.plus(b)
        return super().combine_add(a, b, pos)

    def negate(self, a, pos: int):
        if isinstance(a, KForm):
            return a.scale(rational(-1))
        return mul(rational(-1), a)


def wedge(a: KForm, b: KForm) -> KForm:
    """a ^ b: the coefficient on K sums a_I b_J over the splittings of K into
    I and J, signed by the shuffle that sorts I followed by J."""
    _same_chart(a, b)
    chart = a.chart
    k, l = a.degree, b.degree
    ca = dict(zip(chart.indices(k), a.coeffs))
    cb = dict(zip(chart.indices(l), b.coeffs))
    shift = k * (k - 1) // 2  # the position sum of I when it comes first
    out = []
    for idx in chart.indices(k + l):
        terms = []
        for pos in combinations(range(k + l), k):
            i = tuple(idx[p] for p in pos)
            j = tuple(x for x in idx if x not in i)
            terms.append(_signed((sum(pos) - shift) % 2, ca[i], cb[j]))
        out.append(add(*terms))
    return KForm(chart, k + l, out)


def parse_form(text: str, chart: Chart):
    """Parse a form literal like "1/2*(p*dq - q*dp)" or "dp^dq".

    Returns a KForm, or a plain Expr if the text contains no dx tokens.
    """
    return _FormParser(text, chart).parse()
