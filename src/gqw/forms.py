"""Chart-based exterior calculus: vector fields and k-forms for k <= 2.

Everything lives on a single global chart with a domain predicate; this
covers products of intervals, the punctured plane, and trivialized bundles.
Coefficients are symbolic expressions.  Degree-3 forms and higher are out
of scope: the exterior derivative of a degree-2 form is only available on
2-dimensional charts (where it vanishes identically).
"""

from __future__ import annotations

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

    def pairs(self):
        n = self.dim
        return [(i, j) for i in range(n) for j in range(i + 1, n)]


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
    """Differential form of degree 0, 1, or 2.

    Degree-0: a single scalar coefficient.  Degree-1: one coefficient per
    dx_i.  Degree-2: one coefficient per strictly increasing pair (i, j),
    in lexicographic order.  ``_values`` keeps the form's value on each
    tuple of fields it was evaluated on, so each is computed once.
    """

    __slots__ = ("chart", "degree", "coeffs", "_values")

    def __init__(self, chart: Chart, degree: int, coeffs: Sequence[Expr]):
        if degree not in (0, 1, 2):
            raise DegreeError(f"unsupported form degree {degree}")
        expected = {0: 1, 1: chart.dim, 2: len(chart.pairs())}[degree]
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
        if self.degree == 0:
            return repr(self.coeffs[0])
        if self.degree == 1:
            return " + ".join(f"({c})*d{x}" for c, x in zip(self.coeffs, xs))
        return " + ".join(
            f"({c})*d{xs[i]}^d{xs[j]}" for c, (i, j) in zip(self.coeffs, self.chart.pairs()))

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
        """Evaluate on vector fields (1-form on one, 2-form on two)."""
        if len(fields) != self.degree:
            raise DegreeError(f"degree-{self.degree} form takes {self.degree} fields")
        for v in fields:
            _same_chart(self, v)
        out = self._values.get(fields)
        if out is None:
            out = self._values[fields] = self._evaluate(fields)
        return out

    def _evaluate(self, fields) -> Expr:
        if self.degree == 1:
            (v,) = fields
            return add(*[mul(c, vc) for c, vc in zip(self.coeffs, v.components)])
        u, v = fields
        terms = []
        for c, (i, j) in zip(self.coeffs, self.chart.pairs()):
            terms.append(mul(c, add(
                mul(u.components[i], v.components[j]),
                mul(rational(-1), u.components[j], v.components[i]))))
        return add(*terms)


def scalar_form(chart: Chart, f: Expr) -> KForm:
    return KForm(chart, 0, [f])


def exterior_derivative(a: KForm) -> KForm:
    """d on forms of degree 0 or 1.  d of a degree-2 form would have degree
    3, which is out of scope; on 2-dimensional charts callers can rely on it
    vanishing (lie_derivative does)."""
    chart = a.chart
    xs = [symbol(x) for x in chart.coords]
    if a.degree == 0:
        return KForm(chart, 1, [diff(a.coeffs[0], x) for x in xs])
    if a.degree == 1:
        coeffs = []
        for (i, j) in chart.pairs():
            coeffs.append(add(diff(a.coeffs[j], xs[i]),
                              mul(rational(-1), diff(a.coeffs[i], xs[j]))))
        return KForm(chart, 2, coeffs)
    raise DegreeError("exterior derivative of a degree-2 form is unsupported "
                      "(degree-3 forms are out of scope)")


def interior_product(v: VectorField, a: KForm) -> KForm:
    if a.degree == 0:
        raise DegreeError("interior product needs a form of degree >= 1")
    _same_chart(v, a)
    chart = a.chart
    if a.degree == 1:
        return scalar_form(chart, a(v))
    # (v . a)_k = sum_{i<k} a_{ik} v_i - sum_{j>k} a_{kj} v_j
    n = chart.dim
    idx = {pair: c for pair, c in zip(chart.pairs(), a.coeffs)}
    out = []
    for k in range(n):
        terms = []
        for i in range(k):
            terms.append(mul(idx[(i, k)], v.components[i]))
        for j in range(k + 1, n):
            terms.append(mul(rational(-1), idx[(k, j)], v.components[j]))
        out.append(add(*terms) if terms else ZERO)
    return KForm(chart, 1, out)


def lie_bracket(u: VectorField, v: VectorField) -> VectorField:
    """[u, v]^i = u^k d_k v^i - v^k d_k u^i."""
    _same_chart(u, v)
    comps = [add(u.apply(vc), mul(rational(-1), v.apply(uc)))
             for uc, vc in zip(u.components, v.components)]
    return VectorField(u.chart, comps)


def lie_derivative(v: VectorField, a: KForm) -> KForm:
    """Cartan formula L_v a = v . da + d(v . a).

    For a degree-2 form the term v . da needs a degree-3 exterior
    derivative, which only exists (as zero) on 2-dimensional charts.
    """
    _same_chart(v, a)
    if a.degree == 0:
        return scalar_form(a.chart, v.apply(a.coeffs[0]))
    if a.degree == 1:
        return interior_product(v, exterior_derivative(a)).plus(
            exterior_derivative(interior_product(v, a)))
    if a.chart.dim <= 2:
        return exterior_derivative(interior_product(v, a))
    raise DegreeError("Lie derivative of a degree-2 form needs a 2-dimensional chart")


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
    """phi^* a, computed by substitution and the Jacobian of phi."""
    if a.chart.coords != phi.target.coords:
        raise ChartMismatchError("form does not live on the map's target chart")
    src = phi.source
    sub = phi.substitution()
    sx = [symbol(x) for x in src.coords]
    if a.degree == 0:
        return scalar_form(src, subs(a.coeffs[0], sub))
    jac = [[diff(comp, x) for x in sx] for comp in phi.components]
    if a.degree == 1:
        out = []
        for k in range(src.dim):
            out.append(add(*[mul(subs(c, sub), jac[j][k])
                             for j, c in enumerate(a.coeffs)]))
        return KForm(src, 1, out)
    out = []
    for (k, l) in src.pairs():
        terms = []
        for c, (i, j) in zip(a.coeffs, a.chart.pairs()):
            terms.append(mul(subs(c, sub), add(
                mul(jac[i][k], jac[j][l]),
                mul(rational(-1), jac[i][l], jac[j][k]))))
        out.append(add(*terms))
    return KForm(src, 2, out)


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
    _same_chart(a, b)
    chart = a.chart
    if a.degree == 0:
        return b.scale(a.coeffs[0])
    if b.degree == 0:
        return a.scale(b.coeffs[0])
    if a.degree + b.degree > 2:
        raise DegreeError("wedge product of degree > 2 is out of scope")
    out = []
    for (i, j) in chart.pairs():
        out.append(add(mul(a.coeffs[i], b.coeffs[j]),
                       mul(rational(-1), a.coeffs[j], b.coeffs[i])))
    return KForm(chart, 2, out)


def parse_form(text: str, chart: Chart):
    """Parse a form literal like "1/2*(p*dq - q*dp)" or "dp^dq".

    Returns a KForm, or a plain Expr if the text contains no dx tokens.
    """
    return _FormParser(text, chart).parse()
