"""The chart's evaluation context: seeded point sampling on the domain, and
sampling-based equality.

Symbolic zero-testing for the expression class here (rational + trig) is
undecidable in general, so equality is decided by canonical simplification
plus evaluation at N random points of the chart domain.  A DomainSampler
holds everything an evaluation needs besides the point: the chart's
coordinates, the seed, the sample count, the tolerance and the value of
``hbar``.  It is the one place that names a seeded stream (``rng(tag)``
returns the ``{seed}:{tag}`` rng) and the one place that binds ``hbar``
(``env``): every point it yields already carries it, so no caller writes it
by hand.  Draws come from one rejection loop, deterministic for a fixed seed
and capped at 1000 draws per requested point.

Each ``{seed}:{tag}`` stream is drawn once per sampler: the sampler keeps
the admissible points it has found, and a later request replays them before
drawing further.  A request sees exactly the points, and raises at exactly
the draw, that a fresh sampler would.  Filling a stream mutates the sampler,
so a sampler is not safe to share across threads while its streams fill;
gqw itself is single-threaded.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from .errors import EvaluationError, SamplingError, UnboundSymbolError
from .expr import Expr, evalf, add, mul, rational

_MAX_RESAMPLE = 1000


class _Stream:
    """The state of one ``{seed}:{tag}`` stream: its rng, the number of draws
    made so far, and the admissible points found, each with the index of the
    draw that found it."""

    __slots__ = ("rng", "drawn", "found")

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.drawn = 0
        self.found: List[Tuple[int, Dict[str, float]]] = []


# the context's defaults, which the system loader also reads
DEFAULT_SEED = 42
DEFAULT_SAMPLES = 32
DEFAULT_TOLERANCE = 1e-9
DEFAULT_HBAR = 1.0


class DomainSampler:
    """Draws points from a coordinate box, rejecting those that violate the
    chart's strict inequalities (each entry of ``positive`` must evaluate
    > ``tolerance`` at every emitted point).  ``hbar`` is the value bound
    to the reserved constant in every evaluation on the chart.  A sampler
    needs ``n_samples >= 1``: with no points, every comparison would pass."""

    __slots__ = ("coords", "box", "positive", "seed", "n_samples", "tolerance", "hbar",
                 "_streams")

    def __init__(self, coords: Tuple[str, ...], box: Dict[str, Tuple[float, float]],
                 positive: Tuple[Expr, ...] = (), seed: int = DEFAULT_SEED,
                 n_samples: int = DEFAULT_SAMPLES, tolerance: float = DEFAULT_TOLERANCE,
                 hbar: float = DEFAULT_HBAR):
        for c in coords:
            if c not in box:
                raise SamplingError(f"no bounding box for coordinate '{c}'")
        if not n_samples >= 1:
            raise SamplingError(f"n_samples = {n_samples}: at least 1 is needed")
        self.coords = coords
        self.box = box
        self.positive = positive
        self.seed = seed
        self.n_samples = n_samples
        self.tolerance = tolerance
        self.hbar = hbar
        self._streams: Dict[str, _Stream] = {}

    def rng(self, tag: str) -> random.Random:
        """A fresh rng for the ``{seed}:{tag}`` stream."""
        return random.Random(f"{self.seed}:{tag}")

    def extended(self, box: Dict[str, Tuple[float, float]]) -> "DomainSampler":
        """The same seed, sample count, tolerance, hbar and domain over the
        coordinates followed by those of ``box``, which gives their intervals."""
        return DomainSampler(self.coords + tuple(box), {**self.box, **box}, self.positive,
                             self.seed, self.n_samples, self.tolerance, self.hbar)

    def env(self, values) -> Dict[str, float]:
        """Evaluation environment: coordinate values (in chart order) and hbar."""
        out = dict(zip(self.coords, values))
        out["hbar"] = self.hbar
        return out

    def admissible(self, point: Mapping[str, float]) -> bool:
        """Whether every entry of ``positive`` exceeds the tolerance at
        ``point``, an environment from ``env``."""
        for ineq in self.positive:
            v = evalf(ineq, point)
            if not (v.real > self.tolerance and abs(v.imag) < 1e-12):
                return False
        return True

    def _draws(self, n: int, seed_tag: str) -> Iterator[Dict[str, float]]:
        """Admissible points of the ``{seed}:{seed_tag}`` stream, each a fresh
        ``env`` dict; raises SamplingError after 1000 * n draws from the
        stream's start.  Points found earlier are replayed, then the stream
        extends."""
        stream = self._streams.get(seed_tag)
        if stream is None:
            stream = self._streams[seed_tag] = _Stream(self.rng(seed_tag))
        found = stream.found
        cap = _MAX_RESAMPLE * max(n, 1)
        k = 0
        while True:
            if k < len(found):
                at, pt = found[k]
                if at >= cap:
                    break
                k += 1
                yield dict(pt)
                continue
            if stream.drawn >= cap:
                break
            pt = self.env([stream.rng.uniform(*self.box[c]) for c in self.coords])
            stream.drawn += 1
            try:
                ok = self.admissible(pt)
            except UnboundSymbolError:
                raise
            except EvaluationError:
                ok = False
            if ok:
                found.append((stream.drawn - 1, pt))
        raise SamplingError(f"could not find {n} usable points in {cap} draws")

    def points(self, n: Optional[int] = None, seed_tag: str = "") -> List[Dict[str, float]]:
        """Deterministic list of admissible sample points, each an ``env``
        dict that binds the coordinates and hbar."""
        n = self.n_samples if n is None else n
        draws = self._draws(n, seed_tag)
        return [next(draws) for _ in range(n)]


def expr_equal(a: Expr, b: Expr, sampler: DomainSampler) -> Tuple[bool, float]:
    """Decide a == b on the sampler's domain; returns (verdict, residual).

    Nodes are interned, so ``a is b`` exactly when the difference would be
    ZERO: that case returns (True, 0.0) without forming it or drawing a
    point.  Otherwise the difference is canonicalized first, so identities
    that normalize to a structural zero report residual exactly 0.0.  A
    difference that does not cancel is evaluated at admissible points of the
    ``{seed}:equal`` stream, at the sampler's hbar, and stops at its first
    witness: the first residual over the tolerance decides False and is the
    residual returned, as a check row stops at its first residual over its
    bound.  A true comparison evaluates
    ``n_samples`` points and returns the largest of their residuals.  Points
    where the difference fails to evaluate are skipped, within the sampler's
    draw cap; one admissible point over the tolerance still decides False,
    however many failed before it.  If the cap is reached after
    skipping some, the SamplingError names how many admissible points failed
    to evaluate and the last failure, since the expression is at fault and
    not the domain.  A symbol the sampler does not bind fails at every point
    and raises UnboundSymbolError at once.
    """
    if a is b:
        return True, 0.0
    delta = add(a, mul(rational(-1), b))
    if delta.is_zero():
        return True, 0.0
    n = sampler.n_samples
    draws = sampler._draws(n, "equal")
    worst = 0.0
    count = 0
    skipped = 0
    try:
        while count < n:
            pt = next(draws)
            try:
                r = abs(evalf(delta, pt))
            except UnboundSymbolError:
                raise
            except EvaluationError as exc:
                skipped += 1
                failure = exc
                continue
            if r > sampler.tolerance:
                return False, r
            worst = max(worst, r)
            count += 1
    except SamplingError as exc:
        if not skipped:
            raise
        # the domain had points; the difference failed to evaluate at them
        raise SamplingError(
            f"the difference failed to evaluate at {skipped} of {skipped + count} "
            f"admissible points (last: {failure}), so {exc}") from failure
    return True, worst


def worst_of(residuals: Iterable[float]) -> float:
    """The largest of the residuals, 0.0 for none, and NaN if any is NaN:
    ``max`` keeps a NaN only when it comes first, so a reduction by ``max``
    can read a failed evaluation as a residual of 0.0."""
    worst = 0.0
    for r in residuals:
        if r > worst or math.isnan(r):
            worst = r
    return worst


def worst_residual(pairs: Iterable[Tuple[Expr, Expr]], sampler: DomainSampler) -> float:
    """The largest expr_equal residual over (a, b) pairs; 0.0 for none."""
    return worst_of(expr_equal(a, b, sampler)[1] for a, b in pairs)
