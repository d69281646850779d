"""Pick-freeze estimators of the closed and total Sobol' indices.

All estimators of the closed index lower_u are sample means of a
per-sample term built from a handful of function values at blended
points; they differ in how the two members of the cross pair
f(x), f(x_u # y_-u) are centered (# denotes coordinate blending):

    original       f(x) f(x_u#y_-u) - muhat^2          2 evals, biased
    correlation1   f(x) (f(x_u#y_-u) - f(y))           3 evals
    correlation2   (f(x) - f(z_u#x_-u)) (f(x_u#y_-u) - f(y))     4 evals
    oracle1        (f(x) - c) (f(x_u#y_-u) - f(y))     3 evals
    oracle2        (f(x) - c) (f(x_u#y_-u) - c)        2 evals
    generalized    (f(x) - f(x_v#z_-v)) (f(x_u#y_-u) - f(y_v'#w_-v'))
                   for v, v' inside the complement of u, 4 evals

plus the nonnegative squared-difference estimator of the total index:

    upper          (1/2) (f(x) - f(y_u#x_-u))^2        2 evals

which resamples the u coordinates, so it vanishes identically (not just
in expectation) whenever f does not depend on them.

Every unbiased kind has per-sample expectation lower_u (upper_u for
``upper``); ``original`` estimates the cross moment mu^2 + lower_u and
subtracts an estimated mean, which leaves a small bias, so it is
reported with a ``biased`` flag and no standard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .core import ROLES, BlockSampler, DimensionError, IndexSet, RngSpec, pick_rows
from .models import Model

DEFAULT_BATCH = 32768

#: points per draw when a pass refills a role's feature rows: a quarter
#: batch, and 4096 to 16384 measured alike on single-set runs
_DRAW_ROWS = 8192


class KindInfo(NamedTuple):
    """One estimator kind's facts: cost, inputs, short name and parameters.

    ``params`` names the ``EstimatorKind`` fields the kind takes; no other
    place says which kinds take a center or blending sets.
    """

    cost: int  # function values per sample
    roles: tuple[str, ...]  # independent input vectors, in stream order
    alias: str  # CLI and experiment-config name
    params: tuple[str, ...] = ()  # EstimatorKind fields the term reads


#: every estimator kind, keyed by tag
KINDS = {
    "original": KindInfo(2, ("x", "y"), "original"),
    "correlation1": KindInfo(3, ("x", "y"), "corr1"),
    "correlation2": KindInfo(4, ("x", "y", "z"), "corr2"),
    "oracle1": KindInfo(3, ("x", "y"), "orcl1", ("center",)),
    "oracle2": KindInfo(2, ("x", "y"), "orcl2", ("center",)),
    "generalized": KindInfo(4, ("x", "y", "z", "w"), "gen", ("v", "v2")),
    "upper": KindInfo(2, ("x", "y"), "upper"),
}

#: tag of each short name
TAG_OF_ALIAS = {info.alias: tag for tag, info in KINDS.items()}


@dataclass(frozen=True)
class EstimatorKind:
    """Tagged description of one per-sample term.

    Setting a parameter that ``KINDS[tag].params`` does not name is an
    error.  A ``center`` of None defers to the model's exact mean at run
    time; a ``v``/``v2`` of None means "use the complement of u", the
    variance-optimal choice for product-form integrands.
    """

    tag: str
    center: float | None = None
    v: IndexSet | None = None
    v2: IndexSet | None = None

    def __post_init__(self) -> None:
        if self.tag not in KINDS:
            raise ValueError(f"unknown estimator tag {self.tag!r}")
        for name in ("center", "v", "v2"):
            if getattr(self, name) is not None and name not in KINDS[self.tag].params:
                raise ValueError(f"{self.tag} takes no {name}")
        if self.center is not None and not math.isfinite(self.center):
            raise ValueError("oracle center must be finite")


# ---------------------------------------------------------------------------
# streaming accumulation


class Accumulator:
    """Streaming count / mean / sum-of-squared-deviations, mergeable.

    Chan's pairwise formula for batch and cross-worker merges; merging
    replicates the statistics of the concatenated stream up to
    floating-point reassociation.
    """

    __slots__ = ("n", "mean", "m2")

    def __init__(self, n: int = 0, mean: float = 0.0, m2: float = 0.0) -> None:
        self.n = n
        self.mean = mean
        self.m2 = m2

    def add_batch(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        k = values.size
        if k == 0:
            return
        bmean = float(values.mean())
        dev = values - bmean  # squared in place: x ** 2 is x * x
        bm2 = float(np.sum(np.multiply(dev, dev, out=dev)))
        self._combine(k, bmean, bm2)

    def merge(self, other: "Accumulator") -> None:
        self._combine(other.n, other.mean, other.m2)

    def _combine(self, n2: int, mean2: float, m22: float) -> None:
        if n2 == 0:
            return
        n = self.n + n2
        delta = mean2 - self.mean
        self.mean += delta * n2 / n
        self.m2 += m22 + delta * delta * self.n * n2 / n
        self.n = n

    def variance(self) -> float:
        """Sample variance of the accumulated terms (n-1 divisor)."""
        if self.n < 2:
            raise ValueError(f"need at least 2 values, have {self.n}")
        return self.m2 / (self.n - 1)

    def __repr__(self) -> str:
        return f"Accumulator(n={self.n}, mean={self.mean}, m2={self.m2})"


class OriginalMoments(NamedTuple):
    """The running means an ``original`` estimate is formed from, for one set u."""

    cross: Accumulator  # f(x) f(x_u#y_-u), the kind's per-sample term
    fx: Accumulator  # f(x), shared by every set of the pass
    fb: Accumulator  # f(x_u#y_-u)

    def estimate(self) -> float:
        """The cross moment less the squared mean of both pair members."""
        if self.fx.n < 2:
            raise ValueError("the original estimator needs n >= 2")
        mu_hat = 0.5 * (self.fx.mean + self.fb.mean)
        return self.cross.mean - mu_hat**2


@dataclass(frozen=True)
class EstimateReport:
    """Result of one estimation run.

    ``estimate`` is in variance units of f.  ``term_variance`` is the
    sample variance of the per-sample terms (not divided by n) and
    ``std_error`` = sqrt(term_variance / n); both are None for the biased
    original kind.  ``evals`` counts distinct function evaluations for the
    whole run; for a single-set run it equals n * cost(kind).
    """

    kind: EstimatorKind
    u: IndexSet
    n: int
    estimate: float
    term_variance: float | None
    std_error: float | None
    evals: int
    biased: bool = False


# ---------------------------------------------------------------------------
# streaming runners


class _BatchEvals:
    """Caches the function values of one sample batch by blend signature.

    Each (role, points) pair is featurized into d coordinate-major rows,
    and a blend is evaluated from rows picked by the set, so nothing is
    copied.  A full blend is the plain left point, an empty one the plain
    right point; each distinct signature is evaluated once and counted once
    per point, and its values are read-only, because every term of the
    batch shares them.
    ``release(u)`` frees the blends over u once every term of set u is
    formed; only set u's terms read them.
    A sampling pass (``_batches``) keeps one instance for all its batches:
    its ``features`` are views of role rows the pass refills in place, and
    its values are dropped before the next batch is drawn.
    The exact oracle keeps one instance per call over grid midpoints, one
    role per axis, and reads it set by set as a pass does.  A value spans
    only the axes of the roles it reads, and a count is the number of
    distinct states evaluated; ``_term_factors`` forms the two factors,
    which the oracle contracts over the grid without building it.
    """

    def __init__(self, model: Model, points: Iterable[tuple[str, np.ndarray]]) -> None:
        self.model = model
        self.features = {role: model.features(x) for role, x in points}
        self._cache: dict[tuple, np.ndarray] = {}

    def _value(self, key: tuple, rows: Callable[[], Sequence[np.ndarray]]) -> np.ndarray:
        if key not in self._cache:
            picked = rows()
            self.model.counter.add(math.prod(np.broadcast_shapes(*(r.shape for r in picked))))
            value = self.model._values(picked)
            value.flags.writeable = False  # shared by every term that reads it
            self._cache[key] = value
        return self._cache[key]

    def plain(self, role: str) -> np.ndarray:
        return self._value((role,), lambda: self.features[role])

    def blended(self, role_a: str, role_b: str, u: IndexSet) -> np.ndarray:
        if u.bits == (1 << u.dim) - 1:
            return self.plain(role_a)
        if u.bits == 0:
            return self.plain(role_b)
        return self._value(
            (role_a, role_b, u.bits),
            lambda: pick_rows(self.features[role_a], self.features[role_b], u),
        )

    def release(self, u: IndexSet) -> None:
        """Drop the cached blends over u; plain values stay."""
        for key in [k for k in self._cache if len(k) == 3 and k[2] == u.bits]:
            del self._cache[key]


def _term_factors(ev, kind: EstimatorKind, u: IndexSet, center: float | None):
    """The two factors of ``kind``'s per-sample term for target set u.

    The one place each kind's algebra is written: the term is left * right.
    ``ev`` is a ``_BatchEvals`` over a sample batch or, in the exact oracle,
    over the grid midpoints with one role per axis, where each factor spans
    only the axes of the roles it reads.  ``original`` yields its raw cross
    moment f(x) f(x_u#y_-u).
    """
    tag = kind.tag
    if tag == "correlation1":
        return ev.plain("x"), ev.blended("x", "y", u) - ev.plain("y")
    if tag == "correlation2":
        # both factors are centered by a pick-freeze value, so each one
        # vanishes per sample when f does not depend on the u coordinates
        return ev.plain("x") - ev.blended("z", "x", u), ev.blended("x", "y", u) - ev.plain("y")
    if tag == "oracle1":
        return ev.plain("x") - center, ev.blended("x", "y", u) - ev.plain("y")
    if tag == "oracle2":  # expectation lower_u needs c = mu; oracle1's holds for any c
        return ev.plain("x") - center, ev.blended("x", "y", u) - center
    if tag == "generalized":
        # v = v2 = complement(u) with the u part of w taken from y is correlation2
        v = kind.v if kind.v is not None else u.complement()
        v2 = kind.v2 if kind.v2 is not None else u.complement()
        if not v.isdisjoint(u) or not v2.isdisjoint(u):
            raise ValueError(f"v={v} and v2={v2} must be disjoint from u={u}")
        return (
            ev.plain("x") - ev.blended("x", "z", v),
            ev.blended("x", "y", u) - ev.blended("y", "w", v2),
        )
    if tag == "upper":
        diff = ev.plain("x") - ev.blended("y", "x", u)
        return 0.5 * diff, diff
    if tag == "original":
        return ev.plain("x"), ev.blended("x", "y", u)
    raise ValueError(f"no term for {tag!r}")


def _batch_terms(ev, kind: EstimatorKind, u: IndexSet, center: float | None):
    """Per-sample terms of ``kind`` for target set u."""
    left, right = _term_factors(ev, kind, u, center)
    # a fresh right factor takes the product in place, as numpy reuses a
    # temporary within one expression; a new batch array per term is slower
    return np.multiply(left, right, out=right) if right.flags.writeable else left * right


def _resolve_center(model: Model, kind: EstimatorKind) -> float | None:
    if "center" not in KINDS[kind.tag].params:
        return None
    return model.mean() if kind.center is None else kind.center


def _batches(
    model: Model,
    roles: Sequence[str],
    us: Sequence[IndexSet],
    n: int,
    rng: RngSpec,
    batch_size: int,
) -> Iterator[_BatchEvals]:
    """The streaming loop every runner shares: n samples in batch_size chunks.

    It yields one ``_BatchEvals`` per batch, the same object refilled each
    time, so a caller is done with a batch when it asks for the next.  Each
    role's feature rows are allocated once, at the first batch's width and
    in the dtype the model's features take.  Every batch drops the previous
    batch's values, then draws each role in chunks of at most ``_DRAW_ROWS``
    points into one reused array and writes the features into the same
    rows, ``rows[:, :b]``.  So a pass holds one batch, not two.  The buffers
    are local to the call, so replicate workers share none.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    if not us:
        raise ValueError("need at least one target set")
    for u in us:
        if u.dim != model.dim:
            raise DimensionError(f"set {u} has dimension {u.dim}, model has {model.dim}")
    if len(set(us)) < len(us):  # one accumulator per set would take its batches twice
        repeated = next(u for k, u in enumerate(us) if u in us[:k])
        raise ValueError(f"target set {repeated} is repeated")
    sampler = BlockSampler(rng, model.dim)
    draw = np.empty((min(_DRAW_ROWS, batch_size, n), model.dim))
    dtype = model.features(draw[:0]).dtype  # int64 cell indices for a table
    rows = {role: np.empty((model.dim, min(batch_size, n)), dtype) for role in roles}
    ev = _BatchEvals(model, ())
    done = 0
    while done < n:
        b = min(batch_size, n - done)
        ev._cache.clear()  # the previous batch's values go before this batch is drawn
        for role in roles:  # the stream continues chunk by chunk, so the points are the same
            for start in range(0, b, len(draw)):
                stop = min(start + len(draw), b)
                points = sampler.draw_role(role, stop - start, out=draw[: stop - start])
                model.features(points, out=rows[role][:, start:stop])
            ev.features[role] = rows[role][:, :b]
        yield ev
        done += b


def accumulate_terms(
    model: Model,
    kinds: Sequence[EstimatorKind],
    us: Sequence[IndexSet],
    n: int,
    rng: RngSpec,
    batch_size: int = DEFAULT_BATCH,
) -> tuple[dict[EstimatorKind, dict[IndexSet, Accumulator | OriginalMoments]], int]:
    """Stream n per-sample terms of every kind for each set into accumulators.

    One pass shares each batch's draws and values among all kinds and sets;
    each accumulator equals a single-kind run's.  Returns them per kind and
    set, with the count of distinct function evaluations.  An ``original``
    entry is the ``OriginalMoments`` of its set: the cross-moment term plus
    the means of f(x) and f(x_u#y_-u), read from the values the batch
    already holds.
    """
    centers = {kind: _resolve_center(model, kind) for kind in kinds}
    accs = {kind: {u: Accumulator() for u in us} for kind in kinds}
    original = EstimatorKind("original")
    fx, fb = Accumulator(), {u: Accumulator() for u in us}
    roles = [r for r in ROLES if any(r in KINDS[kind.tag].roles for kind in kinds)]
    start = model.counter.count
    for ev in _batches(model, roles, us, n, rng, batch_size):
        if original in accs:
            fx.add_batch(ev.plain("x"))
        for u in us:  # set by set, so a batch holds only the blends over one set
            for kind, per_set in accs.items():
                per_set[u].add_batch(_batch_terms(ev, kind, u, centers[kind]))
            if original in accs:
                fb[u].add_batch(ev.blended("x", "y", u))
            ev.release(u)
    if original in accs:
        accs[original] = {u: OriginalMoments(acc, fx, fb[u]) for u, acc in accs[original].items()}
    return accs, model.counter.count - start


def run_multi_u(
    model: Model,
    kind: EstimatorKind,
    us: Sequence[IndexSet],
    n: int,
    rng: RngSpec,
    batch_size: int = DEFAULT_BATCH,
) -> list[EstimateReport]:
    """Estimate the index of several sets u from shared sample vectors.

    Per-set results are distributed exactly as single-set runs with the
    same rng; only the evaluation sharing differs.  The reported ``evals``
    is the run total and counts each distinct blend signature once per
    sample (e.g. plain f(x) and f(y) are evaluated once, not once per u).

    Results depend only on (seed, replicate, n, batch_size), never on
    thread scheduling; batch_size is the deterministic partition policy.
    """
    accs, evals = accumulate_terms(model, [kind], us, n, rng, batch_size)
    biased = kind.tag == "original"
    sampled = n > 1 and not biased
    return [
        EstimateReport(
            kind=kind,
            u=u,
            n=n,
            estimate=accs[kind][u].estimate() if biased else accs[kind][u].mean,
            term_variance=accs[kind][u].variance() if sampled else None,
            std_error=math.sqrt(accs[kind][u].variance() / n) if sampled else None,
            evals=evals,
            biased=biased,
        )
        for u in us
    ]


def run_estimator(
    model: Model,
    kind: EstimatorKind,
    u: IndexSet,
    n: int,
    rng: RngSpec,
    batch_size: int = DEFAULT_BATCH,
) -> EstimateReport:
    """Estimate lower_u (upper_u for the ``upper`` kind) from n samples."""
    return run_multi_u(model, kind, [u], n, rng, batch_size)[0]
