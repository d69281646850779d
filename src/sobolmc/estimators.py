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
        self._add(np.asarray(values, dtype=np.float64).reshape(-1), None)

    def _add(self, values: np.ndarray, dev: np.ndarray | None) -> None:
        """Add a flat float64 batch, its deviations formed in ``dev``.

        ``dev`` is a buffer of the batch's size, or values itself when the
        caller owns them, or None for a new array.
        """
        k = values.size
        if k == 0:
            return
        # np.add.reduce is the sum values.mean() and np.sum take, without their wrappers
        bmean = float(np.add.reduce(values) / k)
        dev = np.subtract(values, bmean, out=dev)  # squared in place: x ** 2 is x * x
        bm2 = float(np.add.reduce(np.multiply(dev, dev, out=dev)))
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


_ALIGN = 64  # bytes: a cache line, and the alignment AVX-512 loads and stores want


def _aligned(nbytes: int) -> np.ndarray:
    """A new uint8 array of nbytes whose data starts on an ``_ALIGN``-byte boundary."""
    raw = np.empty(nbytes + _ALIGN, np.uint8)
    start = -raw.__array_interface__["data"][0] % _ALIGN
    return raw[start : start + nbytes]


class _Workspace:
    """The 64-byte-aligned buffers of one sampling pass, kept for the next pass.

    ``array(name, shape, dtype)`` keeps one C-order array per name (the draw
    chunk, each role's rows) and grows it only when asked for more bytes.
    ``lend(b)`` hands out a batch-wide float64 buffer, a view of the first
    b of ``width`` elements, and ``give`` takes it back for the next
    ``lend``, so the spare buffers number the most a pass held at once.
    """

    def __init__(self) -> None:
        self.width = 0
        self._arrays: dict[str, np.ndarray] = {}
        self._spare: list[np.ndarray] = []
        self._lent: dict[int, np.ndarray] = {}  # id of a lent view -> its buffer

    def fit(self, width: int) -> None:
        """Make every value buffer at least ``width`` float64 long."""
        if width > self.width:
            self.width = width
            self._spare.clear()

    def array(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        buf = self._arrays.get(name)
        if buf is None or buf.size < nbytes:
            buf = self._arrays[name] = _aligned(nbytes)
        return buf[:nbytes].view(dtype).reshape(shape)

    def lend(self, b: int) -> np.ndarray:
        buf = self._spare.pop() if self._spare else _aligned(8 * self.width).view(np.float64)
        view = buf[:b]
        self._lent[id(view)] = buf
        return view

    def give(self, view: np.ndarray) -> None:
        self._spare.append(self._lent.pop(id(view)))


#: workspaces of finished passes; a pass pops one or builds its own, so
#: concurrent passes never share one (list pop and append are atomic)
_SPARE: list[_Workspace] = []


def _pop_spare() -> _Workspace:
    try:
        return _SPARE.pop()
    except IndexError:  # none left, or another thread took the last
        return _Workspace()


class _BatchEvals:
    """Caches the function values of one sample batch by blend signature.

    Each (role, points) pair is featurized into d coordinate-major rows,
    and a blend is evaluated from rows picked by the set, so nothing is
    copied.  A full blend is the plain left point, an empty one the plain
    right point; each distinct signature is evaluated once and counted once
    per point, and its values are read-only, because every term of the
    batch shares them.  ``subtract`` and ``multiply`` form the term
    factors and ``product`` the term; ``fold`` adds a term to an
    accumulator and ends its temporaries.
    ``release(kinds)`` frees the blends of a set once every term of the set
    is formed: a blend serves one set, except one over a kind's explicit v
    or v2, which every set reads and which stays for the batch.
    A sampling pass (``_batches``) keeps one instance for all its batches,
    over a ``_Workspace``: its ``features`` are views of role rows the pass
    refills in place, a count is the batch length, and every value and
    temporary is a workspace buffer, handed back by ``release``, ``fold``
    and the next batch.  Without a workspace each array is a new one.
    The exact oracle keeps one instance per call over grid midpoints, one
    role per axis, and reads it set by set as a pass does.  A value spans
    only the axes of the roles it reads, and a count is the number of
    distinct states evaluated; ``_term_factors`` forms the two factors,
    which the oracle contracts over the grid without building it.  Without
    a workspace ``subtract`` also caches a difference of cached values, or
    of a cached value and a center, so kinds and (v, v') pairs that share a
    factor form it once; it is read-only, and ``release`` drops it.
    """

    def __init__(
        self,
        model: Model,
        points: Iterable[tuple[str, np.ndarray]],
        workspace: _Workspace | None = None,
    ) -> None:
        self.model = model
        self.features = {role: model.features(x) for role, x in points}
        self._cache: dict[tuple, np.ndarray] = {}
        self._keys: dict[int, tuple] = {}  # id of a cached value -> its key
        self._ws = workspace
        self._b = 0  # the batch length, on a workspace
        self._temps: list[np.ndarray] = []

    def _value(self, key: tuple, rows: Callable[[], Sequence[np.ndarray]]) -> np.ndarray:
        value = self._cache.get(key)
        if value is None:
            picked = rows()
            if self._ws is None:
                value = self.model._values(picked)
                self.model.counter.add(value.size)  # the points the rows broadcast to
            else:
                self.model.counter.add(self._b)
                value = self.model._values(picked, out=self._ws.lend(self._b))
            value.flags.writeable = False  # shared by every term that reads it
            self._cache[key] = value
            self._keys[id(value)] = key
        return value

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

    def _temp(self) -> np.ndarray | None:
        """A workspace buffer for one temporary of the current term; None without one."""
        if self._ws is None:
            return None
        self._temps.append(self._ws.lend(self._b))
        return self._temps[-1]

    def subtract(self, a, b) -> np.ndarray:
        if self._ws is not None:
            return np.subtract(a, b, out=self._temp())
        key = ("-", self._key(a), self._key(b))
        if None in key:
            return np.subtract(a, b)
        value = self._cache.get(key)
        if value is None:
            value = self._cache[key] = np.subtract(a, b)
            value.flags.writeable = False
            self._keys[id(value)] = key
        return value

    def _key(self, operand) -> tuple | None:
        """A cached value's key, a center's exact bits (0.0 is not -0.0), else None."""
        if isinstance(operand, np.ndarray):
            return self._keys.get(id(operand))
        return ("c", float(operand).hex())

    def multiply(self, a, b) -> np.ndarray:
        return np.multiply(a, b, out=self._temp())

    def product(self, left, right) -> np.ndarray:
        """A term's left * right factors.

        A right factor formed for this term takes the product in place, as
        numpy reuses a temporary within one expression; a new batch array per
        term is slower.
        """
        return np.multiply(left, right, out=right if right.flags.writeable else self._temp())

    def fold(self, acc: Accumulator, values: np.ndarray) -> None:
        """``acc.add_batch(values)``, then the term's temporaries end.

        The deviations overwrite values when it is a temporary and go to a
        new temporary when it is a shared value.
        """
        acc._add(values, values if values.flags.writeable else self._temp())
        self._end_temps()

    def _end_temps(self) -> None:
        for temp in self._temps:
            self._ws.give(temp)
        self._temps.clear()

    def release(self, kinds: Iterable[EstimatorKind]) -> None:
        """Drop the blends and differences of the set just done; plain values
        and the blends over an explicit v or v2 of ``kinds`` stay."""
        shared = {s.bits for kind in kinds for s in (kind.v, kind.v2) if s is not None}
        for key in [k for k in self._cache if k[0] == "-" or len(k) == 3 and k[2] not in shared]:
            self._drop(key)

    def _drop(self, key: tuple) -> None:
        value = self._cache.pop(key)
        del self._keys[id(value)]
        if self._ws is not None:
            self._ws.give(value)

    def _start(self, b: int) -> None:
        """Drop every value and temporary of the previous batch and take batches of b points."""
        for key in list(self._cache):
            self._drop(key)
        self._end_temps()
        self._b = b


class _RowReads:
    """Stands in for a ``_BatchEvals`` to find the feature rows a pass reads.

    Run through the same per-batch body as the pass, before anything is
    drawn, it notes in ``rows`` a bitmask per role of the coordinates some
    value reads.  It computes nothing: every value and factor is None.
    """

    def __init__(self, dim: int) -> None:
        self._full = (1 << dim) - 1
        self.rows: dict[str, int] = {}

    def plain(self, role: str) -> None:
        self.rows[role] = self.rows.get(role, 0) | self._full

    def blended(self, role_a: str, role_b: str, u: IndexSet) -> None:
        self.rows[role_a] = self.rows.get(role_a, 0) | u.bits
        self.rows[role_b] = self.rows.get(role_b, 0) | u.bits ^ self._full

    def subtract(self, *args) -> None:
        """Forms nothing; so do ``multiply``, ``product``, ``fold`` and ``release``."""

    multiply = product = fold = release = subtract


def _term_factors(ev, kind: EstimatorKind, u: IndexSet, center: float | None):
    """The two factors of ``kind``'s per-sample term for target set u.

    The one place each kind's algebra is written: the term is left * right.
    ``ev`` is a ``_BatchEvals`` over a sample batch or, in the exact oracle,
    over the grid midpoints with one role per axis, where each factor spans
    only the axes of the roles it reads; or a ``_RowReads``, which notes the
    rows the factors read.  ``original`` yields its raw cross
    moment f(x) f(x_u#y_-u).
    """
    tag, sub = kind.tag, ev.subtract
    if tag == "correlation1":
        return ev.plain("x"), sub(ev.blended("x", "y", u), ev.plain("y"))
    if tag == "correlation2":
        # both factors are centered by a pick-freeze value, so each one
        # vanishes per sample when f does not depend on the u coordinates
        return (
            sub(ev.plain("x"), ev.blended("z", "x", u)),
            sub(ev.blended("x", "y", u), ev.plain("y")),
        )
    if tag == "oracle1":
        return sub(ev.plain("x"), center), sub(ev.blended("x", "y", u), ev.plain("y"))
    if tag == "oracle2":  # expectation lower_u needs c = mu; oracle1's holds for any c
        return sub(ev.plain("x"), center), sub(ev.blended("x", "y", u), center)
    if tag == "generalized":
        # v = v2 = complement(u) with the u part of w taken from y is correlation2
        v = kind.v if kind.v is not None else u.complement()
        v2 = kind.v2 if kind.v2 is not None else u.complement()
        if not v.isdisjoint(u) or not v2.isdisjoint(u):
            raise ValueError(f"v={v} and v2={v2} must be disjoint from u={u}")
        return (
            sub(ev.plain("x"), ev.blended("x", "z", v)),
            sub(ev.blended("x", "y", u), ev.blended("y", "w", v2)),
        )
    if tag == "upper":
        diff = sub(ev.plain("x"), ev.blended("y", "x", u))
        return ev.multiply(0.5, diff), diff
    if tag == "original":
        return ev.plain("x"), ev.blended("x", "y", u)
    raise ValueError(f"no term for {tag!r}")


def _batch_terms(ev, kind: EstimatorKind, u: IndexSet, center: float | None):
    """Per-sample terms of ``kind`` for target set u."""
    return ev.product(*_term_factors(ev, kind, u, center))


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
    reads: dict[str, int],
) -> Iterator[_BatchEvals]:
    """The streaming loop every runner shares: n samples in batch_size chunks.

    It yields one ``_BatchEvals`` per batch, the same object refilled each
    time, so a caller is done with a batch when it asks for the next: a
    batch's arrays are valid only until then, or until the pass ends.
    Every batch drops the previous batch's values, then draws each role in
    chunks of at most ``_DRAW_ROWS`` points into one reused array and
    writes the features into the same rows, ``rows[:, :b]``.  So a pass
    holds one batch, not two.  Only the rows ``reads`` names (a bitmask per
    role, as ``_RowReads`` notes them) are featurized; the others hold
    whatever they held.  A role with some row read is drawn in full, so its
    stream never changes; a role with none is neither opened nor drawn,
    which changes no other role's numbers, since each has its own stream.
    All of it lives in one ``_Workspace``: the draw chunk, each role's d
    feature rows (in the dtype the model's features take, each row padded
    to a 64-byte stride), the cached values, the term factors and products
    and the deviations ``fold`` forms.  Every buffer starts on a 64-byte
    boundary.  The pass pops a workspace that an earlier pass left on
    ``_SPARE``, or builds one, and pushes it back when it ends, so
    replicate passes, studies and ``estimate`` calls reuse the same memory
    and concurrent passes each hold their own.  A spare keeps what its
    widest pass held at once: the draw chunk, each role's rows, and the
    values and temporaries of one set, because every set's blends go back
    when the set is done.  That is one pass's peak, not one per set.  A
    pass wider than ``DEFAULT_BATCH`` builds its own and leaves nothing
    behind.
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
    roles = [role for role in roles if reads.get(role, 0)]
    width = min(batch_size, n)
    kept = width <= DEFAULT_BATCH
    ws = _pop_spare() if kept else _Workspace()
    ws.fit(width)
    ev = _BatchEvals(model, (), ws)
    try:
        sampler = BlockSampler(rng, model.dim)
        draw = ws.array("draw", (min(_DRAW_ROWS, width), model.dim), np.float64)
        dtype = model.feature_dtype
        pad = _ALIGN // dtype.itemsize
        stride = -(-width // pad) * pad
        rows = {role: ws.array(role, (model.dim, stride), dtype)[:, :width] for role in roles}
        picked = {  # the rows to featurize, 0-based
            role: [j for j in range(model.dim) if reads[role] >> j & 1] for role in roles
        }
        done = 0
        while done < n:
            b = min(batch_size, n - done)
            ev._start(b)  # the previous batch's values go before this batch is drawn
            for role in roles:  # the stream continues chunk by chunk, so the points are the same
                for start in range(0, b, len(draw)):
                    stop = min(start + len(draw), b)
                    points = sampler.draw_role(role, stop - start, out=draw[: stop - start])
                    model.features(points, out=rows[role][:, start:stop], rows=picked[role])
                ev.features[role] = rows[role][:, :b]
            yield ev
            done += b
    finally:
        ev._start(0)
        ev.features.clear()
        if kept:
            _SPARE.append(ws)


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

    def fold_batch(ev) -> None:
        if original in accs:
            ev.fold(fx, ev.plain("x"))
        for u in us:  # set by set, so a batch holds only the blends over one set
            for kind, per_set in accs.items():
                ev.fold(per_set[u], _batch_terms(ev, kind, u, centers[kind]))
            if original in accs:
                ev.fold(fb[u], ev.blended("x", "y", u))
            ev.release(kinds)

    reads = _RowReads(model.dim)
    fold_batch(reads)  # so the pass featurizes only the rows some value reads
    start = model.counter.count
    for ev in _batches(model, roles, us, n, rng, batch_size, reads.rows):
        fold_batch(ev)
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
