"""Dimension-indexed primitives shared by every estimator.

Coordinates are numbered 1..d (d <= 63 so a subset fits in one machine
word).  Points live in the half-open cube [0, 1)^d and are plain float64
numpy arrays whose last axis has length d; ``blend`` broadcasts over
leading axes, so a point (d,) and a batch (n, d) take the same path, and
``pick_rows`` blends the coordinate-major feature rows of a model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

MAX_DIM = 63

#: vector roles of one sample block, in stream order
ROLES = ("x", "y", "z", "w")
_ROLE_INDEX = {role: i for i, role in enumerate(ROLES)}


class DimensionError(ValueError):
    """Raised when points or index sets disagree on the dimension d."""


@dataclass(frozen=True)
class IndexSet:
    """A subset of the coordinate indices {1, .., dim} stored as a bitmask.

    Bit j-1 of ``bits`` is set iff coordinate j is a member.  Instances are
    immutable and hashable, so they can key dictionaries of per-subset
    quantities.
    """

    bits: int
    dim: int

    def __post_init__(self) -> None:
        if not 1 <= self.dim <= MAX_DIM:
            raise DimensionError(f"dimension must be in 1..{MAX_DIM}, got {self.dim}")
        if self.bits < 0 or self.bits >> self.dim:
            raise ValueError(f"bitmask {self.bits:#x} has bits outside 1..{self.dim}")

    @classmethod
    def from_indices(cls, indices: Sequence[int], dim: int) -> "IndexSet":
        bits = 0
        for j in indices:
            if not 1 <= j <= dim:
                raise ValueError(f"coordinate {j} out of range for dimension {dim}")
            if bits >> (j - 1) & 1:
                raise ValueError(f"coordinate {j} is repeated")
            bits |= 1 << (j - 1)
        return cls(bits, dim)

    @classmethod
    def parse(cls, text: str, dim: int) -> "IndexSet":
        """Parse "1,3" or "{1,3}" (empty string means the empty set)."""
        body = text.strip().removeprefix("{").removesuffix("}").strip()
        if not body:
            return cls.empty(dim)
        return cls.from_indices([int(tok) for tok in body.split(",")], dim)

    @classmethod
    def empty(cls, dim: int) -> "IndexSet":
        return cls(0, dim)

    @classmethod
    def full(cls, dim: int) -> "IndexSet":
        return cls((1 << dim) - 1, dim)

    def complement(self) -> "IndexSet":
        return IndexSet(self.bits ^ (1 << self.dim) - 1, self.dim)

    def members(self) -> tuple[int, ...]:
        return tuple(j for j in range(1, self.dim + 1) if self.bits >> (j - 1) & 1)

    def mask(self) -> np.ndarray:
        """Boolean membership vector of shape (dim,)."""
        return np.array([self.bits >> j & 1 for j in range(self.dim)], dtype=bool)

    def subsets(self) -> Iterator["IndexSet"]:
        """All 2^|self| subsets, in increasing bitmask order."""
        sub = 0
        while True:
            yield IndexSet(sub, self.dim)
            if sub == self.bits:
                return
            # next submask of self.bits above sub
            sub = (sub - self.bits) & self.bits

    def isdisjoint(self, other: "IndexSet") -> bool:
        if self.dim != other.dim:
            raise DimensionError(f"index sets on dimensions {self.dim} and {other.dim}")
        return not self.bits & other.bits

    def __contains__(self, j: int) -> bool:
        return 1 <= j <= self.dim and bool(self.bits >> (j - 1) & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members())

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __str__(self) -> str:
        return "{" + ",".join(str(j) for j in self.members()) + "}"


def blend(x: np.ndarray, y: np.ndarray, u: IndexSet) -> np.ndarray:
    """Coordinate-blend two points: take x on u and y on the complement.

    Accepts arrays of shape (..., d); the subset mask broadcasts over any
    leading batch axes.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape[-1] != u.dim or y.shape[-1] != u.dim:
        raise DimensionError(
            f"blend on dimension {u.dim} got points of dimension "
            f"{x.shape[-1]} and {y.shape[-1]}"
        )
    return np.where(u.mask(), x, y)


def pick_rows(a: Sequence, b: Sequence, u: IndexSet) -> list:
    """Coordinate-major ``blend``: row j of a for j in u, of b otherwise; copies nothing."""
    return [a[j] if u.bits >> j & 1 else b[j] for j in range(u.dim)]


class EvalCounter:
    """Counts model evaluations.  One increment per point evaluated.

    Mutable; confine one counter to one thread and merge results, rather
    than sharing an instance across workers.
    """

    __slots__ = ("count",)

    def __init__(self, count: int = 0) -> None:
        self.count = count

    def add(self, k: int = 1) -> None:
        if k < 0:
            raise ValueError("eval counts never decrease")
        self.count += k

    def __repr__(self) -> str:
        return f"EvalCounter({self.count})"


@dataclass(frozen=True)
class RngSpec:
    """Addresses one reproducible random stream: (seed, replicate, role).

    Streams are realized with numpy's Philox counter generator keyed by a
    SeedSequence spawn key, so distinct (replicate, role) pairs give
    non-overlapping streams by construction and any stream can be recreated
    independently of the others.
    """

    seed: int
    replicate: int = 0

    def __post_init__(self) -> None:
        if self.seed < 0 or self.replicate < 0:
            raise ValueError("seed and replicate index must be nonnegative")

    def stream(self, role: str) -> np.random.Generator:
        if role not in _ROLE_INDEX:
            raise ValueError(f"unknown vector role {role!r}, expected one of {ROLES}")
        seq = np.random.SeedSequence(
            self.seed, spawn_key=(self.replicate, _ROLE_INDEX[role])
        )
        return np.random.Generator(np.random.Philox(seq))


class BlockSampler:
    """Stateful sampler producing uniform [0,1)^d points from role streams.

    Two samplers built from the same RngSpec produce identical sequences;
    consuming a role does not advance the other roles' streams, so e.g. an
    estimator that needs only (x, y) sees the same x and y values as one
    that also consumes z.  A role's stream is opened on its first draw.
    """

    def __init__(self, spec: RngSpec, dim: int) -> None:
        if not 1 <= dim <= MAX_DIM:
            raise DimensionError(f"dimension must be in 1..{MAX_DIM}, got {dim}")
        self.spec = spec
        self.dim = dim
        self._streams: dict[str, np.random.Generator] = {}

    def draw_role(self, role: str, n: int, out: np.ndarray | None = None) -> np.ndarray:
        """The role's next n points, shape (n, dim), written into ``out`` when given.

        A stream continues across calls, so drawing n points in consecutive
        chunks gives the same numbers as one draw of n.
        """
        if role not in self._streams:
            self._streams[role] = self.spec.stream(role)
        if out is None:
            return self._streams[role].random((n, self.dim))
        if out.shape != (n, self.dim):
            raise ValueError(f"out has shape {out.shape}, expected {(n, self.dim)}")
        return self._streams[role].random(out=out)
