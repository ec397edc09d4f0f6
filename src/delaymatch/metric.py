"""Finite metric spaces: validation and statistics.

Every downstream component assumes a genuine metric (finite entries,
symmetry, zero diagonal, positive off-diagonal entries, triangle inequality),
so the constructor here is strict and names the offending triple on failure.
The triangle check uses an absolute tolerance of 1e-9 * d_max to absorb
float noise in computed coordinate inputs.  It runs as a min-plus product,
d[i,j] - min_k (d[i,k] + d[k,j]) <= tol, over blocks of rows i and only the
columns j from each block's first row on: half the n^3 triples in two array
passes, with the same decision, bit for bit, as testing every triple on its
own (see `MetricSpace._check`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    AsymmetricDistance,
    DegenerateSpace,
    InstanceLoadError,
    NegativeDistance,
    TriangleViolation,
)

TRIANGLE_RTOL = 1e-9
# entries per triangle-scan temporary (512 KB of doubles): blocks this small
# stay in cache, and memory stays O(n^2) however large n grows
_TRIANGLE_BLOCK = 1 << 16

__all__ = [
    "MetricSpace",
    "MetricStats",
    "from_coords",
    "stats",
]


@dataclass(frozen=True)
class MetricStats:
    d_min: float
    d_max: float
    aspect_ratio: float


class MetricSpace:
    """A finite metric: point names plus a validated distance matrix."""

    def __init__(self, points: Sequence[str], dist: np.ndarray):
        self.points = tuple(str(p) for p in points)
        self.dist = np.asarray(dist, dtype=float)
        self.n = len(self.points)
        self.index = {p: i for i, p in enumerate(self.points)}
        if len(self.index) != self.n:
            raise InstanceLoadError("duplicate point names")
        self._check()

    def _check(self) -> None:
        d = self.dist
        n = self.n
        if d.shape != (n, n):
            raise InstanceLoadError(
                f"distance matrix shape {d.shape} does not match {n} points"
            )
        if n == 0:
            raise DegenerateSpace("empty point set")
        if not np.isfinite(d).all():
            i, j = (int(k) for k in np.argwhere(~np.isfinite(d))[0])
            raise InstanceLoadError(
                f"non-finite distance d({self.points[i]},{self.points[j]})={d[i, j]}"
            )
        if d.diagonal().any():
            i = int(np.flatnonzero(d.diagonal())[0])
            raise NegativeDistance(f"nonzero self-distance at point {self.points[i]}")
        if (d != d.T).any():
            i, j = (int(k) for k in np.argwhere(d != d.T)[0])
            raise AsymmetricDistance(
                f"d({self.points[i]},{self.points[j]})={d[i, j]} != "
                f"d({self.points[j]},{self.points[i]})={d[j, i]}"
            )
        # the diagonal is zero, so d <= 0 holds more than n times only off it
        if np.count_nonzero(d <= 0) > n:
            bad = (d <= 0) & ~np.eye(n, dtype=bool)
            i, j = (int(k) for k in np.argwhere(bad)[0])
            raise NegativeDistance(
                f"non-positive distance d({self.points[i]},{self.points[j]})={d[i, j]}"
            )
        tol = TRIANGLE_RTOL * float(d.max(initial=0.0))
        # all (i,k,j): d[i,j] <= d[i,k] + d[k,j] + tol, tested as the min-plus
        # product d[i,j] - min_k (d[i,k] + d[j,k]) <= tol with k the contiguous
        # axis (d is exactly symmetric here, so d[j,k] is d[k,j]).  Rounding is
        # monotone, so the float d[i,j] - min_k s equals max_k (d[i,j] - s):
        # each triple is decided exactly as by its own subtraction.  Blocks of
        # rows i go in increasing order over columns j >= lo only: float +
        # commutes, so a hit (i,k,j) with j < lo is the hit (j,k,i) of an
        # earlier block, and the first failing block is the first to hold a
        # hit in (i,k,j) order; only it is rescanned with the per-triple test
        # to name that hit.  The scan's temporaries hold at most
        # max(n, _TRIANGLE_BLOCK) entries, the rescan's max(n^2, _TRIANGLE_BLOCK).
        rows = max(1, _TRIANGLE_BLOCK // (n * n))
        cols = max(1, _TRIANGLE_BLOCK // (rows * n))
        sums = np.empty((min(rows, n), min(cols, n), n))  # [i, j, k]: d[i,k] + d[j,k]
        mins = np.empty(sums.shape[:2])
        with np.errstate(over="ignore"):  # a sum past the float range is no violation
            for lo in range(0, n, rows):
                block = d[lo:lo + rows]
                for c in range(lo, n, cols):
                    right = d[c:c + cols]
                    s = sums[: len(block), : len(right)]
                    np.add(block[:, None, :], right, out=s)
                    m = mins[: len(block), : len(right)]
                    np.minimum.reduce(s, axis=2, out=m)
                    if np.subtract(block[:, c:c + cols], m, out=m).max() > tol:
                        self._raise_first_violation(block, lo, tol)

    def _raise_first_violation(self, block: np.ndarray, lo: int, tol: float) -> None:
        """Raise on the first (i,k,j) hit among the rows block = d[lo:lo+len(block)]."""
        d = self.dist
        slack = np.add(block[:, :, None], d[None, :, :])
        np.subtract(block[:, None, :], slack, out=slack)  # d[i,j] - (d[i,k] + d[k,j])
        i, k, j = (int(x) for x in np.argwhere(slack > tol)[0])
        i += lo
        raise TriangleViolation(
            f"d({self.points[i]},{self.points[j]})={d[i, j]} > "
            f"d({self.points[i]},{self.points[k]})+d({self.points[k]},{self.points[j]})"
            f"={d[i, k] + d[k, j]}"
        )

    def distance(self, a: str, b: str) -> float:
        return float(self.dist[self.index[a], self.index[b]])

    def __repr__(self) -> str:
        return f"MetricSpace(n={self.n})"


def from_coords(coords, points: Sequence[str] | None = None) -> MetricSpace:
    """Euclidean metric materialized from a coordinate array (n x dim)."""
    c = np.asarray(coords, dtype=float)
    if c.ndim not in (1, 2):
        raise InstanceLoadError(f"coordinate array of shape {c.shape} is not n x dim")
    if c.ndim == 1:
        c = c[:, None]
    # an overflow leaves a non-finite distance, which MetricSpace rejects
    with np.errstate(over="ignore", invalid="ignore"):
        diff = c[:, None, :] - c[None, :, :]
        d = np.sqrt((diff * diff).sum(axis=-1))
        # squares overflow long before distances do; hypot scales instead
        over = np.isinf(d) & np.isfinite(diff).all(axis=-1)
        d[over] = np.hypot.reduce(diff[over], axis=-1)
    np.fill_diagonal(d, 0.0)
    if points is None:
        points = [f"p{i}" for i in range(len(c))]
    return MetricSpace(points, d)


def stats(space: MetricSpace) -> MetricStats:
    if space.n < 2:
        raise DegenerateSpace("stats need at least two points")
    off = space.dist[~np.eye(space.n, dtype=bool)]
    d_min = float(off.min())
    d_max = float(off.max())
    return MetricStats(d_min=d_min, d_max=d_max, aspect_ratio=d_max / d_min)
