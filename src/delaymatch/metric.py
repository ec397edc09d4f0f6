"""Finite metric spaces: validation and statistics.

Every downstream component assumes a genuine metric (finite entries,
symmetry, zero diagonal, positive off-diagonal entries, triangle inequality),
so the constructor here is strict and names the offending triple on failure.
The triangle check uses an absolute tolerance of 1e-9 * d_max to absorb
float noise in computed coordinate inputs.
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
        bad = ~np.isfinite(d)
        if np.any(bad):
            i, j = (int(k) for k in np.argwhere(bad)[0])
            raise InstanceLoadError(
                f"non-finite distance d({self.points[i]},{self.points[j]})={d[i, j]}"
            )
        if np.any(np.diag(d) != 0.0):
            i = int(np.flatnonzero(np.diag(d))[0])
            raise NegativeDistance(f"nonzero self-distance at point {self.points[i]}")
        asym = np.argwhere(d != d.T)
        if asym.size:
            i, j = (int(k) for k in asym[0])
            raise AsymmetricDistance(
                f"d({self.points[i]},{self.points[j]})={d[i, j]} != "
                f"d({self.points[j]},{self.points[i]})={d[j, i]}"
            )
        off = ~np.eye(n, dtype=bool)
        bad = (d <= 0) & off
        if np.any(bad):
            i, j = (int(k) for k in np.argwhere(bad)[0])
            raise NegativeDistance(
                f"non-positive distance d({self.points[i]},{self.points[j]})={d[i, j]}"
            )
        tol = TRIANGLE_RTOL * float(d.max(initial=0.0))
        # all (i,k,j): d[i,j] <= d[i,k] + d[k,j] + tol, scanned in blocks of
        # rows i in increasing order, so the first hit is the first in (i,k,j)
        # order and each temporary holds at most max(n^2, _TRIANGLE_BLOCK)
        rows = max(1, _TRIANGLE_BLOCK // (n * n))
        slack = np.empty((min(rows, n), n, n))  # d[i,j] - (d[i,k] + d[k,j])
        over = np.empty(slack.shape, dtype=bool)
        with np.errstate(over="ignore"):  # a sum past the float range is no violation
            for lo in range(0, n, rows):
                block = d[lo:lo + rows]
                s, o = slack[: len(block)], over[: len(block)]
                np.add(block[:, :, None], d[None, :, :], out=s)
                np.subtract(block[:, None, :], s, out=s)
                if not np.greater(s, tol, out=o).any():
                    continue
                i, k, j = (int(x) for x in np.argwhere(o)[0])
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
