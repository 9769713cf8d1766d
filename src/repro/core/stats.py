"""Mergeable per-group sample statistics.

All bounders in the engine path (Hoeffding-Serfling and empirical
Bernstein-Serfling, with or without RangeTrim) need only the tuple
``(m, sum, sumsq, min, max)`` of the sample seen so far. These merge
associatively across blocks, which is what lets the scan engine
aggregate per-block statistics once (a ``bincount`` over the scramble's
columnar copy) and then replay the adaptive scan over them.

RangeTrim's "trimmed" states are derived views of the same tuple:
dropping one copy of the max (resp. min) is ``(m-1, sum-max,
sumsq-max**2, ...)`` — see :mod:`repro.core.range_trim` for why this is
equivalent to the paper's streaming Algorithm 6.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass
class GroupStats:
    """Streaming moments + extremes of a sample (one aggregate view)."""

    m: int = 0
    total: float = 0.0
    total_sq: float = 0.0
    vmin: float = math.inf
    vmax: float = -math.inf

    def update(self, v: float) -> None:
        """Fold one observed value into the state."""
        self.m += 1
        self.total += v
        self.total_sq += v * v
        if v < self.vmin:
            self.vmin = v
        if v > self.vmax:
            self.vmax = v

    def merge(self, other: "GroupStats") -> "GroupStats":
        """Associative, commutative combine of two disjoint samples."""
        out = GroupStats(
            m=self.m + other.m,
            total=self.total + other.total,
            total_sq=self.total_sq + other.total_sq,
            vmin=min(self.vmin, other.vmin),
            vmax=max(self.vmax, other.vmax),
        )
        return out

    @property
    def mean(self) -> float:
        if self.m == 0:
            raise ValueError("mean of empty sample")
        return self.total / self.m

    @property
    def variance(self) -> float:
        """Biased (1/m) sample variance, as used by Bardenet-Maillard."""
        if self.m == 0:
            raise ValueError("variance of empty sample")
        v = self.total_sq / self.m - self.mean**2
        return max(0.0, v)  # clamp float cancellation

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def drop_max(self) -> "GroupStats":
        """Stats of the sample with one copy of its maximum removed.

        ``vmin``/``vmax`` of the reduced sample are not derivable from the
        tuple alone; the RangeTrim bounders never need them (the trimmed
        left state is only fed to an inner bounder via (m, sum, sumsq)),
        so they are left as the untrimmed extremes.
        """
        if self.m == 0:
            raise ValueError("drop_max of empty sample")
        return GroupStats(
            m=self.m - 1,
            total=self.total - self.vmax,
            total_sq=max(0.0, self.total_sq - self.vmax**2),
            vmin=self.vmin,
            vmax=self.vmax,
        )

    def drop_min(self) -> "GroupStats":
        """Stats of the sample with one copy of its minimum removed."""
        if self.m == 0:
            raise ValueError("drop_min of empty sample")
        return GroupStats(
            m=self.m - 1,
            total=self.total - self.vmin,
            total_sq=max(0.0, self.total_sq - self.vmin**2),
            vmin=self.vmin,
            vmax=self.vmax,
        )


def from_values(values) -> GroupStats:
    """Build a :class:`GroupStats` from an iterable of numbers."""
    s = GroupStats()
    for v in values:
        s.update(float(v))
    return s
