"""Ordered (time, value) observations shared by fitting, analysis and I/O."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["TimeSeries"]


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Immutable series of observations with strictly increasing times.

    Values may be any finite reals; influence scores are conventionally
    nonnegative but oscillatory-regime solutions legitimately cross zero,
    so no sign constraint is enforced here.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        t = np.array(self.times, dtype=float, copy=True).reshape(-1)
        v = np.array(self.values, dtype=float, copy=True).reshape(-1)
        if t.size == 0:
            raise ValueError("a time series needs at least one point")
        if t.size != v.size:
            raise ValueError(f"times ({t.size}) and values ({v.size}) differ in length")
        if not np.all(np.isfinite(t)) or not np.all(np.isfinite(v)):
            raise ValueError("times and values must all be finite")
        if not np.all(t[1:] > t[:-1]):
            raise ValueError("times must be strictly increasing")
        t.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @classmethod
    def from_pairs(cls, pairs: Iterable[Sequence[float]]) -> "TimeSeries":
        pts = list(pairs)
        return cls(
            times=np.array([p[0] for p in pts], dtype=float),
            values=np.array([p[1] for p in pts], dtype=float),
        )

    def __len__(self) -> int:
        return int(self.times.size)

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return zip(self.times.tolist(), self.values.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return np.array_equal(self.times, other.times) and np.array_equal(
            self.values, other.values
        )
