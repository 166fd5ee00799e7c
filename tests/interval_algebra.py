"""Interval algebra that the tests use as an oracle for `model.overlap_pairs`.

The package computes overlap fractions only by sweeping start-sorted lanes;
these pairwise definitions check that sweep.  The empty interval is ``None``,
of length 0.
"""

from __future__ import annotations

from tandem.errors import TandemError
from tandem.model import TimeInterval


class ZeroDurationTask(TandemError):
    """A task interval has zero or negative length where a positive one is required."""


def length(t: TimeInterval | None) -> float:
    """Length of an interval in seconds; the empty interval (None) has length 0."""
    return 0.0 if t is None else t.end - t.start


def interval_intersection(
    a: TimeInterval | None, b: TimeInterval | None
) -> TimeInterval | None:
    """Intersection of two intervals, or None when they do not meet.

    Touching intervals ([0, 5] and [5, 8]) intersect in the zero-length
    interval [5, 5].
    """
    if a is None or b is None:
        return None
    start = max(a.start, b.start)
    end = min(a.end, b.end)
    if end < start:
        return None
    return TimeInterval(start, end)


def overlap_ratio(own: TimeInterval, other: TimeInterval | None) -> float:
    """Fraction of `own` during which `other` is also running.

    Always in [0, 1].  Raises ZeroDurationTask when `own` has zero length,
    which signals a degenerate measured task rather than producing NaN.
    """
    own_len = length(own)
    if own_len <= 0.0:
        raise ZeroDurationTask(f"task interval {own} has zero duration")
    return length(interval_intersection(own, other)) / own_len
