"""Piecewise cubic Hermite interpolation with shape-preserving slopes.

Each segment i stores power-form coefficients (a, b, c, d) of

    f_i(s) = a + b*s + c*s^2 + d*s^3,   s = t - t0,

derived from the Hermite basis on [t0, t1] with end values and end slopes.
Knot slopes come from a monotone rule: the weighted harmonic mean of the
two adjacent secant slopes, zeroed when the secants disagree in sign, with
one-sided three-point estimates at the ends.  The resulting interpolant is
C1 and never overshoots the data on monotone stretches.

Fits on shared knots, such as a trip's lat, lon and speed, can be evaluated
together by ``JointHermite`` with one segment lookup per time.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class SplineSegment:
    """One cubic piece in the local coordinate s = t - t0."""

    a: float
    b: float
    c: float
    d: float
    t0: float
    t1: float

    def __post_init__(self) -> None:
        if not self.t1 > self.t0:
            raise ValueError(f"segment needs t1 > t0, got [{self.t0}, {self.t1}]")

    def value(self, t: float) -> float:
        s = t - self.t0
        return ((self.d * s + self.c) * s + self.b) * s + self.a


def _sign(x: float) -> int:
    return (x > 0.0) - (x < 0.0)


def _edge_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    # one-sided three-point estimate, clipped so the boundary piece keeps shape
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if _sign(d) != _sign(m0):
        return 0.0
    if _sign(m0) != _sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def shape_preserving_slopes(knots: Sequence[float], values: Sequence[float]) -> list[float]:
    """Knot slopes for a monotone C1 cubic through (knots, values).

    Interior knots use the weighted harmonic mean of the neighboring secant
    slopes (weights 2h_i + h_{i-1} and h_i + 2h_{i-1}); a zero or
    sign-changing secant pair forces a zero slope, which pins local extrema.
    With exactly two knots the interpolant degenerates to the straight line.
    """
    n = len(knots)
    if n < 2:
        raise ValueError("need at least 2 knots")
    h = [knots[i + 1] - knots[i] for i in range(n - 1)]
    m = [(values[i + 1] - values[i]) / h[i] for i in range(n - 1)]
    if n == 2:
        return [m[0], m[0]]

    slopes = [0.0] * n
    for i in range(1, n - 1):
        ml, mr = m[i - 1], m[i]
        if ml == 0.0 or mr == 0.0 or (ml > 0.0) != (mr > 0.0):
            slopes[i] = 0.0
        else:
            w1 = 2.0 * h[i] + h[i - 1]
            w2 = h[i] + 2.0 * h[i - 1]
            slopes[i] = (w1 + w2) / (w1 / ml + w2 / mr)
    slopes[0] = _edge_slope(h[0], h[1], m[0], m[1])
    slopes[-1] = _edge_slope(h[-1], h[-2], m[-1], m[-2])
    return slopes


def _domain_error(t: float, knots: Sequence[float], channel: str) -> ValueError:
    return ValueError(
        f"t={t} outside domain [{knots[0]}, {knots[-1]}] "
        f"(channel {channel!r}); extrapolation is not supported"
    )


def _power_coefficients(
    p0: float, p1: float, m0: float, m1: float, h: float
) -> tuple[float, float, float, float]:
    # from the Hermite basis on [0, h]: a = p0, b = m0,
    # c = (3*delta - 2*m0 - m1)/h, d = (m0 + m1 - 2*delta)/h^2
    delta = (p1 - p0) / h
    c = (3.0 * delta - 2.0 * m0 - m1) / h
    d = (m0 + m1 - 2.0 * delta) / (h * h)
    return p0, m0, c, d


@dataclass(frozen=True)
class HermiteSpline:
    """C1 piecewise cubic through the given knots.

    ``eval`` reproduces knot values exactly and refuses to extrapolate.
    """

    knots: tuple[float, ...]
    values: tuple[float, ...]
    slopes: tuple[float, ...]
    segments: tuple[SplineSegment, ...]
    channel: str = ""

    @property
    def t_min(self) -> float:
        return self.knots[0]

    @property
    def t_max(self) -> float:
        return self.knots[-1]

    def _segment_index(self, t: float) -> int:
        if t < self.knots[0] or t > self.knots[-1]:
            raise _domain_error(t, self.knots, self.channel)
        i = bisect_right(self.knots, t) - 1
        return min(i, len(self.segments) - 1)

    def eval(self, t: float) -> float:
        i = self._segment_index(t)
        if t == self.knots[i]:
            return self.values[i]
        if t == self.knots[i + 1]:
            return self.values[i + 1]
        return self.segments[i].value(t)

    def sample(self, ts: np.ndarray) -> np.ndarray:
        """Vectorized evaluation; same domain rule as ``eval``."""
        import numpy as np  # only here, so importing the package does not load numpy

        ts = np.asarray(ts, dtype=float)
        if ts.size and (ts.min() < self.knots[0] or ts.max() > self.knots[-1]):
            raise ValueError("sample times outside spline domain")
        kn = np.asarray(self.knots)
        idx = np.clip(np.searchsorted(kn, ts, side="right") - 1, 0, len(self.segments) - 1)
        a = np.asarray([seg.a for seg in self.segments])[idx]
        b = np.asarray([seg.b for seg in self.segments])[idx]
        c = np.asarray([seg.c for seg in self.segments])[idx]
        d = np.asarray([seg.d for seg in self.segments])[idx]
        s = ts - kn[idx]
        return ((d * s + c) * s + b) * s + a


class JointHermite:
    """Three fits on the same knots, evaluated with one segment lookup.

    ``eval(t)`` returns what each fit's ``HermiteSpline.eval`` returns, bit
    for bit: the same domain error (naming the first fit's channel), the
    same knot-value short-cuts, segment clamp and Horner form.  The
    arithmetic stays scalar so that no value moves by an ulp.
    """

    def __init__(self, first: HermiteSpline, second: HermiteSpline, third: HermiteSpline) -> None:
        if not first.knots == second.knots == third.knots:
            raise ValueError("joint evaluation needs fits on the same knots")
        self._knots = first.knots
        self._channel = first.channel
        self._last = len(first.segments) - 1
        self._knot_values = tuple(zip(first.values, second.values, third.values))
        # per segment: t0, then (a, b, c, d) of each fit
        self._coefficients = tuple(
            (p.t0, p.a, p.b, p.c, p.d, q.a, q.b, q.c, q.d, r.a, r.b, r.c, r.d)
            for p, q, r in zip(first.segments, second.segments, third.segments)
        )

    def eval(self, t: float) -> tuple[float, float, float]:
        knots = self._knots
        if t < knots[0] or t > knots[-1]:
            raise _domain_error(t, knots, self._channel)
        i = min(bisect_right(knots, t) - 1, self._last)
        if t == knots[i]:
            return self._knot_values[i]
        if t == knots[i + 1]:
            return self._knot_values[i + 1]
        t0, a1, b1, c1, d1, a2, b2, c2, d2, a3, b3, c3, d3 = self._coefficients[i]
        s = t - t0
        return (
            ((d1 * s + c1) * s + b1) * s + a1,
            ((d2 * s + c2) * s + b2) * s + a2,
            ((d3 * s + c3) * s + b3) * s + a3,
        )


def fit_hermite(
    knots: Sequence[float],
    values: Sequence[float],
    slopes: Sequence[float] | None = None,
    channel: str = "",
) -> HermiteSpline:
    """Fit the shape-preserving cubic through (knots, values).

    Args:
        knots: strictly increasing sample times, at least 2.
        values: one value per knot.
        slopes: optional explicit knot slopes; by default the monotone rule
            of :func:`shape_preserving_slopes` is used.
        channel: label named in domain errors (e.g. "lat").

    Raises:
        ValueError: fewer than 2 knots, length mismatch, non-increasing
            knots, or non-finite input.
    """
    if len(knots) != len(values):
        raise ValueError(f"{len(knots)} knots vs {len(values)} values")
    if len(knots) < 2:
        raise ValueError("need at least 2 knots")
    ks = [float(k) for k in knots]
    vs = [float(v) for v in values]
    for k, v in zip(ks, vs):
        if not (math.isfinite(k) and math.isfinite(v)):
            raise ValueError("knots and values must be finite")
    for a, b in zip(ks, ks[1:]):
        if b <= a:
            raise ValueError(f"knots must be strictly increasing ({a} then {b})")

    if slopes is None:
        ms = shape_preserving_slopes(ks, vs)
    else:
        if len(slopes) != len(ks):
            raise ValueError(f"{len(slopes)} slopes vs {len(ks)} knots")
        ms = [float(m) for m in slopes]

    segments = []
    for i in range(len(ks) - 1):
        h = ks[i + 1] - ks[i]
        a, b, c, d = _power_coefficients(vs[i], vs[i + 1], ms[i], ms[i + 1], h)
        segments.append(SplineSegment(a=a, b=b, c=c, d=d, t0=ks[i], t1=ks[i + 1]))
    return HermiteSpline(
        knots=tuple(ks),
        values=tuple(vs),
        slopes=tuple(ms),
        segments=tuple(segments),
        channel=channel,
    )
