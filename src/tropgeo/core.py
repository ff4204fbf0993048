"""Min-plus (tropical) metric primitives on R^n and its projective torus.

Points live in R^n with finite coordinates.  The projective representation
uses n+1 coordinates modulo adding a common constant to every entry; the
canonical representative subtracts the last coordinate and drops it.  All
approximate comparisons share a single default tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

DEFAULT_EPS = 1e-9

Point = tuple[float, ...]


class TropgeoError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(TropgeoError):
    """Operands have incompatible dimensions."""


class DomainError(TropgeoError):
    """Input violates an operation's domain (non-finite, off-sphere, ...)."""


class ParseError(TropgeoError):
    """Malformed textual input."""


class EmptyRegionError(TropgeoError):
    """A half-space system has no feasible point."""


class ConvergenceError(TropgeoError):
    """Curve-length refinement did not stabilize within the depth limit.

    ``bracket`` holds the last two (lower, upper) length estimates, or the
    only estimate twice when a single level was computed.
    """

    def __init__(self, message: str, bracket: tuple[float, float]):
        super().__init__(message)
        self.bracket = bracket


def as_point(coords) -> Point:
    """Validate a coordinate sequence and return it as a float tuple.

    A coordinate that float() rejects, such as "a", None or 10**400, raises
    DomainError.
    """
    try:
        pt = tuple(float(v) for v in coords)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError("a point must be a sequence of real numbers: %s" % exc) from None
    if not pt:
        raise DomainError("a point needs at least one coordinate")
    for v in pt:
        if not math.isfinite(v):
            raise DomainError("coordinates must be finite, got %r" % (pt,))
    return pt


def check_eps(eps: float) -> None:
    """Raise DomainError unless the tolerance eps is positive and finite."""
    if not (math.isfinite(eps) and eps > 0):
        raise DomainError("eps must be a positive real")


def _pair(x, y) -> tuple[Point, Point]:
    px, py = as_point(x), as_point(y)
    if len(px) != len(py):
        raise DimensionMismatch(
            "points have different dimensions: %d vs %d" % (len(px), len(py))
        )
    return px, py


def _finite(value: float) -> float:
    """value, or DomainError when finite input has overflowed float64."""
    if not math.isfinite(value):
        raise DomainError("the distance overflows float64")
    return value


def dist(x, y) -> float:
    """Min-plus distance between two points of R^n.

    Equals the longest coordinate rise minus the deepest coordinate drop of
    x - y, with zero always included among the candidates.  Raises
    DomainError when that overflows float64, as for (1e308,) and (-1e308,).
    """
    px, py = _pair(x, y)
    deltas = [a - b for a, b in zip(px, py)]
    return _finite(max(max(deltas), 0.0) - min(min(deltas), 0.0))


def dist_proj(x, y) -> float:
    """Distance between projective classes given by n+1 homogeneous entries."""
    px, py = _pair(x, y)
    if len(px) < 2:
        raise DomainError("projective input needs at least two entries")
    deltas = [a - b for a, b in zip(px, py)]
    return _finite(max(deltas) - min(deltas))


def norm(x) -> float:
    """Distance from x to the origin; DomainError when it overflows float64."""
    px = as_point(x)
    return _finite(max(max(px), 0.0) - min(min(px), 0.0))


def norm_proj(x) -> float:
    """Norm of a projective class: spread of its homogeneous entries."""
    px = as_point(x)
    if len(px) < 2:
        raise DomainError("projective input needs at least two entries")
    return _finite(max(px) - min(px))


def lp_distances(x, y) -> tuple[float, float]:
    """(l1, linf) distances, handy for sandwich bounds around dist.  Raises
    DomainError when either overflows float64, as dist does."""
    px, py = _pair(x, y)
    deltas = [abs(a - b) for a, b in zip(px, py)]
    return _finite(sum(deltas)), _finite(max(deltas))


def canon(h) -> Point:
    """Canonical R^n representative of a projective class (last entry to 0)."""
    ph = as_point(h)
    if len(ph) < 2:
        raise DomainError("projective input needs at least two entries")
    last = ph[-1]
    return tuple(v - last for v in ph[:-1])


def embed(x) -> Point:
    """Homogeneous n+1 representative of a point of R^n (append a 0)."""
    return as_point(x) + (0.0,)


@dataclass(frozen=True)
class OrthantCoords:
    """Nonnegative coordinates of a projective class relative to one orthant.

    ``omitted_index`` is the 1-based position of a minimal homogeneous entry;
    the remaining entries, shifted so the minimum sits at zero, are ``values``.
    """

    omitted_index: int
    values: tuple[float, ...]


def to_orthant_coords(h) -> OrthantCoords:
    """Orthant chart of a projective class; ties pick the first minimal entry."""
    ph = as_point(h)
    if len(ph) < 2:
        raise DomainError("projective input needs at least two entries")
    m = min(ph)
    k = ph.index(m)
    values = tuple(v - m for i, v in enumerate(ph) if i != k)
    return OrthantCoords(omitted_index=k + 1, values=values)


def orthant_to_projective(oc: OrthantCoords) -> Point:
    """Homogeneous representative reconstructed from an orthant chart."""
    k = oc.omitted_index - 1
    values = [float(v) for v in oc.values]
    if k < 0 or k > len(values):
        raise DomainError("omitted index out of range")
    return as_point(values[:k] + [0.0] + values[k:])


@dataclass(frozen=True)
class TropSegment:
    """Shortest piecewise linear chain between two points.

    The chain runs from ``start`` through the ``apex`` (coordinatewise min or
    max of the endpoints, by ``mode``) to ``end``; ``vertices`` lists its
    breakpoints in travel order, at most 2n+1 of them.
    """

    start: Point
    end: Point
    apex: Point
    vertices: tuple[Point, ...]
    mode: str

    def length(self) -> float:
        total = 0.0
        for a, b in zip(self.vertices, self.vertices[1:]):
            total += dist(a, b)
        return total


def segment(x, y, mode: str = "min") -> TropSegment:
    """Canonical min-plus segment between x and y.

    Each branch moves every coordinate toward the apex at unit speed, one
    shared clock, individual coordinates stopping as they arrive.  Vertices
    appear where some coordinate stops.
    """
    px, py = _pair(x, y)
    if mode == "min":
        apex = tuple(min(a, b) for a, b in zip(px, py))

        def pos(base: Point, t: float) -> Point:
            return tuple(min(z + t, b) for z, b in zip(apex, base))

        def times(base: Point) -> list[float]:
            return sorted({b - z for z, b in zip(apex, base)} | {0.0})

    elif mode == "max":
        apex = tuple(max(a, b) for a, b in zip(px, py))

        def pos(base: Point, t: float) -> Point:
            return tuple(max(z - t, b) for z, b in zip(apex, base))

        def times(base: Point) -> list[float]:
            return sorted({z - b for z, b in zip(apex, base)} | {0.0})

    else:
        raise DomainError("mode must be 'min' or 'max', got %r" % (mode,))

    chain: list[Point] = []
    for t in reversed(times(px)):
        chain.append(pos(px, t))
    for t in times(py):
        chain.append(pos(py, t))
    # unit-speed arithmetic can land an ulp short of an endpoint when
    # coordinate magnitudes differ wildly; the chain must start and end
    # at the inputs themselves
    chain[0] = px
    chain[-1] = py
    deduped = [chain[0]]
    for p in chain[1:]:
        if p != deduped[-1]:
            deduped.append(p)
    return TropSegment(
        start=px, end=py, apex=apex, vertices=tuple(deduped), mode=mode
    )


def parse_point(text: str) -> Point:
    """Parse a comma-separated point such as ``1.5,-2,0``."""
    return _parse_coords(text, ",")


def parse_projective(text: str) -> Point:
    """Parse colon-separated homogeneous entries such as ``1:2:0``."""
    pt = _parse_coords(text, ":")
    if len(pt) < 2:
        raise ParseError("projective input needs at least two entries: %r" % text)
    return pt


def _parse_coords(text: str, sep: str) -> Point:
    parts = [p.strip() for p in text.strip().split(sep)]
    if not parts or any(p == "" for p in parts):
        raise ParseError("malformed point text: %r" % text)
    vals = []
    for p in parts:
        try:
            vals.append(float(p))
        except ValueError:
            raise ParseError("bad coordinate %r in %r" % (p, text)) from None
    try:
        return as_point(vals)
    except DomainError as exc:
        raise ParseError(str(exc)) from None


def format_number(v: float) -> str:
    """Shortest faithful decimal; integral values print without a dot, and
    an int, such as a lattice coordinate, prints every digit."""
    if isinstance(v, int):
        return str(v)
    f = float(v)
    if f.is_integer() and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def format_point(p) -> str:
    p = tuple(p)
    as_point(p)  # a point is nonempty and finite, whatever its entry type
    return ",".join(format_number(v) for v in p)
