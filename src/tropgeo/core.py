"""Min-plus (tropical) metric primitives on R^n and its projective torus.

Points live in R^n with finite coordinates.  The projective representation
uses n+1 coordinates modulo adding a common constant to every entry; the
canonical representative subtracts the last coordinate and drops it.  All
approximate comparisons share a single default tolerance.

Input is validated once.  Each public function checks its arguments with
``as_point`` (or ``_pair`` for two points of one dimension) and raises a
TropgeoError on bad input; the private kernels it then calls, such as
``_dist`` and ``_norm``, take those checked float tuples and check nothing
again.  Code inside the package that already holds checked tuples calls the
kernels directly.

Every result record of the package (``OrthantCoords``, ``TropSegment``,
``GeodesicRegion``, ``Ball``, ``LocateResult``, ...) subclasses ``_Record``,
the one place that decides how a record is frozen, compared, hashed,
printed, copied and pickled.  A record declares its fields once, in
``__slots__``: ``_Record`` builds a plain record's constructor from them, and
only a record that checks, defaults or closes its inputs writes its own
``__init__``, setting each field once through ``_setfield``.
"""

from __future__ import annotations

import itertools
import math
import operator

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
    DomainError, and so does an infinite or NaN one.

    Finiteness is read from one sum s: s - s is 0.0 only when s is finite,
    and s is inf or NaN whenever a coordinate is, since an inf or a NaN
    survives every addition.  A sum that overflows from finite coordinates
    fails the test too, so the per-coordinate check decides; it accepts and
    rejects the same points, with the same message, as it does alone.
    """
    try:
        pt = tuple(map(float, coords))
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError("a point must be a sequence of real numbers: %s" % exc) from None
    if not pt:
        raise DomainError("a point needs at least one coordinate")
    s = sum(pt)
    if s - s != 0.0 and not all(map(math.isfinite, pt)):
        raise DomainError("coordinates must be finite, got %r" % (pt,))
    return pt


def check_eps(eps: float) -> None:
    """Raise DomainError unless the tolerance eps is a real in (0, 1/4), well
    below the unit radius, as the honeycomb's boundary rule assumes."""
    try:
        ok = 0 < eps < 0.25
    except (TypeError, ValueError):  # not a number, or not one number
        ok = False
    if not ok:
        raise DomainError("eps must be a positive real below 1/4, got %r" % (eps,))


def _as_int(name: str, value) -> int:
    """value as an int, or DomainError naming it when it is not an integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError("%s must be an integer, got %r" % (name, value)) from None


def _as_dim(n) -> int:
    """n as an int of at least 1, or DomainError: the check of every function
    that takes a dimension."""
    n = _as_int("dimension", n)
    if n < 1:
        raise DomainError("dimension must be at least 1")
    return n


def _capped_dim(n, cap: int, what: str) -> int:
    """_as_dim(n), or DomainError "<what> up to dimension <cap>" above cap."""
    n = _as_dim(n)
    if n > cap:
        raise DomainError("%s up to dimension %d, got %d" % (what, cap, n))
    return n


def _as_real(value) -> float:
    """float(value), or nan when value is no real number, so that a finite
    range check rejects it with that check's own message."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        return math.nan


def _as_radius(value) -> float:
    """A ball's radius: a positive finite real, else DomainError."""
    radius = _as_real(value)
    if not (math.isfinite(radius) and radius > 0):
        raise DomainError("radius must be a positive real")
    return radius


def _same_dim(px: Point, py: Point) -> None:
    if len(px) != len(py):
        raise DimensionMismatch(
            "points have different dimensions: %d vs %d" % (len(px), len(py))
        )


def _pair(x, y) -> tuple[Point, Point]:
    px, py = as_point(x), as_point(y)
    _same_dim(px, py)
    return px, py


def _finite(value: float) -> float:
    """value, or DomainError when finite input has overflowed float64."""
    if not math.isfinite(value):
        raise DomainError("the distance overflows float64")
    return value


def _finite_point(pt: Point, what: str = "the point") -> Point:
    """pt, or DomainError naming ``what`` when finite input has overflowed
    one of its coordinates; read from one sum, as in as_point."""
    s = sum(pt)
    if s - s != 0.0 and not all(map(math.isfinite, pt)):
        raise DomainError("%s overflows float64" % what)
    return pt


def _proj(h) -> Point:
    """h read as a projective class: a checked point of at least two entries."""
    ph = as_point(h)
    if len(ph) < 2:
        raise DomainError("projective input needs at least two entries")
    return ph


def dist(x, y) -> float:
    """Min-plus distance between two points of R^n.

    Equals the longest coordinate rise minus the deepest coordinate drop of
    x - y, with zero always included among the candidates.  Raises
    DomainError when that overflows float64, as for (1e308,) and (-1e308,).
    """
    return _dist(*_pair(x, y))


def _dist(px, py) -> float:
    """dist of two checked points of one dimension; their entries may also
    be ints, such as lattice offsets, which subtract exactly as floats."""
    deltas = list(map(operator.sub, px, py))
    return _finite(max(max(deltas), 0.0) - min(min(deltas), 0.0))


def _length(points) -> float:
    """Min-plus length of the polyline through the checked points, in order:
    the sum of ``_dist`` over consecutive points, taken as they arrive, so
    an iterator of points is never held as a list.  Raises DomainError for
    no point, or when a piece or the sum overflows float64, and
    DimensionMismatch when two consecutive points differ in length."""
    points = iter(points)
    a = next(points, None)
    if a is None:
        raise DomainError("polyline needs at least one vertex")
    total = 0.0
    for b in points:
        _same_dim(a, b)
        total += _dist(a, b)
        a = b
    return _finite(total)


def dist_proj(x, y) -> float:
    """Distance between projective classes given by n+1 homogeneous entries."""
    px, py = _pair(x, y)
    _proj(px)
    deltas = [a - b for a, b in zip(px, py)]
    return _finite(max(deltas) - min(deltas))


def norm(x) -> float:
    """Distance from x to the origin; DomainError when it overflows float64."""
    return _norm(as_point(x))


def _norm(px: Point) -> float:
    """norm of a checked point."""
    return _finite(max(max(px), 0.0) - min(min(px), 0.0))


def norm_proj(x) -> float:
    """Norm of a projective class: spread of its homogeneous entries."""
    px = _proj(x)
    return _finite(max(px) - min(px))


def lp_distances(x, y) -> tuple[float, float]:
    """(l1, linf) distances, handy for sandwich bounds around dist.  Raises
    DomainError when either overflows float64, as dist does."""
    px, py = _pair(x, y)
    deltas = [abs(a - b) for a, b in zip(px, py)]
    return _finite(sum(deltas)), _finite(max(deltas))


def canon(h) -> Point:
    """Canonical R^n representative of a projective class (last entry to 0);
    DomainError when a coordinate overflows float64."""
    ph = _proj(h)
    last = ph[-1]
    return _finite_point(tuple(v - last for v in ph[:-1]))


def embed(x) -> Point:
    """Homogeneous n+1 representative of a point of R^n (append a 0)."""
    return as_point(x) + (0.0,)


# object.__setattr__, which passes _Record's frozen __setattr__: how a
# record's __init__ sets each field, once.  It is one global lookup where
# object.__setattr__ takes two, and builds a LocateResult or a TropSegment
# in about 15% less time.
_setfield = object.__setattr__


def _rebuild(cls, values):
    """A ``cls`` record holding the field tuple ``values``, built without
    ``__init__``: how copy and pickle restore a record."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        _setfield(obj, name, value)
    return obj


class _Record:
    """Base of the immutable records: the fields are the subclass's
    ``__slots__``, in order, declared there once.  A subclass whose body
    defines no ``__init__`` gets one that takes every field, positionally
    or by name, with no defaults.

    Assigning or deleting an attribute raises AttributeError.  Two records
    are equal when they are of the same class and their field tuples are
    equal; the hash is the field tuple's, and the repr is
    ``Name(field=value, ...)``.  A copy or an unpickled record holds the
    same field values, restored by ``_rebuild``, so a region is not closed a
    second time.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        # built from source, as dataclasses builds its __init__, so that a
        # record runs one straight-line _setfield call per field
        super().__init_subclass__(**kwargs)
        if "__init__" in cls.__dict__:
            return
        names = cls.__slots__
        src = "def __init__(self, %s):\n" % ", ".join(names)
        src += "".join("    _setfield(self, %r, %s)\n" % (f, f) for f in names) or "    pass\n"
        namespace = {"_setfield": _setfield}
        exec(src, namespace)
        init = cls.__init__ = namespace["__init__"]
        init.__qualname__ = cls.__qualname__ + ".__init__"
        init.__module__ = cls.__module__

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (
            type(self).__qualname__,
            ", ".join("%s=%r" % (name, getattr(self, name)) for name in self.__slots__),
        )

    def __reduce__(self):
        return _rebuild, (type(self), self._values())


class OrthantCoords(_Record):
    """Nonnegative coordinates of a projective class relative to one orthant.

    ``omitted_index`` is the 1-based position of a minimal homogeneous entry;
    the remaining entries, shifted so the minimum sits at zero, are ``values``.
    """

    __slots__ = ("omitted_index", "values")


def to_orthant_coords(h) -> OrthantCoords:
    """Orthant chart of a projective class; ties pick the first minimal entry.
    DomainError when a value overflows float64."""
    ph = _proj(h)
    m = min(ph)
    k = ph.index(m)
    values = _finite_point(tuple(v - m for i, v in enumerate(ph) if i != k))
    return OrthantCoords(omitted_index=k + 1, values=values)


def orthant_to_projective(oc: OrthantCoords) -> Point:
    """Homogeneous representative reconstructed from an orthant chart.

    The omitted entry's 0 and the values are read as a point is, so a value
    that is no finite real raises DomainError, and so does a chart with no
    values, which would give a one-entry class."""
    k = _as_int("omitted index", oc.omitted_index)
    ph = _proj(itertools.chain((0.0,), oc.values))
    if not 1 <= k <= len(ph):
        raise DomainError("omitted index out of range")
    return ph[1:k] + ph[:1] + ph[k:]


class TropSegment(_Record):
    """Shortest piecewise linear chain between two points.

    The chain runs from ``start`` through the ``apex`` (coordinatewise min or
    max of the endpoints, by ``mode``) to ``end``; ``vertices`` lists its
    breakpoints in travel order, at most 2n+1 of them.
    """

    __slots__ = ("start", "end", "apex", "vertices", "mode")

    def length(self) -> float:
        """Min-plus length of the chain, ``_length`` of its vertices, which
        equals dist(start, end) up to rounding; DomainError when it
        overflows float64."""
        return _length(self.vertices)


def segment(x, y, mode: str = "min") -> TropSegment:
    """Canonical min-plus segment between x and y.

    Each branch moves every coordinate toward the apex at unit speed, one
    shared clock, individual coordinates stopping as they arrive.  Vertices
    appear where some coordinate stops.
    """
    px, py = _pair(x, y)
    sub = operator.sub
    # the apex and every vertex are written out with the builtin's
    # tie-breaking (min(a, b) is a unless b < a, max(a, b) a unless b > a),
    # so that each coordinate is bit for bit what min or max returns.  A
    # branch stops at the times its coordinates reach the apex; at time t a
    # coordinate sits at min(apex + t, base) (min mode) or max(apex - t,
    # base) (max mode).  The last stop of each branch is its endpoint, which
    # is pinned below instead.  The second branch starts after its zero
    # stop: there every coordinate is z + t0 (z - t0), numerically the first
    # branch's last vertex, or px when the first branch is empty, so the
    # dedupe would drop it.  One flat comprehension runs over (branch, stop,
    # coordinate), so each coordinate costs one comprehension step, and
    # zip(*[iter(flat)] * n) cuts the flat list into the n-tuples of the
    # inner vertices, in travel order.
    if mode == "min":
        apex = tuple([b if b < a else a for a, b in zip(px, py)])
        tx = sorted({*map(sub, px, apex), 0.0})
        ty = sorted({*map(sub, py, apex), 0.0})
        flat = [
            b if b < (s := z + t) else s
            for base, ts in ((px, tx[-2::-1]), (py, ty[1:-1]))
            for t in ts
            for z, b in zip(apex, base)
        ]
    elif mode == "max":
        apex = tuple([b if b > a else a for a, b in zip(px, py)])
        tx = sorted({*map(sub, apex, px), 0.0})
        ty = sorted({*map(sub, apex, py), 0.0})
        flat = [
            b if b > (s := z - t) else s
            for base, ts in ((px, tx[-2::-1]), (py, ty[1:-1]))
            for t in ts
            for z, b in zip(apex, base)
        ]
    else:
        raise DomainError("mode must be 'min' or 'max', got %r" % (mode,))

    # unit-speed arithmetic can land an ulp short of an endpoint when
    # coordinate magnitudes differ wildly; the chain must start and end
    # at the inputs themselves
    deduped = [px]
    last = px
    for p in zip(*[iter(flat)] * len(px)):
        if p != last:
            deduped.append(p)
            last = p
    if py != last:
        deduped.append(py)
    return TropSegment(px, py, apex, tuple(deduped), mode)


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
    """Shortest faithful decimal.  An integral float below 1e15 in magnitude
    prints without a dot; from 1e15 on it keeps repr's ".0" (2**53 prints
    as 9007199254740992.0).  An int, such as a lattice coordinate, prints
    every digit."""
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
