"""The records on core._Record: the same behaviour as the frozen dataclasses
they replace (kept in helpers as oracles), and copies and pickles that hold
the same fields."""

import copy
import itertools
import pickle

import pytest

import tropgeo as tg
from tropgeo import _batch, core, geodesy

import helpers

RECORDS = (
    tg.OrthantCoords,
    tg.TropSegment,
    tg.Shape2DType,
    tg.Ball,
    tg.FacetId,
    tg.LocateResult,
    tg.TilingReport,
)


def _samples():
    """Library records from real calls, two or more of each class, with
    some equal pairs among them."""
    return [
        tg.to_orthant_coords((1, 2, 0)),
        tg.to_orthant_coords((0.5, -1.5, 2.0, 0.0)),
        tg.to_orthant_coords((3, 4, 2)),
        tg.segment((0, 0), (2, 1)),
        tg.segment((0, 0), (2, 1), mode="max"),
        tg.segment((0.25, -3.0, 1e-300), (7.5, 2.0, -0.0)),
        tg.classify2d(tg.hull([(0, 0), (1, 2), (2, 0)])),
        tg.classify2d(tg.hull([(0, 0), (1, 1)])),
        tg.classify2d(tg.hrep(tg.unit_ball(2))),
        tg.Ball((0, 0)),
        tg.Ball((0.0, 0.0), 1),
        tg.Ball((0.5, -1.0, 2.0), 0.25),
        tg.FacetId("upper", 1),
        tg.FacetId("diff", 2, 1),
        tg.FacetId("lower", 3, None),
        tg.locate((1.2, 0.7)),
        tg.locate((1.0, 0.0)),
        tg.locate((0.0, 0.0, 0.0)),
        tg.locate((2.0, 1.0)),
        tg.verify_tiling(2, samples=200, seed=1),
        tg.verify_tiling(3, samples=200, seed=1, eps=0.05),
    ]


def _fields(rec):
    return {name: getattr(rec, name) for name in type(rec).__slots__}


def _oracle(rec):
    """The dataclass oracle of rec, built by keyword from its fields."""
    return getattr(helpers, type(rec).__name__)(**_fields(rec))


def test_the_samples_cover_every_record_class():
    assert {type(r) for r in _samples()} == set(RECORDS)
    assert all(issubclass(cls, core._Record) for cls in (*RECORDS, tg.GeodesicRegion))


def test_records_print_compare_and_hash_as_the_dataclasses_did():
    new = _samples()
    old = [_oracle(r) for r in new]
    for a, b in zip(new, old):
        assert repr(a) == repr(b)
        assert str(a) == str(b)
        assert hash(a) == hash(b)
        assert a == type(a)(**_fields(a))
        # a record never equals its oracle, nor a tuple of its fields
        assert a != b and b != a
        assert a != tuple(_fields(a).values())
    for (a1, b1), (a2, b2) in itertools.product(zip(new, old), repeat=2):
        assert (a1 == a2) == (b1 == b2)
        assert (a1 != a2) == (b1 != b2)
    # the samples hold equal records of one class, and unequal ones
    equal = [a == b for a, b in itertools.combinations(new, 2)]
    assert any(equal) and not all(equal)


def test_records_of_different_classes_are_never_equal():
    for a, b in itertools.combinations(_samples(), 2):
        if type(a) is not type(b):
            assert a != b and not (a == b)
            assert _oracle(a) != _oracle(b)
    # not even with equal field tuples
    fields = ("polygon", (0, 1), 2, 3.0)
    for mod in (tg, helpers):
        shape, located = mod.Shape2DType(*fields), mod.LocateResult(*fields)
        assert shape != located and not (shape == located)


def test_keywords_and_defaults_are_the_dataclasses():
    assert tg.Ball(center=(1, 2)) == tg.Ball((1, 2), 1.0)
    assert repr(tg.Ball(center=(1, 2))) == repr(helpers.Ball(center=(1, 2)))
    assert tg.Ball((1,)).radius == helpers.Ball((1,)).radius == 1.0
    assert tg.FacetId("lower", 2).j is helpers.FacetId("lower", 2).j is None
    assert repr(tg.FacetId(kind="diff", i=1, j=3)) == repr(helpers.FacetId(kind="diff", i=1, j=3))
    report = dict(n=2, samples=5, box_halfwidth=1.0, seed=0, interior=5, boundary=0, mismatches=0)
    assert repr(tg.TilingReport(**report)) == repr(helpers.TilingReport(**report))
    seg = tg.segment((0, 0), (2, 1))
    assert seg.length() == _oracle(seg).length() == tg.dist((0, 0), (2, 1))
    for cls in RECORDS:
        with pytest.raises(TypeError):
            cls(no_such_field=1)


@pytest.mark.parametrize(
    "cls, args",
    [
        ("Ball", ((0, 0), 0)),
        ("Ball", ((0, 0), -1.0)),
        ("Ball", ((0, 0), float("nan"))),
        ("Ball", ((0, 0), float("inf"))),
        ("Ball", ((0, 0), "a")),
        ("Ball", ((0, 0), None)),
        ("Ball", ((), 1.0)),
        ("Ball", ((0, float("inf")), 1.0)),
        ("Ball", (("a",), 1.0)),
        ("FacetId", ("side", 1)),
        ("FacetId", ("upper", 0)),
        ("FacetId", ("upper", 1, 2)),
        ("FacetId", ("diff", 1)),
        ("FacetId", ("diff", 1, 1)),
        ("FacetId", ("diff", 1, 0)),
        ("FacetId", ("lower", "a")),
    ],
)
def test_validation_errors_are_the_dataclasses(cls, args):
    with pytest.raises(Exception) as new:
        getattr(tg, cls)(*args)
    with pytest.raises(Exception) as old:
        getattr(helpers, cls)(*args)
    assert type(new.value) is type(old.value)
    assert str(new.value) == str(old.value)


def test_fields_cannot_be_set_or_deleted():
    for rec in _samples():
        name = type(rec).__slots__[0]
        for target in (rec, _oracle(rec)):
            with pytest.raises(AttributeError) as set_exc:
                setattr(target, name, 0)
            with pytest.raises(AttributeError) as del_exc:
                delattr(target, name)
            assert (str(set_exc.value), str(del_exc.value)) == (
                "cannot assign to field %r" % name,
                "cannot delete field %r" % name,
            )
        with pytest.raises(AttributeError):
            rec.extra = 1
        assert not hasattr(rec, "__dict__")


def test_a_region_prints_as_before():
    assert repr(tg.hull([(0, 0), (1, 2)])) == (
        "GeodesicRegion(lower=(0.0, 0.0), upper=(1.0, 2.0), diff_lb=((0.0, -1.0), (0.0, 0.0)))"
    )
    assert repr(tg.hrep(tg.Ball((0.5, -1.0, 2.0), 0.25))) == (
        "GeodesicRegion(lower=(0.25, -1.25, 1.75), upper=(0.75, -0.75, 2.25), "
        "diff_lb=((0.0, 1.25, -1.75), (-1.75, 0.0, -3.25), (1.25, 2.75, 0.0)))"
    )
    region = tg.hull([(0, 0), (1, 2)])
    with pytest.raises(AttributeError):
        region.lower = (1.0, 1.0)
    with pytest.raises(AttributeError):
        del region.upper


def _copies(obj):
    yield copy.copy(obj)
    yield copy.deepcopy(obj)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield pickle.loads(pickle.dumps(obj, protocol))


def _bits(region):
    return [v.hex() for v in (*region.lower, *region.upper, *itertools.chain(*region.diff_lb))]


def test_records_copy_and_pickle():
    for rec in _samples():
        for dup in _copies(rec):
            assert type(dup) is type(rec)
            assert dup == rec and hash(dup) == hash(rec)
            assert repr(dup) == repr(rec)


def test_a_region_copies_and_pickles_without_a_second_closure(monkeypatch):
    # bounds that rounding leaves a few ulps off the exact closure, and a
    # -0.0 folded to 0.0: a copy must hold these very bits
    regions = [
        tg.hull([(0.1, 0.7, -0.3), (0.2, -0.5, 0.9), (1e-9, 3.3, 2.2)]),
        tg.hrep(tg.Ball((0.5, -1.0, 2.0), 0.25)),
        tg.GeodesicRegion((-0.0,), (1.0,)),
    ]
    # a copy that closes again fails, in either layout
    monkeypatch.setattr(_batch, "_closed_rows", None)
    monkeypatch.setattr(geodesy, "_closed_rows", None)
    for region in regions:
        for dup in _copies(region):
            assert type(dup) is tg.GeodesicRegion
            assert dup == region and hash(dup) == hash(region)
            assert repr(dup) == repr(region)
            assert _bits(dup) == _bits(region)
            assert dup.contains(region.lower)
