"""The contract every record type of ``helly`` keeps: its fields in a
fixed order, equality and hashing by those fields within one class, the
dataclass-style ``repr``, no assignment or deletion, and views built once
and kept."""

from fractions import Fraction

import pytest

from helly.disks import (
    Arc,
    ArcRegion,
    CommonPoint,
    Disk,
    PairKind,
    PairRelation,
    RegionKind,
    ViolatingTriple,
    disk,
)
from helly.exactq import AffineSolutionSet
from helly.linear import Consistent, Equation, Inconsistent, LinearSystem, SamplingReport
from helly.oracles import GridSpec
from helly.radicals import QuadPoint, QuadVal
from helly.separation import ArcInterior, ClosestPairResult, Corner, SeparatingLine

F = Fraction
P = QuadPoint(1, 2, 3, 4, 5, 6)
V = QuadVal(1, 2, 3, 5)

# (class, field names in order, a function that builds one record, its repr)
RECORDS = [
    (
        AffineSolutionSet,
        ("point", "basis"),
        lambda: AffineSolutionSet((F(1), F(2)), ((F(0), F(1)),)),
        "AffineSolutionSet(point=(Fraction(1, 1), Fraction(2, 1)), basis=((Fraction(0, 1), Fraction(1, 1)),))",
    ),
    (
        Equation,
        ("row", "den"),
        lambda: Equation((F(1, 2), 3), F(-1, 3)),
        "Equation(coeffs=(Fraction(1, 2), Fraction(3, 1)), rhs=Fraction(-1, 3))",
    ),
    (
        LinearSystem,
        ("unknowns", "equations"),
        lambda: LinearSystem(1, (Equation((2,), 3),)),
        "LinearSystem(unknowns=1, equations=(Equation(coeffs=(Fraction(2, 1),), rhs=Fraction(3, 1)),))",
    ),
    (Consistent, ("witness",), lambda: Consistent((0, 1)), "Consistent(witness=(0, 1))"),
    (Inconsistent, ("subsystem",), lambda: Inconsistent((0, 1)), "Inconsistent(subsystem=(0, 1))"),
    (
        SamplingReport,
        ("samples_drawn", "subsystem_size", "inconsistent_samples", "first_hit", "seed", "generator"),
        lambda: SamplingReport(10, 3, 2, (1, 4, 7), 5),
        "SamplingReport(samples_drawn=10, subsystem_size=3, inconsistent_samples=2, "
        "first_hit=(1, 4, 7), seed=5, generator='python-mersenne-twister')",
    ),
    (
        GridSpec,
        ("x0", "y0", "x1", "y1", "resolution"),
        lambda: GridSpec(F(0), F(-1), F(1, 2), F(1), 4),
        "GridSpec(x0=Fraction(0, 1), y0=Fraction(-1, 1), x1=Fraction(1, 2), y1=Fraction(1, 1), resolution=4)",
    ),
    (QuadVal, ("p", "q", "d", "w"), lambda: QuadVal(1, 2, 3, 5), "QuadVal(p=1, q=2, d=3, w=5)"),
    (
        QuadPoint,
        ("xa", "xb", "ya", "yb", "d", "w"),
        lambda: QuadPoint(1, 2, 3, 4, 5, 6),
        "QuadPoint(xa=1, xb=2, ya=3, yb=4, d=5, w=6)",
    ),
    (
        Disk,
        ("X", "Y", "R", "M"),
        lambda: disk(F(1, 2), -1, F(1, 3)),
        "Disk(x=Fraction(1, 2), y=Fraction(-1, 1), r=Fraction(1, 3))",
    ),
    (
        PairRelation,
        ("kind", "corners", "inner"),
        lambda: PairRelation(PairKind.INTERNAL_TANGENCY, (P, P), inner=1),
        "PairRelation(kind=<PairKind.INTERNAL_TANGENCY: 'internal-tangency'>, corners=("
        "QuadPoint(xa=1, xb=2, ya=3, yb=4, d=5, w=6), QuadPoint(xa=1, xb=2, ya=3, yb=4, d=5, w=6)), inner=1)",
    ),
    (
        Arc,
        ("disk", "start", "end"),
        lambda: Arc(2, P, QuadPoint(0, 0, 0, 0, 0, 1)),
        "Arc(disk=2, start=QuadPoint(xa=1, xb=2, ya=3, yb=4, d=5, w=6), "
        "end=QuadPoint(xa=0, xb=0, ya=0, yb=0, d=0, w=1))",
    ),
    (
        ArcRegion,
        ("family", "kind", "point", "full_index", "arcs"),
        lambda: ArcRegion((disk(0, 0, 1),), RegionKind.FULL, full_index=0),
        "ArcRegion(family=(Disk(x=Fraction(0, 1), y=Fraction(0, 1), r=Fraction(1, 1)),), "
        "kind=<RegionKind.FULL: 'full-disk'>, point=None, full_index=0, arcs=())",
    ),
    (CommonPoint, ("point",), lambda: CommonPoint(P), "CommonPoint(point=QuadPoint(xa=1, xb=2, ya=3, yb=4, d=5, w=6))"),
    (ViolatingTriple, ("indices",), lambda: ViolatingTriple((0, 1, 2)), "ViolatingTriple(indices=(0, 1, 2))"),
    (ArcInterior, ("arc",), lambda: ArcInterior(3), "ArcInterior(arc=3)"),
    (Corner, ("corner",), lambda: Corner(3), "Corner(corner=3)"),
    (
        ClosestPairResult,
        ("query", "on_g", "feature", "center_gap_sq", "on_t_exact", "gap_sq_exact"),
        lambda: ClosestPairResult(disk(4, 0, 1), P, Corner(0), V, None, None),
        "ClosestPairResult(query=Disk(x=Fraction(4, 1), y=Fraction(0, 1), r=Fraction(1, 1)), "
        "on_g=QuadPoint(xa=1, xb=2, ya=3, yb=4, d=5, w=6), feature=Corner(corner=0), "
        "center_gap_sq=QuadVal(p=1, q=2, d=3, w=5), on_t_exact=None, gap_sq_exact=None)",
    ),
    (
        SeparatingLine,
        ("point", "normal", "feature", "carriers", "separated", "closest"),
        lambda: SeparatingLine(P, (V, V), ArcInterior(1), (1,), (), None),
        "SeparatingLine(point=QuadPoint(xa=1, xb=2, ya=3, yb=4, d=5, w=6), "
        "normal=(QuadVal(p=1, q=2, d=3, w=5), QuadVal(p=1, q=2, d=3, w=5)), "
        "feature=ArcInterior(arc=1), carriers=(1,), separated=(), closest=None)",
    ),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


def test_every_record_type_is_listed():
    assert len(set(IDS)) == len(RECORDS) == 19


@pytest.mark.parametrize("cls, names, build, text", RECORDS, ids=IDS)
def test_a_new_record_holds_its_fields_in_order(cls, names, build, text):
    r = build()
    assert type(r) is cls
    assert tuple(vars(r)) == names


@pytest.mark.parametrize("cls, names, build, text", RECORDS, ids=IDS)
def test_records_compare_and_hash_by_their_fields(cls, names, build, text):
    r, twin = build(), build()
    values = tuple(getattr(r, n) for n in names)
    assert r == twin and not r != twin and r is not twin
    assert hash(r) == hash(twin) == hash(values)
    assert r.__eq__(values) is NotImplemented
    assert r != values and r != object()


@pytest.mark.parametrize("cls, names, build, text", RECORDS, ids=IDS)
def test_record_repr(cls, names, build, text):
    assert repr(build()) == text


@pytest.mark.parametrize("cls, names, build, text", RECORDS, ids=IDS)
def test_records_refuse_assignment_and_deletion(cls, names, build, text):
    r = build()
    for name in names:
        with pytest.raises(AttributeError):
            setattr(r, name, 0)
        with pytest.raises(AttributeError):
            delattr(r, name)
    with pytest.raises(AttributeError):
        r.extra = 0
    assert r == build()


@pytest.mark.parametrize(
    "a, b",
    [
        (Consistent((0, 1)), Inconsistent((0, 1))),
        (ArcInterior(0), Corner(0)),
        (CommonPoint((0, 1, 2)), ViolatingTriple((0, 1, 2))),
    ],
    ids=["Consistent-Inconsistent", "ArcInterior-Corner", "CommonPoint-ViolatingTriple"],
)
def test_records_of_different_classes_are_unequal(a, b):
    assert a != b and b != a and not a == b
    assert hash(a) == hash(b)  # equal fields, so equal hashes; equality still tells them apart


def test_records_that_differ_in_one_field_are_unequal():
    assert QuadVal(1, 2, 3, 5) != QuadVal(1, 2, 3, 7)
    assert QuadPoint(1, 2, 3, 4, 5, 6) != QuadPoint(1, 2, 3, 4, 0, 6)
    assert disk(0, 0, 1) != disk(0, 0, 2)
    assert Equation((1, 2), 3) != Equation((1, 2), 4)
    assert PairRelation(PairKind.EQUAL) != PairRelation(PairKind.EQUAL, inner=0)
    assert SamplingReport(1, 2, 0, None, 5) != SamplingReport(1, 2, 0, None, 5, "other")


@pytest.mark.parametrize(
    "build, view",
    [
        (lambda: QuadVal(1, 2, 3, 5), "a"),
        (lambda: QuadPoint(1, 2, 3, 4, 5, 6), "x"),
        (lambda: QuadPoint(1, 2, 3, 4, 5, 6), "y"),
        (lambda: disk(F(1, 2), 3, 1), "x"),
        (lambda: disk(F(1, 2), 3, 1), "r"),
        (lambda: Equation((F(1, 2), 3), 1), "coeffs"),
        (lambda: Equation((F(1, 2), 3), 1), "rhs"),
    ],
)
def test_views_are_built_once_and_leave_equality_alone(build, view):
    r = build()
    h = hash(r)
    assert view not in vars(r)
    first = getattr(r, view)
    assert vars(r)[view] is first and getattr(r, view) is first
    assert r == build() and hash(r) == h


def test_records_keep_their_construction_checks():
    # GridSpec's and Disk's are in test_oracles.py and test_disks.py
    with pytest.raises(ValueError, match="positive denominator"):
        QuadPoint(0, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError, match="positive denominator"):
        QuadPoint(0, 0, 0, 0, -1, 1)
    with pytest.raises(ValueError, match="nonnegative"):
        LinearSystem(-1, ())
    with pytest.raises(ValueError, match="one coefficient per unknown"):
        LinearSystem(2, (Equation((1,), 0),))


def test_records_take_defaults_and_keywords():
    assert PairRelation(PairKind.DISJOINT) == PairRelation(kind=PairKind.DISJOINT, corners=None, inner=None)
    region = ArcRegion((), RegionKind.EMPTY)
    assert (region.point, region.full_index, region.arcs) == (None, None, ())
    assert SamplingReport(1, 2, 0, None, 5).generator == "python-mersenne-twister"
    assert Arc(end=P, start=V, disk=1) == Arc(1, V, P)
    for bad in [lambda: ArcInterior(), lambda: ArcInterior(1, 2), lambda: ArcInterior(1, arc=2), lambda: ArcInterior(arcs=1)]:
        with pytest.raises(TypeError):
            bad()
