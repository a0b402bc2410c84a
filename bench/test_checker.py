"""The benchmark's checker accepts right answers and rejects corrupted ones.

Run with ``python -m pytest bench/test_checker.py`` from the repository root.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

import checker
import workloads
from checker import CheckFailed

# x = 0, y = 0, z = 0, x + y + z = 1: every three meet, all four do not.
TETRA = ([[Fraction(v) for v in row] for row in ([1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1])], [Fraction(v) for v in (0, 0, 0, 1)])
# x + y = 3, x - y = 1, 2x = 4: the single solution (2, 1).
POINT = ([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)], [Fraction(2), Fraction(0)]], [Fraction(3), Fraction(1), Fraction(4)])
# x + y + z = 1: a plane.
PLANE = ([[Fraction(1), Fraction(1), Fraction(1)]], [Fraction(1)])


def _pair(x) -> list[int]:
    x = Fraction(x)
    return [x.numerator, x.denominator]


def _witness(point, basis=()) -> dict:
    return {
        "verdict": "consistent",
        "witness": {"point": [_pair(x) for x in point], "nullspace": [[_pair(x) for x in v] for v in basis]},
    }


def test_inconsistent_certificate_accepted_and_corruptions_rejected():
    rows, rhs = TETRA
    good = {"verdict": "inconsistent", "subsystem": [0, 1, 2, 3]}
    checker.check_certify(3, rows, rhs, 1, good, appended=3, first_minimum=True)
    # a consistent subset reported as inconsistent
    with pytest.raises(CheckFailed, match="is consistent"):
        checker.check_certify(3, rows, rhs, 1, {"verdict": "inconsistent", "subsystem": [0, 1, 2]})
    with pytest.raises(CheckFailed, match="exit code"):
        checker.check_certify(3, rows, rhs, 0, good)
    with pytest.raises(CheckFailed, match="has no solution"):
        checker.check_certify(3, rows, rhs, 0, _witness([0, 0, 0]))


def test_certificate_must_be_the_first_minimum():
    # rows 0 and 1 contradict each other; rows 2 and 3 contradict each other
    rows = [[Fraction(1)], [Fraction(1)], [Fraction(2)], [Fraction(2)]]
    rhs = [Fraction(0), Fraction(1), Fraction(0), Fraction(4)]
    checker.check_certify(1, rows, rhs, 1, {"verdict": "inconsistent", "subsystem": [0, 1]}, first_minimum=True)
    with pytest.raises(CheckFailed, match="comes before"):
        checker.check_certify(1, rows, rhs, 1, {"verdict": "inconsistent", "subsystem": [2, 3]}, first_minimum=True)
    with pytest.raises(CheckFailed, match="appended row"):
        checker.check_certify(1, rows, rhs, 1, {"verdict": "inconsistent", "subsystem": [0, 1]}, appended=3)


def test_certificate_must_be_irreducible():
    # x = 0, x = 1, y = 0: the third row is not needed for the contradiction
    rows = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    rhs = [Fraction(0), Fraction(1), Fraction(0)]
    with pytest.raises(CheckFailed, match="stays inconsistent without 2"):
        checker.check_certify(2, rows, rhs, 1, {"verdict": "inconsistent", "subsystem": [0, 1, 2]})


def test_witness_accepted_and_off_by_a_seventh_rejected():
    rows, rhs = POINT
    checker.check_certify(2, rows, rhs, 0, _witness([2, 1]))
    with pytest.raises(CheckFailed, match="witness point fails"):
        checker.check_certify(2, rows, rhs, 0, _witness([2 + Fraction(1, 7), 1]))


def test_nullspace_must_span_the_solution_set():
    rows, rhs = PLANE
    checker.check_certify(3, rows, rhs, 0, _witness([1, 0, 0], [[-1, 1, 0], [-1, 0, 1]]))
    with pytest.raises(CheckFailed, match="nullspace dimension"):
        checker.check_certify(3, rows, rhs, 0, _witness([1, 0, 0], [[-1, 1, 0]]))
    with pytest.raises(CheckFailed, match="not annihilated"):
        checker.check_certify(3, rows, rhs, 0, _witness([1, 0, 0], [[1, 1, 0], [-1, 0, 1]]))
    with pytest.raises(CheckFailed, match="dependent"):
        checker.check_certify(3, rows, rhs, 0, _witness([1, 0, 0], [[-1, 1, 0], [-2, 2, 0]]))


def test_sample_report():
    rows, rhs = TETRA
    good = {"samples_drawn": 5, "subsystem_size": 4, "inconsistent_samples": 5, "first_hit": [0, 1, 2, 3], "seed": 9}
    checker.check_sample(3, rows, rhs, 0, good, size=4, trials=5, seed=9, appended=3)
    with pytest.raises(CheckFailed, match="samples_drawn"):
        checker.check_sample(3, rows, rhs, 0, dict(good, samples_drawn=4), size=4, trials=5, seed=9)
    bad_hit = dict(good, subsystem_size=3, first_hit=[0, 1, 3])
    with pytest.raises(CheckFailed, match="is consistent"):
        checker.check_sample(3, rows, rhs, 0, bad_hit, size=3, trials=5, seed=9)


# Three disks that pairwise meet with no common point, and one disk around all of them.
VENN = [(Fraction(0), Fraction(0), Fraction(21, 20)), (Fraction(2), Fraction(0), Fraction(21, 20)), (Fraction(1), Fraction(7, 4), Fraction(21, 20))]
BIG = (Fraction(1), Fraction(1, 2), Fraction(4))


def test_triple_must_be_the_known_one():
    checker.check_triple(1, {"verdict": "violating-triple", "triple": [1, 2, 3]}, (1, 2, 3))
    # disks 0, 1, 2 of BIG + VENN meet: BIG holds the first two venn disks
    with pytest.raises(CheckFailed, match="expected"):
        checker.check_triple(1, {"verdict": "violating-triple", "triple": [0, 1, 2]}, (1, 2, 3))
    assert all(checker.disk_within(v, BIG) for v in VENN)
    assert not checker.disk_within(BIG, VENN[0])


def _box(xlo, xhi, ylo, yhi) -> dict:
    return {
        "verdict": "common-point",
        "point": {
            "x": {"low": _pair(xlo), "high": _pair(xhi)},
            "y": {"low": _pair(ylo), "high": _pair(yhi)},
            "precision_bits": 53,
        },
    }


def test_enclosure_box_must_meet_every_disk():
    disks = [(Fraction(0), Fraction(0), Fraction(1)), (Fraction(2), Fraction(0), Fraction(1))]
    tiny = Fraction(1, 2**40)
    checker.check_common_point(disks, 0, _box(1 - tiny, 1 + tiny, -tiny, tiny), 53)
    with pytest.raises(CheckFailed, match="misses disk 1"):
        checker.check_common_point(disks, 0, _box(-1 - tiny, -1 + tiny, -tiny, tiny), 53)


SVG = """<svg xmlns="http://www.w3.org/2000/svg" width="10" height="10" viewBox="0 0 10 10">
<rect width="10" height="10" fill="#ffffff"/>
<path d="M 1 1 A 2 2 0 0 0 3 3 Z" fill="#6f9bd8" fill-opacity="0.55"/>
<circle cx="1" cy="1" r="1" fill="none" stroke="#444444"/>
<circle cx="5" cy="5" r="1" fill="none" stroke="#b03030"/>
<line x1="1" y1="1" x2="5" y2="5" stroke="#1e8a1e"/>
<line x1="0" y1="9" x2="9" y2="0" stroke="#1e8a1e" stroke-dasharray="6 4"/>
</svg>
"""


def test_query_svg():
    checker.check_query_svg(0, SVG, 2)
    with pytest.raises(CheckFailed, match="disk outlines"):
        checker.check_query_svg(0, SVG, 3)
    with pytest.raises(CheckFailed, match="separating line"):
        checker.check_query_svg(0, SVG.replace(' stroke-dasharray="6 4"', ""), 2)
    with pytest.raises(CheckFailed, match="does not parse"):
        checker.check_query_svg(0, SVG[:-8], 2)


def test_real_answers_pass_and_a_corrupted_one_fails(tmp_path, capsys):
    """A slice of ``small-mixed`` through the real CLI: every answer
    passes its check, and a wrong triple is caught."""
    import helly
    import helly.cli

    commands = workloads.build(helly, "small-mixed", 1, tmp_path, lambda name, fn, *a: fn(*a))
    for cmd in commands[:30] + commands[-10:]:
        capsys.readouterr()
        rc = helly.cli.main(list(cmd.argv))
        cmd.check(rc, capsys.readouterr().out, None)
    triple_cmd = next(c for c in reversed(commands) if c.check.func is workloads._check_triple)
    rc = helly.cli.main(list(triple_cmd.argv))
    doc = json.loads(capsys.readouterr().out)
    doc["triple"] = [t + 1 for t in doc["triple"]]
    with pytest.raises(CheckFailed):
        triple_cmd.check(rc, json.dumps(doc), None)
