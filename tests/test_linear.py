import random
from fractions import Fraction

import pytest

from helly import (
    Consistent,
    EquationClass,
    Inconsistent,
    all_subsystems_consistent,
    check_subsystem,
    classify,
    equation,
    helly_certify,
    linear_system,
    sample_consistency,
    witness_satisfies,
)
import helly.linear
from helly.instances import gen_consistent_linear, tetrahedral_system
from helly.oracles import _oracle_consistent, exhaustive_min_inconsistent
from helpers import random_nondegenerate_system, random_structured_system


def test_classify_degenerate_inconsistent():
    assert classify(equation([0, 0, 0], 1)) is EquationClass.DEGENERATE_INCONSISTENT


def test_classify_degenerate_consistent():
    assert classify(equation([0, 0, 0], 0)) is EquationClass.DEGENERATE_CONSISTENT


def test_classify_nondegenerate():
    assert classify(equation([1, 1, 1], 1)) is EquationClass.NONDEGENERATE_CONSISTENT


def test_tetra_three_subsets_have_printed_witnesses():
    s = tetrahedral_system()
    w = check_subsystem(s, [0, 1, 2])
    assert w.point == (0, 0, 0) and w.dim == 0
    w = check_subsystem(s, [0, 1, 3])
    assert w.point == (0, 0, 1) and w.dim == 0


def test_tetra_full_system_inconsistent():
    s = tetrahedral_system()
    assert check_subsystem(s, range(4)) is None


def test_empty_subsystem_is_whole_space():
    s = tetrahedral_system()
    w = check_subsystem(s, [])
    assert w.dim == 3
    assert w.point == (0, 0, 0)


def test_check_subsystem_rejects_bad_indices():
    s = tetrahedral_system()
    with pytest.raises(ValueError):
        check_subsystem(s, [0, 4])


def test_all_subsystems_tetra():
    s = tetrahedral_system()
    assert all_subsystems_consistent(s, 3) is None
    assert all_subsystems_consistent(s, 4) == (0, 1, 2, 3)


def test_all_subsystems_identical_equations():
    s = linear_system([[1]] * 5, [0] * 5)
    assert all_subsystems_consistent(s, 2) is None


def test_all_subsystems_size_checked():
    s = tetrahedral_system()
    with pytest.raises(ValueError):
        all_subsystems_consistent(s, 5)


def test_certify_tetra_returns_all_four_rows():
    cert = helly_certify(tetrahedral_system())
    assert isinstance(cert, Inconsistent)
    assert cert.subsystem == (0, 1, 2, 3)


def test_certify_degenerate_short_circuit():
    s = linear_system([[0, 0], [1, 1]], [1, 0])
    cert = helly_certify(s)
    assert isinstance(cert, Inconsistent)
    assert cert.subsystem == (0,)


def test_certify_degenerate_row_after_a_pair_certificate():
    # rows 0 and 1 already clash, but the 0 = 2 row alone is smaller
    s = linear_system([[1, 1], [1, 1], [0, 0]], [0, 1, 2])
    assert helly_certify(s) == Inconsistent((2,))


def test_certify_consistent_hundred_contains_planted_point():
    rng = random.Random(7)
    planted = (1, 2, 3)
    rows = []
    for _ in range(100):
        row = [rng.randint(-5, 5) for _ in range(3)]
        while all(c == 0 for c in row):
            row = [rng.randint(-5, 5) for _ in range(3)]
        rows.append(row)
    rhs = [sum(c * x for c, x in zip(row, planted)) for row in rows]
    s = linear_system(rows, rhs)
    cert = helly_certify(s)
    assert isinstance(cert, Consistent)
    assert witness_satisfies(s, cert.witness)
    assert cert.witness.contains(planted)


def test_certify_generated_consistent_system():
    s = gen_consistent_linear(100, 3, seed=7)
    cert = helly_certify(s)
    assert isinstance(cert, Consistent)
    assert witness_satisfies(s, cert.witness)


def test_certificates_sound_on_random_systems():
    rng = random.Random(5150)
    for _ in range(120):
        s = random_nondegenerate_system(rng, n=rng.randint(2, 9))
        cert = helly_certify(s)
        if isinstance(cert, Consistent):
            assert witness_satisfies(s, cert.witness)
        else:
            assert len(cert.subsystem) <= s.unknowns + 1
            assert check_subsystem(s, cert.subsystem) is None


def test_inconsistency_is_monotone_under_supersets():
    rng = random.Random(77)
    found = 0
    while found < 40:
        s = random_nondegenerate_system(rng, n=rng.randint(3, 9), planted=False)
        cert = helly_certify(s)
        if isinstance(cert, Consistent):
            continue
        found += 1
        base = set(cert.subsystem)
        others = [i for i in range(s.n) if i not in base]
        rng.shuffle(others)
        superset = sorted(base | set(others[:2]))
        assert check_subsystem(s, superset) is None


def test_sampling_tetra_size3_never_inconsistent():
    report = sample_consistency(tetrahedral_system(), 3, 1000, seed=123)
    assert report.inconsistent_samples == 0
    assert report.first_hit is None


def test_sampling_tetra_size4_single_trial_hits():
    report = sample_consistency(tetrahedral_system(), 4, 1, seed=9)
    assert report.inconsistent_samples == 1
    assert report.first_hit == (0, 1, 2, 3)


def test_sampling_deterministic_under_seed():
    s = tetrahedral_system()
    a = sample_consistency(s, 3, 250, seed=4242)
    b = sample_consistency(s, 3, 250, seed=4242)
    assert a == b


def test_sampling_validates_arguments():
    s = tetrahedral_system()
    with pytest.raises(ValueError):
        sample_consistency(s, 5, 10, seed=1)
    with pytest.raises(ValueError):
        sample_consistency(s, 3, 0, seed=1)


def test_system_shape_validation():
    with pytest.raises(ValueError):
        linear_system([[1, 2], [1]], [0, 0])


def test_degenerate_consistent_rows_are_inert():
    s = linear_system([[0, 0], [1, 0], [0, 1]], [0, 2, 3])
    cert = helly_certify(s)
    assert isinstance(cert, Consistent)
    assert cert.witness.point == (2, 3)
    assert Fraction(2) == cert.witness.point[0]


def _late_system(seed: int):
    """``gen_consistent_linear(15, 5, seed)`` plus one generic row: every
    subset of at most five rows is consistent and independent, and the
    first inconsistent one is rows 0 to 4 with the appended row 15."""
    planted = gen_consistent_linear(15, 5, seed)
    return linear_system(
        [list(eq.coeffs) for eq in planted.equations] + [[1, 10, 100, 1000, 10000]],
        [eq.rhs for eq in planted.equations] + [123457],
    )


def _count_reductions(monkeypatch) -> list[int]:
    calls = [0]
    reduce = helly.linear.bareiss_reduce

    def counted(*args):
        calls[0] += 1
        return reduce(*args)

    monkeypatch.setattr(helly.linear, "bareiss_reduce", counted)
    return calls


def test_certify_walk_work_golden(monkeypatch):
    # one reduction per walk node: every subset of at most 5 of the 16
    # rows, sum C(16, d) for d = 1..5 = 6,884, plus the 11 size-6 nodes
    # (0, 1, 2, 3, 4, j) for j = 5..15; a per-size rescan inserts 31,122 rows
    calls = _count_reductions(monkeypatch)
    assert helly_certify(_late_system(1)) == Inconsistent((0, 1, 2, 3, 4, 15))
    assert calls[0] == 6895


def test_certify_walk_never_extends_a_dependent_prefix(monkeypatch):
    # (0, 1) repeats x = 0, so its children (0, 1, 2) and (0, 1, 3) are
    # never visited; the walk makes 11 reductions instead of 13
    s = linear_system([[1, 0], [1, 0], [0, 1], [1, 1]], [0, 0, 0, 1])
    calls = _count_reductions(monkeypatch)
    assert helly_certify(s) == Inconsistent((0, 2, 3))
    assert calls[0] == 11


def test_certify_matches_exhaustive_oracle_on_structured_systems():
    rng = random.Random(20261019)
    for _ in range(2000):
        s = random_structured_system(rng)
        # inconsistency is monotone, so the exhaustive scan finds nothing
        # exactly when the whole system is consistent
        expected = None if _oracle_consistent(s, range(s.n)) else exhaustive_min_inconsistent(s)
        cert = helly_certify(s)
        assert (cert.subsystem if isinstance(cert, Inconsistent) else None) == expected


def test_sample_reports_match_goldens():
    rng = random.Random(2026)
    got = []
    for i in range(12):
        s = random_structured_system(rng)
        r = sample_consistency(s, min(s.unknowns + 1, s.n), 40, seed=i)
        got.append((r.inconsistent_samples, r.first_hit))
    assert got == [
        (36, (3, 5)),
        (39, (2, 9)),
        (14, (1, 2, 3, 5, 6, 7)),
        (0, None),
        (12, (0, 3)),
        (40, (4, 5, 6, 7, 9)),
        (34, (1, 9)),
        (34, (2, 5)),
        (0, None),
        (0, None),
        (30, (0, 6, 9)),
        (0, None),
    ]


def test_certify_refuses_an_oversized_search_only_when_inconsistent():
    planted = gen_consistent_linear(59, 6, seed=3)
    rows = [list(eq.coeffs) for eq in planted.equations]
    rhs = [eq.rhs for eq in planted.equations]
    assert isinstance(helly_certify(linear_system(rows, rhs)), Consistent)
    with pytest.raises(ValueError, match="subsets; refused"):
        helly_certify(linear_system(rows + [[1, 10, 100, 1000, 10000, 100000]], rhs + [1234567]))
