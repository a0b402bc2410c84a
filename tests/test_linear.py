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
from helly.instances import gen_consistent_linear, tetrahedral_system
from helpers import random_nondegenerate_system


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
