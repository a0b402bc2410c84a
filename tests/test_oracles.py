import random
from fractions import Fraction

import pytest

from helly import disk, linear_system
from helly.instances import tetrahedral_system, venn_triple
from helly.oracles import GridSpec, exhaustive_min_inconsistent, grid_meet_oracle, naive_rank


def test_naive_rank_identity():
    assert naive_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3


def test_naive_rank_tetra_augmented():
    rows = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 1, 1, 1]]
    assert naive_rank(rows) == 4


def test_naive_rank_product_bound():
    rng = random.Random(8)
    for _ in range(50):
        a = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(4)]
        b = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(2)]
        prod = [[sum(a[i][t] * b[t][j] for t in range(2)) for j in range(4)] for i in range(4)]
        assert naive_rank(prod) <= 2


def test_exhaustive_min_on_tetra():
    assert exhaustive_min_inconsistent(tetrahedral_system()) == (0, 1, 2, 3)


def test_exhaustive_min_consistent_system():
    s = linear_system([[1, 0], [0, 1], [1, 1]], [1, 2, 3])
    assert exhaustive_min_inconsistent(s) is None


def test_exhaustive_min_degenerate_singleton():
    rows = [[1, 0]] * 5 + [[0, 0]] + [[0, 1]]
    rhs = [0] * 5 + [1] + [2]
    s = linear_system(rows, rhs)
    assert exhaustive_min_inconsistent(s) == (5,)


def test_exhaustive_min_guard():
    s = linear_system([[1]] * 15, [0] * 15)
    with pytest.raises(ValueError):
        exhaustive_min_inconsistent(s)


def test_grid_oracle_finds_origin():
    fam = [disk(0, 0, 2), disk(1, 0, 2), disk(0, 1, 2)]
    grid = GridSpec(Fraction(-1), Fraction(-1), Fraction(1), Fraction(1), 4)
    assert grid_meet_oracle(fam, grid) is not None


def test_grid_oracle_scan_order_is_x_major():
    fam = [disk(0, 0, 1)]
    grid = GridSpec(Fraction(-1), Fraction(-1), Fraction(1), Fraction(1), 2)
    # (-1, 0) sits on the boundary and is the first hit in x-major order
    assert grid_meet_oracle(fam, grid) == (Fraction(-1), Fraction(0))


def test_grid_oracle_venn_triple_finds_nothing():
    grid = GridSpec(Fraction(0), Fraction(0), Fraction(2), Fraction(2), 50)
    assert grid_meet_oracle(venn_triple(), grid) is None


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(Fraction(0), Fraction(0), Fraction(1), Fraction(1), 0)
    with pytest.raises(ValueError):
        GridSpec(Fraction(1), Fraction(0), Fraction(0), Fraction(1), 4)
