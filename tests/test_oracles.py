import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from helly import (
    Inconsistent,
    PairKind,
    check_subsystem,
    disk,
    helly_certify,
    in_disk,
    linear_system,
    pair_relation,
    qpoint,
    same_point,
)
from helly.instances import gen_consistent_linear, tetrahedral_system, venn_triple
from helly.oracles import (
    GridSpec,
    _lens_corners,
    exhaustive_min_inconsistent,
    grid_meet_oracle,
    inside,
    is_minimal_inconsistent,
    naive_rank,
)
from helpers import prime_family, quadval_disk_side, random_structured_system


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


def _late_row_system(rng):
    """Planted rows plus one generic row with entries up to 10^6, the
    shape of the linear-late-cert benchmark at desk size."""
    k = rng.randint(1, 5)
    n = rng.randint(k + 1, 9)
    planted = gen_consistent_linear(n - 1, k, rng.randrange(2**32))
    row = [0] * k
    while not any(row):
        row = [rng.randint(-(10**6), 10**6) for _ in range(k)]
    return linear_system(
        [list(eq.coeffs) for eq in planted.equations] + [row],
        [eq.rhs for eq in planted.equations] + [rng.randint(-(10**6), 10**6)],
    )


def _minimal_by_the_solver(s, idx):
    """Inconsistent, and every one-smaller subset consistent, by
    ``check_subsystem``."""
    return check_subsystem(s, idx) is None and all(
        check_subsystem(s, idx[:i] + idx[i + 1 :]) is not None for i in range(len(idx))
    )


def test_is_minimal_inconsistent_agrees_with_the_solver():
    rng = random.Random(18001)
    systems = [random_structured_system(rng) for _ in range(2000)]
    systems += [_late_row_system(rng) for _ in range(100)]
    verdicts = Counter()
    for s in systems:
        cert = helly_certify(s)
        sets = [cert.subsystem] if isinstance(cert, Inconsistent) else []
        for _ in range(3):
            size = rng.randint(0, min(s.n, s.unknowns + 2))
            sets.append(tuple(sorted(rng.sample(range(s.n), size))))
        for idx in sets:
            expected = _minimal_by_the_solver(s, idx)
            assert is_minimal_inconsistent(s, idx) == expected, (s, idx)
            verdicts[expected] += 1
        if isinstance(cert, Inconsistent):
            assert _minimal_by_the_solver(s, cert.subsystem), s
    assert min(verdicts.values()) > 1000, verdicts


def test_disk_oracles_agree_with_the_kernel_on_prime_denominators():
    # every disk over its own prime, one in three tangent to an earlier one
    rng = random.Random(18002)
    seen = Counter()
    tangent = (PairKind.EXTERNAL_OSCULATION, PairKind.INTERNAL_TANGENCY)
    for _ in range(80):
        fam = prime_family(rng, rng.randint(3, 7))
        points = [qpoint(d.x, d.y - d.r) for d in fam]
        for a, b in combinations(fam, 2):
            for x, y in ((a, b), (b, a)):
                rel = pair_relation(x, y)
                if rel.kind not in (PairKind.PROPER_LENS, *tangent):
                    assert rel.corners is None, (x, y)
                    continue
                seen[rel.kind] += 1
                # the kernel's (low, high) is the oracle's, point for point
                for c, o in zip(rel.corners, _lens_corners(x, y), strict=True):
                    assert same_point(c, o), (x, y)
                    # the radicand vanishes exactly at a tangency
                    assert (c.d == 0) == (rel.kind in tangent), (x, y)
                    assert quadval_disk_side(c, x) == 0 == quadval_disk_side(c, y), (x, y)
                    points.append(c)
        for p in points:
            for d in fam:
                expected = quadval_disk_side(p, d) <= 0
                assert inside(p, d) == in_disk(p, d) == expected, (p, d)
                seen[expected] += 1
    assert min(seen[PairKind.EXTERNAL_OSCULATION], seen[PairKind.PROPER_LENS]) > 30, seen
    assert seen[PairKind.INTERNAL_TANGENCY] > 30, seen
    assert min(seen[True], seen[False]) > 1000, seen
