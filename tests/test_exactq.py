import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helly.errors import InvariantViolation
from helly.exactq import _solve_scaled, bareiss_update, echelon, integer_row, rank, reduced_echelon, solve_affine
from helly.linear import _Path, check_subsystem
from helly.oracles import naive_rank
from helpers import random_structured_system

TETRA_COEFF = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
TETRA_RHS = [0, 0, 0, 1]


def tetra_matrix(augmented=False):
    return [row + [b] for row, b in zip(TETRA_COEFF, TETRA_RHS)] if augmented else TETRA_COEFF


def test_rank_identity():
    assert rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3


def test_rank_zero_matrix():
    assert rank([[0, 0, 0], [0, 0, 0]]) == 0


def test_rank_empty_matrix():
    # a matrix with no rows is the empty row list, whatever its width
    assert rank([]) == 0


def test_rank_tetrahedral_coefficients_and_augmented():
    # hand elimination: rows 1-3 are the identity, row 4 reduces to zero;
    # the augmented matrix keeps a 0 0 0 | 1 row, so ranks are 3 and 4
    assert rank(tetra_matrix()) == 3
    assert rank(tetra_matrix(augmented=True)) == 4


def test_rank_fractional_entries():
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]]
    assert rank(m) == 1


def test_rank_transpose_and_bound():
    rng = random.Random(7)
    for _ in range(200):
        r = rng.randint(0, 5)
        c = rng.randint(0, 6)
        m = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)]
        rk = rank(m)
        assert rk == rank(list(zip(*m)))
        assert rk <= min(r, c)


def _stepwise_rank(m) -> int:
    """Rank by pushing the rows one at a time onto the path of
    ``helly.linear``'s subset searches: a row with a pivot adds one."""
    path = _Path([integer_row(row) for row in m], len(m[0]))
    found = 0
    for j in range(len(m)):
        piv, red = path.reduced(j)
        path.push(j, piv, red)
        found += piv is not None
    return found


def test_rank_matches_naive_oracle_on_1000_instances():
    rng = random.Random(42)
    for _ in range(1000):
        r = rng.randint(1, 5)
        c = rng.randint(1, 6)
        m = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)]
        assert rank(m) == naive_rank(m) == _stepwise_rank(m)


def test_bareiss_update_guard_raises_on_a_broken_pivot_sequence():
    # [1, 1, 1] reduced by the pivot row [2, 1, 0] is [0, 1, 2]; the next
    # pivot row [0, 3, 1] was not reduced by [2, 1, 0], so dividing by the
    # previous pivot 2 leaves a remainder
    assert bareiss_update([1, 1, 1], [2, 1, 0], 0, 1) == [0, 1, 2]
    with pytest.raises(InvariantViolation):
        bareiss_update([0, 1, 2], [0, 3, 1], 1, 2)


def test_reduced_echelon_guard_raises_on_records_of_no_fold():
    # [2, 1, 0] then [0, 3, 1] is not a fold: the second row would have
    # been reduced by the first. D = 3, and 3 * [2, 1, 0] - 1 * [0, 3, 1]
    # = [6, 0, -1] leaves a remainder when divided by the pivot 2.
    with pytest.raises(InvariantViolation):
        reduced_echelon([([2, 1, 0], 0, 1), ([0, 3, 1], 1, 2)])
    assert reduced_echelon([]) == ([], 1)


def test_echelon_lists_each_row_inconsistent_with_the_kept_rows_before_it():
    # a listed row is inconsistent with the unlisted rows before it, and
    # the unlisted rows, the cover, are consistent together
    rng = random.Random(3030)
    listed = 0
    for _ in range(800):
        s = random_structured_system(rng)
        _, bad = echelon([eq.row for eq in s.equations], s.unknowns)
        kept = [i for i in range(s.n) if i not in bad]
        assert bad == sorted(bad) and check_subsystem(s, kept) is not None
        for i in bad:
            assert check_subsystem(s, [j for j in kept if j < i] + [i]) is None
        listed += len(bad) > 1
    assert listed > 100


def test_exactness_guards_hold_under_python_O():
    # python -O strips assert statements; both guards must still raise
    script = """
from helly.errors import InvariantViolation
from helly.exactq import bareiss_update, reduced_echelon
assert False, "python -O should have stripped this"
for call in (
    lambda: bareiss_update([0, 1, 2], [0, 3, 1], 1, 2),
    lambda: reduced_echelon([([2, 1, 0], 0, 1), ([0, 3, 1], 1, 2)]),
):
    try:
        call()
    except InvariantViolation:
        print("raised")
"""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["raised", "raised"]


def _gauss_jordan(rows, rhs, ncols):
    """Reference solver: plain ``Fraction`` Gauss-Jordan elimination with
    row swaps, leftmost pivots, free variables set to zero."""
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        hit = next((i for i in range(r, len(m)) if m[i][c]), None)
        if hit is None:
            continue
        m[r], m[hit] = m[hit], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    if any(row[ncols] for row in m[len(pivots) :]):
        return None
    point = [Fraction(0)] * ncols
    for row, c in zip(m, pivots):
        point[c] = row[ncols]
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, c in zip(m, pivots):
            vec[c] = -row[f]
        basis.append(tuple(vec))
    return tuple(point), tuple(basis)


def test_solve_affine_matches_a_fraction_gauss_jordan_reference():
    # The fraction-free back-substitution must return exactly the reduced
    # echelon witness and basis, from rational rows and from rows that
    # are already scaled to integers.
    rng = random.Random(2024)
    consistent = 0
    for _ in range(2000):
        system = random_structured_system(rng)
        rows = [eq.coeffs for eq in system.equations]
        rhs = [eq.rhs for eq in system.equations]
        k = system.unknowns
        want = _gauss_jordan(rows, rhs, k)
        for got in (solve_affine(rows, rhs, k), _solve_scaled([eq.row for eq in system.equations], k)):
            if want is None:
                assert got is None
            else:
                assert (got.point, got.basis) == want
        consistent += want is not None
    assert 700 < consistent < 1300


def test_solve_scaled_checks_the_width_of_integer_rows():
    with pytest.raises(ValueError):
        _solve_scaled([[1, 2]], 2)
    assert _solve_scaled([[2, 4, 6]], 2).point == (3, 0)


def test_rank_low_rank_products():
    rng = random.Random(3)
    for _ in range(100):
        a = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(4)]
        b = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(2)]
        prod = [[sum(a[i][t] * b[t][j] for t in range(2)) for j in range(4)] for i in range(4)]
        assert rank(prod) <= 2
        assert rank(prod) == naive_rank(prod)


def test_solve_first_three_tetra_rows_is_origin():
    sol = solve_affine(TETRA_COEFF[:3], [Fraction(0)] * 3, 3)
    assert sol.point == (0, 0, 0)
    assert sol.dim == 0


def test_solve_rows_0_1_3_gives_unit_z():
    m = [TETRA_COEFF[0], TETRA_COEFF[1], TETRA_COEFF[3]]
    sol = solve_affine(m, [Fraction(0), Fraction(0), Fraction(1)], 3)
    assert sol.point == (0, 0, 1)
    assert sol.dim == 0


def test_solve_full_tetra_is_empty():
    assert solve_affine(tetra_matrix(), [Fraction(b) for b in TETRA_RHS], 3) is None


def test_solve_zero_rows_gives_whole_space():
    sol = solve_affine([], [], 3)
    assert sol.point == (0, 0, 0)
    assert sol.dim == 3
    assert sol.contains((5, Fraction(-7, 3), 0))


def test_solve_underdetermined_has_nullspace():
    m = [[1, 1, 1]]
    sol = solve_affine(m, [Fraction(6)], 3)
    assert sol.dim == 2
    # free variables pinned to zero under leftmost pivoting
    assert sol.point == (6, 0, 0)
    for vec in sol.basis:
        assert sum(vec) == 0
    # (1, 1, 1) is normal to the plane, so outside the basis span
    assert not sol.contains((7, 1, 1))


def test_solution_residuals_are_exactly_zero():
    rng = random.Random(11)
    for _ in range(200):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(c)] for _ in range(r)]
        x0 = [rng.randint(-3, 3) for _ in range(c)]
        rhs = [Fraction(sum(a * x for a, x in zip(row, x0))) for row in rows]
        sol = solve_affine(rows, rhs, c)
        assert sol is not None
        for weights in ([0] * sol.dim, [1] * sol.dim, list(range(1, sol.dim + 1))):
            pt = sol.element(weights)
            for row, b in zip(rows, rhs):
                assert sum(a * x for a, x in zip(row, pt)) == b
        assert sol.contains(x0)
        # a nonzero coefficient row is orthogonal to the basis, so not in its span
        for row in rows:
            if any(row):
                assert not sol.contains([p + a for p, a in zip(sol.point, row)])


def test_solve_rhs_length_checked():
    with pytest.raises(ValueError):
        solve_affine([[1, 2]], [Fraction(1), Fraction(2)], 2)


def test_ragged_rows_are_refused():
    with pytest.raises(ValueError):
        rank([[1, 2], [1]])
    with pytest.raises(ValueError):
        rank([[1], [1, 2]])
    for rows in ([[1, 2], [1]], [[1, 2], [1, 2, 3]], [[1, 2, 3]]):
        with pytest.raises(ValueError):
            solve_affine(rows, [Fraction(0)] * len(rows), 2)


def test_solve_affine_ignores_row_order():
    # The fold pivots each row on its first nonzero column, so the pivot
    # columns come in row order. Their set, and the reduced echelon form
    # that fixes witness and basis, must not depend on that order.
    rng = random.Random(13)
    consistent = 0
    for _ in range(300):
        system = random_structured_system(rng)
        rows = [list(eq.coeffs) for eq in system.equations]
        rhs = [eq.rhs for eq in system.equations]
        # a repeated row besides the zero and proportional rows the
        # generator plants
        j = rng.randrange(len(rows))
        rows.append(rows[j])
        rhs.append(rhs[j])
        want = solve_affine(rows, rhs, system.unknowns)
        consistent += want is not None
        for _ in range(4):
            order = rng.sample(range(len(rows)), len(rows))
            shuffled = [rows[i] for i in order]
            assert solve_affine(shuffled, [rhs[i] for i in order], system.unknowns) == want
            aug = [rows[i] + [rhs[i]] for i in order]
            assert rank(shuffled) == naive_rank(shuffled)
            assert rank(aug) == naive_rank(aug)
    assert 60 < consistent < 240


@given(
    st.lists(
        st.lists(st.integers(-3, 3), min_size=3, max_size=3),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=60, deadline=None)
def test_rank_agrees_with_oracle_property(rows):
    assert rank(rows) == naive_rank(rows)
    assert rank(rows) == rank(list(zip(*rows)))


_small_rat = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@given(
    st.integers(0, 5).flatmap(
        lambda c: st.tuples(
            st.lists(st.lists(_small_rat, min_size=c, max_size=c), min_size=0, max_size=5),
            st.lists(_small_rat, min_size=c, max_size=c),
            st.booleans(),
            st.just(c),
        )
    ),
    st.lists(_small_rat, min_size=5, max_size=5),
)
@settings(max_examples=150, deadline=None)
def test_solve_affine_canonical_form_property(system, loose_rhs):
    # Pins the witness and basis to the reduced echelon form by checks an
    # independent rank oracle can make, without a second solver.
    rows, x0, planted, ncols = system
    rhs = [sum((a * x for a, x in zip(row, x0)), Fraction(0)) for row in rows] if planted else loose_rhs[: len(rows)]
    sol = solve_affine(rows, rhs, ncols)
    aug = [row + [b] for row, b in zip(rows, rhs)]
    if sol is None:
        assert naive_rank(rows) < naive_rank(aug)
        return
    assert naive_rank(rows) == naive_rank(aug)

    def prefix_rank(c):
        return naive_rank([row[:c] for row in rows])

    pivots = [c for c in range(ncols) if prefix_rank(c + 1) > prefix_rank(c)]
    free = [c for c in range(ncols) if c not in pivots]
    assert all(sol.point[c] == 0 for c in free)
    for row, b in zip(rows, rhs):
        assert sum(a * x for a, x in zip(row, sol.point)) == b
    assert len(sol.basis) == len(free)
    for f, vec in zip(free, sol.basis):
        assert [vec[c] for c in free] == [int(c == f) for c in free]
        for row in rows:
            assert sum(a * x for a, x in zip(row, vec)) == 0
