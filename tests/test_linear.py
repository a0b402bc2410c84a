import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from helly import (
    Consistent,
    Equation,
    EquationClass,
    Inconsistent,
    all_subsystems_consistent,
    check_subsystem,
    classify,
    helly_certify,
    linear_system,
    sample_consistency,
    witness_satisfies,
)
import helly.exactq
import helly.linear
from helly.exactq import AffineSolutionSet, integer_row, solve_affine
from helly.instances import (
    dumps_linear,
    gen_consistent_linear,
    gen_random_linear,
    parse_instance,
    tetrahedral_system,
)
from helly.oracles import _oracle_consistent, exhaustive_min_inconsistent
from helpers import random_nondegenerate_system, random_structured_system


def test_classify_degenerate_inconsistent():
    assert classify(Equation([0, 0, 0], 1)) is EquationClass.DEGENERATE_INCONSISTENT


def test_classify_degenerate_consistent():
    assert classify(Equation([0, 0, 0], 0)) is EquationClass.DEGENERATE_CONSISTENT


def test_classify_nondegenerate():
    assert classify(Equation([1, 1, 1], 1)) is EquationClass.NONDEGENERATE_CONSISTENT


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


def test_check_subsystem_solves_the_stored_rows(monkeypatch):
    # a parsed system keeps integer rows; check_subsystem solves them as
    # they are, builds no coeffs or rhs view, and still goes through
    # helly.linear.solve_affine, with the answer of the rational rows
    calls = []

    def counted(*args):
        calls.append(args)
        return solve_affine(*args)

    monkeypatch.setattr(helly.linear, "solve_affine", counted)
    rng = random.Random(29)
    for _ in range(60):
        s = parse_instance(dumps_linear(random_structured_system(rng)))
        picks = [rng.sample(range(s.n), rng.randint(0, s.n)) for _ in range(3)]
        got = [check_subsystem(s, idx) for idx in picks]
        assert not any({"coeffs", "rhs"} & vars(eq).keys() for eq in s.equations)
        for idx, sol in zip(picks, got):
            eqs = [s.equations[i] for i in idx]
            assert sol == solve_affine([eq.coeffs for eq in eqs], [eq.rhs for eq in eqs], s.unknowns)
    assert len(calls) == 180


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


def test_witness_satisfies_rejects_near_misses():
    # x + y/3 = 1/2 and 2x/5 + 0y = 1 with a 0 = 0 row: the point
    # (5/2, -6) and no basis; x/2 + 2y/3 - z = 1/3 in three unknowns is
    # a plane, and a change to any one basis entry leaves it
    s = linear_system(
        [[1, Fraction(1, 3)], [Fraction(2, 5), 0], [0, 0]], [Fraction(1, 2), 1, 0]
    )
    good = helly_certify(s).witness
    assert good.point == (Fraction(5, 2), -6) and witness_satisfies(s, good)
    for j in range(2):
        off = list(good.point)
        off[j] += Fraction(1, 7)
        assert not witness_satisfies(s, AffineSolutionSet(tuple(off), ()))
    assert not witness_satisfies(s, AffineSolutionSet(good.point + (0,), ()))
    assert not witness_satisfies(s, AffineSolutionSet(good.point[:1], ()))
    plane = linear_system([[Fraction(1, 2), Fraction(2, 3), -1]], [Fraction(1, 3)])
    good = helly_certify(plane).witness
    assert good.dim == 2 and witness_satisfies(plane, good)
    for i in range(2):
        for j in range(3):
            vec = list(good.basis[i])
            vec[j] += 1
            basis = list(good.basis)
            basis[i] = tuple(vec)
            assert not witness_satisfies(plane, AffineSolutionSet(good.point, tuple(basis)))
    assert not witness_satisfies(plane, AffineSolutionSet(good.point, (good.basis[0][:2],)))


def _fraction_witness_check(system, witness):
    """The rational check the integer ``witness_satisfies`` replaced."""
    if witness.unknowns != system.unknowns or not system.satisfied_by(witness.point):
        return False
    return all(
        sum(c * x for c, x in zip(eq.coeffs, vec)) == 0
        for eq in system.equations
        for vec in witness.basis
    )


def test_witness_satisfies_agrees_with_fraction_arithmetic():
    # Witnesses of random subsystems, and copies nudged by 1/7 in the
    # point or by 1/3 in one basis entry, judged against the whole system
    rng = random.Random(4242)
    verdicts = {True: 0, False: 0}
    for _ in range(1500):
        s = random_structured_system(rng)
        idx = sorted(rng.sample(range(s.n), rng.randint(0, s.n)))
        sol = check_subsystem(s, idx)
        if sol is None:
            continue
        candidates = [sol]
        j = rng.randrange(s.unknowns)
        point = list(sol.point)
        point[j] += Fraction(1, 7)
        candidates.append(AffineSolutionSet(tuple(point), sol.basis))
        if sol.basis:
            basis = [list(vec) for vec in sol.basis]
            basis[rng.randrange(len(basis))][j] += Fraction(1, 3)
            candidates.append(AffineSolutionSet(sol.point, tuple(map(tuple, basis))))
        for witness in candidates:
            verdict = witness_satisfies(s, witness)
            assert verdict == _fraction_witness_check(s, witness)
            verdicts[verdict] += 1
    assert min(verdicts.values()) > 300


def _count_integer_rows(monkeypatch) -> list[int]:
    calls = []
    scale = helly.exactq.integer_row

    def counted(row):
        calls.append(len(row))
        return scale(row)

    monkeypatch.setattr(helly.exactq, "integer_row", counted)
    return calls


@pytest.mark.parametrize("consistent", [True, False])
def test_certify_scales_each_row_once(monkeypatch, consistent):
    # each row is scaled once, where its equation is made; the whole-system
    # solve and the subset walk share that stored row and scale none again
    s = gen_consistent_linear(12, 3, seed=4) if consistent else _late_system(1)
    calls = _count_integer_rows(monkeypatch)
    cert = helly_certify(s)
    assert isinstance(cert, Consistent) == consistent
    assert calls == []
    assert [list(eq.row) for eq in s.equations] == [integer_row(eq.coeffs + (eq.rhs,)) for eq in s.equations]


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


def _count_work(monkeypatch) -> dict[str, int]:
    """Count Bareiss row updates, in ``helly.linear`` and in the
    whole-system fold ``helly.exactq.echelon``, and the rows that the
    subset searches ask their path for (one per walk node)."""
    work = {"updates": 0, "nodes": 0}
    update = helly.exactq.bareiss_update
    reduced = helly.linear._Path.reduced

    def counted_update(*args):
        work["updates"] += 1
        return update(*args)

    def counted_reduced(*args):
        work["nodes"] += 1
        return reduced(*args)

    monkeypatch.setattr(helly.exactq, "bareiss_update", counted_update)
    monkeypatch.setattr(helly.linear, "bareiss_update", counted_update)
    monkeypatch.setattr(helly.linear._Path, "reduced", counted_reduced)
    return work


def test_certify_walk_work_golden(monkeypatch):
    # The whole-system fold reduces rows 1 to 4 by the 1, 2, 3 and 4 pivot
    # rows before them, and rows 5 to 15 by all five, 1 + 2 + 3 + 4 +
    # 5 * 11 = 65 updates; only row 15 ends in 0 = c, so rows 0 to 14 are
    # the cover. The walk descends to (0, 1, 2, 3, 4), a clean prefix at
    # leaf depth, and tries only row 15: the hit (0, 1, 2, 3, 4, 15), and
    # the cap drops to 5. It then visits every subset of at most 4 rows,
    # sum C(16, d) for d = 1..4 = 2,516, and below each clean prefix of
    # 4 rows, now at leaf depth, only row 15: C(15, 4) = 1,365 nodes.
    # 2,516 + 1,365 + 2 = 3,883 nodes. Each node below the root costs one
    # update, its row reduced once by its parent's pivot row:
    # 3,883 - 16 = 3,867.
    work = _count_work(monkeypatch)
    assert helly_certify(_late_system(1)) == Inconsistent((0, 1, 2, 3, 4, 15))
    assert work == {"nodes": 3883, "updates": 3867 + 65}


def test_certify_walk_never_extends_a_dependent_prefix(monkeypatch):
    # (0, 1) repeats x = 0, so it is not pushed and its children (0, 1, 2)
    # and (0, 1, 3) are never visited: 11 nodes instead of 13. The
    # whole-system check reduces rows 1 and 2 by pivot 0, and row 3 by
    # pivots 0 and 1 (row 1 is zero and adds no pivot): 1 + 1 + 2 = 4
    # updates. Row 3 alone ends in 0 = 1, so rows 0 to 2 are the cover.
    # The hit (0, 2, 3) drops the cap to 2, so the clean prefix (1) is at
    # leaf depth and tries only row 3: (1, 2) is skipped, 10 nodes. Rows
    # 1, 2 and 3 are reduced once below (0), and row 3 once below (0, 2),
    # (1) and (2): 6 updates.
    s = linear_system([[1, 0], [1, 0], [0, 1], [1, 1]], [0, 0, 0, 1])
    work = _count_work(monkeypatch)
    assert helly_certify(s) == Inconsistent((0, 2, 3))
    assert work == {"nodes": 10, "updates": 6 + 4}


def _det(a) -> int:
    """Leibniz determinant of a small square integer matrix."""
    total = 0
    for perm in permutations(range(len(a))):
        term = (-1) ** sum(perm[j] > perm[i] for i in range(len(perm)) for j in range(i))
        for i, p in enumerate(perm):
            term *= a[i][p]
        total += term
    return total


def test_path_pivots_are_the_leading_minors():
    # each update divides by the previous pivot, so while the leading
    # minors are nonzero the pivot of the d-th row pushed is the leading
    # d x d minor (Bareiss 1968), not a product that grows with the depth
    rng = random.Random(77)
    for _ in range(300):
        m = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(4)]
        path = helly.linear._Path(m, 4)
        for j in range(4):
            minor = _det([r[: j + 1] for r in m[: j + 1]])
            if minor == 0:
                break
            piv, row = path.reduced(j)
            assert (piv, row[j], row[:j]) == (j, minor, [0] * j)
            path.push(j, piv, row)


def test_sample_work_golden(monkeypatch):
    # C(16, 5) = 4,368 draws of 6 of the 16 rows. Folding each draw from
    # scratch costs 0 + 1 + ... + 5 = 15 updates, 65,520 in all. The cover
    # folds rows 0 to 4, 1 + 2 + 3 + 4 = 10 updates, to the planted point,
    # which every row but 15 satisfies. So only the 1,681 draws that hold
    # row 15 are scanned, and they are the inconsistent ones. Sorted in
    # batches of 4,096 and 272 draws, the 1,569 and 112 of them reduce
    # each of their first five rows once per prefix it follows: 2,738 and
    # 601 updates. Those five rows are covered and independent, a clean
    # path of rank 5 whose only solution is the planted point, so row 15
    # is settled by its cover bit and never reduced; reducing it under
    # each of the 2,173 and 332 distinct prefixes would cost 5,854 in all
    work = _count_work(monkeypatch)
    report = sample_consistency(_late_system(1), 6, 4368, seed=1)
    assert (report.inconsistent_samples, report.first_hit) == (1681, (1, 4, 9, 12, 13, 15))
    assert work["updates"] == 10 + 2738 + 601 < 65520 // 10


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


def _replayed_sample(s, size, trials, seed):
    """``sample_consistency`` one draw at a time, each judged by the oracle."""
    draws = random.Random(seed)
    verdicts = {}
    bad, first_hit = 0, None
    for _ in range(trials):
        idx = tuple(sorted(draws.sample(range(s.n), size)))
        if idx not in verdicts:
            verdicts[idx] = _oracle_consistent(s, idx)
        if not verdicts[idx]:
            bad += 1
            if first_hit is None:
                first_hit = idx
    return bad, first_hit


@pytest.mark.parametrize("batch", [None, 7])
def test_sampling_matches_a_per_draw_replay_across_batches(monkeypatch, batch):
    # trials = 2 * batch + 3 splits draws of up to 8 rows into three
    # batches, and larger ones into more; the small systems make draws
    # repeat within and across batches, and a batch of 7 puts many first
    # hits past the first batch
    if batch is not None:
        monkeypatch.setattr(helly.linear, "SAMPLE_BATCH_INDICES", batch * 8)
    trials = 2 * (helly.linear.SAMPLE_BATCH_INDICES // 8) + 3
    rng = random.Random(1203 if batch is None else 1207)
    for seed in range(12 if batch is None else 600):
        s = random_structured_system(rng)
        size = rng.randint(0, s.n)
        report = sample_consistency(s, size, trials, seed)
        assert report.samples_drawn == trials
        assert (report.inconsistent_samples, report.first_hit) == _replayed_sample(s, size, trials, seed)


def _sampled(r, n, size, count):
    """``count`` draws as ``Random.sample`` makes them, each sorted."""
    return [tuple(sorted(r.sample(range(n), size))) for _ in range(count)]


def test_draws_match_random_sample():
    # a draw swaps out of a pool while n is at most 21, or 21 plus
    # 4 ** ceil(log4(3 * size)) when size > 5 (85 for sizes 6 to 21, 277
    # for 22 to 85), and rejects repeats with a set above that
    cases = [(0, 0), (1, 0), (1, 1)]
    cases += [(n, size) for n in range(2, 40) for size in range(min(n, 12) + 1)]
    cases += [(n, size) for n in (21, 22) for size in range(6)]
    cases += [(n, size) for n in (85, 86) for size in range(6, 22)]
    cases += [(277, 22), (278, 22), (1000, 0), (1000, 7), (1000, 1000), (20000, 4), (20000, 300)]
    for n, size in cases:
        for seed in (0, 1, 20261020):
            got = helly.linear._draws(random.Random(seed), n, size, 9)
            assert got == _sampled(random.Random(seed), n, size, 9), (n, size, seed)


def test_draws_continue_one_stream():
    # batches take their draws one call after another from one generator
    for n, size in ((16, 6), (22, 5), (1000, 7)):
        r = random.Random(5)
        got = helly.linear._draws(r, n, size, 4) + helly.linear._draws(r, n, size, 3)
        assert got == _sampled(random.Random(5), n, size, 7)


def test_sampling_calls_no_random_sample(monkeypatch):
    s = _late_system(1)
    expected = _replayed_sample(s, 6, 300, 2)

    def refused(self, population, k, **kw):
        raise AssertionError("Random.sample was called")

    monkeypatch.setattr(random.Random, "sample", refused)
    report = sample_consistency(s, 6, 300, 2)
    assert (report.inconsistent_samples, report.first_hit) == expected


def test_sampling_holds_a_bounded_batch(monkeypatch):
    # 4,096 draws of at most 8 rows at a time, and fewer of larger draws;
    # the point of rows 0 and 1 of this random system satisfies no other
    # row, so every draw of 3 or more rows is scanned
    scanned = []
    scan = helly.linear._scan_sets

    def recorded(rows, k, sets, covered):
        scanned.append(len(sets))
        return scan(rows, k, sets, covered)

    monkeypatch.setattr(helly.linear, "_scan_sets", recorded)
    s = gen_random_linear(40, 2, seed=5)
    for size, trials, batches, bad in ((3, 5000, [4096, 904], 4852), (40, 2000, [819, 819, 362], 2000)):
        scanned.clear()
        assert sample_consistency(s, size, trials, seed=1).inconsistent_samples == bad
        assert scanned == batches


def test_sampling_a_consistent_system_scans_no_draw(monkeypatch):
    # the first k rows of each system are independent, so their point is
    # the planted one and covers every row: no draw reaches the scan
    def refused(rows, k, sets, covered):
        raise AssertionError("a covered draw was scanned")

    monkeypatch.setattr(helly.linear, "_scan_sets", refused)
    for seed in range(20):
        k = 1 + seed % 5
        s = gen_consistent_linear(30, k, seed)
        report = sample_consistency(s, k + 1, 500, seed)
        assert (report.inconsistent_samples, report.first_hit) == (0, None)
    s = gen_consistent_linear(20000, 3, 1)
    assert sample_consistency(s, 4, 2000, 1).inconsistent_samples == 0


def _contaminated_system(rng, k, n, bad):
    """A planted system in ``k`` unknowns with the right sides of the rows
    ``bad`` moved off the planted point."""
    s = random_nondegenerate_system(rng, k, n, planted=True)
    return linear_system(
        [eq.coeffs for eq in s.equations],
        [eq.rhs + (rng.choice([-2, -1, 1, 2]) if i in bad else 0) for i, eq in enumerate(s.equations)],
    )


def test_cover_keeps_certify_and_sampling_on_contaminated_systems():
    # 1 to 3 bad rows at random positions; a third of the systems have a
    # bad row 0 and a third one among the first k rows, so that the
    # sampling cover is weak
    rng = random.Random(2020)
    for trial in range(240):
        k = 1 + trial % 5
        n = rng.randint(k + 1, 11)
        bad = rng.sample(range(n), rng.randint(1, min(3, n)))
        if trial % 3 < 2:
            bad[0] = 0 if trial % 3 == 0 else rng.randrange(k)
        s = _contaminated_system(rng, k, n, set(bad))
        cert = helly_certify(s)
        expected = exhaustive_min_inconsistent(s)
        assert (cert.subsystem if isinstance(cert, Inconsistent) else None) == expected
        size = rng.randint(1, min(k + 1, n))
        report = sample_consistency(s, size, 60, trial)
        assert (report.inconsistent_samples, report.first_hit) == _replayed_sample(s, size, 60, trial)


def _full_rank_rule_system(rng, shape):
    """A system for the full-rank rule of ``_scan_sets`` in one of four
    shapes, each with one or two right sides moved off a planted point:
    ``late``, where clean paths of ``k`` independent rows let the rule
    fire, as in late-cert; ``repeats``, with covered rows repeated so
    that a clean path of ``k`` rows can have rank below ``k``; ``low``,
    with row 1 a multiple of row 0, so that the first ``k`` rows do not
    pin a point and the sampling cover is weak; and ``k0``, rows ``0 = c``
    in no unknowns, where the empty path already has full rank."""
    if shape == "k0":
        n = rng.randint(1, 9)
        return linear_system([[]] * n, [rng.choice([0, 0, 0, 1, -2]) for _ in range(n)])
    k = rng.randint(1, 4)
    n = rng.randint(k + 2, 10)
    bad = set(rng.sample(range(n), rng.randint(1, 2)))
    s = _contaminated_system(rng, k, n, bad)
    rows = [list(eq.coeffs) for eq in s.equations]
    rhs = [eq.rhs for eq in s.equations]
    if shape == "repeats":
        for i in rng.sample(range(1, n), rng.randint(1, n - 1)):
            j = rng.randrange(i)
            if j not in bad and i not in bad:
                f = rng.choice([1, 1, -1, 2])
                rows[i], rhs[i] = [f * c for c in rows[j]], f * rhs[j]
    elif shape == "low" and k > 1:
        f = rng.choice([1, -1, 3])
        rows[1], rhs[1] = [f * c for c in rows[0]], f * rhs[0] + (rng.choice([-1, 1]) if 1 in bad else 0)
    return linear_system(rows, rhs)


@pytest.mark.parametrize("shape", ["late", "repeats", "low", "k0"])
def test_full_rank_rule_matches_the_oracles(shape):
    # the rule settles a row by its cover bit only on a clean path of
    # full rank; firing one pivot early, or on a path that holds an
    # uncovered row, changes verdicts in every shape but k0
    rng = random.Random({"late": 2401, "repeats": 2402, "low": 2403, "k0": 2404}[shape])
    for trial in range(120):
        s = _full_rank_rule_system(rng, shape)
        minimum = exhaustive_min_inconsistent(s)
        m = s.n + 1 if minimum is None else len(minimum)
        for size in range(s.n + 1):
            got = all_subsystems_consistent(s, size)
            if size < m:
                assert got is None
            elif size == m:
                assert got == minimum
            else:
                assert got is not None and not _oracle_consistent(s, got)
            if size <= s.unknowns + 2:
                report = sample_consistency(s, size, 30, trial)
                assert (report.inconsistent_samples, report.first_hit) == _replayed_sample(s, size, 30, trial)


def test_all_subsystems_matches_a_per_subset_oracle_scan():
    # the docstring's dependent prefix: x = 0 twice, then x = 1
    assert all_subsystems_consistent(linear_system([[1], [1], [1]], [0, 0, 1]), 3) == (0, 1, 2)
    rng = random.Random(1212)
    for _ in range(1000):
        s = random_structured_system(rng)
        size = rng.randint(0, s.n)
        expected = next(
            (idx for idx in combinations(range(s.n), size) if not _oracle_consistent(s, idx)), None
        )
        assert all_subsystems_consistent(s, size) == expected


def test_certify_refuses_an_oversized_search_only_when_inconsistent():
    planted = gen_consistent_linear(59, 6, seed=3)
    rows = [list(eq.coeffs) for eq in planted.equations]
    rhs = [eq.rhs for eq in planted.equations]
    assert isinstance(helly_certify(linear_system(rows, rhs)), Consistent)
    with pytest.raises(ValueError, match="subsets; refused"):
        helly_certify(linear_system(rows + [[1, 10, 100, 1000, 10000, 100000]], rhs + [1234567]))
