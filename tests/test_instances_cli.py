import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from math import isqrt, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helly
from helly.cli import (
    _GENERATORS,
    MAX_GEN_COEFFS,
    MAX_GEN_K,
    MAX_GEN_N,
    MAX_PRECISION,
    MAX_SAMPLE_INDICES,
    MAX_SAMPLE_WORK,
    MAX_SVG_N,
    MAX_TRIALS,
    main,
)
from helly.instances import (
    dumps_disks,
    dumps_linear,
    gen_consistent_linear,
    gen_helly_disks,
    gen_random_disks,
    gen_random_linear,
    _parse_pairs,
    parse_instance,
    tetrahedral_system,
    venn_triple,
)
from helly.disks import Disk, disk, minimalist_helly_check
from helly.exactq import integer_row
from helly.linear import Equation, LinearSystem, linear_system
from helly.radicals import point_float

from helpers import (
    prime_family,
    random_structured_system,
    reference_dumps_disks,
    reference_dumps_linear,
    ring_family,
)


# -- instance files ----------------------------------------------------------


def test_linear_round_trip_byte_identical():
    for system in (tetrahedral_system(), gen_random_linear(9, 3, seed=5), gen_consistent_linear(7, 2, seed=1)):
        text = dumps_linear(system)
        again = dumps_linear(parse_instance(text))
        assert text == again


def test_disks_round_trip_byte_identical():
    for fam in (venn_triple(), gen_random_disks(6, seed=3), gen_helly_disks(5, seed=11)):
        text = dumps_disks(fam)
        again = dumps_disks(parse_instance(text))
        assert text == again


def test_parse_round_trip_preserves_values():
    s = tetrahedral_system()
    parsed = parse_instance(dumps_linear(s))
    assert isinstance(parsed, LinearSystem)
    assert parsed == s
    fam = venn_triple()
    assert parse_instance(dumps_disks(fam)) == fam


def test_writers_match_json_on_generated_instances():
    rng = random.Random(22)
    systems = [tetrahedral_system()] + [random_structured_system(rng) for _ in range(60)]
    families = [venn_triple(), ring_family(9), prime_family(rng, 12), prime_family(rng, 7, planted=True)]
    for n in (0, 1, 2, 7, 31):
        for seed in range(3):
            for k in (1, 3, 6):
                systems += [gen_random_linear(n, k, seed), gen_consistent_linear(n, k, seed)]
            families += [gen_random_disks(n, seed), gen_helly_disks(n, seed), ring_family(n)]
    for system in systems:
        assert dumps_linear(system) == reference_dumps_linear(system)
    for fam in families:
        assert dumps_disks(fam) == reference_dumps_disks(fam)


def test_writers_match_json_on_edge_cases():
    huge = Fraction(-(10**400 + 7), 3**500)
    systems = [
        LinearSystem(4, ()),  # zero equations keep their unknowns
        LinearSystem(0, (Equation((), Fraction(0)), Equation((), Fraction(-5, 2)))),
        linear_system([[-3, Fraction(-7, 2)], [0, 1]], [Fraction(-1, 9), -8]),
        linear_system([[huge, 1 / huge, 2]], [huge * huge]),
    ]
    families = [
        [],
        [disk(Fraction(-5, 3), -2, Fraction(7, 4)), disk(0, Fraction(-1, 99), 1)],
        [disk(huge, -1 / huge, -huge), disk(1, 2, 3)],
    ]
    for system in systems:
        text = dumps_linear(system)
        assert text == reference_dumps_linear(system)
        assert parse_instance(text) == system
    for fam in families:
        text = dumps_disks(fam)
        assert text == reference_dumps_disks(fam)
        assert parse_instance(text) == fam


def test_parse_rejects_floats():
    doc = {
        "version": 1,
        "kind": "disks",
        "disks": [{"center": [[0, 1], [0, 1]], "radius": [1.5, 1]}],
    }
    with pytest.raises(ValueError):
        parse_instance(json.dumps(doc))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(version=2),
        lambda d: d.update(kind="mystery"),
        lambda d: d.pop("disks"),
    ],
)
def test_parse_rejects_malformed_documents(mutate):
    doc = json.loads(dumps_disks(venn_triple()))
    mutate(doc)
    with pytest.raises(ValueError):
        parse_instance(json.dumps(doc))


@pytest.mark.parametrize("version", [True, 1.0, "1"])
def test_version_must_be_the_integer_one(tmp_path, capsys, version):
    # True == 1.0 == 1 in Python, so equality alone would accept these
    doc = json.loads(dumps_disks(venn_triple()))
    doc["version"] = version
    with pytest.raises(ValueError, match="unsupported format version"):
        parse_instance(json.dumps(doc))
    path = tmp_path / "versioned.json"
    path.write_text(json.dumps(doc))
    assert main(["disks", "check", str(path)]) == 2
    assert f"error: unsupported format version {version!r}" in capsys.readouterr().err


def test_parse_rejects_zero_denominator():
    doc = {
        "version": 1,
        "kind": "disks",
        "disks": [{"center": [[0, 1], [0, 0]], "radius": [1, 1]}],
    }
    with pytest.raises(ValueError):
        parse_instance(json.dumps(doc))


@pytest.mark.parametrize("obj", [[True, 1], [1, False], [1.0, 1], [1, 2, 3], "1/2"])
def test_parse_rat_refuses_anything_but_an_integer_pair(obj):
    want = f"expected a [numerator, denominator] integer pair, got {obj!r}"
    with pytest.raises(ValueError) as err:
        _parse_pairs([obj])
    assert str(err.value) == want
    doc = {"version": 1, "kind": "linear", "unknowns": 1, "equations": [{"coeffs": [obj], "rhs": [0, 1]}]}
    with pytest.raises(ValueError) as err:
        parse_instance(json.dumps(doc))
    assert str(err.value) == want


def test_parse_rat_values():
    with pytest.raises(ValueError) as err:
        _parse_pairs([[1, 0]])
    assert str(err.value) == "rational denominator must be nonzero"
    cases = [([2, -4], Fraction(-1, 2)), ([6, 1], Fraction(6)), ([0, -3], Fraction(0)), ([-9, 3], Fraction(-3))]
    for obj, want in cases:
        # one pair comes back over its own denominator, in lowest terms
        assert _parse_pairs([obj]) == ([want.numerator], want.denominator)


def _random_pair(rng, seen):
    """A ``[num, den]`` pair, often unreduced, with zero numerators,
    negative denominators, ``den == 1`` and 400-digit entries among them;
    ``seen`` collects which of those it was."""
    def big():
        return rng.choice([-1, 1]) * rng.randrange(10**399, 10**400)

    roll = rng.random()
    num = 0 if roll < 0.15 else big() if roll < 0.25 else rng.randint(-12, 12)
    roll = rng.random()
    den = 1 if roll < 0.3 else big() if roll < 0.4 else rng.choice([-1, 1]) * rng.randint(1, 12)
    kinds = {
        "zero": num == 0,
        "den-1": den == 1,
        "negative-den": den < 0,
        "unreduced": Fraction(num, den).denominator != abs(den),
        "400-digit": max(abs(num), abs(den)) >= 10**399,
    }
    seen.update(k for k, hit in kinds.items() if hit)
    return [num, den]


def test_parse_matches_the_fraction_path_on_random_pairs():
    rng = random.Random(2025)
    seen = set()
    for _ in range(300):
        k = rng.randint(0, 4)
        rows = [[_random_pair(rng, seen) for _ in range(k + 1)] for _ in range(rng.randint(0, 5))]
        doc = {
            "version": 1,
            "kind": "linear",
            "unknowns": k,
            "equations": [{"coeffs": row[:-1], "rhs": row[-1]} for row in rows],
        }
        got = parse_instance(json.dumps(doc))
        values = [[Fraction(*pair) for pair in row] for row in rows]
        want = LinearSystem(k, tuple(Equation(v[:-1], v[-1]) for v in values))
        assert got == want
        assert [list(eq.row) for eq in got.equations] == [integer_row(v) for v in values]
        assert [eq.den for eq in got.equations] == [lcm(*(x.denominator for x in v)) for v in values]
        assert [(*eq.coeffs, eq.rhs) for eq in got.equations] == [tuple(v) for v in values]
        assert dumps_linear(got) == reference_dumps_linear(want)

        disks = [[_random_pair(rng, seen) for _ in range(3)] for _ in range(rng.randint(0, 5))]
        for d in disks:
            num, den = d[2]
            if Fraction(num, den) <= 0:  # a radius must be positive
                d[2] = [-num, den] if num else [1, abs(den)]
        doc = {"version": 1, "kind": "disks", "disks": [{"center": d[:2], "radius": d[2]} for d in disks]}
        got = parse_instance(json.dumps(doc))
        values = [[Fraction(*pair) for pair in d] for d in disks]
        want = [Disk(*v) for v in values]
        assert got == want
        for d, v in zip(got, values):
            m = lcm(*(x.denominator for x in v))
            assert (d.X, d.Y, d.R, d.M) == (*(x.numerator * (m // x.denominator) for x in v), m)
            assert (d.x, d.y, d.r) == tuple(v)
        assert dumps_disks(got) == reference_dumps_disks(want)
    assert seen == {"zero", "den-1", "negative-den", "unreduced", "400-digit"}


def test_parse_rejects_bad_json():
    with pytest.raises(ValueError):
        parse_instance("{not json")


# -- command line ------------------------------------------------------------


def _gen(tmp_path, kind, name, *extra):
    path = tmp_path / name
    assert main(["gen", kind, "--out", str(path), *extra]) == 0
    return path


def test_cli_tetrahedron_certify_exit_one(tmp_path, capsys):
    path = _gen(tmp_path, "tetrahedron", "t.json")
    code = main(["linear", "certify", str(path), "--format", "json"])
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert out == {"verdict": "inconsistent", "subsystem": [0, 1, 2, 3]}


@pytest.mark.parametrize(
    "flags, module, argv",
    [([], "helly", None), ([], "helly.cli", None), (["-O"], "helly", None), ([], "helly", ["--help"])],
    ids=["helly", "helly.cli", "helly-O", "helly-help"],
)
def test_cli_runs_as_a_module(tmp_path, flags, module, argv):
    # 0 = 0 and 0 = 3: the second equation alone is the certificate; -O
    # strips every assert, which must never be the only guard of exactness
    path = tmp_path / "bad.json"
    path.write_text(dumps_linear(linear_system([[0], [0]], [0, 3])))
    src = str(Path(helly.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, *flags, "-m", module, *(argv or ["linear", "certify", str(path)])],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.stderr == ""
    if argv:
        assert done.returncode == 0
        assert done.stdout.startswith("usage: helly")
    else:
        assert done.returncode == 1
        assert done.stdout == "inconsistent; smallest inconsistent subsystem: equations {1}\n"


def test_cli_gen_tetrahedron_matches_builtin(tmp_path):
    path = _gen(tmp_path, "tetrahedron", "t.json")
    assert path.read_text() == dumps_linear(tetrahedral_system())


def test_cli_consistent_linear_certifies_zero(tmp_path, capsys):
    path = _gen(tmp_path, "consistent-linear", "c.json", "--n", "100", "--k", "3", "--seed", "7")
    code = main(["linear", "certify", str(path), "--format", "json"])
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert payload["verdict"] == "consistent"
    system = parse_instance(path.read_text())
    point = [__import__("fractions").Fraction(n, d) for n, d in payload["witness"]["point"]]
    assert system.satisfied_by(point)


def test_cli_empty_system_certifies_whole_space(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"version": 1, "kind": "linear", "unknowns": 3, "equations": []}) + "\n")
    code = main(["linear", "certify", str(path), "--format", "json"])
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert len(payload["witness"]["nullspace"]) == 3


def test_cli_sample_deterministic_and_golden(tmp_path, capsys):
    path = _gen(tmp_path, "tetrahedron", "t.json")
    capsys.readouterr()
    code = main(["linear", "sample", str(path), "--size", "3", "--trials", "500", "--seed", "2"])
    first = capsys.readouterr().out
    assert code == 0
    assert main(["linear", "sample", str(path), "--size", "3", "--trials", "500", "--seed", "2"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "0 inconsistent" in first

    code = main(["linear", "sample", str(path), "--size", "4", "--trials", "1", "--seed", "2", "--format", "json"])
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert payload["inconsistent_samples"] == 1
    assert payload["first_hit"] == [0, 1, 2, 3]


@pytest.mark.parametrize(
    "system, argv, out",
    [
        (
            tetrahedral_system,
            ["--size", "3", "--trials", "500", "--seed", "2"],
            '{"samples_drawn": 500, "subsystem_size": 3, "inconsistent_samples": 0, "first_hit": null, '
            '"seed": 2, "generator": "python-mersenne-twister"}\n',
        ),
        (
            lambda: gen_random_linear(12, 2, 7),
            ["--size", "3", "--trials", "40", "--seed", "-3"],
            '{"samples_drawn": 40, "subsystem_size": 3, "inconsistent_samples": 40, "first_hit": [3, 8, 9], '
            '"seed": -3, "generator": "python-mersenne-twister"}\n',
        ),
    ],
    ids=["no-hit", "hit"],
)
def test_cli_sample_json_golden(tmp_path, capsys, system, argv, out):
    # byte for byte, key order included, as recorded before the report
    # stopped being a dataclass
    path = tmp_path / "s.json"
    path.write_text(dumps_linear(system()))
    assert main(["linear", "sample", str(path), *argv, "--format", "json"]) == 0
    assert capsys.readouterr().out == out


def _text_braces(text: str) -> str:
    return text[text.index("{") : text.index("}") + 1]


def test_cli_text_index_sets_are_sorted(tmp_path, capsys):
    # set order would print {9, 2, 5} and {8, 3} here
    venn = iter(venn_triple())
    radii = iter(range(10, 17))
    fam = [next(venn) if i in (2, 5, 9) else disk(1, Fraction(7, 12), next(radii)) for i in range(10)]
    disks_path = tmp_path / "fam.json"
    disks_path.write_text(dumps_disks(fam))
    system = linear_system([[1]] * 9, [0] * 8 + [1])
    linear_path = tmp_path / "lin.json"
    linear_path.write_text(dumps_linear(system))
    sample = ["linear", "sample", str(linear_path), "--size", "2", "--trials", "20", "--seed", "3"]
    for argv, key in (
        (["disks", "check", str(disks_path)], "triple"),
        (sample, "first_hit"),
        (["linear", "certify", str(linear_path)], "subsystem"),
    ):
        main(argv)
        text = capsys.readouterr().out
        main([*argv, "--format", "json"])
        indices = json.loads(capsys.readouterr().out)[key]
        assert _text_braces(text) == "{" + ", ".join(str(i) for i in sorted(indices)) + "}"


def test_cli_sample_size_too_large_is_input_error(tmp_path, capsys):
    path = _gen(tmp_path, "tetrahedron", "t.json")
    assert main(["linear", "sample", str(path), "--size", "9", "--trials", "5"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_disks_check_venn_exit_one(tmp_path, capsys):
    path = tmp_path / "venn3.json"
    path.write_text(dumps_disks(venn_triple()))
    code = main(["disks", "check", str(path), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload == {"verdict": "violating-triple", "triple": [0, 1, 2]}


def test_cli_disks_check_planted_family_exit_zero(tmp_path, capsys):
    path = _gen(tmp_path, "helly-disks", "h.json", "--n", "8", "--seed", "7")
    capsys.readouterr()
    code = main(["disks", "check", str(path), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["verdict"] == "common-point"
    assert payload["point"]["x"]["low"][1] > 0


def test_cli_disks_check_duplicates_match_dedup(tmp_path, capsys):
    fam = venn_triple()
    p1 = tmp_path / "a.json"
    p1.write_text(dumps_disks(fam + [fam[0]]))
    code = main(["disks", "check", str(p1)])
    capsys.readouterr()
    assert code == 1


def test_cli_disks_check_needs_three(tmp_path, capsys):
    path = tmp_path / "two.json"
    path.write_text(dumps_disks(venn_triple()[:2]))
    assert main(["disks", "check", str(path)]) == 2
    capsys.readouterr()


def test_cli_svg_plain_and_with_query(tmp_path, capsys):
    path = tmp_path / "venn3.json"
    path.write_text(dumps_disks(venn_triple()))
    out = tmp_path / "venn.svg"
    assert main(["disks", "svg", str(path), "--out", str(out)]) == 0
    doc = out.read_text()
    assert doc.count("<circle") >= 3
    assert "<path" not in doc  # empty region: no filled arc polygon
    capsys.readouterr()

    lens = tmp_path / "lens.json"
    lens.write_text(dumps_disks([
        venn_triple()[0], venn_triple()[1],
    ]))
    out2 = tmp_path / "lens.svg"
    assert main(["disks", "svg", str(lens), "--out", str(out2)]) == 0
    assert "<path" in out2.read_text()
    capsys.readouterr()


def test_cli_svg_query_draws_segment_and_line(tmp_path, capsys):
    from fractions import Fraction

    from helly import Disk

    disks = [
        Disk(Fraction(0), Fraction(-1), Fraction(3, 2)),
        Disk(Fraction(0), Fraction(1), Fraction(3, 2)),
        Disk(Fraction(4), Fraction(0), Fraction(1)),
    ]
    path = tmp_path / "corner.json"
    path.write_text(dumps_disks(disks))
    out = tmp_path / "corner.svg"
    assert main(["disks", "svg", str(path), "--out", str(out), "--query", "2"]) == 0
    doc = out.read_text()
    assert doc.count("<line") == 2  # the segment plus the separating line
    capsys.readouterr()


def test_cli_svg_query_outlines_follow_input_order(tmp_path, capsys):
    disks = [disk(4, 0, 1), disk(0, -1, Fraction(3, 2)), disk(0, 1, Fraction(3, 2))]
    path = tmp_path / "corner.json"
    path.write_text(dumps_disks(disks))
    out = tmp_path / "corner.svg"
    assert main(["disks", "svg", str(path), "--out", str(out), "--query", "0"]) == 0
    outlines = [ln for ln in out.read_text().splitlines() if ln.startswith("<circle") and 'fill="none"' in ln]
    assert len(outlines) == 3
    assert 'stroke="#b03030"' in outlines[0]
    assert all('stroke="#444444"' in ln for ln in outlines[1:])
    capsys.readouterr()


def test_cli_svg_query_must_be_disjoint(tmp_path, capsys):
    from helly import Disk
    from fractions import Fraction

    disks = [Disk(Fraction(0), Fraction(0), Fraction(2)), Disk(Fraction(1), Fraction(0), Fraction(2)), Disk(Fraction(0), Fraction(1), Fraction(2))]
    path = tmp_path / "overlap.json"
    path.write_text(dumps_disks(disks))
    assert main(["disks", "svg", str(path), "--out", str(tmp_path / "x.svg"), "--query", "0"]) == 2
    capsys.readouterr()


def test_cli_malformed_file_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["linear", "certify", str(bad)]) == 2
    assert main(["disks", "check", str(bad)]) == 2
    capsys.readouterr()


def test_cli_wrong_kind_exit_two(tmp_path, capsys):
    path = tmp_path / "venn3.json"
    path.write_text(dumps_disks(venn_triple()))
    assert main(["linear", "certify", str(path)]) == 2
    capsys.readouterr()


def test_cli_missing_file_exit_two(capsys):
    assert main(["linear", "certify", "/no/such/file.json"]) == 2
    capsys.readouterr()


def test_cli_unknown_gen_kind_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "mystery-kind"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_cli_gen_to_stdout(capsys):
    assert main(["gen", "tetrahedron"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["kind"] == "linear"


# every kind of ``helly gen``, built by the library with the same sizes
_GEN_KINDS = {
    "tetrahedron": lambda n, k, seed: tetrahedral_system(),
    "random-linear": gen_random_linear,
    "consistent-linear": gen_consistent_linear,
    "random-disks": lambda n, k, seed: gen_random_disks(n, seed),
    "helly-disks": lambda n, k, seed: gen_helly_disks(n, seed),
}


@pytest.mark.parametrize("kind", sorted(_GEN_KINDS))
@pytest.mark.parametrize("n, k, seed", [(0, 2, 1), (1, 1, 0), (9, 3, 4)])
def test_cli_gen_writes_the_reference_text(kind, n, k, seed, tmp_path, capsys):
    assert set(_GEN_KINDS) == set(_GENERATORS)
    made = _GEN_KINDS[kind](n, k, seed)
    reference = reference_dumps_linear if isinstance(made, LinearSystem) else reference_dumps_disks
    expected = reference(made)
    argv = ["gen", kind, "--n", str(n), "--k", str(k), "--seed", str(seed)]
    assert main(argv) == 0
    assert capsys.readouterr().out == expected
    path = tmp_path / "out.json"
    assert main([*argv, "--out", str(path)]) == 0
    assert capsys.readouterr().out == f"wrote {path}\n"
    assert path.read_bytes() == expected.encode()


def test_cli_reads_its_words_from_sys_argv(monkeypatch, capsys):
    # the console script calls main() with no argv, as entry() does
    assert main(["gen", "tetrahedron"]) == 0
    expected = capsys.readouterr()
    monkeypatch.setattr(sys, "argv", ["helly", "gen", "tetrahedron"])
    assert main() == 0
    assert capsys.readouterr() == expected


def test_cli_threads_env_validated(tmp_path, capsys, monkeypatch):
    path = _gen(tmp_path, "tetrahedron", "t.json")
    capsys.readouterr()
    monkeypatch.setenv("HELLY_THREADS", "not-a-number")
    assert main(["linear", "certify", str(path)]) == 2
    monkeypatch.setenv("HELLY_THREADS", "0")
    assert main(["linear", "certify", str(path)]) == 1
    capsys.readouterr()


def test_cli_random_kinds_deterministic(tmp_path):
    a = _gen(tmp_path, "random-disks", "a.json", "--n", "6", "--seed", "9")
    b = _gen(tmp_path, "random-disks", "b.json", "--n", "6", "--seed", "9")
    assert a.read_text() == b.read_text()
    c = _gen(tmp_path, "random-linear", "c.json", "--n", "6", "--k", "2", "--seed", "3")
    d = _gen(tmp_path, "random-linear", "d.json", "--n", "6", "--k", "2", "--seed", "3")
    assert c.read_text() == d.read_text()


def test_cli_disk_inside_region_touching_two_arcs(tmp_path, capsys):
    from helly import disk

    path = tmp_path / "inner.json"
    path.write_text(dumps_disks([disk(0, 0, 2), disk(1, 1, 2), disk(1, 0, 1)]))
    code = main(["disks", "check", str(path), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["verdict"] == "common-point"


def test_cli_internal_fault_exits_three(tmp_path, capsys, monkeypatch):
    import helly.linear

    path = tmp_path / "ok.json"
    path.write_text(dumps_linear(helly.linear.linear_system([[1, 1], [1, -1]], [2, 0])))
    monkeypatch.setattr(helly.linear, "witness_satisfies", lambda system, witness: False)
    assert main(["linear", "certify", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "consistent-linear", "--n", "3", "--k", "-2"],
        ["gen", "random-linear", "--n", "3", "--k", "0"],
        ["gen", "random-linear", "--n", "-3"],
        ["gen", "consistent-linear", "--n", "-1"],
        ["gen", "random-disks", "--n", "-1"],
        ["gen", "helly-disks", "--n", "-2"],
    ],
)
def test_cli_gen_rejects_bad_sizes(argv, capsys):
    assert main(argv) == 2
    assert "error" in capsys.readouterr().err


def test_cli_gen_zero_equations_keeps_unknowns(capsys):
    for kind in ("random-linear", "consistent-linear"):
        assert main(["gen", kind, "--n", "0", "--k", "4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["unknowns"] == 4
        assert doc["equations"] == []


@pytest.mark.parametrize("bits", [-3, MAX_PRECISION + 1])
@pytest.mark.parametrize("command", ["check"])
def test_cli_precision_out_of_range_is_input_error(tmp_path, capsys, command, bits):
    path = tmp_path / "venn3.json"
    path.write_text(dumps_disks(venn_triple()))
    assert main(["disks", command, str(path), "--precision", str(bits)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --precision")


def test_cli_svg_takes_no_precision(tmp_path, capsys):
    path = tmp_path / "venn3.json"
    path.write_text(dumps_disks(venn_triple()))
    out = tmp_path / "venn.svg"
    with pytest.raises(SystemExit) as exc:
        main(["disks", "svg", str(path), "--out", str(out), "--precision", "8"])
    assert exc.value.code == 2
    assert "--precision" in capsys.readouterr().err
    assert not out.exists()


def test_cli_precision_zero_is_accepted(tmp_path, capsys):
    path = _gen(tmp_path, "helly-disks", "h.json", "--n", "8", "--seed", "7")
    capsys.readouterr()
    assert main(["disks", "check", str(path), "--precision", "0", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["point"]["precision_bits"] == 0


# -- faults that must end in exit 2, not a traceback --------------------------


def test_cli_unwritable_out_is_input_error(tmp_path, capsys):
    bad = str(tmp_path / "no-such-dir" / "x.json")
    assert main(["gen", "helly-disks", "--n", "4", "--out", bad]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {bad}")
    path = tmp_path / "venn3.json"
    path.write_text(dumps_disks(venn_triple()))
    bad_svg = str(tmp_path / "no-such-dir" / "x.svg")
    assert main(["disks", "svg", str(path), "--out", bad_svg]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {bad_svg}")


def test_cli_deeply_nested_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    assert main(["linear", "certify", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: not valid JSON")


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d["equations"][0].update(coeffs=4),
        # one unknown, so True would pass the coefficient count
        lambda d: d.update(unknowns=True),
    ],
    ids=["coeffs-not-a-list", "unknowns-bool"],
)
def test_cli_malformed_linear_fields_are_input_errors(tmp_path, capsys, mutate):
    doc = json.loads(dumps_linear(linear_system([[1], [2]], [1, 2])))
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["linear", "certify", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["gen", "helly-disks", "--n", str(MAX_GEN_N + 1)], "--n"),
        (["gen", "random-disks", "--n", str(MAX_GEN_N + 1)], "--n"),
        (["gen", "tetrahedron", "--n", str(MAX_GEN_N + 1)], "--n"),
        (["gen", "random-linear", "--n", str(MAX_GEN_N + 1)], "--n"),
        (["gen", "consistent-linear", "--k", str(MAX_GEN_K + 1)], "--k"),
        (["gen", "random-linear", "--k", str(MAX_GEN_K + 1)], "--k"),
    ],
)
def test_cli_gen_refuses_oversize_requests(argv, flag, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} must be at most")


@pytest.mark.parametrize("kind", ["random-linear", "consistent-linear"])
def test_cli_gen_refuses_too_many_coefficients_before_generating(kind, capsys, monkeypatch):
    # each flag is within its own cap; the product is one row past
    # MAX_GEN_COEFFS, so the generator must never run
    calls = []
    name = "gen_" + kind.replace("-", "_")
    monkeypatch.setattr(helly.instances, name, lambda *a: calls.append(a) or tetrahedral_system())
    k = MAX_GEN_K
    n = MAX_GEN_COEFFS // k + 1
    assert n <= MAX_GEN_N
    assert main(["gen", kind, "--n", str(n), "--k", str(k)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and calls == []
    assert captured.err.startswith("error: --n times --k must be at most")
    # the shape at the cap is admitted and reaches the generator
    assert main(["gen", kind, "--n", str(n - 1), "--k", str(k)]) == 0
    assert calls == [(n - 1, k, 0)]


def test_cli_rechecks_an_inconsistent_certificate(tmp_path, capsys, monkeypatch):
    import helly.cli
    from helly.linear import Inconsistent

    path = _gen(tmp_path, "tetrahedron", "t.json")
    capsys.readouterr()
    # (0, 1, 2) is consistent, and (0, 1, 2, 3, 3) stays inconsistent when
    # one of its two 3s is dropped
    for wrong in ((0, 1, 2), (0, 1, 2, 3, 3)):
        monkeypatch.setattr(helly.cli, "helly_certify", lambda system: Inconsistent(wrong))
        assert main(["linear", "certify", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error: subsystem")


def test_cli_reports_a_fold_without_a_minimum_subsystem(tmp_path, capsys, monkeypatch):
    import helly.linear

    path = _gen(tmp_path, "tetrahedron", "t.json")
    capsys.readouterr()
    monkeypatch.setattr(helly.linear, "_first_minimum_inconsistent", lambda rows, k, bad: None)
    assert main(["linear", "certify", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: inconsistent system with no inconsistent subsystem")


def test_cli_reports_a_walk_triple_that_meets(tmp_path, capsys, monkeypatch):
    import helly.disks

    path = tmp_path / "venn3.json"
    path.write_text(dumps_disks(venn_triple()))
    monkeypatch.setattr(helly.disks, "triple_meet", lambda a, b, c: True)
    assert main(["disks", "check", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: the walk named disks")


_TWO_MET_ONE_APART = [disk(0, 0, 1), disk(10, 0, 1), disk(5, 5, 1)]


@pytest.mark.parametrize(
    "text, query, threads, message",
    [
        (dumps_disks(venn_triple()), "-1", None, "query index -1 out of range"),
        (dumps_disks(venn_triple()), "3", None, "query index 3 out of range"),
        (dumps_disks(venn_triple()[:1]), "0", None, "query needs at least one other disk"),
        (dumps_disks(_TWO_MET_ONE_APART), "2", None, "the other disks have empty intersection"),
        (dumps_disks(venn_triple()), None, "-1", "HELLY_THREADS must be nonnegative"),
        ("[]", None, None, "instance document must be a JSON object"),
        ('{"version": 1, "kind": "linear", "unknowns": 1, "equations": {}}', None, None,
         "'equations' must be a list"),
    ],
    ids=["query-negative", "query-past-end", "one-disk", "others-empty", "threads-negative",
         "not-an-object", "equations-not-a-list"],
)
def test_cli_svg_input_errors_write_nothing(tmp_path, capsys, monkeypatch, text, query, threads, message):
    path = tmp_path / "in.json"
    path.write_text(text)
    out = tmp_path / "out.svg"
    if threads is not None:
        monkeypatch.setenv("HELLY_THREADS", threads)
    argv = ["disks", "svg", str(path), "--out", str(out)] + (["--query", query] if query else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert not out.exists()


def test_cli_rechecks_a_common_point(tmp_path, capsys, monkeypatch):
    import helly.cli
    from helly.disks import CommonPoint
    from helly.radicals import qpoint

    path = _gen(tmp_path, "helly-disks", "h.json", "--n", "6", "--seed", "1")
    assert main(["disks", "check", str(path)]) == 0
    capsys.readouterr()
    # the planted family meets, but far from (10^6, 0)
    monkeypatch.setattr(helly.cli, "minimalist_helly_check", lambda family: CommonPoint(qpoint(10**6, 0)))
    for fmt in ("text", "json"):
        assert main(["disks", "check", str(path), "--format", fmt]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error:")


@pytest.mark.parametrize("verdict", ["point", "triple"])
def test_cli_rechecks_a_disk_verdict_with_the_oracle(tmp_path, capsys, monkeypatch, verdict):
    import helly.cli
    from helly.disks import CommonPoint, ViolatingTriple
    from helly.radicals import qpoint

    # disks 0, 1 and 2 meet at the origin, which disk 3 misses
    path = tmp_path / "four.json"
    path.write_text(dumps_disks([disk(0, 0, 2), disk(1, 0, 2), disk(0, 1, 2), disk(3, 0, 1)]))
    wrong = CommonPoint(qpoint(0, 0)) if verdict == "point" else ViolatingTriple((0, 1, 2))
    monkeypatch.setattr(helly.cli, "minimalist_helly_check", lambda family: wrong)
    for fmt in ("text", "json"):
        assert main(["disks", "check", str(path), "--format", fmt]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error:")


def _near_miss_verdict(name):
    """A family and a wrong verdict that only exact arithmetic can refute."""
    from helly.disks import CommonPoint, ViolatingTriple
    from helly.radicals import QuadPoint

    if name == "lens-corner":
        # (1/2, -sqrt(15)/2) is the lower corner of the first two disks; the
        # third disk's radius falls short of its distance sqrt(15)/2 from the
        # corner by about 10^-20, so the corner lies outside it
        r = Fraction(isqrt(15 * 10**40), 2 * 10**20)
        family = [disk(0, 0, 2), disk(1, 0, 2), disk(Fraction(1, 2), 0, r)]
        return family, CommonPoint(QuadPoint(1, 0, 0, -1, 15, 2))
    # the first two disks touch from outside at (1, 0), which lies inside
    # the third and is no disk's bottom; the fourth is far off
    family = [disk(0, 0, 1), disk(2, 0, 1), disk(3, 2, 3), disk(10, 10, 1)]
    return family, ViolatingTriple((0, 1, 2))


@pytest.mark.parametrize("name", ["lens-corner", "tangency-triple"])
def test_cli_rechecks_a_near_miss_disk_verdict(tmp_path, capsys, monkeypatch, name):
    import helly.cli

    family, wrong = _near_miss_verdict(name)
    path = tmp_path / "near.json"
    path.write_text(dumps_disks(family))
    # the lens family meets and the tangency family does not
    assert main(["disks", "check", str(path)]) == (0 if name == "lens-corner" else 1)
    capsys.readouterr()
    monkeypatch.setattr(helly.cli, "minimalist_helly_check", lambda family: wrong)
    for fmt in ("text", "json"):
        assert main(["disks", "check", str(path), "--format", fmt]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error:")


def test_cli_refuses_an_oversized_certify_at_once(tmp_path, capsys):
    # 59 planted rows and one generic row in 6 unknowns: the walk rooted
    # at that row could test 1 + sum C(59, s) for s <= 6, about 5.1e7
    # subsets
    planted = gen_consistent_linear(59, 6, seed=1)
    system = linear_system(
        [list(eq.coeffs) for eq in planted.equations] + [[1, 10, 100, 1000, 10000, 100000]],
        [eq.rhs for eq in planted.equations] + [1234567],
    )
    path = tmp_path / "late.json"
    path.write_text(dumps_linear(system))
    start = time.perf_counter()
    assert main(["linear", "certify", str(path)]) == 2
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "subsets; refused" in captured.err


def test_cli_certifies_one_bad_row_past_the_unrooted_size(tmp_path, capsys):
    # 124 planted rows and one generic row in 3 unknowns. A walk of every
    # set of 1 to 4 rows could visit sum C(125, s) for s <= 4 = 10,017,000
    # nodes, past the cap; the fold lists only row 124, and the walk rooted
    # at it visits at most 1 + C(124, 1) + C(124, 2) + C(124, 3) = 317,875
    planted = gen_consistent_linear(124, 3, seed=1)
    system = linear_system(
        [list(eq.coeffs) for eq in planted.equations] + [[1, 10, 100]],
        [eq.rhs for eq in planted.equations] + [1234],
    )
    path = tmp_path / "late.json"
    path.write_text(dumps_linear(system))
    start = time.perf_counter()
    # exit 1 only once is_minimal_inconsistent accepts the subsystem
    assert main(["linear", "certify", str(path)]) == 1
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == "inconsistent; smallest inconsistent subsystem: equations {0, 1, 2, 124}\n"
    assert captured.err == ""


@pytest.mark.parametrize(
    "argv",
    [["linear", "certify"], ["linear", "sample", "--size", "0", "--trials", "1"]],
    ids=["certify", "sample"],
)
def test_cli_refuses_too_many_unknowns(tmp_path, capsys, argv):
    # an empty equation list would still build a 10**9 x 10**9 nullspace basis
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"version": 1, "kind": "linear", "unknowns": 10**9, "equations": []}))
    assert main([*argv[:2], str(path), *argv[2:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: 'unknowns' must be at most")


def test_cli_accepts_unknowns_at_the_cap(tmp_path, capsys):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"version": 1, "kind": "linear", "unknowns": MAX_GEN_K, "equations": []}))
    assert main(["linear", "certify", str(path)]) == 0
    assert f"solution set dimension {MAX_GEN_K}" in capsys.readouterr().out


def _far_family(tmp_path):
    """Three meeting unit disks centred near (10**400, 0), past float range."""
    x, y = 10**400 + Fraction(1, 3), Fraction(-1, 7)
    path = tmp_path / "far.json"
    path.write_text(dumps_disks([disk(x, y, 1), disk(x + 1, y, 1), disk(x, y + 1, 1)]))
    return path


def test_cli_check_text_past_float_range(tmp_path, capsys):
    assert main(["disks", "check", str(_far_family(tmp_path))]) == 0
    line = capsys.readouterr().out.strip()
    # the lowest common point is the first centre, the bottom of the third disk
    assert line == f"common point exists; certified near ({10**400}.333333, -0.142857)"


def test_cli_svg_past_float_range_is_input_error(tmp_path, capsys):
    out = tmp_path / "far.svg"
    assert main(["disks", "svg", str(_far_family(tmp_path)), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.rstrip().endswith("too large to draw")
    assert not out.exists()


def test_cli_svg_refuses_a_family_past_the_cap(tmp_path, capsys):
    # copies of one disk clip in no time, so the cap alone decides
    for n, code in ((MAX_SVG_N, 0), (MAX_SVG_N + 1, 2)):
        path = tmp_path / f"copies{n}.json"
        path.write_text(dumps_disks([disk(0, 0, 1)] * n))
        out = tmp_path / f"copies{n}.svg"
        start = time.perf_counter()
        assert main(["disks", "svg", str(path), "--out", str(out)]) == code
        assert time.perf_counter() - start < 5
        assert out.exists() == (code == 0)
    captured = capsys.readouterr()
    assert captured.err == f"error: disks svg draws at most {MAX_SVG_N} disks, got {MAX_SVG_N + 1}\n"


def test_cli_check_text_rounds_like_the_float_format(tmp_path, capsys):
    for seed in range(40):
        fam = gen_helly_disks(5, seed)
        path = tmp_path / f"h{seed}.json"
        path.write_text(dumps_disks(fam))
        assert main(["disks", "check", str(path)]) == 0
        fx, fy = point_float(minimalist_helly_check(fam).point)
        assert capsys.readouterr().out.strip() == f"common point exists; certified near ({fx:.6f}, {fy:.6f})"


def test_cli_sample_refuses_too_many_trials(capsys):
    # the cap is checked before the file is read
    argv = ["linear", "sample", "/no/such/file.json", "--size", "2", "--trials", str(MAX_TRIALS + 1)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: --trials must be at most")


def test_cli_sample_refuses_too_many_drawn_indices(capsys):
    # trials * size is checked before the file is read, so neither command
    # draws anything: one past the cap is refused at once, and the cap
    # itself passes on to the missing file
    path = "/no/such/file.json"
    over = ["linear", "sample", path, "--size", "1000", "--trials", str(MAX_SAMPLE_INDICES // 1000 + 1)]
    start = time.perf_counter()
    assert main(over) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err == (
        f"error: --trials times --size must be at most {MAX_SAMPLE_INDICES}, "
        f"got {MAX_SAMPLE_INDICES + 1000}\n"
    )
    at_cap = ["linear", "sample", path, "--size", "1000", "--trials", str(MAX_SAMPLE_INDICES // 1000)]
    assert main(at_cap) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {path}")


def test_cli_sample_refuses_too_much_elimination(tmp_path, capsys, monkeypatch):
    # trials * size * unknowns**2 is checked once the file is read and
    # before any draw: one past the cap is refused at once without
    # sampling, and the cap itself samples
    k, size = 100, 5
    path = tmp_path / "wide.json"
    path.write_text(dumps_linear(gen_random_linear(size, k, seed=1)))
    sampled = []
    sample = helly.cli.sample_consistency
    monkeypatch.setattr(helly.cli, "sample_consistency", lambda *a: sampled.append(a) or sample(*a))
    trials = MAX_SAMPLE_WORK // (size * k * k)
    over = ["linear", "sample", str(path), "--size", str(size), "--trials", str(trials + 1)]
    start = time.perf_counter()
    assert main(over) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        f"error: --trials times --size times 'unknowns' squared must be at most {MAX_SAMPLE_WORK}, "
        f"got {(trials + 1) * size * k * k}\n"
    )
    assert sampled == []
    at_cap = ["linear", "sample", str(path), "--size", str(size), "--trials", str(trials)]
    assert main(at_cap) == 0
    assert len(sampled) == 1
    assert capsys.readouterr().out.startswith(f"drew {trials} subsystems of size {size}: ")


# -- mutated instance files ---------------------------------------------------

_BASES = (
    dumps_linear(tetrahedral_system()),
    dumps_disks(venn_triple()),
    dumps_disks(gen_helly_disks(4, 3)),
)

def _small_value(rng, depth=0):
    """A small JSON value: a scalar, or a short list or dict of them."""
    kind = rng.randrange(7 if depth < 2 else 5)
    if kind == 0:
        return None
    if kind == 1:
        return rng.random() < 0.5
    if kind == 2:
        return rng.randint(-3, 3)
    if kind == 3:
        return rng.uniform(-4, 4)
    if kind == 4:
        return rng.choice(["", "1", "linear", "disks"])
    if kind == 5:
        return [_small_value(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    return {rng.choice(["center", "radius", "coeffs", "rhs"]): _small_value(rng, depth + 1)}


def _paths(doc, prefix=()):
    """Every key or index path below the root of a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _mutated_file(rng) -> str:
    """One base file with one to three values replaced or deleted at
    random paths; one file in ten is also truncated."""
    doc = json.loads(rng.choice(_BASES))
    for _ in range(rng.randint(1, 3)):
        paths = list(_paths(doc))
        if not paths:
            break
        path = rng.choice(paths)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if rng.random() < 0.5:
            del parent[path[-1]]
        else:
            parent[path[-1]] = _small_value(rng)
    text = json.dumps(doc, indent=2)
    if rng.random() < 0.1:
        text = text[: rng.randint(0, len(text))]
    return text


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=True))
def test_cli_survives_mutated_instance_files(rng):
    text = _mutated_file(rng)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.json"
        path.write_text(text)
        svg = str(Path(tmp) / "m.svg")
        commands = [
            ["linear", "certify", str(path)],
            ["linear", "sample", str(path), "--size", "2", "--trials", "3"],
            ["disks", "check", str(path)],
            ["disks", "svg", str(path), "--out", svg],
            ["disks", "svg", str(path), "--out", svg, "--query", "0"],
        ]
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 1, 2), (argv, text)
