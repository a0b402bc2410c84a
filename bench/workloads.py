"""Seeded inputs and the command list of each benchmark workload.

``generate`` returns the commands of one round of a workload and the
instance files they read; ``build`` also writes the files. Each command
carries the check its answer must pass. The checks come from ``checker``
and from facts fixed by construction, never from a stored copy of
earlier output. The seeds stay here: the program sees only the files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import comb, isqrt
from pathlib import Path
from typing import Callable

import checker

WORKLOADS = ("linear-late-cert", "small-mixed", "disks-late-triple", "disks-long-clip")

PRECISION = 53  # the CLI's default --precision, which the commands leave unset

# linear-late-cert: every subset of at most k rows is consistent, so
# certify walks all of them before its size-(k+1) hit.
LATE_SYSTEMS, LATE_N, LATE_K = 2, 16, 5
BAD_ROW_RANGE = 10**6  # wide enough that the appended row is generic

# small-mixed: shaped like the acceptance pool (k <= 4, n <= 12).
SMALL_LINEAR, SMALL_DISKS, SMALL_SAMPLE_EVERY, SMALL_TRIALS = 800, 200, 8, 20
SMALL_SHAPES = [(k, n) for k in range(1, 5) for n in range(k + 1, 13)]

# disks-late-triple: large disks on a circle around the venn_triple().
TRIPLE_FAMILIES, TRIPLE_N = 4, 20
RING_RADIUS = 10
RING_LATTICE = 1105  # 5 * 13 * 17: 108 integer points on this circle
RING_CENTER = (Fraction(1), Fraction(7, 12))  # centroid of the venn_triple() centers

# disks-long-clip: decreasing radii, so every disk cuts the region.
CLIP_FAMILIES, CLIP_N = 10, 40
FAR_QUERY = (Fraction(1000), Fraction(1000), Fraction(1))


@dataclass(frozen=True)
class Command:
    """One CLI call: its arguments, the check of its answer, and the SVG
    file it writes, if any. ``check(rc, stdout, svg_text)`` raises
    ``checker.CheckFailed`` on a wrong answer."""

    argv: tuple[str, ...]
    check: Callable[[object, str, str | None], None]
    svg: str | None = None


class Files(dict):
    """The instance files of one round under ``work``, path to text. The
    builders only add them; ``write`` puts them on disk."""

    def __init__(self, work: Path) -> None:
        super().__init__()
        self.work = work

    def add(self, name: str, text: str) -> str:
        path = str(self.work / name)
        self[path] = text
        return path

    def write(self) -> None:
        for path, text in self.items():
            Path(path).write_text(text, encoding="utf-8")


def _check_certify(path, appended, first_minimum, rc, out, svg) -> None:
    k, rows, rhs = checker.parse_linear(Path(path).read_text(encoding="utf-8"))
    checker.check_certify(k, rows, rhs, rc, checker.answer(out), appended, first_minimum)


def _check_sample(path, size, trials, seed, appended, rc, out, svg) -> None:
    k, rows, rhs = checker.parse_linear(Path(path).read_text(encoding="utf-8"))
    checker.check_sample(k, rows, rhs, rc, checker.answer(out), size, trials, seed, appended)


def _check_common(path, rc, out, svg) -> None:
    disks = checker.parse_disks(Path(path).read_text(encoding="utf-8"))
    checker.check_common_point(disks, rc, checker.answer(out), PRECISION)


def _check_triple(expected, rc, out, svg) -> None:
    checker.check_triple(rc, checker.answer(out), expected)


def _check_svg(n_disks, rc, out, svg) -> None:
    checker.check_query_svg(rc, svg or "", n_disks)


def _certify(path: str, appended=None, first_minimum=False) -> Command:
    return Command(
        ("linear", "certify", path, "--format", "json"),
        partial(_check_certify, path, appended, first_minimum),
    )


def _sample(path: str, size: int, trials: int, seed: int, appended=None) -> Command:
    argv = ("linear", "sample", path, "--size", str(size), "--trials", str(trials))
    return Command(
        argv + ("--seed", str(seed), "--format", "json"),
        partial(_check_sample, path, size, trials, seed, appended),
    )


def _disk_check(path: str, triple=None) -> Command:
    check = partial(_check_triple, triple) if triple else partial(_check_common, path)
    return Command(("disks", "check", path, "--format", "json"), check)


def _ring_points() -> list[tuple[int, int]]:
    m = RING_LATTICE
    pts = []
    for a in range(-m, m + 1):
        b = isqrt(m * m - a * a)
        if b * b == m * m - a * a:
            pts.extend({(a, b), (a, -b)})
    return sorted(pts)


def _large_disks(helly, rng: random.Random, n: int, ring: list) -> list:
    """``n`` disks centred on a circle, each containing all of ``venn_triple()``."""
    venn = helly.instances.venn_triple()
    ox, oy = RING_CENTER
    out = []
    for a, b in rng.sample(ring, n):
        x = ox + Fraction(RING_RADIUS * a, RING_LATTICE)
        y = oy + Fraction(RING_RADIUS * b, RING_LATTICE)
        r = RING_RADIUS + Fraction(9, 4) + Fraction(rng.randint(0, 4), 8)
        for v in venn:
            if not checker.disk_within((v.x, v.y, v.r), (x, y, r)):
                raise RuntimeError(f"large disk {(x, y, r)} does not contain venn disk {v}")
        out.append(helly.disks.Disk(x, y, r))
    return out


def _triple_family(helly, rng: random.Random, n_large: int, ring: list) -> tuple[list, tuple[int, ...]]:
    """Large disks with the three ``venn_triple()`` disks at random
    positions. The venn disks are the only violating triple: any triple
    with a large disk holds a venn pair or a whole venn disk."""
    family = _large_disks(helly, rng, n_large, ring)
    slots = sorted(rng.sample(range(n_large + 3), 3))
    for slot, v in zip(slots, helly.instances.venn_triple()):
        family.insert(slot, v)
    return family, tuple(slots)


def _linear_late_cert(helly, rng, files, call) -> list[Command]:
    inst = helly.instances
    n, k = LATE_N, LATE_K
    cmds = []
    for s in range(LATE_SYSTEMS):
        planted = inst.gen_consistent_linear(n - 1, k, rng.randrange(2**32))
        row = [0] * k
        while not any(row):
            row = [rng.randint(-BAD_ROW_RANGE, BAD_ROW_RANGE) for _ in range(k)]
        system = helly.linear.linear_system(
            [list(eq.coeffs) for eq in planted.equations] + [row],
            [eq.rhs for eq in planted.equations] + [rng.randint(-BAD_ROW_RANGE, BAD_ROW_RANGE)],
        )
        path = files.add(f"late{s}.json", call("instances.dumps", inst.dumps_linear, system))
        cmds.append(_certify(path, appended=n - 1))
        cmds.append(_sample(path, k + 1, comb(n, k), rng.randrange(2**31), appended=n - 1))
    return cmds


def _small_mixed(helly, rng, files, call) -> list[Command]:
    # Shapes cycle in a fixed order, so every seed gets the same mix of
    # sizes and only the coefficients and coordinates vary.
    inst = helly.instances
    cmds = []
    for i in range(SMALL_LINEAR):
        k, n = SMALL_SHAPES[i % len(SMALL_SHAPES)]
        planted = (i // len(SMALL_SHAPES)) % 2 == 0
        gen = inst.gen_consistent_linear if planted else inst.gen_random_linear
        system = gen(n, k, rng.randrange(2**32))
        path = files.add(f"lin{i}.json", call("instances.dumps", inst.dumps_linear, system))
        cmds.append(_certify(path, first_minimum=True))
        if i % SMALL_SAMPLE_EVERY == 0:
            cmds.append(_sample(path, k + 1, SMALL_TRIALS, rng.randrange(2**31)))
    ring = _ring_points()
    for i in range(SMALL_DISKS):
        if i % 3 == 2:
            family, triple = _triple_family(helly, rng, 1 + (i // 3) % 5, ring)
        else:
            family, triple = inst.gen_helly_disks(3 + i % 6, rng.randrange(2**32)), None
        path = files.add(f"disks{i}.json", call("instances.dumps", inst.dumps_disks, family))
        cmds.append(_disk_check(path, triple))
    return cmds


def _disks_late_triple(helly, rng, files, call) -> list[Command]:
    ring = _ring_points()
    cmds = []
    for f in range(TRIPLE_FAMILIES):
        # The venn disks go last, so the region empties only at the last clip.
        family = _large_disks(helly, rng, TRIPLE_N, ring) + helly.instances.venn_triple()
        text = call("instances.dumps", helly.instances.dumps_disks, family)
        path = files.add(f"triple{f}.json", text)
        cmds.append(_disk_check(path, (TRIPLE_N, TRIPLE_N + 1, TRIPLE_N + 2)))
    return cmds


def _disks_long_clip(helly, rng, files, call) -> list[Command]:
    inst = helly.instances
    cmds = []
    for f in range(CLIP_FAMILIES):
        family = inst.gen_helly_disks(CLIP_N, rng.randrange(2**32))
        family.sort(key=lambda d: d.r, reverse=True)
        path = files.add(f"clip{f}.json", call("instances.dumps", inst.dumps_disks, family))
        cmds.append(_disk_check(path))
        query = family + [helly.disks.Disk(*FAR_QUERY)]
        qpath = files.add(f"query{f}.json", call("instances.dumps", inst.dumps_disks, query))
        out = str(files.work / f"query{f}.svg")
        argv = ("disks", "svg", qpath, "--query", str(CLIP_N), "--out", out)
        cmds.append(Command(argv, partial(_check_svg, CLIP_N + 1), svg=out))
    return cmds


_BUILDERS = {
    "linear-late-cert": _linear_late_cert,
    "small-mixed": _small_mixed,
    "disks-late-triple": _disks_late_triple,
    "disks-long-clip": _disks_long_clip,
}


def generate(helly, name: str, seed: int, work: Path, call: Callable) -> tuple[list[Command], Files]:
    """One round of commands of workload ``name`` and the instance files
    under ``work`` that they read, not yet written. ``helly`` is the
    imported package; ``call(span_name, fn, *args)`` is how the
    serializers get called."""
    rng = random.Random(f"{name}:{seed}")
    files = Files(work)
    return _BUILDERS[name](helly, rng, files, call), files


def build(helly, name: str, seed: int, work: Path, call: Callable) -> list[Command]:
    """``generate``, with the files written."""
    commands, files = generate(helly, name, seed, work, call)
    files.write()
    return commands

