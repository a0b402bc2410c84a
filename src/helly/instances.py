"""Instance files and built-in generators.

Instances travel as JSON with every rational written as an exact
``[numerator, denominator]`` integer pair; decimal floats would silently
break exactness at the boundary, so they are rejected. Serialization is
canonical (fixed key order, two-space indent, trailing newline), making
generate -> serialize -> parse -> re-serialize byte-identical.

Instances are integers all the way: an ``Equation`` keeps its augmented
row over one denominator and a ``Disk`` its (X, Y, R, M), and neither
the parser nor the generators build a ``Fraction`` to reach them. The
parser takes the pairs of a row or a disk over the lcm of their
denominators and reduces them by one gcd (``_over_lcm``). The generators
make ``randint``'s draws from ``getrandbits`` (``_randints``) and build
the same integers. The writers lay out each pair in lowest terms
straight from those integers: the same bytes as
``json.dumps(doc, indent=2) + "\n"``, whose indented form runs the
pure-Python encoder over every pair.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import islice
from math import gcd, lcm
from operator import mul
from typing import Iterator, Sequence

from .disks import Disk, disk
from .linear import Equation, LinearSystem, linear_system

FORMAT_VERSION = 1


def _rat_pair(x: Fraction) -> list[int]:
    return [x.numerator, x.denominator]


def _over_lcm(nums: list[int], dens: list[int]) -> tuple[list[int], int]:
    """The rationals ``nums[i] / dens[i]`` (no denominator zero) as integers
    over one positive denominator, the lcm of their reduced denominators:
    the form that ``Equation`` and ``Disk`` keep."""
    den = lcm(*dens)
    if den == 1:
        return [n * d for n, d in zip(nums, dens)], 1
    # den // d carries the sign of d; the gcd then reduces every pair at once
    row = [n * (den // d) for n, d in zip(nums, dens)]
    g = gcd(den, *row)
    if g > 1:
        return [v // g for v in row], den // g
    return row, den


def _parse_pairs(objs: Sequence) -> tuple[list[int], int]:
    """``[numerator, denominator]`` integer pairs, validated in order, as
    ``_over_lcm`` of their values."""
    for obj in objs:
        # ``type(v) is int`` also refuses bool, a subclass of int
        if type(obj) is not list or len(obj) != 2 or type(obj[0]) is not int or type(obj[1]) is not int:
            raise ValueError(f"expected a [numerator, denominator] integer pair, got {obj!r}")
        if not obj[1]:
            raise ValueError("rational denominator must be nonzero")
    return _over_lcm([n for n, _ in objs], [d for _, d in objs])


def _rat_text(v: int, den: int, pad: str) -> str:
    """The rational ``v / den`` as the pair ``[numerator, denominator]``
    in lowest terms, with its brackets at indent ``pad``, laid out as
    ``json.dumps(..., indent=2)`` does."""
    if den != 1:
        g = gcd(v, den)
        v, den = v // g, den // g
    return f"[\n{pad}  {v},\n{pad}  {den}\n{pad}]"


def _list_text(items: list[str], pad: str) -> str:
    """A JSON list with its brackets at indent ``pad`` of items already
    laid out two spaces deeper; ``[]`` when empty, as ``json`` writes it."""
    if not items:
        return "[]"
    return f"[\n{pad}  " + f",\n{pad}  ".join(items) + f"\n{pad}]"


def dumps_linear(system: LinearSystem) -> str:
    eqs = [
        f'{{\n      "coeffs": {_list_text([_rat_text(c, eq.den, " " * 8) for c in eq.row[:-1]], " " * 6)},\n'
        f'      "rhs": {_rat_text(eq.row[-1], eq.den, " " * 6)}\n    }}'
        for eq in system.equations
    ]
    return (
        f'{{\n  "version": {FORMAT_VERSION},\n  "kind": "linear",\n  "unknowns": {system.unknowns},\n'
        f'  "equations": {_list_text(eqs, "  ")}\n}}\n'
    )


def dumps_disks(family: Sequence[Disk]) -> str:
    ds = [
        f'{{\n      "center": [\n        {_rat_text(d.X, d.M, " " * 8)},\n        {_rat_text(d.Y, d.M, " " * 8)}\n'
        f'      ],\n      "radius": {_rat_text(d.R, d.M, " " * 6)}\n    }}'
        for d in family
    ]
    return f'{{\n  "version": {FORMAT_VERSION},\n  "kind": "disks",\n  "disks": {_list_text(ds, "  ")}\n}}\n'


def parse_instance(text: str):
    """Parse an instance document; returns a LinearSystem or a list of Disk.

    Each ``[numerator, denominator]`` pair goes straight to the integers
    an ``Equation`` or a ``Disk`` keeps (``_parse_pairs``); no
    ``Fraction`` is built."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc
    except RecursionError:
        raise ValueError("not valid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("instance document must be a JSON object")
    version = doc.get("version")
    if type(version) is not int or version != FORMAT_VERSION:  # True == 1.0 == 1
        raise ValueError(f"unsupported format version {version!r}")
    kind = doc.get("kind")
    if kind == "linear":
        unknowns = doc.get("unknowns")
        if not isinstance(unknowns, int) or isinstance(unknowns, bool) or unknowns < 0:
            raise ValueError("'unknowns' must be a nonnegative integer")
        eqs = doc.get("equations")
        if not isinstance(eqs, list):
            raise ValueError("'equations' must be a list")
        out = []
        for e in eqs:
            if not isinstance(e, dict) or "coeffs" not in e or "rhs" not in e:
                raise ValueError("each equation needs 'coeffs' and 'rhs'")
            coeffs = e["coeffs"]
            if not isinstance(coeffs, list):
                raise ValueError("equation 'coeffs' must be a list of rationals")
            if len(coeffs) != unknowns:
                _parse_pairs(coeffs)  # a malformed pair is reported first
                raise ValueError("equation coefficient count must equal 'unknowns'")
            row, den = _parse_pairs([*coeffs, e["rhs"]])
            out.append(Equation._of(tuple(row), den))
        return LinearSystem(unknowns, tuple(out))
    if kind == "disks":
        ds = doc.get("disks")
        if not isinstance(ds, list):
            raise ValueError("'disks' must be a list")
        out = []
        for item in ds:
            if not isinstance(item, dict) or "center" not in item or "radius" not in item:
                raise ValueError("each disk needs 'center' and 'radius'")
            center = item["center"]
            if not isinstance(center, list) or len(center) != 2:
                raise ValueError("disk center must be a pair of rationals")
            (x, y, r), m = _parse_pairs([center[0], center[1], item["radius"]])
            if r <= 0:
                raise ValueError("disk radius must be positive")
            out.append(Disk._of(x, y, r, m))
        return out
    raise ValueError(f"unknown instance kind {kind!r}")


# ---------------------------------------------------------------------------
# Built-in instances


def tetrahedral_system() -> LinearSystem:
    """Four planes positioned like tetrahedron faces: the three coordinate
    planes plus x + y + z = 1. Every three have a common point; all four
    do not."""
    return linear_system(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]],
        [0, 0, 0, 1],
    )


def venn_triple() -> list[Disk]:
    """Three disks in which every two overlap properly but no point lies
    in all three. Centers form a rational near-equilateral triangle with
    side lengths 2, sqrt(65)/4, sqrt(65)/4 and circumradius 65/56, which
    exceeds the radius 21/20."""
    r = Fraction(21, 20)
    return [disk(0, 0, r), disk(2, 0, r), disk(1, Fraction(7, 4), r)]


# ---------------------------------------------------------------------------
# Random generators (deterministic under seed)


def _check_size(n: int, k: int | None = None) -> None:
    if n < 0:
        raise ValueError(f"instance size n must be nonnegative, got {n}")
    if k is not None and k < 1:
        raise ValueError(f"unknown count k must be at least 1, got {k}")


def _randints(rng: random.Random, lo: int, hi: int) -> Iterator[int]:
    """Endless ``rng.randint(lo, hi)``, the same draws read from
    ``rng.getrandbits`` alone: CPython 3.11's ``_randbelow`` draws
    ``getrandbits`` of ``n.bit_length()`` bits for ``n = hi - lo + 1``,
    again while the draw is ``>= n``. Each value is drawn when it is
    asked for, so iterators on one ``rng`` interleave as calls would."""
    bits, n = rng.getrandbits, hi - lo + 1
    b = n.bit_length()
    while True:
        v = bits(b)
        if v < n:
            yield lo + v


def _nonzero_row(coeffs: Iterator[int], k: int) -> list[int]:
    """``k`` coefficients from ``coeffs``, redrawn until one is nonzero."""
    while True:
        row = list(islice(coeffs, k))
        if any(row):
            return row


def gen_random_linear(n: int, k: int, seed: int) -> LinearSystem:
    """Random nondegenerate equations with integer data in [-5, 5]."""
    _check_size(n, k)
    coeffs = _randints(random.Random(seed), -5, 5)
    eqs = [Equation._of((*_nonzero_row(coeffs, k), next(coeffs)), 1) for _ in range(n)]
    return LinearSystem(k, tuple(eqs))


def gen_consistent_linear(n: int, k: int, seed: int) -> LinearSystem:
    """Random nondegenerate system with a planted integer solution."""
    _check_size(n, k)
    rng = random.Random(seed)
    solution = list(islice(_randints(rng, -3, 3), k))
    coeffs = _randints(rng, -5, 5)
    eqs = []
    for _ in range(n):
        row = _nonzero_row(coeffs, k)
        eqs.append(Equation._of((*row, sum(map(mul, row, solution))), 1))
    return LinearSystem(k, tuple(eqs))


def gen_random_disks(n: int, seed: int) -> list[Disk]:
    """Random rational disks in a small box; no structure planted."""
    _check_size(n)
    rng = random.Random(seed)
    coord, radius, den = _randints(rng, -16, 16), _randints(rng, 1, 16), _randints(rng, 1, 4)
    out = []
    for _ in range(n):
        xn, xd, yn, yd = next(coord), next(den), next(coord), next(den)
        rn, rd = next(radius), next(den)
        (x, y, r), m = _over_lcm([xn, yn, rn], [xd, yd, rd])
        out.append(Disk._of(x, y, r, m))
    return out


def gen_helly_disks(n: int, seed: int) -> list[Disk]:
    """Random disks all containing one planted rational point."""
    _check_size(n)
    rng = random.Random(seed)
    half = _randints(rng, -8, 8)
    px, py = next(half), next(half)  # the point (px/2, py/2)
    coord, den, quarter = _randints(rng, -16, 16), _randints(rng, 1, 4), _randints(rng, 1, 8)
    out = []
    for _ in range(n):
        xn, xd, yn, yd = next(coord), next(den), next(coord), next(den)
        # over m = lcm(xd, yd, 4), a multiple of 2: |dx| + |dy| bounds the
        # Euclidean distance, so the radius |dx| + |dy| + c/4 covers p
        m = lcm(xd, yd, 4)
        x, y = xn * (m // xd), yn * (m // yd)
        r = abs(x - px * (m // 2)) + abs(y - py * (m // 2)) + next(quarter) * (m // 4)
        g = gcd(x, y, r, m)
        out.append(Disk._of(x // g, y // g, r // g, m // g))
    return out
