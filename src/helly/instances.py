"""Instance files and built-in generators.

Instances travel as JSON with every rational written as an exact
``[numerator, denominator]`` integer pair; decimal floats would silently
break exactness at the boundary, so they are rejected. Serialization is
canonical (fixed key order, two-space indent, trailing newline), making
generate -> serialize -> parse -> re-serialize byte-identical. The writers
build that text directly from each rational's numerator and denominator:
the same bytes as ``json.dumps(doc, indent=2) + "\n"``, whose indented
form runs the pure-Python encoder over every pair.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from typing import Sequence

from .disks import Disk, disk
from .linear import Equation, LinearSystem, equation, linear_system

FORMAT_VERSION = 1


def _rat_pair(x: Fraction) -> list[int]:
    return [x.numerator, x.denominator]


def _parse_rat(obj) -> Fraction:
    # ``type(v) is int`` also refuses bool, a subclass of int
    if type(obj) is not list or len(obj) != 2 or type(obj[0]) is not int or type(obj[1]) is not int:
        raise ValueError(f"expected a [numerator, denominator] integer pair, got {obj!r}")
    num, den = obj
    if den == 1:  # Fraction(num, 1) would take the normalizing path
        return Fraction(num)
    if den == 0:
        raise ValueError("rational denominator must be nonzero")
    return Fraction(num, den)


def _rat_text(x: Fraction, pad: str) -> str:
    """x as the pair ``[numerator, denominator]`` with its brackets at
    indent ``pad``, laid out as ``json.dumps(..., indent=2)`` does."""
    return f"[\n{pad}  {x.numerator},\n{pad}  {x.denominator}\n{pad}]"


def _list_text(items: list[str], pad: str) -> str:
    """A JSON list with its brackets at indent ``pad`` of items already
    laid out two spaces deeper; ``[]`` when empty, as ``json`` writes it."""
    if not items:
        return "[]"
    return f"[\n{pad}  " + f",\n{pad}  ".join(items) + f"\n{pad}]"


def dumps_linear(system: LinearSystem) -> str:
    eqs = [
        f'{{\n      "coeffs": {_list_text([_rat_text(c, " " * 8) for c in eq.coeffs], " " * 6)},\n'
        f'      "rhs": {_rat_text(eq.rhs, " " * 6)}\n    }}'
        for eq in system.equations
    ]
    return (
        f'{{\n  "version": {FORMAT_VERSION},\n  "kind": "linear",\n  "unknowns": {system.unknowns},\n'
        f'  "equations": {_list_text(eqs, "  ")}\n}}\n'
    )


def dumps_disks(family: Sequence[Disk]) -> str:
    ds = [
        f'{{\n      "center": [\n        {_rat_text(d.x, " " * 8)},\n        {_rat_text(d.y, " " * 8)}\n'
        f'      ],\n      "radius": {_rat_text(d.r, " " * 6)}\n    }}'
        for d in family
    ]
    return f'{{\n  "version": {FORMAT_VERSION},\n  "kind": "disks",\n  "disks": {_list_text(ds, "  ")}\n}}\n'


def parse_instance(text: str):
    """Parse an instance document; returns a LinearSystem or a list of Disk."""
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
        rows, rhs = [], []
        for e in eqs:
            if not isinstance(e, dict) or "coeffs" not in e or "rhs" not in e:
                raise ValueError("each equation needs 'coeffs' and 'rhs'")
            if not isinstance(e["coeffs"], list):
                raise ValueError("equation 'coeffs' must be a list of rationals")
            coeffs = [_parse_rat(c) for c in e["coeffs"]]
            if len(coeffs) != unknowns:
                raise ValueError("equation coefficient count must equal 'unknowns'")
            rows.append(coeffs)
            rhs.append(_parse_rat(e["rhs"]))
        return LinearSystem(
            unknowns, tuple(Equation(tuple(r), b) for r, b in zip(rows, rhs))
        )
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
            x, y = _parse_rat(center[0]), _parse_rat(center[1])
            r = _parse_rat(item["radius"])
            if r <= 0:
                raise ValueError("disk radius must be positive")
            out.append(Disk(x, y, r))
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


def _nonzero_row(rng: random.Random, k: int) -> list[int]:
    """Integer coefficients in [-5, 5], redrawn until one is nonzero."""
    while True:
        row = [rng.randint(-5, 5) for _ in range(k)]
        if any(row):
            return row


def gen_random_linear(n: int, k: int, seed: int) -> LinearSystem:
    """Random nondegenerate equations with integer data in [-5, 5]."""
    _check_size(n, k)
    rng = random.Random(seed)
    eqs = [equation(_nonzero_row(rng, k), rng.randint(-5, 5)) for _ in range(n)]
    return LinearSystem(k, tuple(eqs))


def gen_consistent_linear(n: int, k: int, seed: int) -> LinearSystem:
    """Random nondegenerate system with a planted integer solution."""
    _check_size(n, k)
    rng = random.Random(seed)
    solution = [rng.randint(-3, 3) for _ in range(k)]
    eqs = []
    for _ in range(n):
        row = _nonzero_row(rng, k)
        eqs.append(equation(row, sum(c * x for c, x in zip(row, solution))))
    return LinearSystem(k, tuple(eqs))


def gen_random_disks(n: int, seed: int) -> list[Disk]:
    """Random rational disks in a small box; no structure planted."""
    _check_size(n)
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        x = Fraction(rng.randint(-16, 16), rng.randint(1, 4))
        y = Fraction(rng.randint(-16, 16), rng.randint(1, 4))
        r = Fraction(rng.randint(1, 16), rng.randint(1, 4))
        out.append(Disk(x, y, r))
    return out


def gen_helly_disks(n: int, seed: int) -> list[Disk]:
    """Random disks all containing one planted rational point."""
    _check_size(n)
    rng = random.Random(seed)
    px = Fraction(rng.randint(-8, 8), 2)
    py = Fraction(rng.randint(-8, 8), 2)
    out = []
    for _ in range(n):
        x = Fraction(rng.randint(-16, 16), rng.randint(1, 4))
        y = Fraction(rng.randint(-16, 16), rng.randint(1, 4))
        # |dx| + |dy| bounds the Euclidean distance, so this radius covers p.
        r = abs(x - px) + abs(y - py) + Fraction(rng.randint(1, 8), 4)
        out.append(Disk(x, y, r))
    return out
