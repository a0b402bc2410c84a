"""Independent checks of the answers that ``helly`` prints.

This module imports nothing from ``helly``. It parses the instance files
on its own, decides linear consistency with its own exact ``Fraction``
elimination, and tests disks with squared distances only. Every check
raises ``CheckFailed`` with a reason, so a wrong answer can never pass
as a slow one.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from fractions import Fraction
from itertools import combinations
from typing import Sequence

Row = list[Fraction]
DiskData = tuple[Fraction, Fraction, Fraction]  # center x, center y, radius


class CheckFailed(Exception):
    """An answer of the program does not hold up."""


def _require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


def _rat(obj) -> Fraction:
    _require(
        isinstance(obj, list)
        and len(obj) == 2
        and all(isinstance(v, int) and not isinstance(v, bool) for v in obj)
        and obj[1] != 0,
        f"not a rational [num, den] pair: {obj!r}",
    )
    return Fraction(obj[0], obj[1])


def answer(stdout: str) -> dict:
    """The JSON object a ``--format json`` command printed."""
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from exc
    _require(isinstance(doc, dict), "output is not a JSON object")
    return doc


# ---------------------------------------------------------------------------
# Instance files


def parse_linear(text: str) -> tuple[int, list[Row], Row]:
    doc = json.loads(text)
    k = doc["unknowns"]
    rows = [[_rat(c) for c in eq["coeffs"]] for eq in doc["equations"]]
    rhs = [_rat(eq["rhs"]) for eq in doc["equations"]]
    return k, rows, rhs


def parse_disks(text: str) -> list[DiskData]:
    doc = json.loads(text)
    return [
        (_rat(d["center"][0]), _rat(d["center"][1]), _rat(d["radius"])) for d in doc["disks"]
    ]


# ---------------------------------------------------------------------------
# Linear algebra over Fraction


def _echelon(rows: Sequence[Row], rhs: Sequence[Fraction] | None = None) -> tuple[int, bool]:
    """Rank of ``rows`` and whether ``rows x = rhs`` has a solution."""
    ncols = len(rows[0]) if rows else 0
    a = [list(r) + ([rhs[i]] if rhs is not None else []) for i, r in enumerate(rows)]
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        top = a[rank]
        for i in range(rank + 1, len(a)):
            if a[i][c]:
                f = a[i][c] / top[c]
                a[i] = [x - f * y for x, y in zip(a[i], top)]
        rank += 1
    solvable = rhs is None or all(not row[ncols] for row in a[rank:])
    return rank, solvable


def rank(rows: Sequence[Row]) -> int:
    return _echelon(rows)[0]


def consistent(rows: Sequence[Row], rhs: Sequence[Fraction], idx: Sequence[int] | None = None) -> bool:
    if idx is not None:
        rows = [rows[i] for i in idx]
        rhs = [rhs[i] for i in idx]
    return _echelon(rows, rhs)[1]


def _dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((x * y for x, y in zip(u, v)), Fraction(0))


def _indices(obj, n: int, what: str) -> tuple[int, ...]:
    _require(
        isinstance(obj, list) and all(isinstance(i, int) and not isinstance(i, bool) for i in obj),
        f"{what} is not a list of equation indices",
    )
    idx = tuple(obj)
    _require(list(idx) == sorted(set(idx)), f"{what} {idx} is not strictly increasing")
    _require(all(0 <= i < n for i in idx), f"{what} {idx} has an index out of range")
    return idx


def check_certify(
    k: int,
    rows: list[Row],
    rhs: Row,
    rc,
    doc: dict,
    appended: int | None = None,
    first_minimum: bool = False,
) -> None:
    """``linear certify --format json``: verdict, exit code and certificate.

    ``appended`` names a row that every inconsistent subsystem must hold,
    because the other rows share a planted solution. ``first_minimum``
    asks that the subsystem be the first minimum-size one in
    size-then-lexicographic order.
    """
    n = len(rows)
    whole = consistent(rows, rhs)
    verdict = doc.get("verdict")
    if verdict == "consistent":
        _require(rc == 0, f"consistent verdict with exit code {rc!r}")
        _require(whole, "system reported consistent, but it has no solution")
        wit = doc.get("witness")
        _require(isinstance(wit, dict), "consistent verdict without a witness")
        point = [_rat(x) for x in wit.get("point", [])]
        basis = [[_rat(x) for x in vec] for vec in wit.get("nullspace", [])]
        _require(len(point) == k, "witness point has the wrong dimension")
        _require(all(len(v) == k for v in basis), "nullspace vector has the wrong dimension")
        for i, (row, b) in enumerate(zip(rows, rhs)):
            _require(_dot(row, point) == b, f"witness point fails equation {i}")
            for v in basis:
                _require(_dot(row, v) == 0, f"nullspace vector not annihilated by equation {i}")
        _require(len(basis) == k - rank(rows), "nullspace dimension is not k minus the rank")
        _require(not basis or rank(basis) == len(basis), "nullspace vectors are dependent")
        return
    _require(verdict == "inconsistent", f"unknown verdict {verdict!r}")
    _require(rc == 1, f"inconsistent verdict with exit code {rc!r}")
    _require(not whole, "system reported inconsistent, but it has a solution")
    sub = _indices(doc.get("subsystem"), n, "subsystem")
    _require(1 <= len(sub) <= k + 1, f"subsystem {sub} has more than k+1 rows")
    _require(not consistent(rows, rhs, sub), f"subsystem {sub} is consistent")
    for drop in sub:
        rest = [i for i in sub if i != drop]
        _require(consistent(rows, rhs, rest), f"subsystem {sub} stays inconsistent without {drop}")
    if appended is not None:
        _require(appended in sub, f"subsystem {sub} misses the appended row {appended}")
    if first_minimum:
        s = len(sub)
        # Consistency is inherited by subsets, so all (s-1)-subsets being
        # consistent rules out every smaller certificate as well.
        for idx in combinations(range(n), s - 1):
            _require(consistent(rows, rhs, idx), f"smaller inconsistent subsystem {idx} exists")
        for idx in combinations(range(n), s):
            if idx == sub:
                break
            _require(consistent(rows, rhs, idx), f"{idx} comes before {sub} and is inconsistent")


def check_sample(
    k: int,
    rows: list[Row],
    rhs: Row,
    rc,
    doc: dict,
    size: int,
    trials: int,
    seed: int,
    appended: int | None = None,
) -> None:
    """``linear sample --format json``: the report echoes its inputs, and
    its first hit, when there is one, is an inconsistent subsystem."""
    _require(rc == 0, f"sample exited with {rc!r}")
    _require(doc.get("samples_drawn") == trials, "samples_drawn differs from trials")
    _require(doc.get("subsystem_size") == size, "subsystem_size differs from --size")
    _require(doc.get("seed") == seed, "seed differs from --seed")
    bad = doc.get("inconsistent_samples")
    _require(isinstance(bad, int) and 0 <= bad <= trials, f"inconsistent_samples {bad!r} out of range")
    hit = doc.get("first_hit")
    if hit is None:
        _require(bad == 0, "inconsistent samples counted, but no first hit")
        return
    _require(bad >= 1, "a first hit, but no inconsistent samples counted")
    hit = _indices(hit, len(rows), "first_hit")
    _require(len(hit) == size, f"first_hit {hit} does not have {size} rows")
    _require(not consistent(rows, rhs, hit), f"first_hit {hit} is consistent")
    if appended is not None:
        _require(appended in hit, f"first_hit {hit} misses the appended row {appended}")


# ---------------------------------------------------------------------------
# Disks


def box_meets_disk(box: tuple[Fraction, Fraction, Fraction, Fraction], d: DiskData) -> bool:
    """Whether the closed box (xlo, xhi, ylo, yhi) and closed disk meet."""
    xlo, xhi, ylo, yhi = box
    x, y, r = d
    dx = max(xlo - x, x - xhi, 0)
    dy = max(ylo - y, y - yhi, 0)
    return dx * dx + dy * dy <= r * r


def disk_within(inner: DiskData, outer: DiskData) -> bool:
    """Closed containment, exact: |c1 - c2| + r1 <= r2, squared."""
    (x1, y1, r1), (x2, y2, r2) = inner, outer
    dx, dy = x1 - x2, y1 - y2
    return r1 <= r2 and dx * dx + dy * dy <= (r2 - r1) ** 2


def check_common_point(disks: list[DiskData], rc, doc: dict, bits: int) -> None:
    """``disks check`` on a family with a common point: the printed
    enclosure box must meet every disk."""
    _require(rc == 0, f"common-point family answered with exit code {rc!r}")
    _require(doc.get("verdict") == "common-point", f"verdict {doc.get('verdict')!r}, expected common-point")
    pt = doc.get("point")
    _require(isinstance(pt, dict), "common-point verdict without a point")
    _require(pt.get("precision_bits") == bits, "precision_bits differs from --precision")
    xlo, xhi = _rat(pt["x"]["low"]), _rat(pt["x"]["high"])
    ylo, yhi = _rat(pt["y"]["low"]), _rat(pt["y"]["high"])
    _require(xlo <= xhi and ylo <= yhi, "enclosure box is empty")
    for i, d in enumerate(disks):
        _require(box_meets_disk((xlo, xhi, ylo, yhi), d), f"enclosure box misses disk {i}")


def check_triple(rc, doc: dict, expected: Sequence[int]) -> None:
    """``disks check`` on a family whose only violating triple is known."""
    _require(rc == 1, f"violating family answered with exit code {rc!r}")
    _require(doc.get("verdict") == "violating-triple", f"verdict {doc.get('verdict')!r}")
    _require(doc.get("triple") == list(expected), f"triple {doc.get('triple')!r}, expected {list(expected)}")


def check_query_svg(rc, svg_text: str, n_disks: int) -> None:
    """``disks svg --query``: well-formed XML with one outline circle per
    disk, the region, the closest-pair segment and the separating line."""
    _require(rc == 0, f"svg exited with {rc!r}")
    try:
        root = ET.fromstring(svg_text)
    except ET.ParseError as exc:
        raise CheckFailed(f"SVG does not parse: {exc}") from exc
    _require(root.tag.endswith("svg"), f"root element is {root.tag!r}")
    elems = list(root.iter())
    outlines = [e for e in elems if e.tag.endswith("circle") and e.get("fill") == "none"]
    _require(len(outlines) == n_disks, f"{len(outlines)} disk outlines for {n_disks} disks")
    regions = [e for e in elems if e.get("fill-opacity") is not None]
    _require(len(regions) == 1, f"{len(regions)} region shapes, expected 1")
    lines = [e for e in elems if e.tag.endswith("line")]
    dashed = [e for e in lines if e.get("stroke-dasharray")]
    _require(len(lines) == 2 and len(dashed) == 1, "expected one segment and one separating line")
