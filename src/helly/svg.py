"""Write-only SVG drawings of disk families and their intersection.

The drawing is display output, and no float in it feeds a predicate.
Outlines and the bounding box divide each disk's integers, (X ± R)/M,
X/M, Y/M and R/M, one correctly rounded division each. Points are the
nearest floats to their exact coordinates (``radicals.point_float``) or
the midpoints of certified enclosures, and the separating line's
direction is ``radicals.quad_float`` of its normal. Each region arc's
large-arc flag is the exact ``radicals.turn_about`` on its carrier's
integers. Outlines follow the family's input order.
"""

from __future__ import annotations

from typing import Sequence

from .disks import ArcRegion, Disk, RegionKind
from .radicals import point_float, quad_float, turn_about
from .separation import SeparatingLine

SIZE = 640  # px, the longer side of every drawing

_STYLE_DISK = 'fill="none" stroke="#444444" stroke-width="1.5"'
_STYLE_QUERY = 'fill="none" stroke="#b03030" stroke-width="2"'
_STYLE_REGION = 'fill="#6f9bd8" fill-opacity="0.55" stroke="#1f4e9c" stroke-width="1.5"'
_STYLE_SEGMENT = 'stroke="#1e8a1e" stroke-width="2"'
_STYLE_LINE = 'stroke="#1e8a1e" stroke-width="1.5" stroke-dasharray="6 4"'


class _Canvas:
    def __init__(self, xs: list[float], ys: list[float], size: int) -> None:
        pad = 0.08 * max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
        self.x0, self.x1 = min(xs) - pad, max(xs) + pad
        self.y0, self.y1 = min(ys) - pad, max(ys) + pad
        span = max(self.x1 - self.x0, self.y1 - self.y0)
        self.scale = size / span
        self.width = (self.x1 - self.x0) * self.scale
        self.height = (self.y1 - self.y0) * self.scale

    def pt(self, x: float, y: float) -> tuple[float, float]:
        return (x - self.x0) * self.scale, (self.y1 - y) * self.scale

    def length(self, w: float) -> float:
        return w * self.scale


def _region_path(region: ArcRegion, cv: _Canvas) -> str:
    parts = []
    first = True
    for arc in region.arcs:
        carrier = region.family[arc.disk]
        sx, sy = cv.pt(*point_float(arc.start))
        ex, ey = cv.pt(*point_float(arc.end))
        if first:
            parts.append(f"M {sx:.3f} {sy:.3f}")
            first = False
        r = cv.length(carrier.R / carrier.M)
        large = 1 if turn_about(arc.start, arc.end, carrier.X, carrier.Y, carrier.M) < 0 else 0
        # world-CCW arcs render with sweep 0 once the y axis is flipped
        parts.append(f"A {r:.3f} {r:.3f} 0 {large} 0 {ex:.3f} {ey:.3f}")
    parts.append("Z")
    return " ".join(parts)


def render_disks(
    family: Sequence[Disk],
    region: ArcRegion | None = None,
    query: int | None = None,
    separation: SeparatingLine | None = None,
) -> str:
    """Outlines over the region, ``family[query]`` in red; a ``separation``
    of that disk from the region adds the segment and the dashed line."""
    xs, ys = [], []
    for d in family:
        xs.extend([(d.X - d.R) / d.M, (d.X + d.R) / d.M])
        ys.extend([(d.Y - d.R) / d.M, (d.Y + d.R) / d.M])
    cv = _Canvas(xs, ys, SIZE)

    body = []
    if region is not None and region.kind is RegionKind.FULL:
        d = region.family[region.full_index]
        cxp, cyp = cv.pt(d.X / d.M, d.Y / d.M)
        body.append(
            f'<circle cx="{cxp:.3f}" cy="{cyp:.3f}" r="{cv.length(d.R / d.M):.3f}" {_STYLE_REGION}/>'
        )
    elif region is not None and region.kind is RegionKind.REGION:
        body.append(f'<path d="{_region_path(region, cv)}" {_STYLE_REGION}/>')
    elif region is not None and region.kind is RegionKind.POINT:
        px, py = cv.pt(*point_float(region.point))
        body.append(f'<circle cx="{px:.3f}" cy="{py:.3f}" r="3" fill="#1f4e9c"/>')

    for i, d in enumerate(family):
        cxp, cyp = cv.pt(d.X / d.M, d.Y / d.M)
        style = _STYLE_QUERY if i == query else _STYLE_DISK
        body.append(
            f'<circle cx="{cxp:.3f}" cy="{cyp:.3f}" r="{cv.length(d.R / d.M):.3f}" {style}/>'
        )

    if separation is not None:
        on_g = point_float(separation.point)
        (tx_lo, tx_hi), (ty_lo, ty_hi) = separation.closest.on_t(60)
        on_t = (float((tx_lo + tx_hi) / 2), float((ty_lo + ty_hi) / 2))
        axp, ayp = cv.pt(*on_t)
        bxp, byp = cv.pt(*on_g)
        body.append(f'<line x1="{axp:.3f}" y1="{ayp:.3f}" x2="{bxp:.3f}" y2="{byp:.3f}" {_STYLE_SEGMENT}/>')
        body.append(f'<circle cx="{axp:.3f}" cy="{ayp:.3f}" r="2.5" fill="#1e8a1e"/>')
        body.append(f'<circle cx="{bxp:.3f}" cy="{byp:.3f}" r="2.5" fill="#1e8a1e"/>')

        nx, ny = quad_float(separation.normal[0]), quad_float(separation.normal[1])
        norm = max((nx * nx + ny * ny) ** 0.5, 1e-12)
        # the line runs perpendicular to the normal, well past the scene
        span = 4 * max(d.R / d.M for d in family) + 10
        dx, dy = -ny / norm * span, nx / norm * span
        axp, ayp = cv.pt(on_g[0] - dx, on_g[1] - dy)
        bxp, byp = cv.pt(on_g[0] + dx, on_g[1] + dy)
        body.append(f'<line x1="{axp:.3f}" y1="{ayp:.3f}" x2="{bxp:.3f}" y2="{byp:.3f}" {_STYLE_LINE}/>')

    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{cv.width:.0f}" '
        f'height="{cv.height:.0f}" viewBox="0 0 {cv.width:.3f} {cv.height:.3f}">'
    )
    background = f'<rect width="{cv.width:.3f}" height="{cv.height:.3f}" fill="#ffffff"/>'
    return "\n".join([head, background, *body, "</svg>"]) + "\n"
