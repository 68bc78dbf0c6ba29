"""Deterministic SVG pictures of schemes with curves and arcs.

Polygons are drawn as regular polygons side by side; every strand through a
glued edge gets a point at its taut position along the side, and passages
are straight chords.  Output depends only on the model, never on time or
environment, so repeated renders are byte-identical.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from .curves import Item, TautConfig
from .schemes import Scheme

_COLORS = ("#c0392b", "#2980b9", "#27ae60", "#8e44ad", "#d35400", "#16a085")


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def render_svg(scheme: Scheme, items: Dict[str, Item]) -> str:
    cfg = TautConfig(scheme, items)
    radius = 130.0
    spacing = 2 * radius + 60.0
    height = 2 * radius + 80.0
    width = spacing * len(scheme.polygons) + 20.0

    # the points on each slot, counterclockwise
    slot_points: Dict[object, List[tuple]] = {}
    for p in cfg.passages:
        slot_points.setdefault(p.entry_slot, []).append(p.entry_point)
        slot_points.setdefault(p.exit_slot, []).append(p.exit_point)
    for pts in slot_points.values():
        pts.sort(key=cfg.position)

    # vertex and point coordinates per polygon
    point_xy: Dict[tuple, Tuple[float, float]] = {}
    lines: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    for pi, poly in enumerate(scheme.polygons):
        n = len(poly)
        cx = spacing * pi + radius + 40.0
        cy = radius + 40.0
        verts = []
        for k in range(n + 1):
            ang = -math.pi / 2 + 2 * math.pi * k / n
            verts.append((cx + radius * math.cos(ang), cy + radius * math.sin(ang)))
        path = " ".join(
            f"{'M' if k == 0 else 'L'} {_fmt(x)} {_fmt(y)}" for k, (x, y) in enumerate(verts)
        )
        lines.append(f'<path d="{path} Z" fill="none" stroke="#555" stroke-width="1.5"/>')
        # side labels and strand points
        for k, slot in enumerate(poly):
            (x0, y0), (x1, y1) = verts[k], verts[k + 1]
            mx, my = (x0 + x1) / 2, (y0 + y1) / 2
            lx = cx + (mx - cx) * 1.12
            ly = cy + (my - cy) * 1.12
            lines.append(
                f'<text x="{_fmt(lx)}" y="{_fmt(ly)}" font-size="11" '
                f'text-anchor="middle" fill="#333">{slot}</text>'
            )
            pts = slot_points.get(slot, [])
            for i, key in enumerate(pts):
                t = (i + 1) / (len(pts) + 1)
                point_xy[key] = (x0 + (x1 - x0) * t, y0 + (y1 - y0) * t)
    for i, name in enumerate(sorted(items)):
        color = _COLORS[i % len(_COLORS)]
        for p in cfg.passages:
            if p.item != name:
                continue
            a = point_xy.get(p.entry_point)
            b = point_xy.get(p.exit_point)
            if a is None or b is None:
                continue
            lines.append(
                f'<line x1="{_fmt(a[0])}" y1="{_fmt(a[1])}" x2="{_fmt(b[0])}" '
                f'y2="{_fmt(b[1])}" stroke="{color}" stroke-width="1.2"/>'
            )
        lines.append(
            f'<text x="{_fmt(20.0 + 80.0 * i)}" y="{_fmt(height - 12.0)}" '
            f'font-size="12" fill="{color}">{name}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
