"""Deterministic SVG pictures of schemes with curves and arcs.

Polygons are drawn as regular polygons side by side; every strand through a
glued edge gets a point along the side, and passages are straight chords.
Output depends only on the model, never on time or environment, so repeated
renders are byte-identical.

:func:`position_table` places the points of several curves and arcs at
once.  Crossing points are ordered along each glued edge by a key: the
rays the strand traces away from the edge on either side, each read as the
sequence of counterclockwise offsets of its steps (an arc's ray ends at its
anchor, which adds the anchor index).  Points sort by their ray on the
primary side descending, then their ray on the other side ascending, then
by (name, token index); ``curves._ray_ranks`` ranks every ray once, and
equal rays tie.  Chords inside each polygon connect consecutive crossing
points.  The order need not be taut: along a run of edges that two strands
share, the side whose ray decides flips with the slot labels, which can
leave bigons, pairs of crossings of opposite sign.  No verdict reads the
table; twists and intersection numbers place points in ``curves``, in
minimal position.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Tuple

from .curves import Arc, ClosedCurve, Item, _ray_ranks
from .errors import CurveError
from .schemes import Scheme, SlotId

_COLORS = ("#c0392b", "#2980b9", "#27ae60", "#8e44ad", "#d35400", "#16a085")


class PositionTable(NamedTuple):
    """Counterclockwise positions of points in their polygons.

    ``slots[s]`` holds the positions of the points on slot ``s``: crossing
    points on a glued slot, an arc's anchors on a boundary slot, in
    counterclockwise order.  ``chords[name]`` lists the item's passages in
    order as (polygon, entry position, exit position); passage ``i`` of an
    item exits through its token ``i``, or at its end anchor.
    """

    slots: Dict[SlotId, range]
    chords: Dict[str, List[Tuple[int, int, int]]]


def position_table(scheme: Scheme, items: Dict[str, Item]) -> PositionTable:
    """Place the points of ``items`` along every slot; the same for any item order.

    Raises ``CurveError`` for an item on another scheme and for one anchor
    (slot and index) ending two items.
    """
    edge_of, location = scheme.edge_of, scheme.location
    names = sorted(items)
    ordered = [items[n] for n in names]

    # the anchor indices on each boundary slot, and the item end at each
    anchors: Dict[SlotId, Dict[int, Tuple[str, str]]] = {}
    for name, item in zip(names, ordered):
        if item.scheme is not scheme:
            raise CurveError(f"item {name!r} lives on a different scheme")
        if isinstance(item, Arc):
            for a, which in ((item.start, "start"), (item.end, "end")):
                ends = anchors.setdefault(a.slot, {})
                if a.index in ends:
                    raise CurveError(f"anchor ({a.slot!r}, {a.index}) used by two items")
                ends[a.index] = (name, which)
    ranks, bases = _ray_ranks(ordered)

    # along each edge: the rays on side e[0] descending, then those on
    # side e[1] ascending, then (name, k)
    width = max(ranks) + 1
    groups: Dict[Tuple[SlotId, SlotId], List[Tuple[int, int, int]]] = {}
    for ii, (item, b) in enumerate(zip(ordered, bases)):
        m = len(item.tokens)
        for k, t in enumerate(item.tokens):
            e = edge_of[t]
            fwd, bwd = ranks[b + k], ranks[b + m + k]
            # the backward ray runs into the polygon of the token's own slot
            r0, r1 = (bwd, fwd) if t == e[0] else (fwd, bwd)
            groups.setdefault(e, []).append(((width - r0) * width + r1, ii, k))
    for group in groups.values():
        group.sort()

    slots: Dict[SlotId, range] = {}
    anchor_pos: Dict[Tuple[str, str], int] = {}
    for poly in scheme.polygons:
        n = 0
        for s in poly:
            e = edge_of.get(s)
            ends = anchors.get(s, {})
            count = len(groups.get(e, ())) if e is not None else len(ends)
            for i, index in enumerate(sorted(ends)):
                anchor_pos[ends[index]] = n + i
            slots[s] = range(n, n + count)
            n += count
    exit_pos = [[0] * len(item.tokens) for item in ordered]
    cross_pos = [[0] * len(item.tokens) for item in ordered]
    for (s0, s1), group in groups.items():
        lo, hi = slots[s0].start, slots[s1].stop - 1
        for i, (_, ii, k) in enumerate(group):
            if ordered[ii].tokens[k] == s0:
                exit_pos[ii][k], cross_pos[ii][k] = lo + i, hi - i
            else:
                exit_pos[ii][k], cross_pos[ii][k] = hi - i, lo + i

    chords: Dict[str, List[Tuple[int, int, int]]] = {}
    for name, item, xp, cp in zip(names, ordered, exit_pos, cross_pos):
        polys = [location[t][0] for t in item.tokens]
        if isinstance(item, ClosedCurve):
            entries, exits = cp[-1:] + cp[:-1], xp
        else:
            polys.append(location[item.end.slot][0])
            entries = [anchor_pos[name, "start"]] + cp
            exits = xp + [anchor_pos[name, "end"]]
        chords[name] = list(zip(polys, entries, exits))
    return PositionTable(slots, chords)


def render_svg(scheme: Scheme, items: Dict[str, Item]) -> str:
    table = position_table(scheme, items)
    radius = 130.0
    spacing = 2 * radius + 60.0
    height = 2 * radius + 80.0
    width = spacing * len(scheme.polygons) + 20.0

    # vertex and point coordinates per polygon; point i of a slot sits at
    # position first + i
    point_xy: Dict[Tuple[int, int], Tuple[float, float]] = {}
    lines: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.2f}" '
        f'height="{height:.2f}" viewBox="0 0 {width:.2f} {height:.2f}">',
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
            f"{'M' if k == 0 else 'L'} {x:.2f} {y:.2f}" for k, (x, y) in enumerate(verts)
        )
        lines.append(f'<path d="{path} Z" fill="none" stroke="#555" stroke-width="1.5"/>')
        # side labels and strand points
        for k, slot in enumerate(poly):
            (x0, y0), (x1, y1) = verts[k], verts[k + 1]
            mx, my = (x0 + x1) / 2, (y0 + y1) / 2
            lx = cx + (mx - cx) * 1.12
            ly = cy + (my - cy) * 1.12
            lines.append(
                f'<text x="{lx:.2f}" y="{ly:.2f}" font-size="11" '
                f'text-anchor="middle" fill="#333">{slot}</text>'
            )
            pts = table.slots[slot]
            for i, pos in enumerate(pts):
                t = (i + 1) / (len(pts) + 1)
                point_xy[pi, pos] = (x0 + (x1 - x0) * t, y0 + (y1 - y0) * t)
    for i, name in enumerate(sorted(items)):
        color = _COLORS[i % len(_COLORS)]
        for pi, entry, exit_ in table.chords[name]:
            a, b = point_xy[pi, entry], point_xy[pi, exit_]
            lines.append(
                f'<line x1="{a[0]:.2f}" y1="{a[1]:.2f}" x2="{b[0]:.2f}" '
                f'y2="{b[1]:.2f}" stroke="{color}" stroke-width="1.2"/>'
            )
        lines.append(
            f'<text x="{20.0 + 80.0 * i:.2f}" y="{height - 12.0:.2f}" '
            f'font-size="12" fill="{color}">{name}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
