"""Round-handle surgery: cut a surface along a simple closed curve and cap.

Cutting happens along a *coordinate* curve -- one whose word is a single
token, i.e. a curve running parallel to a glued edge whose two sides lie in
the same polygon.  The polygon splits at the two chord copies of the curve;
the half-edges fold onto each other inside each piece and the cut circles
are capped with disks (the scars).  Slot ids survive the cut, so curves and
arcs disjoint from the cut curve transfer verbatim.  A simple curve of
more than one token is first moved to a coordinate curve by a word of
twists (``standardize``), kept as ``SurgeryResult.standardization``, and
every projected item is carried through that word before it is read
against the cut curve.

``project`` pushes a curve or arc of the old surface into the new one.  An
item that crosses the cut curve is obstructed: no band slide over the round
handle removes a crossing, so none is tried and ``band_slides`` is always
0.  An item that misses the cut curve has each passage through the cut
edge slid across a capping disk and its token deleted; these cap slides
are counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import List, Optional, Tuple

from .curves import Arc, ClosedCurve, Item, is_simple, passage_crossings
from .errors import (
    InessentialCurveError,
    ProjectionObstructedError,
    StandardizationError,
)
from .schemes import Scheme, SlotId
from .twists import TwistWord, dehn_twist


@dataclass
class SurgeryResult:
    """Outcome of cutting along a coordinate curve."""

    original: Scheme
    curve: ClosedCurve
    scheme: Scheme
    cut_slots: Tuple[SlotId, SlotId]
    scar_count: int
    standardization: Optional[TwistWord] = None


# the number of twists ``standardize`` composes before it gives up
STANDARDIZE_DEPTH = 4


def standardize(curve: ClosedCurve) -> Tuple[ClosedCurve, Optional[TwistWord]]:
    """Move a simple closed curve to a one-token word by twisting, if possible.

    Returns the coordinate image and the twist word used (None when the
    curve is already coordinate).  Breadth-first search over twists along
    the coordinate curves of the scheme.
    """
    if len(curve.tokens) == 1:
        return curve, None
    scheme = curve.scheme
    generators = []
    for s, t in scheme.glued_classes:
        if scheme.polygon_of(s) == scheme.polygon_of(t):
            generators.append(ClosedCurve(scheme, (s,)))
    seen = {curve.canonical()}
    frontier: List[Tuple[ClosedCurve, TwistWord]] = [(curve, TwistWord(()))]
    for _ in range(STANDARDIZE_DEPTH):
        nxt = []
        for cur, word in frontier:
            for g, p in product(generators, (1, -1)):
                img = dehn_twist(cur, g, p)
                key = img.canonical()
                if key in seen:
                    continue
                seen.add(key)
                w = TwistWord(((g, p),)) * word
                if len(img.tokens) == 1:
                    return img, w
                nxt.append((img, w))
        frontier = nxt
    raise StandardizationError(
        f"{curve!r} could not be moved to a coordinate position"
    )


def round_surgery(scheme: Scheme, curve: ClosedCurve) -> SurgeryResult:
    """Cut along a simple closed curve and cap the two scar circles."""
    if curve.is_null:
        raise InessentialCurveError("cannot cut along a nullhomotopic curve")
    if not is_simple(curve):
        raise InessentialCurveError("can only cut along an embedded curve")
    used = None
    if len(curve.tokens) != 1:
        curve, used = standardize(curve)
    x = curve.tokens[0]
    xbar = scheme.partner[x]
    if scheme.polygon_of(x) != scheme.polygon_of(xbar):
        raise StandardizationError("cut edge must have both sides in one polygon")
    pi = scheme.polygon_of(x)
    poly = scheme.polygons[pi]
    i, j = poly.index(x), poly.index(xbar)
    n = len(poly)
    piece1 = tuple(poly[(i + d) % n] for d in range(1, (j - i) % n))
    piece2 = tuple(poly[(j + d) % n] for d in range(1, (i - j) % n))
    if not piece1 or not piece2:
        raise InessentialCurveError(
            "cut curve bounds a disk or half-disk; surgery is trivial"
        )
    polygons = [p for k, p in enumerate(scheme.polygons) if k != pi]
    polygons.extend((piece1, piece2))
    partner = {s: t for s, t in scheme.partner.items() if s not in (x, xbar)}
    new_scheme = Scheme(polygons, partner)
    return SurgeryResult(
        original=scheme,
        curve=curve,
        scheme=new_scheme,
        cut_slots=(x, xbar),
        scar_count=2,
        standardization=used,
    )


@dataclass
class Projection:
    item: Item
    slide_count: int
    band_slides: int
    cap_slides: int


def project(sr: SurgeryResult, item: Item) -> Projection:
    """Carry a curve or arc of the cut surface into the surgered one."""
    if sr.standardization is not None:
        item = sr.standardization.apply(item)
    # passage_crossings lists the crossings of a minimal position with the
    # cut curve c.  A band slide inserts a parallel copy of c, which is
    # disjoint from c, and the crossing where it goes in stays, so no slide
    # lowers the count: a crossing is an obstruction.
    if any(passage_crossings(item, sr.curve)):
        raise ProjectionObstructedError(
            "no band slide reduces the crossings with the cut curve"
        )
    x, xbar = sr.cut_slots
    kept = [t for t in item.tokens if t not in (x, xbar)]
    caps = len(item.tokens) - len(kept)
    try:
        if isinstance(item, ClosedCurve):
            new = ClosedCurve(sr.scheme, kept)
        else:
            new = Arc(sr.scheme, item.start, kept, item.end)
    except Exception as exc:
        raise ProjectionObstructedError(
            f"projected word is not valid on the surgered surface: {exc}"
        ) from exc
    return Projection(new, caps, 0, caps)
