"""Round-handle surgery: cut a surface along a simple closed curve and cap.

Cutting happens along a *coordinate* curve -- one whose word is a single
token, i.e. a curve running parallel to a glued edge whose two sides lie in
the same polygon.  The polygon splits at the two chord copies of the curve;
the half-edges fold onto each other inside each piece and the cut circles
are capped with disks (the scars).  Slot ids survive the cut, so curves and
arcs disjoint from the cut curve transfer verbatim.

A longer simple curve is first moved to a coordinate curve by length
descent (``standardize``), each step taking the coordinate twist that
shortens the word most.  Where none does, it raises
``StandardizationError``, as on the hexagon's separating and
boundary-parallel curves, but also on some non-separating words of the
(4n+2)-gon family, so a stuck curve need not be separating.  The twist
word, empty for a one-token curve, is kept as
``SurgeryResult.standardization``, and every projected item is carried
through it before it is read against the cut curve.

A one-token curve whose edge's two sides are adjacent circles the corner
between them.  When that corner is unpunctured, the curve bounds a disk on
the surface, and ``round_surgery`` raises ``InessentialCurveError``, though
homology and ``ClosedCurve.is_null``, which treat the corner as a puncture,
call the curve essential (see :mod:`blfkit.schemes`).

``project`` pushes a curve or arc of the old surface into the new one.  An
item that crosses the cut curve is obstructed: no band slide over the round
handle removes a crossing, so none is tried.  An item that misses the cut
curve has each passage through the cut edge slid across a capping disk and
its token deleted; these cap slides are all the slides counted.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

from .curves import Arc, ClosedCurve, Item, is_simple, passage_crossings
from .errors import (
    CurveError,
    InessentialCurveError,
    ProjectionObstructedError,
    StandardizationError,
)
from .schemes import Scheme, SlotId
from .twists import TwistWord, dehn_twist


class SurgeryResult(NamedTuple):
    """Outcome of cutting along a coordinate curve."""

    original: Scheme
    curve: ClosedCurve
    scheme: Scheme
    cut_slots: Tuple[SlotId, SlotId]
    standardization: TwistWord


def standardize(curve: ClosedCurve) -> Tuple[ClosedCurve, TwistWord]:
    """Move a simple closed curve to a one-token word by length descent.

    Returns the one-token image and the twist word that makes it, empty
    when the curve already has one token.  While the word is longer, each
    step twists it both ways along every coordinate curve (an edge class
    whose two sides lie in one polygon) and keeps the shortest image, the
    first in ``glued_classes`` order with +1 before -1.  Every step drops
    a token, so there are fewer steps than tokens.  Raises
    ``StandardizationError`` when no twist shortens the word, which
    includes a scheme with no coordinate curve.
    """
    word = TwistWord(())
    if len(curve.tokens) > 1:
        scheme = curve.scheme
        twists = [(ClosedCurve(scheme, (s,)), p) for s, t in scheme.glued_classes
                  if scheme.polygon_of(s) == scheme.polygon_of(t) for p in (1, -1)]
    while len(curve.tokens) > 1:
        images = ((dehn_twist(curve, g, p), (g, p)) for g, p in twists)
        best = min(images, key=lambda e: len(e[0].tokens), default=None)
        if best is None or len(best[0].tokens) >= len(curve.tokens):
            raise StandardizationError(
                f"length descent stops at {curve!r}: no coordinate twist shortens it"
            )
        curve = best[0]
        word = TwistWord((best[1],)) * word
    return curve, word


def round_surgery(scheme: Scheme, curve: ClosedCurve) -> SurgeryResult:
    """Cut along a simple closed curve, moved to one token by ``standardize``, and cap.

    Raises ``CurveError`` for a curve on another scheme, and
    ``InessentialCurveError`` for a null or non-simple one or a disk cut.
    """
    if curve.scheme is not scheme:
        raise CurveError(f"{curve!r} lives on a different scheme from the one to cut")
    if curve.is_null:
        raise InessentialCurveError("cannot cut along a nullhomotopic curve")
    if not is_simple(curve):
        raise InessentialCurveError("can only cut along an embedded curve")
    curve, used = standardize(curve)
    # a one-token closed word has both sides of its edge in one polygon
    x = curve.tokens[0]
    xbar = scheme.partner[x]
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
        standardization=used,
    )


class Projection(NamedTuple):
    item: Item
    slide_count: int
    cap_slides: int


def project(sr: SurgeryResult, item: Item) -> Projection:
    """Carry a curve or arc of the cut surface into the surgered one."""
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
    except CurveError as exc:
        raise ProjectionObstructedError(
            f"projected word is not valid on the surgered surface: {exc}"
        ) from exc
    return Projection(new, caps, caps)
