"""Polygon gluing schemes and the surfaces they present.

A surface is described by one or more polygons with some sides glued in
pairs.  Each side is a *slot*; glued slots carry an involution ``partner``.
Marked polygon corners ("punctures") are truncated into genuine boundary
sides, so the resulting surface is compact with boundary, and every leftover
polygon corner is treated as a marked point.  Closed curves and arcs are
then combinatorial words in the slots (see :mod:`blfkit.curves`).

An unpunctured corner means different things to different verdicts.
Homology (``curves.homology_class``) and ``ClosedCurve.is_null`` treat it
as a puncture: a curve around it alone is not null, and its class counts
the edges it crosses.  ``surgery.round_surgery`` treats it as a point of
the surface: a curve around it bounds a disk, and the cut is refused.

Conventions:

* polygon sides are listed in counterclockwise order;
* glued slots have integer ids, boundary slots have string ids
  (``u<k>`` for a truncated corner, ``b<k>`` for an unpaired side);
* all gluings are orientation-preserving for the surface, i.e. the side
  words are identified reversed; a "matched" (direct) identification would
  give a non-orientable surface and is rejected.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import SchemeError

SlotId = Union[int, str]


def slot_key(slot: SlotId) -> Tuple[int, object]:
    """Deterministic sort key for mixed int/str slot ids."""
    return (0, slot) if isinstance(slot, int) else (1, slot)


def _corner_walks(polygons: Sequence[Sequence[SlotId]], partner: Dict[SlotId, SlotId],
                  ) -> Tuple[Dict[SlotId, SlotId], List[List[SlotId]]]:
    """Classes of polygon corners, each as the slots that end at it.

    Returns the slot after each slot counterclockwise, and one walk per
    corner class.  From slot ``u`` the walk takes the next slot ``s``
    counterclockwise; ``u`` ends at the corner where ``s`` starts, and if
    ``s`` is glued the same corner ends ``partner(s)``, where the walk
    continues.  Walks start from every boundary slot first, in polygon
    order, then from every slot not yet seen.  Each step is injective, as
    ``partner(s)`` gives ``s`` and so ``u``, and no step reaches a boundary
    slot.  So a walk from a boundary slot is a chain that stops when ``s``
    is a boundary slot, and any other walk is a cycle of glued slots that
    stops when it is back at its start.
    """
    after: Dict[SlotId, SlotId] = {}
    for poly in polygons:
        after.update(zip(poly, poly[1:] + poly[:1]))
    # each slot not yet walked, with the slot after it
    rest = dict(after)
    walks = []
    for start in [s for s in after if s not in partner] + list(after):
        if start not in rest:
            continue
        walk = [start]
        u = partner.get(rest.pop(start))
        while u is not None and u != start:
            walk.append(u)
            u = partner.get(rest.pop(u))
        walks.append(walk)
    return after, walks


class PolygonScheme:
    """A single polygon with side pairings and punctured corners.

    ``pairings`` entries are ``(i, j, kind)`` with ``kind`` either
    ``"reversed"`` (the sides are identified with opposite boundary
    orientations; surface stays orientable) or ``"matched"`` (rejected).
    Corner ``k`` is the vertex at the start of side ``k``; a corner marks
    its whole vertex class as punctured.
    """

    __slots__ = ("side_count", "pairings", "punctured_corners")

    def __init__(self, side_count: int, pairings: Tuple[Tuple[int, int, str], ...],
                 punctured_corners: frozenset = frozenset()):
        self.side_count = n = side_count
        self.pairings, self.punctured_corners = pairings, punctured_corners
        if n < 1:
            raise SchemeError("polygon needs at least one side")
        seen: set = set()
        for i, j, kind in pairings:
            if kind == "matched":
                raise SchemeError(
                    "matched (orientation-direct) side identification "
                    "describes a non-orientable surface"
                )
            if kind != "reversed":
                raise SchemeError(f"unknown pairing kind {kind!r}")
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise SchemeError(f"bad pairing ({i}, {j})")
            if i in seen or j in seen:
                raise SchemeError("a side may appear in at most one pairing")
            seen.update((i, j))
        for k in punctured_corners:
            if not 0 <= k < n:
                raise SchemeError(f"corner {k} out of range")

    def build(self) -> "Scheme":
        """Truncate punctured vertex classes and return the working scheme."""
        n = self.side_count
        partner: Dict[SlotId, SlotId] = {}
        for i, j, _ in self.pairings:
            partner[i] = j
            partner[j] = i
        punctured: set = set()
        for walk in _corner_walks((tuple(range(n)),), partner)[1]:
            # side k ends at corner k + 1
            corners = {(k + 1) % n for k in walk}
            if not corners.isdisjoint(self.punctured_corners):
                punctured |= corners
        slots: List[SlotId] = []
        for k in range(n):
            if k in punctured:
                slots.append(f"u{k}")
            slots.append(k if k in partner else f"b{k}")
        return Scheme(polygons=(tuple(slots),), partner=partner)


class Scheme:
    """A glued multi-polygon presentation of a compact oriented surface."""

    def __init__(self, polygons: Sequence[Sequence[SlotId]], partner: Dict[SlotId, SlotId]):
        self.polygons: Tuple[Tuple[SlotId, ...], ...] = tuple(
            tuple(p) for p in polygons
        )
        self.partner: Dict[SlotId, SlotId] = dict(partner)
        #: (polygon, position) of each slot
        self.location: Dict[SlotId, Tuple[int, int]] = {}
        for pi, poly in enumerate(self.polygons):
            if not poly:
                raise SchemeError("empty polygon")
            for pos, slot in enumerate(poly):
                if slot in self.location:
                    raise SchemeError(f"slot {slot!r} appears twice")
                self.location[slot] = (pi, pos)
        #: position of each slot in ``slot_key`` order
        self.rank: Dict[SlotId, int] = {
            s: i for i, s in enumerate(sorted(self.location, key=slot_key))
        }
        for s, t in self.partner.items():
            if s not in self.location or t not in self.location:
                raise SchemeError(f"pairing references unknown slot {s!r}/{t!r}")
            if s == t or self.partner.get(t) != s:
                raise SchemeError("partner map must be a fixed-point-free involution")
        #: edge class of each glued slot, as (primary, partner of primary)
        self.edge_of: Dict[SlotId, Tuple[SlotId, SlotId]] = {
            s: (s, t) if self.rank[s] < self.rank[t] else (t, s)
            for s, t in self.partner.items()
        }
        #: the intersection form, once ``curves.intersection_form`` computed it
        self._intersection_form: Optional[Tuple[Tuple[int, ...], ...]] = None
        #: (row of its edge class in the homology basis, +1 for the
        #: primary slot or -1 for its partner) of each glued slot, once
        #: ``curves.homology_class`` computed it
        self._basis_index: Optional[Dict[SlotId, Tuple[int, int]]] = None

    # -- basic queries -----------------------------------------------------

    def polygon_of(self, slot: SlotId) -> int:
        return self.location[slot][0]

    @property
    def slots(self) -> List[SlotId]:
        return list(self.rank)

    @property
    def boundary_slots(self) -> List[SlotId]:
        return [s for s in self.slots if s not in self.partner]

    @property
    def glued_classes(self) -> List[Tuple[SlotId, SlotId]]:
        """Edge classes as (primary, partner) with primary = smaller id."""
        out = []
        for s in self.slots:
            t = self.partner.get(s)
            if t is not None and self.rank[s] < self.rank[t]:
                out.append((s, t))
        return out

    # -- topology ----------------------------------------------------------

    def euler_characteristic(self) -> int:
        v = len(_corner_walks(self.polygons, self.partner)[1])
        # one edge per glued pair and one per boundary slot
        e = len(self.location) - len(self.partner) // 2
        f = len(self.polygons)
        return v - e + f

    def boundary_circles(self) -> List[Tuple[SlotId, ...]]:
        """Boundary components, each as the cyclic tuple of boundary slots."""
        after, walks = _corner_walks(self.polygons, self.partner)
        # the chain from a boundary slot ends where the next one starts
        following = {w[0]: after[w[-1]] for w in walks if w[0] not in self.partner}
        circles = []
        while following:
            u = min(following, key=slot_key)
            circle = []
            while u in following:
                circle.append(u)
                u = following.pop(u)
            circles.append(tuple(circle))
        return sorted(circles)

    def boundary_parallel_tokens(self, circle: Tuple[SlotId, ...]) -> Tuple[SlotId, ...]:
        """Word of a closed curve running just inside the given boundary circle.

        The curve crosses exactly the glued slots traversed while walking the
        circle, exiting through the slot on the near side each time: the
        partner of each slot of a chain after its first.
        """
        walks = _corner_walks(self.polygons, self.partner)[1]
        chains = {w[0]: w[1:] for w in walks if w[0] not in self.partner}
        return tuple(self.partner[s] for u in circle for s in chains[u])

    def genus(self) -> int:
        chi = self.euler_characteristic()
        b = len(self.boundary_circles())
        g2 = 2 - chi - b
        if g2 < 0 or g2 % 2:
            raise SchemeError("inconsistent Euler characteristic")
        return g2 // 2

    def __repr__(self) -> str:
        return f"Scheme(polygons={self.polygons!r})"


class Relabeling:
    """A symmetry of a scheme: a slot bijection preserving the gluing.

    The mapping must commute with the partner involution and carry each
    polygon, counterclockwise, onto a polygon (up to rotation).  Two
    relabelings are equal when they have one scheme and one mapping.
    """

    __slots__ = ("scheme", "mapping", "_table")

    def __init__(self, scheme: Scheme, mapping: Tuple[Tuple[SlotId, SlotId], ...]):
        self.scheme, self.mapping = scheme, mapping
        self._table: Dict[SlotId, SlotId] = dict(mapping)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Relabeling)
            and self.scheme is other.scheme
            and self.mapping == other.mapping
        )

    def __hash__(self) -> int:
        return hash((self.scheme, self.mapping))

    @staticmethod
    def from_dict(scheme: Scheme, mapping: Dict[SlotId, SlotId]) -> "Relabeling":
        slots = scheme.location.keys()
        if mapping.keys() != slots or set(mapping.values()) != slots:
            raise SchemeError("relabeling must be a bijection on the slots")
        # ``rank`` lists the slots in ``slot_key`` order
        r = Relabeling(scheme, tuple((s, mapping[s]) for s in scheme.rank))
        r._validate()
        return r

    def as_dict(self) -> Dict[SlotId, SlotId]:
        return dict(self.mapping)

    def _validate(self) -> None:
        m = self._table
        sch = self.scheme
        partner = sch.partner
        for s, image in self.mapping:
            t = partner.get(s)
            if t is None:
                if image in partner:
                    raise SchemeError("relabeling maps a boundary slot to a glued one")
            elif partner.get(image) != m[t]:
                raise SchemeError("relabeling does not commute with the gluing")
        images = {tuple(m[s] for s in poly) for poly in sch.polygons}
        for img in images:
            pi, k = sch.location[img[0]]
            poly = sch.polygons[pi]
            if len(poly) != len(img):
                raise SchemeError("relabeling does not preserve polygons")
            if poly[k:] + poly[:k] != img:
                raise SchemeError("relabeling does not preserve polygon order")

    def __call__(self, slot: SlotId) -> SlotId:
        return self._table[slot]

    def inverse(self) -> "Relabeling":
        return Relabeling.from_dict(self.scheme, {v: k for k, v in self.mapping})


# -- standard schemes ------------------------------------------------------


def antipodal_polygon_scheme(m: int) -> PolygonScheme:
    """A ``2m``-gon with opposite sides glued and all corners punctured.

    For ``m`` odd this is a genus ``(m - 1) / 2`` surface with two boundary
    circles after truncation; ``m = 3`` is the hexagon presentation of the
    twice-punctured torus.
    """
    if m < 2:
        raise SchemeError("need at least a square")
    pairings = tuple((i, i + m, "reversed") for i in range(m))
    return PolygonScheme(2 * m, pairings, frozenset(range(2 * m)))


def hexagon_scheme() -> PolygonScheme:
    """The twice-punctured torus as a hexagon with opposite sides glued."""
    return antipodal_polygon_scheme(3)


def square_torus_scheme() -> PolygonScheme:
    """The torus as a square with opposite sides glued, one marked corner.

    The corner class is marked but not punctured, so the built surface is
    closed; used as the reference example for orientation conventions.
    """
    return PolygonScheme(4, ((0, 2, "reversed"), (1, 3, "reversed")), frozenset())
