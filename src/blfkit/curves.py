"""Closed curves and arcs on a polygon scheme, with taut configurations.

A closed curve is a cyclic word of *tokens*: the glued slots through which
the curve exits, in order.  Each passage of the curve through a polygon is
the chord from its entry slot (the partner of the previous token) to its
exit slot.  An arc additionally has two fixed endpoints (anchors) on
boundary slots and is compared rel endpoints.

Because every polygon corner is a marked point (or boundary), the reduced
word -- no trivial returns ``... t, partner(t) ...`` -- is a complete
invariant of free homotopy (rel endpoints for arcs): the only moves between
taut positions are bigon cancellations, which the reduction performs.

The canonical form of a closed curve is the least rotation of its reduced
word, comparing tokens in ``slot_key`` order (``Scheme.rank``); unoriented,
it is the lesser of that and the least rotation of the reversed word.
Booth's algorithm finds a least rotation in time and memory linear in the
word length, and a curve, which is never mutated, computes each form once.

A :class:`TautConfig` places several curves/arcs simultaneously in tight
position: crossing points are ordered along each glued edge by comparing
the rays the strands trace away from the edge, chords inside each polygon
connect consecutive crossing points, and intersections are exactly the
interleaving chord pairs.  Crossing signs follow the counterclockwise
orientation of the polygons.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .errors import CurveError, NotSimpleError
from .schemes import Scheme, SlotId

TokenWord = Tuple[SlotId, ...]


# -- words -----------------------------------------------------------------


def _reduce_linear(partner: Dict[SlotId, SlotId], tokens: Iterable[SlotId]) -> List[SlotId]:
    out: List[SlotId] = []
    for t in tokens:
        if out and t == partner.get(out[-1]):
            out.pop()
        else:
            out.append(t)
    return out


def _reduce_cyclic(partner: Dict[SlotId, SlotId], tokens: Iterable[SlotId]) -> List[SlotId]:
    toks = _reduce_linear(partner, tokens)
    while len(toks) >= 2 and toks[0] == partner.get(toks[-1]):
        toks = _reduce_linear(partner, toks[1:-1])
    return toks


def _booth(seq: Sequence[int]) -> int:
    """Start of the lexicographically least rotation of ``seq`` (Booth 1980).

    A Knuth-Morris-Pratt failure function over ``seq`` doubled, restarted at
    each smaller candidate start: linear time.
    """
    s = list(seq) * 2
    fail = [-1] * len(s)
    k = 0
    for j in range(1, len(s)):
        c = s[j]
        i = fail[j - k - 1]
        while i != -1 and c != s[k + i + 1]:
            if c < s[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if c != s[k + i + 1]:  # i == -1: no border of the candidate extends
            if c < s[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return k


def _least_rotation(rank: Dict[SlotId, int], word: TokenWord) -> Tuple[List[int], TokenWord]:
    """The least rotation of ``word`` under ``rank``, with its rank sequence."""
    seq = [rank[t] for t in word]
    k = _booth(seq)
    return seq[k:] + seq[:k], word[k:] + word[:k]


def _reverse_word(partner: Dict[SlotId, SlotId], word: TokenWord) -> TokenWord:
    return tuple(partner[t] for t in reversed(word))


class ClosedCurve:
    """A free homotopy class of closed curves, stored as a reduced word."""

    def __init__(self, scheme: Scheme, tokens: Sequence[SlotId]):
        self.scheme = scheme
        for t in tokens:
            if not scheme.is_glued(t):
                raise CurveError(f"token {t!r} is not a glued slot")
        reduced = tuple(_reduce_cyclic(scheme.partner, tokens))
        for i, t in enumerate(reduced):
            prev = reduced[i - 1]
            if scheme.polygon_of(scheme.partner[prev]) != scheme.polygon_of(t):
                raise CurveError(
                    f"tokens {prev!r} -> {t!r} do not share a polygon"
                )
        self.tokens: TokenWord = reduced
        self._canonical: Dict[bool, TokenWord] = {}
        self._simple: Optional[bool] = None

    @property
    def is_null(self) -> bool:
        return not self.tokens

    def reversed(self) -> "ClosedCurve":
        return ClosedCurve(self.scheme, _reverse_word(self.scheme.partner, self.tokens))

    def canonical(self, oriented: bool = True) -> TokenWord:
        """The least rotation of the word, or of it and its reverse if unoriented."""
        if oriented not in self._canonical:
            rank = self.scheme.rank
            key, fwd = _least_rotation(rank, self.tokens)
            self._canonical[True] = fwd
            if not oriented:
                bkey, bwd = _least_rotation(rank, _reverse_word(self.scheme.partner, self.tokens))
                self._canonical[False] = bwd if bkey < key else fwd
        return self._canonical[oriented]

    def primitive_root(self) -> Tuple["ClosedCurve", int]:
        """Return (root, power) with self = root^power as a cyclic word."""
        m = len(self.tokens)
        if m == 0:
            return self, 1
        for p in range(1, m + 1):
            if m % p:
                continue
            if self.tokens[p:] + self.tokens[:p] == self.tokens:
                return ClosedCurve(self.scheme, self.tokens[:p]), m // p
        return self, 1

    def homology(self) -> Tuple[int, ...]:
        return homology_class(self.scheme, self.tokens)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ClosedCurve)
            and self.scheme is other.scheme
            and self.canonical() == other.canonical()
        )

    def __hash__(self) -> int:
        return hash(self.canonical())

    def __repr__(self) -> str:
        return f"ClosedCurve({list(self.tokens)!r})"


@dataclass(frozen=True, order=True)
class Anchor:
    """A fixed point on a boundary slot; ``index`` orders anchors on a slot."""

    slot: SlotId
    index: int = 0


class Arc:
    """An embedded-arc homotopy class rel its two boundary anchors."""

    def __init__(self, scheme: Scheme, start: Anchor, tokens: Sequence[SlotId], end: Anchor):
        self.scheme = scheme
        self.start = start
        self.end = end
        for a in (start, end):
            if scheme.is_glued(a.slot):
                raise CurveError(f"anchor slot {a.slot!r} is not a boundary slot")
            if a.slot not in scheme.boundary_slots:
                raise CurveError(f"anchor slot {a.slot!r} unknown")
        for t in tokens:
            if not scheme.is_glued(t):
                raise CurveError(f"token {t!r} is not a glued slot")
        reduced = tuple(_reduce_linear(scheme.partner, tokens))
        entries = [start.slot] + [scheme.partner[t] for t in reduced]
        exits = list(reduced) + [end.slot]
        for e, x in zip(entries, exits):
            if scheme.polygon_of(e) != scheme.polygon_of(x):
                raise CurveError(f"passage {e!r} -> {x!r} does not stay in one polygon")
        self.tokens: TokenWord = reduced

    def reversed(self) -> "Arc":
        return Arc(self.scheme, self.end, _reverse_word(self.scheme.partner, self.tokens), self.start)

    def canonical(self, oriented: bool = True):
        fwd = (self.start, self.tokens, self.end)
        if oriented:
            return fwd
        bwd = (self.end, _reverse_word(self.scheme.partner, self.tokens), self.start)
        rank = self.scheme.rank
        return min(fwd, bwd, key=lambda c: (c[0], [rank[t] for t in c[1]], c[2]))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Arc)
            and self.scheme is other.scheme
            and self.canonical(oriented=False) == other.canonical(oriented=False)
        )

    def __hash__(self) -> int:
        return hash(self.canonical(oriented=False))

    def __repr__(self) -> str:
        return f"Arc({self.start!r}, {list(self.tokens)!r}, {self.end!r})"


Item = Union[ClosedCurve, Arc]


def curves_isotopic(a: ClosedCurve, b: ClosedCurve, oriented: bool = False) -> bool:
    return a.canonical(oriented) == b.canonical(oriented)


def arcs_isotopic(a: Arc, b: Arc, slide_endpoints: bool = False) -> bool:
    """Arc comparison, rel endpoints by default.

    With ``slide_endpoints=True`` the endpoints may travel around their
    boundary circles, which multiplies the word by powers of the
    boundary-parallel loops based at the anchors.
    """
    if not slide_endpoints:
        return a.canonical(oriented=False) == b.canonical(oriented=False)
    for cand in (b, b.reversed()):
        if a.start.slot == cand.start.slot and a.end.slot == cand.end.slot:
            if _slide_equivalent(a, cand):
                return True
    return False


def _boundary_loop_at(scheme: Scheme, slot: SlotId) -> TokenWord:
    for circle in scheme.boundary_circles():
        if slot in circle:
            k = circle.index(slot)
            return scheme.boundary_parallel_tokens(circle[k:] + circle[:k])
    raise CurveError(f"{slot!r} is not on the boundary")


def _slide_equivalent(a: Arc, b: Arc) -> bool:
    scheme = a.scheme
    gs = _boundary_loop_at(scheme, a.start.slot)
    ge = _boundary_loop_at(scheme, a.end.slot)
    span = len(a.tokens) + len(b.tokens)
    ms = range(-2 - span // max(1, len(gs)), 3 + span // max(1, len(gs))) if gs else (0,)
    ns = range(-2 - span // max(1, len(ge)), 3 + span // max(1, len(ge))) if ge else (0,)
    inv = lambda w: _reverse_word(scheme.partner, w)
    for m in ms:
        pre = (gs if m > 0 else inv(gs)) * abs(m)
        for n in ns:
            post = (ge if n > 0 else inv(ge)) * abs(n)
            word = tuple(_reduce_linear(scheme.partner, pre + a.tokens + post))
            if word == b.tokens:
                return True
    return False


# -- homology --------------------------------------------------------------


def homology_basis(scheme: Scheme) -> List[SlotId]:
    """Primary slots of the glued edge classes, in sorted order."""
    return [s for s, _ in scheme.glued_classes]


def homology_class(scheme: Scheme, tokens: Sequence[SlotId]) -> Tuple[int, ...]:
    basis = homology_basis(scheme)
    pos = {s: i for i, s in enumerate(basis)}
    vec = [0] * len(basis)
    for t in tokens:
        p = scheme.primary(t)
        vec[pos[p]] += 1 if t == p else -1
    return tuple(vec)


def intersection_form(scheme: Scheme) -> List[List[int]]:
    """Algebraic intersection pairing of the edge-class basis curves.

    Requires each edge class to carry a one-token closed curve (both sides
    of the edge in the same polygon).
    """
    basis = homology_basis(scheme)
    curves = []
    for s in basis:
        if scheme.polygon_of(s) != scheme.polygon_of(scheme.partner[s]):
            raise CurveError(
                f"edge class {s!r} has no one-token representative"
            )
        curves.append(ClosedCurve(scheme, (s,)))
    n = len(basis)
    form = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = algebraic_intersection(curves[i], curves[j])
            form[i][j] = v
            form[j][i] = -v
    return form


def pair_homology(form: List[List[int]], u: Sequence[int], v: Sequence[int]) -> int:
    return sum(u[i] * form[i][j] * v[j] for i in range(len(u)) for j in range(len(v)))


# -- taut configurations ---------------------------------------------------


_STOP = ("stop",)


@dataclass(frozen=True)
class Passage:
    item: str
    index: int
    entry_point: tuple
    exit_point: tuple
    entry_slot: SlotId
    exit_slot: SlotId
    polygon: int


class TautConfig:
    """Several curves/arcs in tight position on one scheme."""

    def __init__(self, scheme: Scheme, items: Dict[str, Item]):
        self.scheme = scheme
        self.items = dict(items)
        for name, item in items.items():
            if item.scheme is not scheme:
                raise CurveError(f"item {name!r} lives on a different scheme")
        self._names = sorted(self.items)
        self._build()

    # each crossing point is (name, token_index); its incarnation in a
    # polygon is keyed ("cp", name, k, slot).  Anchors: ("anchor", name, end).

    def _tokens(self, name: str) -> TokenWord:
        return self.items[name].tokens

    def _is_closed(self, name: str) -> bool:
        return isinstance(self.items[name], ClosedCurve)

    def _build(self) -> None:
        scheme = self.scheme
        partner = scheme.partner

        self.passages: List[Passage] = []
        anchors_by_slot: Dict[SlotId, List[Tuple[int, str, str]]] = {}
        edge_points: Dict[Tuple[SlotId, SlotId], List[Tuple[str, int]]] = {}

        for name in self._names:
            item = self.items[name]
            toks = item.tokens
            m = len(toks)
            for k in range(m):
                e = self._edge(toks[k])
                edge_points.setdefault(e, []).append((name, k))
            if isinstance(item, ClosedCurve):
                for i in range(m):
                    prev = toks[i - 1]
                    self.passages.append(Passage(
                        name, i,
                        ("cp", name, (i - 1) % m, partner[prev]),
                        ("cp", name, i, toks[i]),
                        partner[prev], toks[i],
                        scheme.polygon_of(toks[i]),
                    ))
            else:
                sa, ea = item.start, item.end
                for a, which in ((sa, "start"), (ea, "end")):
                    lst = anchors_by_slot.setdefault(a.slot, [])
                    if any(x[0] == a.index and (x[1], x[2]) != (name, which) for x in lst):
                        raise CurveError(
                            f"anchor ({a.slot!r}, {a.index}) used by two items"
                        )
                    lst.append((a.index, name, which))
                entries = [("anchor", name, "start")] + [
                    ("cp", name, k, partner[toks[k]]) for k in range(m)
                ]
                exits = [("cp", name, k, toks[k]) for k in range(m)] + [
                    ("anchor", name, "end")
                ]
                eslots = [sa.slot] + [partner[t] for t in toks]
                xslots = list(toks) + [ea.slot]
                for i in range(m + 1):
                    self.passages.append(Passage(
                        name, i, entries[i], exits[i], eslots[i], xslots[i],
                        scheme.polygon_of(xslots[i]),
                    ))

        self._passage_at = {(p.item, p.index): p for p in self.passages}

        # order crossing points along each edge (primary-slot parameter)
        self._edge_order: Dict[Tuple[SlotId, SlotId], List[Tuple[str, int]]] = {}
        for e, pts in edge_points.items():
            cmp = functools.cmp_to_key(lambda p, q, e=e: self._cmp_edge(e, p, q))
            self._edge_order[e] = sorted(set(pts), key=cmp)

        # global ccw position of every point incarnation, per polygon
        self._pos: Dict[tuple, int] = {}
        self._poly_size: Dict[int, int] = {}
        for pi, poly in enumerate(scheme.polygons):
            count = 0
            for slot in poly:
                if scheme.is_glued(slot):
                    e = self._edge(slot)
                    pts = self._edge_order.get(e, [])
                    seq = pts if slot == e[0] else list(reversed(pts))
                    for name, k in seq:
                        self._pos[("cp", name, k, slot)] = count
                        count += 1
                else:
                    for index, name, which in sorted(anchors_by_slot.get(slot, [])):
                        self._pos[("anchor", name, which)] = count
                        count += 1
            self._poly_size[pi] = count

        self._chords: Dict[int, List[Passage]] = {}
        for p in self.passages:
            self._chords.setdefault(p.polygon, []).append(p)

    def _edge(self, slot: SlotId) -> Tuple[SlotId, SlotId]:
        p = self.scheme.primary(slot)
        return (p, self.scheme.partner[p])

    # -- edge ordering -----------------------------------------------------

    def _ray(self, name: str, k: int, forward: bool):
        """Targets of the strand walking away from crossing point (name, k).

        Forward walks in the direction of the word (into the polygon of
        ``partner(tokens[k])``); backward walks against it (into the polygon
        of ``tokens[k]``).
        """
        item = self.items[name]
        toks = item.tokens
        m = len(toks)
        partner = self.scheme.partner
        if isinstance(item, ClosedCurve):
            j = k
            while True:
                if forward:
                    j = (j + 1) % m
                    yield ("slot", toks[j])
                else:
                    yield ("slot", partner[toks[(j - 1) % m]])
                    j = (j - 1) % m
        else:
            j = k
            while True:
                if forward:
                    j += 1
                    if j >= m:
                        yield ("anchor", item.end.slot, item.end.index)
                        return
                    yield ("slot", toks[j])
                else:
                    if j == 0:
                        yield ("anchor", item.start.slot, item.start.index)
                        return
                    yield ("slot", partner[toks[j - 1]])
                    j -= 1

    def _ray_for_side(self, cp: Tuple[str, int], side_slot: SlotId):
        name, k = cp
        t = self._tokens(name)[k]
        if t == side_slot:
            return self._ray(name, k, forward=False)
        if self.scheme.partner[t] == side_slot:
            return self._ray(name, k, forward=True)
        raise CurveError("crossing point not on this edge")

    def _cmp_rays(self, cp1, cp2, side_slot: SlotId) -> int:
        scheme = self.scheme
        g1 = self._ray_for_side(cp1, side_slot)
        g2 = self._ray_for_side(cp2, side_slot)
        poly = scheme.polygon_of(side_slot)
        source = side_slot
        cap = 2 * (len(self._tokens(cp1[0])) + len(self._tokens(cp2[0]))) + 4
        for _ in range(cap):
            a = next(g1, _STOP)
            b = next(g2, _STOP)
            if a == b:
                if a[0] != "slot":
                    return 0
                source = scheme.partner[a[1]]
                poly = scheme.polygon_of(source)
                continue
            size = len(scheme.polygons[poly])
            ka = (scheme.position_of(a[1]) - scheme.position_of(source)) % size
            kb = (scheme.position_of(b[1]) - scheme.position_of(source)) % size
            if ka != kb:
                # the strand darting to the nearer-counterclockwise slot sits
                # closer to the end corner, i.e. at a larger edge parameter
                return 1 if ka < kb else -1
            ia = a[2] if a[0] == "anchor" else None
            ib = b[2] if b[0] == "anchor" else None
            if ia is not None and ib is not None and ia != ib:
                return -1 if ia > ib else 1
            return 0
        return 0

    def _cmp_edge(self, e: Tuple[SlotId, SlotId], cp1, cp2) -> int:
        if cp1 == cp2:
            return 0
        r = self._cmp_rays(cp1, cp2, e[0])
        if r:
            return r
        r = self._cmp_rays(cp1, cp2, e[1])
        if r:
            return -r
        return -1 if cp1 < cp2 else 1

    # -- crossings ---------------------------------------------------------

    def _chord_positions(self, p: Passage) -> Tuple[int, int]:
        return (self._pos[p.entry_point], self._pos[p.exit_point])

    @staticmethod
    def _strictly_between(x: int, a: int, b: int, n: int) -> bool:
        d = (x - a) % n
        return 0 < d < (b - a) % n

    def _cross(self, p: Passage, q: Passage) -> Optional[int]:
        """Sign of the crossing of chords p, q, or None if disjoint."""
        if p.polygon != q.polygon:
            return None
        n = self._poly_size[p.polygon]
        a1, b1 = self._chord_positions(p)
        a2, b2 = self._chord_positions(q)
        if len({a1, b1, a2, b2}) < 4:
            return None
        in1 = self._strictly_between(a2, a1, b1, n)
        in2 = self._strictly_between(b2, a1, b1, n)
        if in1 == in2:
            return None
        # counterclockwise order (p-entry, q-entry, p-exit, q-exit) is +1
        return 1 if in1 else -1

    def crossings(self, name1: str, name2: str) -> List[Tuple[int, int, int]]:
        """All crossings as (passage index of name1, of name2, sign)."""
        out = []
        for p in self.passages:
            if p.item != name1:
                continue
            for q in self._chords.get(p.polygon, []):
                if q.item != name2:
                    continue
                if name1 == name2 and q.index <= p.index:
                    continue
                s = self._cross(p, q)
                if s is not None:
                    out.append((p.index, q.index, s))
        return sorted(out)

    def self_crossings(self, name: str) -> int:
        return len(self.crossings(name, name))

    def crossings_on_passage(self, x_name: str, k: int, c_name: str) -> List[Tuple[int, int]]:
        """Crossings on passage ``k`` of ``x``, ordered from its entry point.

        Returns (c-passage index, sign) pairs; requires the chords of ``c``
        to be pairwise disjoint (``c`` simple), which makes the order along
        the chord the order of the near endpoints.
        """
        px = self._passage_at[(x_name, k)]
        n = self._poly_size[px.polygon]
        ax, bx = self._chord_positions(px)
        found = []
        for q in self._chords.get(px.polygon, []):
            if q.item != c_name:
                continue
            s = self._cross(px, q)
            if s is None:
                continue
            aq, bq = self._chord_positions(q)
            near = aq if self._strictly_between(aq, ax, bx, n) else bq
            found.append(((near - ax) % n, q.index, s))
        return [(kc, s) for _, kc, s in sorted(found)]


# -- intersection numbers --------------------------------------------------


def algebraic_intersection(u: ClosedCurve, v: ClosedCurve) -> int:
    cfg = TautConfig(u.scheme, {"u": u, "v": v})
    return sum(s for _, _, s in cfg.crossings("u", "v"))


def geometric_intersection(u: ClosedCurve, v: ClosedCurve) -> int:
    if u.is_null or v.is_null:
        return 0
    ru, pu = u.primitive_root()
    rv, pv = v.primitive_root()
    if ru.canonical(oriented=False) == rv.canonical(oriented=False):
        return 0
    cfg = TautConfig(u.scheme, {"u": ru, "v": rv})
    return pu * pv * len(cfg.crossings("u", "v"))


def is_simple(c: ClosedCurve) -> bool:
    """Is ``c`` an embedded essential curve?  Decided once per curve."""
    if c._simple is None:
        c._simple = (
            not c.is_null
            and c.primitive_root()[1] == 1
            and TautConfig(c.scheme, {"c": c}).self_crossings("c") == 0
        )
    return c._simple


def require_simple(c: ClosedCurve) -> None:
    if not is_simple(c):
        raise NotSimpleError(f"{c!r} is not an embedded closed curve")

