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
position.  Crossing points are ordered along each glued edge by a key: the
rays the strand traces away from the edge on either side, each read as
the sequence of counterclockwise offsets of its steps (an arc's ray ends
at its anchor, which adds the anchor index).  Points sort by their ray on
the primary side descending, then their ray on the other side ascending,
then by (name, token index); prefix doubling ranks every ray once, and
equal rays tie.  Chords inside each polygon connect consecutive crossing
points, and the configuration's crossings are its interleaving chord
pairs, with signs from the counterclockwise orientation of the polygons.
The order need not be taut: along a run of edges that two strands share,
the side whose ray decides flips with the slot labels, which can leave
bigons, pairs of crossings of opposite sign.

Twists and geometric intersection numbers never read the configuration,
and signed counts only when neither curve is simple.  Twists, projections
across a cut, smoothings and signed counts need only where a curve ``x``
crosses one simple curve ``c``, and the order of x's points among
themselves never changes which of c's chords an x chord crosses.  So
:func:`passage_crossings` places each point of ``x`` among c's alone, by
its forward ray among c's rays leaving the same slot, in one backward
pass over ``x``: a first step that no ray of ``c`` takes places a point
at once, and a shared one places it from the next point's place.  Along
a run that ``x`` shares with ``c`` the run's forward end then decides
the side ``x`` keeps: a linked run crosses once, at its backward end,
and no bigon is left.  So the crossings listed are those of a minimal
position, ``i(x, c)`` of them for a closed ``x`` (Farb and Margalit,
*Primer*, section 3.1).  What the pass reads is kept on ``c``
(``_crossing_data``).  A point where ``x`` exits through token ``t`` and
then through ``u`` has its forward ray's first step fixed by the pair
``(t, u)``, and so is everything the pass needs there: the point's
place if ``c`` takes no such step, else the map from the next point's
place; c's points before the point's two ends; and the polygon of
``t``.  That is one entry of a table keyed by token pairs and filled on
first use (``_PairTable``), so the pass reads one entry per token and
never computes x's own steps.  It takes time and memory linear in
``|x| + |c|`` and the crossings it lists: c's chords in a polygon nest
like brackets, so a chord of ``x`` finds those it crosses in one step
each (``_ChordTable``).

:func:`is_simple` reads the curve's own chords and ranks no rays
(Erickson and Nayyeri 2013; Farb and Margalit, *Primer*, sections
1.2-1.3).  An embedded curve isotoped into minimal position with the
edges stays embedded and reads its reduced word, so its chords in each
polygon are pairwise disjoint and join two distinct slots.  Disjoint
chords are fixed by their counts by *unordered* slot pair: no two types
interleave (types sharing a slot do not); along each slot, one block of
endpoints per type, in the order of the other end's counterclockwise
offset, descending; in a block of ``n`` parallel chords, endpoint ``j``
on one slot pairs with endpoint ``n - 1 - j`` on the other; and gluing
an edge reverses positions along it.  So ``c`` is simple exactly when
its types do not interleave and that one arrangement, traced from one
point, closes after ``|c|`` steps reading c's word up to rotation and
orientation (chords have no direction, so the trace may run against
``c``).  A power ``d^k`` closes after ``|d|`` steps, and for a curve
that must cross itself, an arrangement whose types do not interleave
is another curve or several.  The check takes time linear in ``|c|``.

:func:`geometric_intersection` counts the taut rows of
:func:`passage_crossings` when the shorter of its two primitive roots is
simple, as every twist curve and vanishing cycle is: the longer curve is
then read once, never ranked.  Other pairs count *linked* pairs of
points: two points on one edge whose rays on the two sides order them
the same way round start strands that cross once somewhere along their
maximal shared run.  A linked pair is counted where its run ends (half
of the ends), plus the interleaving chords of four distinct slots (runs
of length zero) (Cohen and Lustig 1987).  The rays of the two curves are
ranked together once, and each edge side and each polygon is then one
sorted sweep over its rays or chords; nothing is kept on either curve.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from itertools import chain
from math import inf
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .errors import CurveError, NotSimpleError
from .schemes import Scheme, SlotId

TokenWord = Tuple[SlotId, ...]


# -- words -----------------------------------------------------------------


def _reduce_linear(partner: Dict[SlotId, SlotId], tokens: Iterable[SlotId]) -> List[SlotId]:
    # tokens are glued slots; ``back`` is the token that would cancel out[-1]
    out: List[SlotId] = []
    back = None
    for t in tokens:
        if t == back:
            out.pop()
            back = partner[out[-1]] if out else None
        else:
            out.append(t)
            back = partner[t]
    return out


def _reduce_cyclic(partner: Dict[SlotId, SlotId], tokens: Iterable[SlotId]) -> List[SlotId]:
    # a reduced word stays reduced when both its ends are removed, so the
    # matching ends are stripped by moving two indices inwards
    toks = _reduce_linear(partner, tokens)
    i, j = 0, len(toks) - 1
    while i < j and toks[i] == partner.get(toks[j]):
        i += 1
        j -= 1
    return toks[i:j + 1]


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
    # from a list, not a generator: ``tuple(generator)`` resizes its result,
    # and every such tuple adds one to CPython's free list of its size, which
    # only a full garbage collection empties
    return tuple([partner[t] for t in reversed(word)])


def _require_glued(partner: Dict[SlotId, SlotId], tokens: Sequence[SlotId]) -> None:
    if not partner.keys() >= set(tokens):
        bad = next(t for t in tokens if t not in partner)
        raise CurveError(f"token {bad!r} is not a glued slot")


class ClosedCurve:
    """A free homotopy class of closed curves, stored as a reduced word."""

    def __init__(self, scheme: Scheme, tokens: Sequence[SlotId]):
        self.scheme = scheme
        partner, location = scheme.partner, scheme.location
        _require_glued(partner, tokens)
        reduced = tuple(_reduce_cyclic(partner, tokens))
        # on one polygon every passage stays in it
        if len(scheme.polygons) > 1:
            for i, t in enumerate(reduced):
                prev = reduced[i - 1]
                if location[partner[prev]][0] != location[t][0]:
                    raise CurveError(f"tokens {prev!r} -> {t!r} do not share a polygon")
        self.tokens: TokenWord = reduced
        self._canonical: Dict[bool, TokenWord] = {}
        self._simple: Optional[bool] = None
        self._steps: Optional[Tuple[List[int], List[int]]] = None
        self._crossing_data: Optional[tuple] = None
        self._homology: Optional[Tuple[int, ...]] = None
        # set for a power only: a primitive curve's root is itself, and
        # keeping it would make a reference cycle
        self._root: Optional[ClosedCurve] = None
        self._power: Optional[int] = None

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
        """Return (root, power) with self = root^power as a cyclic word.

        A primitive curve is its own root, so what is kept on it serves its
        root.  A power keeps its root, found once, so what is kept on the
        root survives between calls.  The root's length is the word's least
        period, found by one substring search of the word in itself doubled.
        """
        if self._power is None:
            toks = self.tokens
            m = len(toks)
            self._power = 1
            word = "".join(map(chr, map(self.scheme.rank.__getitem__, toks)))
            p = (word + word).find(word, 1)
            if 0 < p < m:
                self._root, self._power = ClosedCurve(self.scheme, toks[:p]), m // p
        return (self if self._root is None else self._root), self._power

    def homology(self) -> Tuple[int, ...]:
        """The homology class in the edge-class basis, computed once."""
        if self._homology is None:
            self._homology = homology_class(self.scheme, self.tokens)
        return self._homology

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
        partner, location = scheme.partner, scheme.location
        for a in (start, end):
            if a.slot in partner:
                raise CurveError(f"anchor slot {a.slot!r} is not a boundary slot")
            if a.slot not in location:
                raise CurveError(f"anchor slot {a.slot!r} unknown")
        if start == end:
            raise CurveError(f"anchor ({start.slot!r}, {start.index}) ends the arc twice")
        _require_glued(partner, tokens)
        reduced = tuple(_reduce_linear(partner, tokens))
        if len(scheme.polygons) > 1:
            entries = [start.slot] + [partner[t] for t in reduced]
            exits = list(reduced) + [end.slot]
            for e, x in zip(entries, exits):
                if location[e][0] != location[x][0]:
                    raise CurveError(f"passage {e!r} -> {x!r} does not stay in one polygon")
        self.tokens: TokenWord = reduced
        self._steps: Optional[Tuple[List[int], List[int]]] = None

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
    # equal forms of reduced words need equal lengths, and most pairs differ in length
    return len(a.tokens) == len(b.tokens) and a.canonical(oriented) == b.canonical(oriented)


def arcs_isotopic(a: Arc, b: Arc) -> bool:
    """Arc comparison rel endpoints, either orientation."""
    return a.canonical(oriented=False) == b.canonical(oriented=False)


# -- homology --------------------------------------------------------------


def homology_basis(scheme: Scheme) -> List[SlotId]:
    """Primary slots of the glued edge classes, in sorted order."""
    return [s for s, _ in scheme.glued_classes]


def homology_class(scheme: Scheme, tokens: Sequence[SlotId]) -> Tuple[int, ...]:
    if scheme._basis_index is None:
        scheme._basis_index = {s: i for i, s in enumerate(homology_basis(scheme))}
    pos = scheme._basis_index
    vec = [0] * len(pos)
    for t in tokens:
        p = scheme.primary(t)
        vec[pos[p]] += 1 if t == p else -1
    return tuple(vec)


def intersection_form(scheme: Scheme) -> List[List[int]]:
    """Algebraic intersection pairing of the edge-class basis curves.

    Requires each edge class to carry a one-token closed curve (both sides
    of the edge in the same polygon).  Computed once per scheme; every call
    returns a fresh copy.
    """
    if scheme._intersection_form is not None:
        return [list(row) for row in scheme._intersection_form]
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
    scheme._intersection_form = tuple(tuple(row) for row in form)
    return form


def pair_homology(form: List[List[int]], u: Sequence[int], v: Sequence[int]) -> int:
    return sum(u[i] * form[i][j] * v[j] for i in range(len(u)) for j in range(len(v)))


# -- taut configurations ---------------------------------------------------


class _StepTable(dict):
    """The steps between slots of one scheme, each computed on first use.

    Key ``(s, t)`` is a source and a target slot of one polygon; the value
    is the step ``_ray_steps`` describes.  Kept on the scheme, so a large
    family member pays only for the pairs its curves use.
    """

    def __init__(self, scheme: Scheme):
        super().__init__()
        self.location, self.rank = scheme.location, scheme.rank
        self.sizes = [len(poly) for poly in scheme.polygons]

    def __missing__(self, pair: Tuple[SlotId, SlotId]) -> int:
        s, t = pair
        pi, ps = self.location[s]
        step = self[pair] = (
            (self.location[t][1] - ps) % self.sizes[pi] * len(self.rank) + self.rank[t] + 1
        )
        return step


def _step_table(scheme: Scheme) -> _StepTable:
    """The scheme's table of steps between slots, made on first use."""
    table = scheme._step_table
    if table is None:
        table = scheme._step_table = _StepTable(scheme)
    return table


def _ray_steps(item: Item) -> Tuple[List[int], List[int]]:
    """The first step of each strand leaving one of the item's crossing points.

    Entry ``k`` of the first list is the step of the strand leaving point
    ``k`` along the word (into the polygon of ``partner(tokens[k])``), of
    the second against it (into the polygon of ``tokens[k]``).  A step
    from source slot ``s`` to target ``t`` of one polygon is the integer
    ``offset * S + rank[t] + 1``: ``offset`` is the counterclockwise
    distance from ``s`` to ``t`` and ``S`` the number of slots, so steps
    from one source order by offset, a step determines its source and
    target, and 0 is left free for the end of a ray.  An arc's last forward
    and first backward steps reach its anchors.  Steps are read from the
    scheme's table of slot pairs; computed once per item, as items are
    never mutated.
    """
    if item._steps is None:
        scheme = item.scheme
        toks = item.tokens
        # the slot each strand enters its next polygon through
        entries = list(map(scheme.partner.__getitem__, toks))
        if isinstance(item, ClosedCurve):
            nexts = toks[1:] + toks[:1]
            prevs = entries[-1:] + entries[:-1]
        else:
            nexts = toks[1:] + (item.end.slot,)
            prevs = [item.start.slot] + entries[:-1]
        step = _step_table(scheme).__getitem__
        item._steps = (list(map(step, zip(entries, nexts))), list(map(step, zip(toks, prevs))))
    return item._steps


def _rank_rays(steps: List[int], nxt: List[int]) -> List[int]:
    """Ranks of the rays whose first steps are ``steps``.

    Ray ``nxt[j]`` is ray ``j`` one step on.  Prefix doubling (Manber and
    Myers 1993): after round ``j`` the ranks order the first ``2**j``
    steps lexicographically.  A round that splits no class proves every
    tied pair equal for ever, so the ranks are final; two rays of items of
    lengths ``m1`` and ``m2`` that agree for ``m1 + m2`` steps agree for
    ever (Fine and Wilf 1965), so this takes at most ``log2(2 * max
    length) + 2`` rounds.  Equal rays tie.
    """
    levels = sorted(set(steps))
    r = list(map(dict(zip(levels, range(len(levels)))).__getitem__, steps))
    while len(levels) < len(r):
        width = len(levels)
        keys = [a * width + r[j] for a, j in zip(r, nxt)]
        split = sorted(set(keys))
        if len(split) == width:
            break
        levels = split
        r = list(map(dict(zip(levels, range(len(levels)))).__getitem__, keys))
        nxt = [nxt[j] for j in nxt]
    return r


def _ray_ranks(items: Sequence[Item]) -> Tuple[List[int], List[int]]:
    """The ranks of every ray of ``items``, and each item's first ray node.

    Item ``ii``'s forward ray from point ``k`` is node ``bases[ii] + k``,
    its backward ray node ``bases[ii] + m + k`` (``m`` its token count).
    Ranks order the rays by their steps lexicographically; an arc's ray
    ends at its anchor, after which nothing follows.
    """
    # steps to two anchors on one slot differ only by the anchor index,
    # which is added to the steps, scaled, as its rank
    indices = sorted({
        a.index for item in items if isinstance(item, Arc) for a in (item.start, item.end)
    })
    scale = len(indices) + 1
    index_rank = {index: i + 1 for i, index in enumerate(indices)}

    # ``end`` is the node after an anchor
    end = 2 * sum(len(item.tokens) for item in items)
    steps: List[int] = []
    nxt: List[int] = []
    bases: List[int] = []
    for item in items:
        fwd, bwd = _ray_steps(item)
        m = len(fwd)
        b = len(steps)
        bases.append(b)
        if not m:
            continue
        closed = isinstance(item, ClosedCurve)
        if scale > 1:
            fwd = [s * scale for s in fwd]
            bwd = [s * scale for s in bwd]
            if not closed:
                fwd[-1] += index_rank[item.end.index]
                bwd[0] += index_rank[item.start.index]
        steps += fwd
        steps += bwd
        nxt += range(b + 1, b + m)
        nxt.append(b if closed else end)
        nxt.append(b + 2 * m - 1 if closed else end)
        nxt += range(b + m, b + 2 * m - 1)
    steps.append(0)
    nxt.append(end)
    return _rank_rays(steps, nxt), bases


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
    """Several curves/arcs in tight position on one scheme.

    Crossing point ``(name, k)`` is where strand ``name`` exits through its
    token ``k``; it appears on both sides of its edge, as the points
    ``("cp", name, k, slot)``.  An arc's ends are the points ``("anchor",
    name, "start")`` and ``("anchor", name, "end")``.  Passage ``i`` of an
    item is the chord from its entry point to its exit point (its token
    ``i``, or the end anchor) in one polygon.
    """

    def __init__(self, scheme: Scheme, items: Dict[str, Item]):
        self.scheme = scheme
        self.items = dict(items)
        for name, item in items.items():
            if item.scheme is not scheme:
                raise CurveError(f"item {name!r} lives on a different scheme")
        self._names = sorted(self.items)
        self._build()

    def _build(self) -> None:
        scheme = self.scheme
        edge_of, location = scheme.edge_of, scheme.location
        names = self._names
        items = [self.items[n] for n in names]

        anchors: Dict[SlotId, List[Tuple[int, str, str]]] = {}
        for name, item in zip(names, items):
            if isinstance(item, Arc):
                for a, which in ((item.start, "start"), (item.end, "end")):
                    lst = anchors.setdefault(a.slot, [])
                    if any(x[0] == a.index and (x[1], x[2]) != (name, which) for x in lst):
                        raise CurveError(
                            f"anchor ({a.slot!r}, {a.index}) used by two items"
                        )
                    lst.append((a.index, name, which))
        ranks, bases = _ray_ranks(items)

        # along each edge: the rays on side e[0] descending, then those on
        # side e[1] ascending, then (name, k)
        width = max(ranks) + 1
        groups: Dict[Tuple[SlotId, SlotId], List[Tuple[int, int, int]]] = {}
        for ii, (item, b) in enumerate(zip(items, bases)):
            m = len(item.tokens)
            for k, t in enumerate(item.tokens):
                e = edge_of[t]
                fwd, bwd = ranks[b + k], ranks[b + m + k]
                # the backward ray runs into the polygon of the token's own slot
                r0, r1 = (bwd, fwd) if t == e[0] else (fwd, bwd)
                groups.setdefault(e, []).append(((width - r0) * width + r1, ii, k))
        for group in groups.values():
            group.sort()
        self._groups = groups

        # counterclockwise position of every point in its polygon
        first: Dict[SlotId, int] = {}
        self._anchor_pos: Dict[Tuple[str, str], int] = {}
        self._poly_size: List[int] = []
        for poly in scheme.polygons:
            n = 0
            for s in poly:
                e = edge_of.get(s)
                if e is not None:
                    first[s] = n
                    n += len(groups.get(e, ()))
                elif s in anchors:
                    for _, name, which in sorted(anchors[s]):
                        self._anchor_pos[(name, which)] = n
                        n += 1
            self._poly_size.append(n)
        exit_pos = [[0] * len(item.tokens) for item in items]
        cross_pos = [[0] * len(item.tokens) for item in items]
        for (s0, s1), group in groups.items():
            lo, hi = first[s0], first[s1] + len(group) - 1
            for i, (_, ii, k) in enumerate(group):
                if items[ii].tokens[k] == s0:
                    exit_pos[ii][k], cross_pos[ii][k] = lo + i, hi - i
                else:
                    exit_pos[ii][k], cross_pos[ii][k] = hi - i, lo + i
        self._exit_pos = dict(zip(names, exit_pos))
        self._cross_pos = dict(zip(names, cross_pos))

        # chords (polygon, entry position, exit position) by passage, and by
        # polygon as (passage, entry position, exit position)
        self._chords: Dict[str, List[Tuple[int, int, int]]] = {}
        self._by_polygon: Dict[str, Dict[int, List[Tuple[int, int, int]]]] = {}
        for name, item, xp, cp in zip(names, items, exit_pos, cross_pos):
            polys = [location[t][0] for t in item.tokens]
            if isinstance(item, ClosedCurve):
                entries, exits = cp[-1:] + cp[:-1], xp
            else:
                polys.append(location[item.end.slot][0])
                entries = [self._anchor_pos[(name, "start")]] + cp
                exits = xp + [self._anchor_pos[(name, "end")]]
            chords = list(zip(polys, entries, exits))
            by_polygon: Dict[int, List[Tuple[int, int, int]]] = {}
            for i, (pi, a, b) in enumerate(chords):
                by_polygon.setdefault(pi, []).append((i, a, b))
            self._chords[name] = chords
            self._by_polygon[name] = by_polygon

    # -- points and passages -----------------------------------------------

    @functools.cached_property
    def _edge_order(self) -> Dict[Tuple[SlotId, SlotId], List[Tuple[str, int]]]:
        """The crossing points (name, k) along each edge, in its primary slot's order."""
        return {
            e: [(self._names[ii], k) for _, ii, k in group]
            for e, group in self._groups.items()
        }

    def position(self, point: tuple) -> int:
        """Counterclockwise position of a point among the points of its polygon."""
        if point[0] == "anchor":
            return self._anchor_pos[(point[1], point[2])]
        _, name, k, slot = point
        if slot == self.items[name].tokens[k]:
            return self._exit_pos[name][k]
        return self._cross_pos[name][k]

    @functools.cached_property
    def passages(self) -> List[Passage]:
        """Every passage, items in name order, each in passage order."""
        partner = self.scheme.partner
        out = []
        for name in self._names:
            item = self.items[name]
            toks = item.tokens
            exits = [("cp", name, k, t) for k, t in enumerate(toks)]
            entries = [("cp", name, k, partner[t]) for k, t in enumerate(toks)]
            xslots = list(toks)
            eslots = [partner[t] for t in toks]
            if isinstance(item, ClosedCurve):
                entries = entries[-1:] + entries[:-1]
                eslots = eslots[-1:] + eslots[:-1]
            else:
                entries.insert(0, ("anchor", name, "start"))
                eslots.insert(0, item.start.slot)
                exits.append(("anchor", name, "end"))
                xslots.append(item.end.slot)
            for i, (pi, _, _) in enumerate(self._chords[name]):
                out.append(Passage(name, i, entries[i], exits[i], eslots[i], xslots[i], pi))
        return out

    # -- crossings ---------------------------------------------------------

    def crossings(self, name1: str, name2: str) -> List[Tuple[int, int, int]]:
        """All crossings as (passage index of name1, of name2, sign).

        Counterclockwise order (entry 1, entry 2, exit 1, exit 2) is sign +1.
        Two chords of one polygon cross when exactly one endpoint of the
        second lies on the counterclockwise way from entry to exit of the
        first; no two passages share an endpoint.
        """
        out = []
        same = name1 == name2
        others = self._by_polygon.get(name2, {})
        for pi, chords in self._by_polygon.get(name1, {}).items():
            theirs = others.get(pi)
            if not theirs:
                continue
            n = self._poly_size[pi]
            for x, (i, a1, b1) in enumerate(chords):
                span = (b1 - a1) % n
                for j, a2, b2 in chords[x + 1:] if same else theirs:
                    inside = (a2 - a1) % n < span
                    if inside != ((b2 - a1) % n < span):
                        out.append((i, j, 1 if inside else -1))
        out.sort()
        return out


# -- crossings with one curve ----------------------------------------------


class _ChordTable(dict):
    """The crossings with ``c`` of a chord, by its polygon and end positions.

    Key ``(pi, a, b)`` is a chord of polygon ``pi`` whose ends sit just
    before c's points ``a`` and ``b``; the value lists the (c-passage,
    sign) pairs of its crossings ordered from ``a``, computed on first use.

    The chords of ``c`` pair off the points of a polygon without crossing,
    so read from point 0 they nest like brackets: a point opens its chord
    when the other end comes later.  A chord from ``a`` to ``b > a``
    crosses the chords with one end among ``a .. b - 1``: first those that
    close there below the bracket depth at ``a``, then those that open
    there and stay open past ``b``.  Each polygon keeps, for every
    position ``q``, the first point from ``q`` on that closes below the
    depth at ``q``, and the last point before ``q`` that opens below it,
    so a lookup takes one step per crossing.  A chord from ``a`` round
    past point 0 to ``b < a`` crosses the chords that cross the chord from
    ``b`` to ``a``, at their other ends, met in the reverse order.
    """

    def __init__(self, sizes: List[int], chords: Dict[int, List[Tuple[int, int, int]]]):
        super().__init__()
        self.sizes, self.chords = sizes, chords
        self.brackets: Dict[int, tuple] = {}

    def _brackets(self, pi: int) -> tuple:
        found = self.brackets.get(pi)
        if found is None:
            n = self.sizes[pi]
            # each point's (c-passage, sign, other end): +1 where c enters
            ends: list = [None] * n
            for j, ca, cb in self.chords.get(pi, ()):
                ends[ca] = (j, 1, cb)
                ends[cb] = (j, -1, ca)
            depth = [0] * (n + 1)
            for p, end in enumerate(ends):
                depth[p + 1] = depth[p] + (1 if end[2] > p else -1)
            # the depth moves by one per point, so the first drop below
            # depth[q] after q, and the last one before it, reach depth[q] - 1
            closes = [n] * (n + 1)
            seen: Dict[int, int] = {}
            for q in range(n, -1, -1):
                closes[q] = seen.get(depth[q] - 1, n + 1) - 1
                seen[depth[q]] = q
            opens = [-1] * (n + 1)
            seen = {}
            for q in range(n + 1):
                opens[q] = seen.get(depth[q] - 1, -1)
                seen[depth[q]] = q
            found = self.brackets[pi] = (ends, closes, opens)
        return found

    def __missing__(self, key: Tuple[int, int, int]) -> Tuple[Tuple[int, int], ...]:
        pi, a, b = key
        n = self.sizes[pi]
        points = []
        if n and (a - b) % n:
            ends, closes, opens = self._brackets(pi)
            lo, hi = sorted((a % n, b % n))
            closed, opened = [], []
            p = closes[lo]
            while p < hi:
                closed.append(p)
                p = closes[p + 1]
            p = opens[hi]
            while p >= lo:
                opened.append(p)
                p = opens[p]
            # opened is read backwards from hi
            if a % n < b % n:
                points = closed + opened[::-1]
            else:
                points = [ends[p][2] for p in opened + closed[::-1]]
            points = [ends[p][:2] for p in points]
        found = self[key] = tuple(points)
        return found


class _InsertionWords(dict):
    """The words a strand picks up at its crossings with ``c``, each built on first use.

    Key ``(kc, n)`` is a crossing on passage ``kc`` of ``c`` and a nonzero
    number of copies; the value is ``c`` followed once around ``abs(n)``
    times from there, forward if ``n > 0`` (first exiting through
    ``c.tokens[kc]``), backward if ``n < 0`` (first exiting through the
    partner of the previous token).
    """

    def __init__(self, c: ClosedCurve):
        super().__init__()
        self.tokens, self.partner = c.tokens, c.scheme.partner

    def __missing__(self, key: Tuple[int, int]) -> TokenWord:
        kc, n = key
        rot = self.tokens[kc:] + self.tokens[:kc]
        if n < 0:
            rot = _reverse_word(self.partner, rot)
        word = self[key] = rot * abs(n)
        return word


class _PairTable(dict):
    """What ``passage_crossings`` reads at a point of ``x``, by x's token pair.

    Key ``(t, u)``: ``x`` exits through ``t`` at the point and then through
    ``u`` (an arc's last token pairs with its end anchor's slot), so the
    point's forward ray takes the step from ``partner(t)`` to ``u``.  The
    value is ``(lo, hi, shift, before[t], after[partner(t)], polygon of
    t)``: a point with ``v`` of c's rays below its successor has
    ``clamp(v + shift, lo, hi)`` below it, by the step's block map (see
    ``_crossing_data``); for a step that no ray of ``c`` takes, ``lo ==
    hi`` is the point's place by binary search, and ``shift`` is 0.
    Filled on first use.
    """

    def __init__(self, scheme: Scheme, firsts: Dict[SlotId, List[int]],
                 maps: Dict[int, Tuple[int, int, int]],
                 before: Dict[SlotId, int], after: Dict[SlotId, int]):
        super().__init__()
        self.partner, self.location, self.steps = scheme.partner, scheme.location, _step_table(scheme)
        self.firsts, self.maps, self.before, self.after = firsts, maps, before, after

    def __missing__(self, pair: Tuple[SlotId, SlotId]) -> Tuple[int, int, int, int, int, int]:
        t, u = pair
        s = self.partner[t]
        f = self.steps[s, u]
        step = self.maps.get(f)
        if step is None:
            v = bisect_left(self.firsts.get(s, ()), f)
            step = (v, v, 0)
        found = self[pair] = step + (self.before[t], self.after[s], self.location[t][0])
        return found


def _crossing_data(c: ClosedCurve):
    """What ``passage_crossings`` keeps of ``c``, built once per curve.

    Returns the table of x's token pairs (``_PairTable``), which keeps
    the number of c's points counterclockwise before each slot of its
    polygon and before the end of each slot; the table of chord crossings
    (``_ChordTable``); and the insertion words (``_InsertionWords``).

    The pair table reads, for each slot, the first steps of c's rays
    leaving it in rank order, and each step's block map.  The rays of
    ``c`` that leave one slot with one first step ``f`` are a block ``lo
    .. hi - 1`` of those, and they continue, in the same order, into a
    block of the rays leaving the partner of f's target that starts at
    ``b``: one contiguous block, because c's chords from one slot to
    another are parallel.  So a ray taking step ``f`` with ``v`` of c's
    rays below its successor has ``clamp(v + lo - b, lo, hi)`` below it.
    c's own points sit in the order of its ranked rays on both sides of
    an edge, as ``c`` is simple.
    """
    if c._crossing_data is None:
        scheme = c.scheme
        partner, location = scheme.partner, scheme.location
        toks = c.tokens
        m = len(toks)
        ranks = _ray_ranks((c,))[0]
        fwd, bwd = _ray_steps(c)
        steps = fwd + bwd
        # node k is the forward ray from point k, leaving partner(tokens[k]);
        # node m + k the backward ray, leaving tokens[k]
        leaving: Dict[SlotId, list] = defaultdict(list)
        for k, t in enumerate(toks):
            leaving[partner[t]].append((ranks[k], k))
            leaving[t].append((ranks[m + k], m + k))
        place = [0] * (2 * m)
        firsts: Dict[SlotId, List[int]] = {}
        for s, rays in leaving.items():
            rays.sort()
            firsts[s] = [steps[node] for _, node in rays]
            for i, (_, node) in enumerate(rays):
                place[node] = i
        # a step's lowest ray comes first, and its successor starts the
        # block; forward rays step up the word and backward rays down it
        maps: Dict[int, Tuple[int, int, int]] = {}
        for s, rays in leaving.items():
            row = firsts[s]
            for lo, (_, node) in enumerate(rays):
                f = row[lo]
                if f not in maps:
                    succ = (node + 1) % m if node < m else m + (node - 1) % m
                    maps[f] = (lo, bisect_right(row, f), lo - place[succ])
        before: Dict[SlotId, int] = {}
        after: Dict[SlotId, int] = {}
        sizes = []
        for poly in scheme.polygons:
            n = 0
            for s in poly:
                before[s] = n
                n += len(firsts.get(s, ()))
                after[s] = n
            sizes.append(n)
        # c's point k, with place[k] rays below its forward ray, sits that
        # many points into its exit slot and one more back from the end of
        # the partner slot; passage k runs from point k - 1 to point k
        chords: Dict[int, List[Tuple[int, int, int]]] = {}
        fplace = place[:m]
        for k, t in enumerate(toks):
            entry = after[partner[toks[k - 1]]] - fplace[k - 1] - 1
            chords.setdefault(location[t][0], []).append((k, entry, before[t] + fplace[k]))
        c._crossing_data = (
            _PairTable(scheme, firsts, maps, before, after), _ChordTable(sizes, chords),
            _InsertionWords(c),
        )
    return c._crossing_data


def insertion_words(c: ClosedCurve) -> Dict[Tuple[int, int], TokenWord]:
    """The words kept on ``c`` that its twists insert, keyed ``(c passage, copies)``.

    See ``_InsertionWords``; a twist along ``c`` reads them at every crossing.
    """
    return _crossing_data(c)[2]


def passage_crossings(x: Item, c: ClosedCurve) -> List[Tuple[Tuple[int, int], ...]]:
    """The crossings of each passage of ``x`` with ``c``, ordered from its entry point.

    Entry ``k`` lists the (c-passage index, sign) pairs of passage ``k``,
    with the signs of ``TautConfig.crossings``, for ``x`` and ``c`` in
    minimal position (see the module docstring).  Requires ``c`` simple,
    so that the order along a chord is the order of the near endpoints.

    Point ``k`` of ``x`` reads the entry of c's ``_PairTable`` for its
    token and the next, and has ``v`` of c's rays below its forward ray
    among those leaving its slot: the entry's fixed place, else the
    entry's map applied to point ``k + 1``'s ``v``, or, when ``c`` takes
    every step of a closed ``x``, the fixed point of the maps composed
    once round it (a ray of ``c`` that ``x`` follows for ever counts
    below), found by running round ``x`` twice.  The point sits ``v``
    points into its exit slot and ``v`` back from the partner slot's end;
    a chord is looked up by c's points before its ends.
    """
    scheme = c.scheme
    if x.scheme is not scheme:
        raise CurveError(f"{x!r} lives on a different scheme from {c!r}")
    pairs, table, _ = _crossing_data(c)
    toks = x.tokens
    closed = isinstance(x, ClosedCurve)
    nexts = toks[1:] + (toks[:1] if closed else (x.end.slot,))
    rows = list(map(pairs.__getitem__, zip(toks, nexts)))
    m = len(rows)
    start = m - 1
    while start >= 0 and rows[start][0] != rows[start][1]:
        start -= 1
    v = 0
    rounds = 1
    if start < 0:
        # c takes every step of x: the maps composed once round x are
        # v -> clamp(v + s, L, H), s the sum of their shifts, and the fixed
        # point taken is H if s >= 0, else L, which is what one round makes
        # of v = +inf or -inf; a second round then places every point
        start = m - 1
        v = inf if sum(map(itemgetter(2), rows)) >= 0 else -inf
        rounds = 2
    exits = [0] * m
    entries = [0] * m
    polys = [0] * m
    # k wraps round x through negative indices
    for k in range(start, start - rounds * m, -1):
        lo, hi, shift, b, a, polys[k] = rows[k]
        v += shift
        if v < lo:
            v = lo
        elif v > hi:
            v = hi
        exits[k] = b + v
        entries[k] = a - v
    if closed:
        entries = entries[-1:] + entries[:-1]
    else:
        entries.insert(0, pairs.before[x.start.slot])
        exits.append(pairs.before[x.end.slot])
        polys.append(scheme.location[x.end.slot][0])
    return list(map(table.__getitem__, zip(polys, entries, exits)))


# -- intersection numbers --------------------------------------------------


def algebraic_intersection(u: ClosedCurve, v: ClosedCurve) -> int:
    """Signed crossings of ``u`` with ``v``: bigons cancel, so any position serves."""
    pairs = ((u, v, 1), (v, u, -1))
    for x, c, sign in pairs if len(v.tokens) <= len(u.tokens) else pairs[::-1]:
        if is_simple(c):
            return sign * sum(s for row in passage_crossings(x, c) for _, s in row)
    cfg = TautConfig(u.scheme, {"u": u, "v": v})
    return sum(s for _, _, s in cfg.crossings("u", "v"))


def _sweep(rows: List[Tuple[int, int, int, int, int]], cross: int) -> int:
    """Pairs of rows ``(x, group, owner, y, lo)`` with the first before the second.

    Counts pairs ``p``, ``q`` with ``x_p < x_q`` in different groups (a
    group is a run of equal ``group`` values in ``x`` order) and ``lo_q <=
    y_p < y_q``, of different owners if ``cross`` is 1 and of any if 0.
    One pass in ``x`` order keeps the ``y`` of finished groups sorted.
    """
    rows.sort()
    done: Tuple[List[int], List[int]] = ([], [])
    pending: List[Tuple[int, int]] = []
    total = 0
    group = None
    for _, g, owner, y, lo in rows:
        if g != group:
            for o, py in pending:
                insort(done[o], py)
            pending = []
            group = g
        seen = done[owner ^ cross]
        total += bisect_left(seen, y) - bisect_left(seen, lo)
        pending.append((owner, y))
    return total


def _linked_crossings(items: Sequence[ClosedCurve]) -> int:
    """Crossings of two primitive closed curves, or self-crossings of one.

    The two curves must differ up to orientation: the rays of a curve and
    of a parallel copy tie, and ties are never linked.  Points ``p`` and
    ``q`` on one edge are linked when ``(r0_p - r0_q) * (r1_p - r1_q) >
    0`` for their rays' ranks on the two sides; a run ends on the side
    where the two rays differ at their first step, so half of the linked
    ends count the runs, with the interleaving chords (see the module
    docstring; Despré and Lazarus 2019).  On a side, a pair is seen from
    rays sorted by rank there, grouped by first step; in a polygon, from
    chords sorted by low slot.
    """
    scheme = items[0].scheme
    partner, location = scheme.partner, scheme.location
    ranks, bases = _ray_ranks(items)
    # each item's rows by the slot a ray leaves from, and by polygon
    sides: List[Dict[SlotId, list]] = []
    polygons: List[Dict[int, list]] = []
    for owner, (item, b) in enumerate(zip(items, bases)):
        toks = item.tokens
        m = len(toks)
        fwd_steps, bwd_steps = _ray_steps(item)
        by_side: Dict[SlotId, list] = defaultdict(list)
        by_polygon: Dict[int, list] = defaultdict(list)
        entries = list(map(partner.__getitem__, toks[-1:] + toks[:-1]))
        # the forward ray leaves from the partner slot, the backward ray
        # from the token's own slot; each sorts by its rank and groups by
        # its first step
        for t, s, fwd, bwd, fs, bs in zip(toks, entries[1:] + entries[:1], ranks[b:b + m],
                                          ranks[b + m:b + 2 * m], fwd_steps, bwd_steps):
            by_side[s].append((fwd, fs, owner, bwd, 0))
            by_side[t].append((bwd, bs, owner, fwd, 0))
        for e, t in zip(entries, toks):
            pi, i = location[e]
            j = location[t][1]
            lo, hi = (i, j) if i < j else (j, i)
            by_polygon[pi].append((lo, lo, owner, hi, lo + 1))
        sides.append(by_side)
        polygons.append(by_polygon)

    cross = len(items) - 1

    def count(by_owner: List[dict]) -> int:
        # pairs of two items meet only where both have rows
        first, last = by_owner[0], by_owner[-1]
        return sum(_sweep(first[k] + last[k] if cross else first[k], cross)
                   for k in first.keys() & last.keys())

    return count(sides) // 2 + count(polygons)


def geometric_intersection(u: ClosedCurve, v: ClosedCurve) -> int:
    """The least number of crossings of curves freely homotopic to ``u`` and ``v``.

    Counted from the shorter primitive root's taut rows when it is simple,
    and from linked runs otherwise (see the module docstring).
    """
    if u.scheme is not v.scheme:
        raise CurveError(f"{u!r} lives on a different scheme from {v!r}")
    if u.is_null or v.is_null:
        return 0
    ru, pu = u.primitive_root()
    rv, pv = v.primitive_root()
    # equal forms need equal lengths, and most pairs differ in length
    if len(ru.tokens) == len(rv.tokens) and (
        ru.canonical(oriented=False) == rv.canonical(oriented=False)
    ):
        return 0
    if len(ru.tokens) < len(rv.tokens):
        ru, rv = rv, ru
    if is_simple(rv):
        return pu * pv * sum(map(len, passage_crossings(ru, rv)))
    return pu * pv * _linked_crossings((ru, rv))


def _traces_once(c: ClosedCurve) -> bool:
    """Does the non-crossing arrangement of c's chords trace c once round?

    The arrangement argument is in the module docstring.  Point ``p`` of
    slot ``s`` is entry ``base[s] + p`` of one list.  Following the chord
    at an entry, and crossing the edge at its other end, reaches the next
    entry; a block of parallel chords maps its entries to a run of
    entries.
    """
    scheme = c.scheme
    partner, location, polygons, rank = scheme.partner, scheme.location, scheme.polygons, scheme.rank
    toks = c.tokens
    m = len(toks)
    entries = list(map(partner.__getitem__, toks[-1:] + toks[:-1]))
    # chords by unordered slot pair, counted under both orders
    chords = Counter(zip(chain(entries, toks), chain(toks, entries)))
    rows: Dict[SlotId, List[Tuple[int, SlotId, int]]] = defaultdict(list)
    spans: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for (s, t), n in chords.items():
        (pi, i), j = location[s], location[t][1]
        rows[s].append(((j - i) % len(polygons[pi]), t, n))
        if i < j:
            spans[pi].append((i, -j))
    # by low end, the outer first on a shared one: each span must end
    # inside the innermost span still open at its low end, or the two
    # types interleave
    for found in spans.values():
        found.sort()
        stack: List[int] = []
        for i, j in found:
            while stack and stack[-1] <= i:
                stack.pop()
            if stack and stack[-1] < -j:
                return False
            stack.append(-j)
    # on each slot, one block per type, the farthest counterclockwise first
    start: Dict[Tuple[SlotId, SlotId], int] = {}
    base: Dict[SlotId, int] = {}
    end: Dict[SlotId, int] = {}
    total = 0
    for s, row in rows.items():
        row.sort(reverse=True)
        base[s] = total
        for _, t, n in row:
            start[s, t] = total
            total += n
        end[s] = total
    nxt = [0] * total
    word = [""] * total
    for (s, t), n in chords.items():
        # entry j of the block leaves through t at its point n - 1 - j, and
        # enters through partner(t) at the reversed position
        g = start[s, t]
        h = base[partner[t]] + end[t] - start[t, s] - n
        nxt[g:g + n] = range(h, h + n)
        word[g:g + n] = chr(rank[t]) * n
    walk = [0] * m
    p = 0
    for k in range(m):
        walk[k] = p
        p = nxt[p]
    if p or walk.count(0) > 1:
        return False
    traced = "".join(map(word.__getitem__, walk))
    forward = "".join(map(chr, map(rank.__getitem__, toks)))
    # the entries reversed are a rotation of the reversed word
    backward = "".join(map(chr, map(rank.__getitem__, reversed(entries))))
    return traced in forward * 2 or traced in backward * 2


def is_simple(c: ClosedCurve) -> bool:
    """Is ``c`` an embedded essential curve?  Decided once per curve.

    Traces the non-crossing arrangement of c's chords, in time linear in
    ``|c|`` (see the module docstring); no ray is ranked.
    """
    if c._simple is None:
        c._simple = not c.is_null and _traces_once(c)
    return c._simple


def require_simple(c: ClosedCurve) -> None:
    if not is_simple(c):
        raise NotSimpleError(f"{c!r} is not an embedded closed curve")

