"""Closed curves and arcs on a polygon scheme, and where they cross.

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
Duval's Lyndon factorization finds a least rotation in time and memory
linear in the word length, and a curve, which is never mutated, computes
each form once.

Crossings are signed by the counterclockwise orientation of the polygons:
a crossing of a chord of ``x`` with a chord of ``c`` is +1 when the four
ends run (entry of x, entry of c, exit of x, exit of c) counterclockwise.
Points are ordered along an edge by their *rays*, the strands traced away
from the edge, each read as the sequence of counterclockwise offsets of its
steps (``_ray_steps``); prefix doubling ranks rays (``_ray_ranks``).
``render`` places the points of a picture from these ranks; no verdict
reads that placement.

:func:`algebraic_intersection` needs no minimal position: bigons cancel,
so any transverse position serves, and one pass over both words counts
the one with u's points first along every edge.
Twists, projections across a cut and smoothings need only where a curve
``x`` crosses one simple curve ``c``, and the order of x's points among
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
(``_crossing_data``), read off the arrangement of c's chords that
:func:`is_simple` traces, so a simple curve is never ranked; the pass
reads one entry per token of a table keyed by x's token pairs
(``_PairTable``) and never computes x's own steps.  It takes time and
memory linear in ``|x| + |c|`` and the crossings it lists: c's chords in
a polygon nest like brackets, so a chord of ``x`` finds those it crosses
in one step each (``_ChordTable``).

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
then read once, never ranked.  A root that already keeps its crossing
data is simple, and is read against in place of the shorter, so the
other root is not traced; the one trace of a fresh root gives both its
verdict and its crossing data.  Other pairs count *linked* pairs of
points: two points on one edge whose rays on the two sides order them
the same way round start strands that cross once somewhere along their
maximal shared run.  A linked pair is counted where its run ends (half
of the ends), plus the interleaving chords of four distinct slots (runs
of length zero) (Cohen and Lustig 1987).  The rays of the two curves are
ranked together once, and each edge side and each polygon is then one
sorted sweep over its rays or chords; nothing is kept on either curve.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from bisect import bisect_left, bisect_right, insort
from itertools import accumulate, chain, repeat
from math import inf
from operator import itemgetter
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import CurveError, NotSimpleError, SchemeError
from .schemes import Scheme, SlotId

TokenWord = Tuple[SlotId, ...]


# -- words -----------------------------------------------------------------


def _reduce_linear(partner: Dict[SlotId, SlotId], tokens: Iterable[SlotId]) -> List[SlotId]:
    # ``back`` is the token that would cancel out[-1], a glued slot, so the
    # first token that is not one fails its lookup as it is appended
    out: List[SlotId] = []
    back = None
    for t in tokens:
        if t == back:
            out.pop()
            back = partner[out[-1]] if out else None
        else:
            out.append(t)
            try:
                back = partner[t]
            except KeyError:
                raise CurveError(f"token {t!r} is not a glued slot") from None
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


def _least_rotation(rank: Dict[SlotId, int], word: TokenWord) -> Tuple[List[int], TokenWord]:
    """The least rotation of ``word`` under ``rank``, with its rank sequence.

    Duval's Lyndon factorization (Duval 1983) of the rank sequence doubled:
    the last Lyndon factor that starts in the first copy starts the least
    rotation.  Linear time.
    """
    n = len(word)
    s = [rank[t] for t in word] * 2
    i = start = 0
    while i < n:
        start = i
        j, k = i + 1, i
        while j < 2 * n and s[k] <= s[j]:
            k = i if s[k] < s[j] else k + 1
            j += 1
        while i <= k:
            i += j - k
    return s[start:start + n], word[start:] + word[:start]


def _reverse_word(partner: Dict[SlotId, SlotId], word: TokenWord) -> TokenWord:
    # from a list, not a generator: ``tuple(generator)`` resizes its result,
    # and every such tuple adds one to CPython's free list of its size, which
    # only a full garbage collection empties
    return tuple([partner[t] for t in reversed(word)])


class ClosedCurve:
    """A free homotopy class of closed curves, stored as a reduced word."""

    def __init__(self, scheme: Scheme, tokens: Iterable[SlotId]):
        self.scheme = scheme
        partner, location = scheme.partner, scheme.location
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


class Anchor(NamedTuple):
    """A fixed point on a boundary slot; ``index`` orders anchors on a slot."""

    slot: SlotId
    index: int = 0


class Arc:
    """An embedded-arc homotopy class rel its two boundary anchors."""

    def __init__(self, scheme: Scheme, start: Anchor, tokens: Iterable[SlotId], end: Anchor):
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
    """The sum over ``tokens`` of each one's edge class, signed by its side.

    Reads (row, sign) per distinct token from a table kept on the scheme.
    """
    table = scheme._basis_index
    if table is None:
        rows = {s: i for i, s in enumerate(homology_basis(scheme))}
        table = scheme._basis_index = {
            s: (rows[p], 1 if s == p else -1)
            for s, (p, _) in scheme.edge_of.items()
        }
    # each edge class has two slots
    vec = [0] * (len(table) // 2)
    for t, n in Counter(tokens).items():
        entry = table.get(t)
        if entry is None:
            raise SchemeError(f"{t!r} is a boundary slot")
        vec[entry[0]] += entry[1] * n
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


# -- rays ------------------------------------------------------------------


def _step(scheme: Scheme, s: SlotId, t: SlotId) -> int:
    """The step from source slot ``s`` to target ``t`` of one polygon (see ``_ray_steps``)."""
    location = scheme.location
    pi, i = location[s]
    return (location[t][1] - i) % len(scheme.polygons[pi]) * len(scheme.rank) + scheme.rank[t] + 1


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
    and first backward steps reach its anchors.  Computed once per item, as
    items are never mutated.
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
        schemes = repeat(scheme)
        item._steps = (list(map(_step, schemes, entries, nexts)),
                       list(map(_step, schemes, toks, prevs)))
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


class _PairTable(dict):
    """What ``passage_crossings`` reads at a point of ``x``, by x's token pair.

    Key ``(t, u)``: ``x`` exits through ``t`` at the point and then through
    ``u`` (an arc's last token pairs with its end anchor's slot), so the
    point's forward ray takes the step from ``partner(t)`` to ``u``.  The
    value is ``(lo, hi, shift, before(t), before(partner(t), bisect_right),
    polygon of t)``: a point with ``v`` of c's rays below its successor
    has ``clamp(v + shift, lo, hi)`` below it, by the step's block map (see
    ``_crossing_data``); for a step that no ray of ``c`` takes, ``lo ==
    hi`` is the point's place by binary search, and ``shift`` is 0.
    Filled on first use.
    """

    def __init__(self, scheme: Scheme, firsts: Dict[SlotId, List[int]],
                 maps: Dict[int, Tuple[int, int, int]],
                 runs: Dict[int, Tuple[List[int], List[int]]]):
        super().__init__()
        self.scheme, self.firsts, self.maps, self.runs = scheme, firsts, maps, runs

    def before(self, s: SlotId, find=bisect_left) -> int:
        """c's points counterclockwise before slot ``s`` in its polygon, or
        before its end with ``find = bisect_right``.

        ``runs[pi]`` holds the positions of the slots of polygon ``pi`` that
        ``c`` occupies, ascending, and the running totals of c's points on
        them, so a slot costs time logarithmic in ``|c|`` whatever its
        polygon's size.
        """
        pi, i = self.scheme.location[s]
        at, totals = self.runs.get(pi, ((), (0,)))
        return totals[find(at, i)]

    def __missing__(self, pair: Tuple[SlotId, SlotId]) -> Tuple[int, int, int, int, int, int]:
        t, u = pair
        scheme = self.scheme
        s = scheme.partner[t]
        f = _step(scheme, s, u)
        step = self.maps.get(f)
        if step is None:
            v = bisect_left(self.firsts.get(s, ()), f)
            step = (v, v, 0)
        found = self[pair] = step + (self.before(t), self.before(s, bisect_right),
                                     scheme.location[t][0])
        return found


def _crossing_data(c: ClosedCurve):
    """What ``passage_crossings`` keeps of ``c``, built once per curve.

    Returns the table of x's token pairs (``_PairTable``), which counts
    c's points counterclockwise before each slot of its polygon and before
    the end of each slot; the table of chord crossings (``_ChordTable``);
    and the insertion words (``insertion_words``), c's word doubled and its
    reversed word doubled, 4|c| tokens, from which a twist slices every
    copy of ``c`` it inserts.  Its cost does not grow with the number of
    slots of c's polygons.  Raises
    ``NotSimpleError`` unless ``c`` is simple, and keeps the verdict that
    ``is_simple`` reads.

    All of it is read from the arrangement that ``_traces_once`` traces;
    no ray is ranked.  The ``n`` chords of type ``(s, t)`` hold the rays
    leaving ``s`` with first step ``s -> t``, clockwise along ``s``, which
    is their rank order, at places ``lo .. lo + n - 1``; they continue, in
    order, into the rays leaving ``partner(t)`` from the place ``p`` of
    block ``(t, s)`` along ``t``.  So a ray taking that step with ``v`` of
    c's rays below its successor has ``clamp(v + lo - p, lo, lo + n)``
    below it.  c's points are where the trace enters each polygon.
    """
    if c._crossing_data is None:
        found = _traces_once(c) if c.tokens and c._simple is not False else None
        c._simple = found is not None
        if found is None:
            raise NotSimpleError(f"{c!r} is not an embedded closed curve")
        (types, start, base, end), (walk, r, backward) = found
        scheme = c.scheme
        partner, location = scheme.partner, scheme.location
        firsts = {s: [0] * (end[s] - base[s]) for s in end}
        maps: Dict[int, Tuple[int, int, int]] = {}
        for (s, t), n in types.items():
            lo = end[s] - start[s, t] - n
            f = _step(scheme, s, t)
            firsts[s][lo:lo + n] = [f] * n
            maps[f] = (lo, lo + n, lo - start[t, s] + base[t])
        # the slots c occupies by polygon, counterclockwise, with c's points
        # before each
        occupied: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
        for s, row in firsts.items():
            pi, i = location[s]
            occupied[pi].append((i, len(row)))
        runs = {}
        sizes = [0] * len(scheme.polygons)
        for pi, slots in occupied.items():
            slots.sort()
            totals = list(accumulate((n for _, n in slots), initial=0))
            runs[pi] = ([i for i, _ in slots], totals)
            sizes[pi] = totals[-1]
        pairs = _PairTable(scheme, firsts, maps, runs)
        before = pairs.before
        # after step i the trace enters at walk[i + 1]: c's point i + r, or,
        # read against c, point -2 - i - r, through its token's own slot.
        # Entry q of slot a is q - base[a] points into a, and as many back
        # from the end of its partner b
        toks = c.tokens
        m = len(toks)
        points = [(0, 0)] * m  # (exit, entry) position of each point
        for i, q in enumerate(walk[1:] + walk[:1]):
            k = (-2 - i - r) % m if backward else (i + r) % m
            t = toks[k]
            a, b = (t, partner[t]) if backward else (partner[t], t)
            here, there = before(a) + q - base[a], before(b) + end[a] - 1 - q
            points[k] = (here, there) if backward else (there, here)
        chords: Dict[int, List[Tuple[int, int, int]]] = defaultdict(list)
        for k, t in enumerate(toks):
            chords[location[t][0]].append((k, points[k - 1][1], points[k][0]))
        c._crossing_data = (
            pairs, _ChordTable(sizes, chords),
            (toks + toks, _reverse_word(partner, toks * 2)),
        )
    return c._crossing_data


def insertion_words(c: ClosedCurve) -> Tuple[TokenWord, TokenWord]:
    """c's word doubled and its reversed word doubled, kept on ``c``.

    A strand crossing ``c`` on passage ``kc`` picks up, per copy, ``c``
    followed once around from there: ``forward[kc:kc + |c|]`` forward
    (first exiting through ``c.tokens[kc]``), ``backward[|c| - kc:2|c| -
    kc]`` backward (first exiting through the partner of the previous
    token).  A twist slices each copy from these, so what ``c`` keeps for
    its twists is 4|c| tokens whatever the crossings and powers.
    """
    return _crossing_data(c)[2]


def passage_crossings(x: Item, c: ClosedCurve) -> List[Tuple[Tuple[int, int], ...]]:
    """The crossings of each passage of ``x`` with ``c``, ordered from its entry point.

    Entry ``k`` lists the (c-passage index, sign) pairs of passage ``k``,
    for ``x`` and ``c`` in minimal position (see the module docstring).
    Requires ``c`` simple, so that the order along a chord is the order of
    the near endpoints.

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
        entries.insert(0, pairs.before(x.start.slot))
        exits.append(pairs.before(x.end.slot))
        polys.append(scheme.location[x.end.slot][0])
    return list(map(table.__getitem__, zip(polys, entries, exits)))


# -- intersection numbers --------------------------------------------------


def algebraic_intersection(u: ClosedCurve, v: ClosedCurve) -> int:
    """Signed crossings of ``u`` with ``v``, signed as in the module docstring.

    Any transverse position serves (Farb and Margalit, *Primer*, section
    1.2.3): u's points come first along each edge, read from its primary
    slot.  ``v`` enters through slot ``s`` ``net(s)`` times more than it
    leaves, and a chord of ``u`` crosses ``v`` by the sum of ``net`` over
    the points counterclockwise from its entry to its exit; ``cut[s]``
    sums ``net`` counterclockwise before u's points on ``s``.
    """
    scheme = u.scheme
    if v.scheme is not scheme:
        raise CurveError(f"{u!r} lives on a different scheme from {v!r}")
    partner, edge_of = scheme.partner, scheme.edge_of
    count = Counter(v.tokens)
    cut: Dict[SlotId, int] = {}
    for poly in scheme.polygons:
        total = 0
        for s in poly:
            t = partner.get(s)
            if t is not None:
                net = count[t] - count[s]
                cut[s] = total if edge_of[s][0] == s else total + net
                total += net
    return sum(cut[t] - cut[partner[t]] for t in u.tokens)


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

    Counted from the taut rows of a primitive root that keeps its crossing
    data, else of the shorter root when it is simple, and from linked runs
    otherwise (see the module docstring).
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
    # a curve with crossing data is simple, and the count is symmetric
    if rv._crossing_data is None and ru._crossing_data is not None:
        ru, rv = rv, ru
    if rv._simple is not False:
        try:
            return pu * pv * sum(map(len, passage_crossings(ru, rv)))
        except NotSimpleError:
            pass  # _crossing_data traced rv once and kept the verdict
    return pu * pv * _linked_crossings((ru, rv))


def _traces_once(c: ClosedCurve):
    """The non-crossing arrangement of c's chords, if it traces c once round.

    The argument is in the module docstring.  Point ``p`` of slot ``s``,
    counterclockwise, is entry ``base[s] + p`` of one list, up to
    ``end[s]``; the ``chords[s, t]`` chords of type ``(s, t)`` start at
    entry ``start[s, t]``.  Following the chord at an entry, and crossing
    the edge at its other end, reaches the next entry.  Returns ``None``,
    or the blocks ``(chords, start, base, end)`` and the trace ``(walk, r,
    backward)``: the entries visited from entry 0, and the rotation of
    c's word, or of its reverse, that it reads.
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
                return None
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
        return None
    traced = "".join(map(word.__getitem__, walk))
    blocks = (chords, start, base, end)
    r = ("".join(map(chr, map(rank.__getitem__, toks))) * 2).find(traced)
    if r >= 0:
        return blocks, (walk, r, False)
    # the entries reversed are a rotation of the reversed word
    r = ("".join(map(chr, map(rank.__getitem__, reversed(entries)))) * 2).find(traced)
    return None if r < 0 else (blocks, (walk, r, True))


def is_simple(c: ClosedCurve) -> bool:
    """Is ``c`` an embedded essential curve?  Decided once per curve.

    Traces the non-crossing arrangement of c's chords in time linear in
    ``|c|`` and keeps the verdict (see the module docstring).
    """
    if c._simple is None:
        c._simple = not c.is_null and _traces_once(c) is not None
    return c._simple
