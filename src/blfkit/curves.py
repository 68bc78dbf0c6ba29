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
(``_crossing_data``), and the pass takes time and memory linear in
``|x| + |c|`` and the crossings it lists: c's chords in a polygon nest
like brackets, so a chord of ``x`` finds those it crosses in one step
each (``_ChordTable``).  Every step is read from a table of slot pairs
kept on the scheme and filled on first use.

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
then read once, never ranked or tabled.  Other pairs count *linked*
pairs of points: two points on one edge whose rays on the two sides
order them the same way round start strands that cross once somewhere
along their maximal shared run.  A linked pair is counted where its run
ends (half of the ends), plus the interleaving chords of four distinct
slots (runs of length zero), from the ranked rays (Cohen and Lustig
1987).  Each curve counted this way ranks its own rays once and keeps
the ranks with the sorted keys of every prefix-doubling round, and keeps
dominance tables built from them: on each edge side, a Fenwick tree
over the first steps of the rays leaving it, holding their ranks on the
other side, and in each polygon one over the low slots of its chords,
holding their high slots.  The shorter curve's rays are placed among
the longer curve's classes round by round, and only the shorter curve's
rows query the longer curve's tables.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter, defaultdict
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

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
        self._rays: Optional[tuple] = None
        self._tables: Optional[tuple] = None
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
        root survives between calls.
        """
        if self._power is None:
            m = len(self.tokens)
            self._power = 1
            for p in range(1, m):
                if m % p == 0 and self.tokens[p:] + self.tokens[:p] == self.tokens:
                    self._root, self._power = ClosedCurve(self.scheme, self.tokens[:p]), m // p
                    break
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
        table = scheme._step_table
        if table is None:
            table = scheme._step_table = _StepTable(scheme)
        toks = item.tokens
        # the slot each strand enters its next polygon through
        entries = list(map(scheme.partner.__getitem__, toks))
        if isinstance(item, ClosedCurve):
            nexts = toks[1:] + toks[:1]
            prevs = entries[-1:] + entries[:-1]
        else:
            nexts = toks[1:] + (item.end.slot,)
            prevs = [item.start.slot] + entries[:-1]
        step = table.__getitem__
        item._steps = (list(map(step, zip(entries, nexts))), list(map(step, zip(toks, prevs))))
    return item._steps


def _rank_rays(
    steps: List[int],
    ahead: Callable[[List[int], int], List[int]],
    rounds: Optional[List[array]] = None,
) -> List[int]:
    """Ranks of the rays whose first steps are ``steps``.

    ``ahead(r, d)`` lists, for each ray, the entry of ``r`` for the ray
    ``d`` steps on; it is called with ``d = 1, 2, 4, ...`` in turn.
    Prefix doubling (Manber and Myers 1993): after round ``j`` the ranks
    order the first ``2**j`` steps lexicographically.  A round that splits
    no class proves every tied pair equal for ever, so the ranks are final;
    two rays of items of lengths ``m1`` and ``m2`` that agree for
    ``m1 + m2`` steps agree for ever (Fine and Wilf 1965), so this takes
    at most ``log2(2 * max length) + 2`` rounds.  Equal rays tie.

    With ``rounds`` given, each round's sorted keys are appended to it:
    round 0's are the distinct steps, and a later round's keys are ``a *
    classes + b`` for the ranks ``a`` and ``b`` of a ray's two halves in
    the round before, which has ``classes`` classes.  Ranks index the keys
    of their round.
    """
    levels = sorted(set(steps))
    r = list(map(dict(zip(levels, range(len(levels)))).__getitem__, steps))
    d = 1
    while True:
        if rounds is not None:
            rounds.append(array("q", levels))
        if len(levels) == len(r):
            break
        width = len(levels)
        keys = [a * width + b for a, b in zip(r, ahead(r, d))]
        split = sorted(set(keys))
        if len(split) == width:
            break
        levels = split
        r = list(map(dict(zip(levels, range(len(levels)))).__getitem__, keys))
        d *= 2
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

    def ahead(r: List[int], d: int) -> List[int]:
        nonlocal nxt
        if d > 1:
            nxt = [nxt[j] for j in nxt]
        return [r[j] for j in nxt]

    return _rank_rays(steps, ahead), bases


def _ray_table(c: ClosedCurve) -> Tuple[array, array, List[array]]:
    """The ranks of c's rays, a ray of each class, and each round's keys.

    Node ``k`` is c's forward ray from point ``k``, node ``m + k`` its
    backward ray, as in ``_ray_ranks((c,))``; the rounds are those
    ``_rank_rays`` keeps, and the ranks index the last round's keys.
    Computed once per curve, in arrays, which take at most a fifth of the
    memory of lists of ints.
    """
    if c._rays is None:
        fwd, bwd = _ray_steps(c)
        m = len(fwd)
        rounds: List[array] = []
        ranks = _rank_rays(fwd + bwd, lambda r, d: _rotated(r, m, d), rounds)
        reps = array("i", [0]) * len(rounds[-1])
        for node, a in enumerate(ranks):
            reps[a] = node
        c._rays = (array("i", ranks), reps, rounds)
    return c._rays


def _rotated(r: Sequence[int], m: int, d: int) -> Sequence[int]:
    """The entries of ``r`` for the rays ``d`` steps on, of one closed curve of ``m`` tokens.

    Forward rays step up the word and backward rays down it.
    """
    s = d % m
    f, b = r[:m], r[m:]
    return f[s:] + f[:s] + b[m - s:] + b[:m - s]


def _ahead(node: int, m: int, d: int) -> int:
    """The node ``d`` steps along the ray of ``node`` of a closed curve of ``m`` tokens."""
    return (node + d) % m if node < m else m + (node - d) % m


def _joint_ranks(u: ClosedCurve, v: ClosedCurve) -> Tuple[ClosedCurve, ClosedCurve, List[int]]:
    """Place the shorter curve's rays among the longer's, from the tables kept on each.

    Returns the longer curve (``u`` if the lengths are equal), the shorter,
    and for each class ``a`` of the shorter curve's rays (its kept ranks)
    the code of its place among the longer curve's classes: ``2i + 1``
    when it is tied with class ``i``, ``2i`` when it falls in the gap just
    before it.  With the shorter curve's own ranks ordering rays in one
    gap, this orders the rays of both as ``_ray_ranks((u, v))`` does.

    Each class of round ``j`` is coded among the longer curve's classes of
    that round.  A class of round ``j + 1`` is a pair of classes of round
    ``j``, its first ``2**j`` steps and the next ``2**j``, read off the
    shorter curve's keys; their codes place it among the longer curve's
    keys of round ``j + 1``, as ``_rank_rays`` would have ranked it.  A
    curve whose classes are final pairs each class with the class of its
    representative ray ``2**j`` steps on.  Once the longer curve's classes
    are final, a class still tied with one of them is compared with its
    representative ray at doubling shifts up to the Fine and Wilf bound,
    after which the two are equal.
    """
    swap = len(u.tokens) < len(v.tokens)
    big, small = (v, u) if swap else (u, v)
    big_ranks, big_reps, big_rounds = _ray_table(big)
    small_ranks, small_reps, small_rounds = _ray_table(small)
    mb, m = len(big.tokens), len(small.tokens)

    keys = big_rounds[0]
    n = len(keys)
    code = []
    for k in small_rounds[0]:
        i = bisect_left(keys, k)
        code.append(2 * i + 1 if i < n and keys[i] == k else 2 * i)
    j, d = 0, 1
    while (j + 1 < len(small_rounds) or j + 1 < len(big_rounds)
           or d < m + mb and any(x & 1 for x in code)):
        # the codes of the two halves of each class of round j + 1
        if j + 1 < len(small_rounds):
            classes = len(small_rounds[j])
            pairs = small_rounds[j + 1]
            xs = [code[k // classes] for k in pairs]
            ys = [code[k % classes] for k in pairs]
        else:
            ahead = _rotated(small_ranks, m, d)
            xs = code
            ys = [code[ahead[p]] for p in small_reps]
        if j + 1 < len(big_rounds):
            # a class tied with class a whose second half is tied with
            # class b has the key a * width + b; one whose second half falls
            # just before b sits just before that key, and one that falls
            # just before a just before a * width
            keys, width = big_rounds[j + 1], len(big_rounds[j])
            n = len(keys)
            wanted = [(x >> 1) * width + (y >> 1 if x & 1 else 0) for x, y in zip(xs, ys)]
            found = [bisect_left(keys, k) for k in wanted]
            code = [2 * i + 1 if x & y & 1 and i < n and keys[i] == k else 2 * i
                    for i, k, x, y in zip(found, wanted, xs, ys)]
        else:
            code = []
            for x, y in zip(xs, ys):
                if x & 1:
                    z = 2 * big_ranks[_ahead(big_reps[x >> 1], mb, d)] + 1
                    if y != z:
                        x += 1 if y > z else -1
                code.append(x)
        j += 1
        d *= 2

    return big, small, code


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


def _crossing_data(c: ClosedCurve):
    """What ``passage_crossings`` keeps of ``c``, built once per curve.

    Returns, for each slot, the first steps of c's rays leaving it in rank
    order (``firsts``); for each first step the map that places a ray
    taking it from its successor's place (``maps``); the number of c's
    points counterclockwise before each slot of its polygon and before the
    end of each glued slot; the table of chord crossings
    (``_ChordTable``); and the insertion words (``_InsertionWords``).

    The rays of ``c`` that leave one slot with one first step ``f`` are
    a block ``lo .. hi - 1`` of its list, and they continue, in the same
    order, into a block of the rays leaving the partner of f's target
    that starts at ``b``: one contiguous block, because c's chords from
    one slot to another are parallel.  So a ray taking step ``f`` with
    ``v`` of c's rays below its successor has ``clamp(v + lo - b, lo,
    hi)`` below it, and ``maps[f]`` is ``(lo, hi, lo - b)``.  The ranks
    are the ones ``c`` keeps; c's own points sit in rank order on both
    sides of an edge, as ``c`` is simple.
    """
    if c._crossing_data is None:
        scheme = c.scheme
        partner, location = scheme.partner, scheme.location
        toks = c.tokens
        m = len(toks)
        ranks = _ray_table(c)[0]
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
        # a step's lowest ray comes first, and its successor starts the block
        maps: Dict[int, Tuple[int, int, int]] = {}
        for s, rays in leaving.items():
            row = firsts[s]
            for lo, (_, node) in enumerate(rays):
                f = row[lo]
                if f not in maps:
                    maps[f] = (lo, bisect_right(row, f), lo - place[_ahead(node, m, 1)])
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
        table = _ChordTable(sizes, chords)
        c._crossing_data = (firsts, maps, before, after, table, _InsertionWords(c))
    return c._crossing_data


def insertion_words(c: ClosedCurve) -> Dict[Tuple[int, int], TokenWord]:
    """The words kept on ``c`` that its twists insert, keyed ``(c passage, copies)``.

    See ``_InsertionWords``; a twist along ``c`` reads them at every crossing.
    """
    return _crossing_data(c)[5]


def passage_crossings(x: Item, c: ClosedCurve) -> List[Tuple[Tuple[int, int], ...]]:
    """The crossings of each passage of ``x`` with ``c``, ordered from its entry point.

    Entry ``k`` lists the (c-passage index, sign) pairs of passage ``k``,
    with the signs of ``TautConfig.crossings``, for ``x`` and ``c`` in
    minimal position (see the module docstring).  Requires ``c`` simple,
    so that the order along a chord is the order of the near endpoints.

    Point ``k`` of ``x`` has ``v`` of c's rays below its forward ray among
    those leaving its slot: by binary search for a first step no ray of
    ``c`` takes (as an arc's last, ending at its anchor), else by the
    step's map from point ``k + 1``'s ``v``, or, when ``c`` takes every
    step of a closed ``x``, as the fixed point of the maps composed once
    round it (a ray of ``c`` that ``x`` follows for ever counts below).
    The point sits ``v`` points into its exit slot and ``v`` back from the
    partner slot's end; a chord is looked up by c's points before its ends.
    """
    scheme = c.scheme
    if x.scheme is not scheme:
        raise CurveError(f"{x!r} lives on a different scheme from {c!r}")
    firsts, maps, before, after, table, _ = _crossing_data(c)
    partner, location = scheme.partner, scheme.location
    toks = x.tokens
    xf = _ray_steps(x)[0]
    m = len(toks)
    exits = [0] * m
    entries = [0] * m
    start = m - 1
    while start >= 0 and xf[start] in maps:
        start -= 1
    v = 0
    if start < 0:
        start = m - 1
        if m:
            # maps[xf[0]] . maps[xf[1]] . ... . maps[xf[m - 1]]
            lo, hi, shift = maps[xf[0]]
            for f in xf[1:]:
                flo, fhi, fshift = maps[f]
                lo, hi, shift = (min(max(flo + shift, lo), hi),
                                 min(max(fhi + shift, lo), hi), shift + fshift)
            v = hi if shift >= 0 else lo
    for k in range(start, start - m, -1):
        f = xf[k]
        t = toks[k]
        s = partner[t]
        step = maps.get(f)
        if step is None:
            v = bisect_left(firsts.get(s, ()), f)
        else:
            lo, hi, shift = step
            v = min(max(v + shift, lo), hi)
        exits[k] = before[t] + v
        entries[k] = after[s] - v
    polys = [location[t][0] for t in toks]
    if isinstance(x, ClosedCurve):
        entries = entries[-1:] + entries[:-1]
    else:
        entries.insert(0, before[x.start.slot])
        exits.append(before[x.end.slot])
        polys.append(location[x.end.slot][0])
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


def _rows(c: ClosedCurve) -> Tuple[list, list]:
    """The rays and the chords of ``c``, each as ``(place, group, value)``.

    A ray is ``(side, first step, rank on the other side)``: the forward
    ray from point ``k`` leaves from the partner of ``tokens[k]``, the
    backward ray from ``tokens[k]``, and the other side is where the
    opposite ray of the point leaves.  A chord is ``(polygon, low slot,
    high slot)``, by the slots' positions in the polygon; its two slots
    differ, as the word is reduced.
    """
    partner, location = c.scheme.partner, c.scheme.location
    toks = c.tokens
    m = len(toks)
    ranks = _ray_table(c)[0]
    fwd, bwd = _ray_steps(c)
    rays = list(zip(map(partner.__getitem__, toks), fwd, ranks[m:]))
    rays += zip(toks, bwd, ranks[:m])
    chords = []
    for e, t in zip(map(partner.__getitem__, toks[-1:] + toks[:-1]), toks):
        pi, i = location[e]
        j = location[t][1]
        chords.append((pi, i, j) if i < j else (pi, j, i))
    return rays, chords


def _fenwick(groups: Dict[int, List[int]]) -> Tuple[List[int], list]:
    """A Fenwick tree of sorted lists over the groups, in key order.

    Returns the sorted keys and the tree: entry ``i`` (from 1) holds the
    values of groups ``i - (i & -i)`` to ``i - 1``, sorted.
    """
    keys = sorted(groups)
    tree: list = [None]
    for i in range(1, len(keys) + 1):
        values: List[int] = []
        for key in keys[i - (i & -i):i]:
            values += groups[key]
        values.sort()
        tree.append(values)
    return keys, tree


def _below(tree: list, g: int, v: int) -> int:
    """The values under ``v`` in the first ``g`` groups of a ``_fenwick`` tree."""
    n = 0
    while g:
        n += bisect_left(tree[g], v)
        g &= g - 1
    return n


def _at_least(tree: list, g: int, v: int) -> int:
    """The values of at least ``v`` in the first ``g`` groups of a ``_fenwick`` tree."""
    n = 0
    while g:
        values = tree[g]
        n += len(values) - bisect_left(values, v)
        g &= g - 1
    return n


def _tables(c: ClosedCurve) -> Tuple[Dict[SlotId, tuple], Dict[int, tuple]]:
    """The dominance tables of ``c``, by edge side and by polygon, built once.

    Each is a ``_fenwick`` tree of ``_rows(c)``: on a side, the rays
    leaving it grouped by first step, holding their ranks on the other
    side; in a polygon, the chords grouped by low slot, holding their high
    slots.
    """
    if c._tables is None:
        tables = []
        for rows in _rows(c):
            grouped = defaultdict(lambda: defaultdict(list))
            for place, group, value in rows:
                grouped[place][group].append(value)
            tables.append({place: _fenwick(groups) for place, groups in grouped.items()})
        c._tables = tuple(tables)
    return c._tables


def _linked_crossings(u: ClosedCurve, v: ClosedCurve) -> int:
    """Crossings of two primitive closed curves.

    The two curves must differ up to orientation: the rays of a curve and
    of a parallel copy tie, and ties are never linked.

    Points ``p`` and ``q`` on one edge are linked when ``(r0_p - r0_q) *
    (r1_p - r1_q) > 0`` for their rays' ranks on the two sides.  A run
    ends on the side where the two rays differ at their first step, so a
    linked run is seen at both of its ends and half of those ends count
    it, with the runs of length zero (see the module docstring; Despré
    and Lazarus 2019).

    On one side, rays with different first steps are ordered by their
    first steps alone, so each pair is counted from the dominance tables
    (``_tables``) of one curve, kept on it.  Only the shorter curve's rows
    query the longer curve's tables, with ranks on the other side placed
    by ``_joint_ranks``: a ray counts the rays of earlier first-step
    groups with a lower rank on the other side and those of later groups
    with a higher rank, and a chord the chords with a lower low slot whose
    high slot lies between its own two, and those whose low slot lies
    between its own two and whose high slot is above its own.
    """
    big, small, code = _joint_ranks(u, v)
    sides, polygons = _tables(big)
    rays, chords = _rows(small)
    ends = zero = 0
    for side, step, r in rays:
        table = sides.get(side)
        if table is None:
            continue
        keys, tree = table
        g = bisect_left(keys, step)
        after = g + (g < len(keys) and keys[g] == step)
        # the longer curve's rays below the place, class i, in earlier
        # groups and at or above it in later ones; a ray of class i itself
        # ties, and is a parallel copy's, in this ray's group
        i = code[r] >> 1
        ends += _below(tree, g, i) + _at_least(tree, len(keys), i) - _at_least(tree, after, i)
    for pi, lo, hi in chords:
        table = polygons.get(pi)
        if table is None:
            continue
        keys, tree = table
        g = bisect_left(keys, lo)
        first, last = bisect_left(keys, lo + 1), bisect_left(keys, hi)
        # lo' < lo < hi' < hi, and lo < lo' < hi < hi'
        zero += (_below(tree, g, hi) - _below(tree, g, lo + 1)
                 + _at_least(tree, last, hi + 1) - _at_least(tree, first, hi + 1))
    return ends // 2 + zero


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
    return pu * pv * _linked_crossings(ru, rv)


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

