"""Dehn twists and their compositions, acting on words and on homology.

A right-handed (positive) twist along a simple closed curve ``c`` reroutes
every strand crossing ``c``: at a crossing of sign ``s`` the strand picks
up a copy of ``c`` traversed in direction ``s``.  On homology this is the
transvection ``x -> x + <x, c> c``.  A left-handed twist is the inverse.
A twist acts at the crossings of ``x`` and ``c`` in minimal position
(Farb and Margalit, *Primer*, section 3.1), which
``curves.passage_crossings`` lists, and inserts copies of ``c``, each one
slice of c's word doubled or of its reversed word doubled
(``curves.insertion_words``), repeated once per unit of the power.  Both
are kept on ``c``, and the doubled words are 4|c| tokens whatever the
crossings and powers: a twist is one pass over the twisted word, and
knows its image's length before building it.  The homology action reads
each curve's class, kept on the curve, and applies each transvection to
the columns of the matrix built so far, in time quadratic in the rank per
twist; no matrix is multiplied.

Relabelings (scheme symmetries) act on curves token-wise; conjugation of a
twist by a relabeling is the twist along the relabeled curve.
"""

from __future__ import annotations

from itertools import compress
from operator import add, mul
from typing import List, NamedTuple, Tuple

from .curves import (
    Arc,
    ClosedCurve,
    Item,
    insertion_words,
    intersection_form,
    passage_crossings,
)
from .errors import CurveError
from .schemes import Relabeling, Scheme, SlotId


# the longest word a twist builds before reduction, 80 MB of list pointers
# on a 64-bit build: about 87 times the 115,423 tokens of T_c^4(C3) along
# the 135-token fourth rung of (T_C T_C1^-1)^k(C2) on the hexagon
MAX_TWIST_TOKENS = 10_000_000


def dehn_twist(x: Item, c: ClosedCurve, power: int = 1) -> Item:
    """Apply ``power`` right-handed twists along ``c`` (negative = left).

    At a crossing of sign ``s`` the strand picks up ``abs(s * power)``
    copies of ``c``, followed forward if ``s * power > 0``.  The word built
    before reduction has ``|x| + |power| * |c| * n`` tokens for ``n``
    crossings; past ``MAX_TWIST_TOKENS`` a ``CurveError`` is raised before
    any copy is built.
    """
    if power == 0 or c.is_null:
        return x
    # raises NotSimpleError for a curve that is not simple
    forward, backward = insertion_words(c)
    if isinstance(x, ClosedCurve) and x.is_null:
        return x
    rows = passage_crossings(x, c)
    size = len(x.tokens) + abs(power) * len(c.tokens) * sum(map(len, rows))
    if size > MAX_TWIST_TOKENS:
        raise CurveError(
            f"twisting {len(x.tokens)} tokens {power} times along {len(c.tokens)} tokens"
            f" builds {size} tokens, more than {MAX_TWIST_TOKENS}"
        )
    toks = x.tokens
    m = len(c.tokens)
    reps = abs(power)
    new_tokens: List[SlotId] = []
    # copies go in before token k, so x's tokens are copied in runs up to
    # each crossing passage; an arc has one passage more than tokens, the
    # last ending at its anchor.  A crossing's copies are one slice of c's
    # doubled word, forward where its sign is the power's, |power| times
    done = 0
    for k in compress(range(len(rows)), rows):
        new_tokens += toks[done:k]
        done = k
        for kc, sign in rows[k]:
            if sign * power > 0:
                new_tokens += forward[kc:kc + m] * reps
            else:
                new_tokens += backward[m - kc:2 * m - kc] * reps
    new_tokens += toks[done:]
    if isinstance(x, ClosedCurve):
        return ClosedCurve(x.scheme, new_tokens)
    return Arc(x.scheme, x.start, new_tokens, x.end)


class TwistWord(NamedTuple):
    """A composition of twists, listed outermost first.

    ``TwistWord(((c3, 1), (c2, 1), (c1, 1)))`` applied to ``x`` computes
    ``T_c3(T_c2(T_c1(x)))``: the rightmost factor acts first.
    """

    steps: Tuple[Tuple[ClosedCurve, int], ...]

    def apply(self, x: Item) -> Item:
        for c, p in reversed(self.steps):
            x = dehn_twist(x, c, p)
        return x

    def inverse(self) -> "TwistWord":
        return TwistWord(tuple((c, -p) for c, p in reversed(self.steps)))

    def __mul__(self, other: "TwistWord") -> "TwistWord":
        return TwistWord(self.steps + other.steps)

    def act_on_homology(self, scheme: Scheme) -> List[List[int]]:
        """The composite transvection matrix (columns = images of the basis)."""
        form = intersection_form(scheme)
        n = len(form)
        cols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
        for c, p in reversed(self.steps):
            vc = c.homology()
            w = [p * sum(map(mul, row, vc)) for row in form]
            # col -> col + p <col, c> c, and p <col, c> is col times w
            for col in cols:
                k = sum(map(mul, col, w))
                if k:
                    col[:] = map(add, col, map(k.__mul__, vc))
        return [list(row) for row in zip(*cols)]


def relabel_curve(r: Relabeling, x: Item) -> Item:
    # ``r`` maps a token through the table it keeps, so this is linear in |x|
    if isinstance(x, ClosedCurve):
        return ClosedCurve(x.scheme, tuple(map(r, x.tokens)))
    from .curves import Anchor

    return Arc(
        x.scheme,
        Anchor(r(x.start.slot), x.start.index),
        tuple(map(r, x.tokens)),
        Anchor(r(x.end.slot), x.end.index),
    )
