"""Dehn twists and their compositions, acting on words and on homology.

A right-handed (positive) twist along a simple closed curve ``c`` reroutes
every strand crossing ``c``: at a crossing of sign ``s`` the strand picks
up a copy of ``c`` traversed in direction ``s``.  On homology this is the
transvection ``x -> x + <x, c> c``.  A left-handed twist is the inverse.
A twist acts at the crossings of ``x`` and ``c`` in minimal position
(Farb and Margalit, *Primer*, section 3.1), which
``curves.passage_crossings`` lists, and inserts the words of
``curves.insertion_words``, both kept on ``c``: it is one pass over the
twisted word, knows its image's length before building it, and builds no
configuration.  The homology action reads each curve's class, kept on the
curve, and applies each transvection to the columns of the matrix built
so far, in time quadratic in the rank per twist; no matrix is multiplied.

Relabelings (scheme symmetries) act on curves token-wise; conjugation of a
twist by a relabeling is the twist along the relabeled curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import List, Sequence, Tuple

from .curves import (
    Arc,
    ClosedCurve,
    Item,
    insertion_words,
    intersection_form,
    passage_crossings,
    require_simple,
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
    require_simple(c)
    if isinstance(x, ClosedCurve) and x.is_null:
        return x
    rows = passage_crossings(x, c)
    size = len(x.tokens) + abs(power) * len(c.tokens) * sum(map(len, rows))
    if size > MAX_TWIST_TOKENS:
        raise CurveError(
            f"twisting {len(x.tokens)} tokens {power} times along {len(c.tokens)} tokens"
            f" builds {size} tokens, more than {MAX_TWIST_TOKENS}"
        )
    words = insertion_words(c)
    toks = x.tokens
    new_tokens: List[SlotId] = []
    # copies go in before token k, so x's tokens are copied in runs up to
    # each crossing passage; an arc has one passage more than tokens, the
    # last ending at its anchor
    done = 0
    for k in compress(range(len(rows)), rows):
        new_tokens += toks[done:k]
        done = k
        for kc, sign in rows[k]:
            new_tokens += words[kc, sign * power]
    new_tokens += toks[done:]
    if isinstance(x, ClosedCurve):
        return ClosedCurve(x.scheme, new_tokens)
    return Arc(x.scheme, x.start, new_tokens, x.end)


@dataclass(frozen=True)
class TwistWord:
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
            w = [p * sum(f * v for f, v in zip(row, vc)) for row in form]
            # col -> col + p <col, c> c, and p <col, c> is col times w
            for col in cols:
                k = sum(x * y for x, y in zip(col, w))
                col[:] = [x + k * v for x, v in zip(col, vc)]
        return [list(row) for row in zip(*cols)]


def transvection(form: List[List[int]], vc: Sequence[int], power: int) -> List[List[int]]:
    """Matrix of ``x -> x + power * <x, vc> vc`` in the edge-class basis.

    Column ``i``, the image of basis vector ``e_i``, is ``e_i + power *
    <e_i, vc> vc``, and ``<e_i, vc>`` is entry ``i`` of ``form`` times ``vc``.
    """
    n = len(form)
    w = [power * sum(f * v for f, v in zip(row, vc)) for row in form]
    return [[(1 if i == j else 0) + w[i] * vc[j] for i in range(n)] for j in range(n)]


def relabel_curve(r: Relabeling, x: Item) -> Item:
    m = r.as_dict()
    if isinstance(x, ClosedCurve):
        return ClosedCurve(x.scheme, tuple(m[t] for t in x.tokens))
    from .curves import Anchor

    return Arc(
        x.scheme,
        Anchor(m[x.start.slot], x.start.index),
        tuple(m[t] for t in x.tokens),
        Anchor(m[x.end.slot], x.end.index),
    )
