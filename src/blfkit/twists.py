"""Dehn twists and their compositions, acting on words and on homology.

A right-handed (positive) twist along a simple closed curve ``c`` reroutes
every strand crossing ``c``: at a crossing of sign ``s`` the strand picks
up a copy of ``c`` traversed in direction ``s``.  On homology this is the
transvection ``x -> x + <x, c> c``.  A left-handed twist is the inverse.
The crossings come from ``curves.passage_crossings``, whose tables are kept
on ``c``: twisting many curves along one curve builds one configuration.

Relabelings (scheme symmetries) act on curves token-wise; conjugation of a
twist by a relabeling is the twist along the relabeled curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from .curves import (
    Arc,
    ClosedCurve,
    Item,
    homology_class,
    intersection_form,
    pair_homology,
    passage_crossings,
    require_simple,
)
from .schemes import Relabeling, Scheme, SlotId


def _insertion(c: ClosedCurve, kc: int, direction: int) -> List[SlotId]:
    """Tokens picked up when a strand follows ``c`` once around.

    The crossing sits on passage ``kc`` of ``c``; following forward first
    exits through ``c.tokens[kc]``, following backward first exits through
    the partner of the previous token.
    """
    rot = list(c.tokens[kc:] + c.tokens[:kc])
    if direction > 0:
        return rot
    partner = c.scheme.partner
    return [partner[t] for t in reversed(rot)]


def insert_copies(
    x: Item,
    c: ClosedCurve,
    table: Sequence[Sequence[Tuple[int, int]]],
    copies: Callable[[int, int, int], int],
) -> Item:
    """Insert copies of ``c`` into ``x`` at their crossings.

    ``table`` is ``passage_crossings(x, c)``.  At the crossing of passage
    ``k`` of ``x`` with passage ``kc`` of ``c``, of sign ``sign``, the
    strand picks up ``abs(n)`` copies of ``c`` for ``n = copies(k, kc,
    sign)``: followed forward if ``n > 0``, backward if ``n < 0``.
    """
    m = len(x.tokens)
    new_tokens: List[SlotId] = []
    # an arc has one passage more than tokens: the last ends at its anchor
    for k, row in enumerate(table):
        for kc, sign in row:
            n = copies(k, kc, sign)
            if n:
                new_tokens.extend(_insertion(c, kc, n) * abs(n))
        if k < m:
            new_tokens.append(x.tokens[k])
    if isinstance(x, ClosedCurve):
        return ClosedCurve(x.scheme, new_tokens)
    return Arc(x.scheme, x.start, new_tokens, x.end)


def dehn_twist(x: Item, c: ClosedCurve, power: int = 1, *, check_simple: bool = True) -> Item:
    """Apply ``power`` right-handed twists along ``c`` (negative = left)."""
    if power == 0:
        return x
    if c.is_null:
        return x
    if check_simple:
        require_simple(c)
    if isinstance(x, ClosedCurve) and x.is_null:
        return x
    return insert_copies(x, c, passage_crossings(x, c), lambda k, kc, sign: sign * power)


@dataclass(frozen=True)
class TwistWord:
    """A composition of twists, listed outermost first.

    ``TwistWord(((c3, 1), (c2, 1), (c1, 1)))`` applied to ``x`` computes
    ``T_c3(T_c2(T_c1(x)))``: the rightmost factor acts first.
    """

    steps: Tuple[Tuple[ClosedCurve, int], ...]

    @staticmethod
    def of(*steps: Tuple[ClosedCurve, int]) -> "TwistWord":
        return TwistWord(tuple(steps))

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
        mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for c, p in reversed(self.steps):
            vc = homology_class(scheme, c.tokens)
            step = transvection(form, vc, p)
            mat = _matmul(step, mat)
        return mat


def transvection(form: List[List[int]], vc: Sequence[int], power: int) -> List[List[int]]:
    """Matrix of ``x -> x + power * <x, vc> vc`` in the edge-class basis."""
    n = len(form)
    mat = []
    for i in range(n):
        e = [1 if j == i else 0 for j in range(n)]
        coef = power * pair_homology(form, e, vc)
        mat.append([e[j] + coef * vc[j] for j in range(n)])
    return [[mat[i][j] for i in range(n)] for j in range(n)]  # columns = images


def _matmul(a: List[List[int]], b: List[List[int]]) -> List[List[int]]:
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


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
