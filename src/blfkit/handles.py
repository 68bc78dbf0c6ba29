"""Kirby-calculus bookkeeping for 4-manifold handle presentations.

A presentation records (on top of a single 0-handle): the 1-handles, the
2-handles with their linking matrix, whose diagonal holds the framings,
and incidences over the 1-handles, and the 3-handles with incidences over
the 2-handles.  The chain complex condition (boundary of a boundary
vanishes over the 1-handles) is maintained by every move.

Moves: sliding a 2-handle over another, cancelling a 1-2 pair (after
implicitly sliding every other strand off the 1-handle), and cancelling a
2-3 pair when the 2-handle has become trivial and meets no other 3-handle.
Euler characteristic and integral homology (Betti numbers and torsion via
Smith normal form) are available at every step; simplification scripts
record them move by move.

Incidences and linking numbers are kept sparse, and every move, check and
profile reads only the nonzero ones.  A 1-handle that no 2-handle runs
over adds a zero column to the boundary map, which changes no invariant
factor, and no move gives it an incidence, so such idle 1-handles are only
counted.  The genus-g picture names the three 1-handles that carry an
incidence and counts the other 2g - 1, so its cost does not depend on g.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import HandleMoveError, SchemeError
from .scenarios import get_scenario


# -- integer linear algebra ------------------------------------------------


def smith_invariant_factors(matrix: Sequence[Sequence[int]]) -> List[int]:
    """Nonzero invariant factors of an integer matrix (exact, no floats)."""
    m = [list(row) for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    factors: List[int] = []
    top = 0
    while top < min(rows, cols):
        # find a nonzero pivot
        pivot = None
        for i in range(top, rows):
            for j in range(top, cols):
                if m[i][j]:
                    if pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]]):
                        pivot = (i, j)
        if pivot is None:
            break
        i, j = pivot
        m[top], m[i] = m[i], m[top]
        for row in m:
            row[top], row[j] = row[j], row[top]
        # clear the pivot row and column
        dirty = False
        for i in range(top + 1, rows):
            q = m[i][top] // m[top][top]
            if q:
                for j in range(top, cols):
                    m[i][j] -= q * m[top][j]
            if m[i][top]:
                dirty = True
        for j in range(top + 1, cols):
            q = m[top][j] // m[top][top]
            if q:
                for i in range(top, rows):
                    m[i][j] -= q * m[i][top]
            if m[top][j]:
                dirty = True
        if dirty:
            continue
        factors.append(abs(m[top][top]))
        top += 1
    # enforce divisibility d1 | d2 | ...
    changed = True
    while changed:
        changed = False
        for i in range(len(factors) - 1):
            a, b = factors[i], factors[i + 1]
            if b % a:
                g = gcd(a, b)
                factors[i], factors[i + 1] = g, a * b // g
                changed = True
        factors.sort()
    return factors


# -- presentations ---------------------------------------------------------


def _put(table: Dict[Tuple[str, str], int], key: Tuple[str, str], value: int) -> None:
    """Store ``value`` under ``key``, dropping the key for a zero."""
    if value:
        table[key] = value
    else:
        table.pop(key, None)


class HandlePresentation:
    """Handles of a 4-manifold built on one 0-handle.

    ``linking`` is the symmetric linking matrix of the 2-handles, each pair
    stored once and zeros left out; its diagonal ``(a, a)`` holds the
    framing of ``a``.  ``idle_one_handles`` counts the 1-handles that no
    2-handle runs over, which are not named.  Incidences name listed
    handles only, and every move keeps it so.
    """

    __slots__ = ("one_handles", "two_handles", "linking", "incidence2", "three_handles",
                 "incidence3", "idle_one_handles")

    def __init__(self, one_handles: List[str], two_handles: List[str],
                 linking: Dict[Tuple[str, str], int],
                 incidence2: Dict[Tuple[str, str], int],  # (two-handle, one-handle)
                 three_handles: Optional[List[str]] = None,
                 incidence3: Optional[Dict[Tuple[str, str], int]] = None,  # (three, two)
                 idle_one_handles: int = 0) -> None:
        self.one_handles, self.two_handles = one_handles, two_handles
        self.linking, self.incidence2 = linking, incidence2
        self.three_handles = [] if three_handles is None else three_handles
        self.incidence3 = {} if incidence3 is None else incidence3
        self.idle_one_handles = idle_one_handles

    # -- access ------------------------------------------------------------

    def link(self, a: str, b: str) -> int:
        """The linking number of ``a`` and ``b``; the framing when they are one."""
        return self.linking.get((a, b), self.linking.get((b, a), 0))

    def _set_link(self, a: str, b: str, value: int) -> None:
        self.linking.pop((b, a), None)
        _put(self.linking, (a, b), value)

    def inc2(self, two: str, one: str) -> int:
        return self.incidence2.get((two, one), 0)

    def _set_inc2(self, two: str, one: str, value: int) -> None:
        _put(self.incidence2, (two, one), value)

    def inc3(self, three: str, two: str) -> int:
        return self.incidence3.get((three, two), 0)

    def _set_inc3(self, three: str, two: str, value: int) -> None:
        _put(self.incidence3, (three, two), value)

    def _runs(self, two: str) -> List[Tuple[str, int]]:
        """The 1-handles ``two`` runs over, with their nonzero incidences."""
        return [(one, v) for (t, one), v in self.incidence2.items() if t == two and v]

    def validate(self) -> None:
        """Raise unless the boundary of every 3-handle's boundary vanishes.

        The composite is summed over the nonzero incidences only; the error
        names the first nonzero pair in handle order.
        """
        total: Dict[Tuple[str, str], int] = {}
        for (three, two), v3 in self.incidence3.items():
            for one, v2 in self._runs(two):
                total[three, one] = total.get((three, one), 0) + v3 * v2
        if any(total.values()):
            three, one = next(
                (three, one)
                for three in self.three_handles
                for one in self.one_handles
                if total.get((three, one))
            )
            raise HandleMoveError(
                f"boundary-of-boundary is nonzero over {one!r} for {three!r}"
            )

    # -- moves -------------------------------------------------------------

    def slide(self, mover: str, over: str, sign: int) -> None:
        """Slide 2-handle ``mover`` over ``over`` (band sum with ``sign``)."""
        if mover == over:
            raise HandleMoveError("cannot slide a handle over itself")
        for name in (mover, over):
            if name not in self.two_handles:
                raise HandleMoveError(f"unknown 2-handle {name!r}")
        if sign not in (1, -1):
            raise HandleMoveError("slide sign must be +1 or -1")
        # the linking matrix Q becomes P^T Q P, with P = I + sign * E[over, mover]
        f_over = self.link(over, over)
        f_new = self.link(mover, mover) + 2 * sign * self.link(mover, over) + f_over
        for other in self.two_handles:
            if other in (mover, over):
                continue
            self._set_link(mover, other, self.link(mover, other) + sign * self.link(over, other))
        self._set_link(mover, over, self.link(mover, over) + sign * f_over)
        self._set_link(mover, mover, f_new)
        for one, v in self._runs(over):
            self._set_inc2(mover, one, self.inc2(mover, one) + sign * v)
        for three in self.three_handles:
            self._set_inc3(three, over, self.inc3(three, over) - sign * self.inc3(three, mover))

    def cancel12(self, two: str, one: str) -> None:
        """Cancel a 2-handle running once over a 1-handle."""
        inc = self.inc2(two, one)
        if abs(inc) != 1:
            raise HandleMoveError(
                f"{two!r} runs over {one!r} {inc} times; need exactly once"
            )
        for other in list(self.two_handles):
            if other == two:
                continue
            m = self.inc2(other, one)
            while m:
                self.slide(other, two, -1 if m * inc > 0 else 1)
                m = self.inc2(other, one)
        for three in self.three_handles:
            if self.inc3(three, two):
                raise HandleMoveError(
                    "3-handle incidence did not vanish before 1-2 cancellation"
                )
        self.one_handles.remove(one)
        self.two_handles.remove(two)
        self.linking = {
            k: v for k, v in self.linking.items() if two not in k
        }
        self.incidence2 = {
            k: v for k, v in self.incidence2.items() if k[0] != two and k[1] != one
        }

    def cancel23(self, two: str, three: str) -> None:
        """Cancel a trivialized 2-handle against a 3-handle.

        Raises ``HandleMoveError`` unless ``two`` has framing zero, links
        and runs over nothing, is incident to ``three`` exactly once and to
        no other 3-handle.  No picture in the package has two 3-handles on
        one 2-handle, so none is carried over.
        """
        if self.link(two, two):
            raise HandleMoveError(f"{two!r} still has nonzero framing")
        for other in self.two_handles:
            if other != two and self.link(two, other):
                raise HandleMoveError(f"{two!r} still links {other!r}")
        if self._runs(two):
            one = next(one for one in self.one_handles if self.inc2(two, one))
            raise HandleMoveError(f"{two!r} still runs over {one!r}")
        inc = self.inc3(three, two)
        if abs(inc) != 1:
            raise HandleMoveError(
                f"{three!r} is incident to {two!r} {inc} times; need exactly once"
            )
        for other in self.three_handles:
            if other != three and self.inc3(other, two):
                raise HandleMoveError(f"{other!r} is also incident to {two!r}")
        self.two_handles.remove(two)
        self.three_handles.remove(three)
        self.incidence3 = {
            k: v for k, v in self.incidence3.items() if k[0] != three and k[1] != two
        }

    # -- invariants ----------------------------------------------------------

    def euler_characteristic(self) -> int:
        n1 = len(self.one_handles) + self.idle_one_handles
        return 1 - n1 + len(self.two_handles) - len(self.three_handles)

    def homology_profile(self) -> dict:
        """Betti numbers and torsion of H1, H2, H3, plus chi."""
        n1 = len(self.one_handles) + self.idle_one_handles
        n2, n3 = len(self.two_handles), len(self.three_handles)
        d2 = _boundary(self.two_handles, self.incidence2)
        d3 = _boundary(self.three_handles, self.incidence3)
        f2 = smith_invariant_factors(d2) if d2 and d2[0] else []
        f3 = smith_invariant_factors(d3) if d3 and d3[0] else []
        r2, r3 = len(f2), len(f3)
        return {
            "chi": self.euler_characteristic(),
            "H1": {"betti": n1 - r2, "torsion": [d for d in f2 if d > 1]},
            "H2": {"betti": n2 - r2 - r3, "torsion": [d for d in f3 if d > 1]},
            "H3": {"betti": n3 - r3, "torsion": []},
        }


def _boundary(rows: Sequence[str], incidence: Dict[Tuple[str, str], int]) -> List[List[int]]:
    """The matrix of ``incidence`` over ``rows`` and the columns it names.

    Only columns with a nonzero entry are kept: a zero column changes no
    invariant factor.
    """
    index = {row: i for i, row in enumerate(rows)}
    entries = [(index[row], col, v) for (row, col), v in incidence.items() if v]
    cols: Dict[str, int] = {}
    for _, col, _ in entries:
        cols.setdefault(col, len(cols))
    matrix = [[0] * len(cols) for _ in rows]
    for i, col, v in entries:
        matrix[i][cols[col]] = v
    return matrix


# -- scripts ---------------------------------------------------------------


class Step(NamedTuple):
    kind: str            # "slide" | "cancel12" | "cancel23"
    args: Tuple


def run_script(pres: HandlePresentation, steps: Sequence[Step]) -> List[dict]:
    """Apply moves in order, validating and recording invariants."""
    pres.validate()
    trace = [{"step": "start", "profile": pres.homology_profile()}]
    for step in steps:
        if step.kind == "slide":
            pres.slide(*step.args)
        elif step.kind == "cancel12":
            pres.cancel12(*step.args)
        elif step.kind == "cancel23":
            pres.cancel23(*step.args)
        else:
            raise HandleMoveError(f"unknown move {step.kind!r}")
        pres.validate()
        trace.append({
            "step": f"{step.kind}{step.args!r}",
            "profile": pres.homology_profile(),
        })
    return trace


# -- fixtures --------------------------------------------------------------


def fibration_presentation(genus: int) -> HandlePresentation:
    """Handle picture of the modified fibration over the disk.

    1-handles: the ``2 * genus`` fiber handles, of which only ``u1`` is
    named and the other ``2 * genus - 1`` are counted as idle, plus the two
    extra handles ``hr`` (paired with the round 2-handle ``R``) and ``hb``
    (threaded by the three modification 2-handles).  2-handles: the
    0-framed fiber ``F``, the round handle ``R``, and the modification
    triple ``L1, L2, L3``; ``L1`` and ``L2`` cobound, giving the single
    3-handle its incidence.  A genus below one raises ``SchemeError``.
    """
    if genus < 1:
        raise SchemeError("need genus at least one")
    linking = {
        ("L1", "L1"): 1, ("L2", "L2"): 1, ("L3", "L3"): -2,
        ("L1", "L2"): 1, ("L1", "L3"): 1, ("L2", "L3"): 1,
    }
    incidence2 = {
        ("R", "hr"): 1,
        ("L1", "hb"): 1,
        ("L1", "u1"): 1,
        ("L2", "hb"): 1,
        ("L2", "u1"): 1,
        ("L3", "hb"): -1,
    }
    pres = HandlePresentation(
        one_handles=["u1", "hr", "hb"],
        two_handles=["F", "R", "L1", "L2", "L3"],
        linking=linking,
        incidence2=incidence2,
        three_handles=["t1"],
        incidence3={("t1", "L2"): 1, ("t1", "L1"): -1},
        idle_one_handles=2 * genus - 1,
    )
    pres.validate()
    return pres


def simplification_script() -> List[Step]:
    """The move sequence reducing the picture to its standard form."""
    return [
        Step("cancel12", ("R", "hr")),
        Step("slide", ("L1", "L3", 1)),
        Step("slide", ("L2", "L3", 1)),
        Step("cancel12", ("L3", "hb")),
        Step("slide", ("L2", "L1", -1)),
        Step("cancel23", ("L2", "t1")),
    ]


def expected_final_profile(genus: int) -> dict:
    return {
        "chi": 3 - 2 * genus,
        "H1": {"betti": 2 * genus - 1, "torsion": []},
        "H2": {"betti": 1, "torsion": []},
        "H3": {"betti": 0, "torsion": []},
    }


def is_standard_form(pres: HandlePresentation, genus: int) -> bool:
    """2g one-handles, the 0-framed fiber, and one +1-framed handle on u1."""
    if len(pres.one_handles) + pres.idle_one_handles != 2 * genus or pres.three_handles:
        return False
    if sorted(pres.two_handles) != ["F", "L1"]:
        return False
    if pres.link("F", "F") != 0 or pres.link("L1", "L1") != 1:
        return False
    if pres.link("F", "L1") != 0:
        return False
    # every nonzero incidence: F runs over nothing, L1 once over u1
    expected = {("L1", "u1"): 1}
    got = {k: v for k, v in pres.incidence2.items() if v}
    return got == expected


def localized_presentation() -> HandlePresentation:
    """The cut-out piece around the modification, built on the hexagon curves.

    1-handles are the three edge classes ``a, b, c`` of the hexagon; the
    0-framed 2-handles are the three vanishing cycles and the surgered
    curve of the negative modification, each running over the 1-handles as
    its homology class; a single 3-handle closes the piece off to a 4-ball.
    """
    curves = get_scenario("negative-modification").curves
    ones = ["a", "b", "c"]
    twos = ["C1", "C2", "C3", "C"]
    pres = HandlePresentation(
        one_handles=ones,
        two_handles=twos,
        linking={},
        incidence2={
            (two, one): v for two in twos for one, v in zip(ones, curves[two].homology()) if v
        },
        three_handles=["t1"],
        incidence3={("t1", "C1"): 1, ("t1", "C2"): 1, ("t1", "C3"): 1},
    )
    pres.validate()
    return pres


def is_ball_profile(profile: dict) -> bool:
    return (
        profile["chi"] == 1
        and profile["H1"] == {"betti": 0, "torsion": []}
        and profile["H2"] == {"betti": 0, "torsion": []}
        and profile["H3"] == {"betti": 0, "torsion": []}
    )


# -- handle-sim reports ----------------------------------------------------


def fibration_report(genus: int) -> dict:
    """Run the simplification script on the genus-``genus`` picture.

    ``ok`` holds when the homology profile stays constant through every
    move, equals ``expected_final_profile(genus)`` and the picture ends in
    standard form.
    """
    pres = fibration_presentation(genus)
    trace = run_script(pres, simplification_script())
    profiles = [t["profile"] for t in trace]
    constant = all(p == profiles[0] for p in profiles)
    standard = is_standard_form(pres, genus)
    return {
        "presentation": f"fibration-genus-{genus}",
        "trace": trace,
        "profile_constant": constant,
        "standard_form": standard,
        "ok": constant and standard and profiles[0] == expected_final_profile(genus),
    }


def localized_report() -> dict:
    """Trace the localized piece; ``ok`` (and ``ball``) when it is a 4-ball."""
    pres = localized_presentation()
    # no steps: the start profile is the final one
    trace = run_script(pres, [])
    ok = is_ball_profile(trace[-1]["profile"])
    return {"presentation": "localized", "trace": trace, "ball": ok, "ok": ok}
