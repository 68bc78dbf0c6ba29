"""End-to-end verification scenarios for the handlebody modification.

Each scenario packages a surface (a punctured polygon scheme), a family of
vanishing cycles whose right-handed twists compose to the monodromy, the
curve along which the round surgery happens, and a reference arc.  The
verifiers check:

* *round invariance*: the monodromy fixes the surgered curve, with
  orientation -- the condition for the round handle to exist;
* *reduced monodromy*: after cutting and capping, the surface is an
  annulus and the monodromy descends to a boundary-parallel twist whose
  handedness the engine determines;
* *vertex joining*: for the mirror family, smoothing a crossing of two
  adjacent cycles reproduces a cycle of the original family.

A scenario is read-only.  :func:`get_scenario` builds each named scenario
once per process, so every command and check on it shares one scheme and
what is kept on its curves; :func:`family_scenario` builds a fresh member
on every call.
"""

from __future__ import annotations

import functools
from types import MappingProxyType
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

from .curves import (
    Anchor,
    Arc,
    ClosedCurve,
    arcs_isotopic,
    curves_isotopic,
    passage_crossings,
)
from .errors import SchemeError
from .schemes import Relabeling, Scheme, antipodal_polygon_scheme
from .surgery import Projection, project, round_surgery
from .twists import TwistWord, dehn_twist, relabel_curve

# the largest family member built: its cost is linear in n, about 9 KB of
# memory per unit of n, and n = 20,000 takes 2.1 s and 183 MB ru_maxrss on
# a 2-vCPU Xeon
MAX_FAMILY_MEMBER = 20_000


class Scenario:
    """A surface, its twist curves and the verdicts the paper expects.

    Read-only: assigning or deleting an attribute raises
    ``AttributeError``, and ``curves`` and ``expected`` are read-only
    views of copies of the mappings given, because a named scenario is
    shared by every caller in the process.  ``cycle_names`` lists the
    twists outermost first.  ``_replace`` builds a new scenario with some
    fields changed, and ``copy.copy`` works on one.
    """

    def __init__(self, name: str, description: str, scheme: Scheme,
                 curves: Mapping[str, ClosedCurve], cycle_names: Tuple[str, ...],
                 surgery_name: str, arc: Optional[Arc], rho: Relabeling,
                 expected: Mapping[str, object] = MappingProxyType({})) -> None:
        # the fields live in the instance dict, which copy.copy fills
        # without calling __setattr__
        self.__dict__.update(
            name=name, description=description, scheme=scheme,
            curves=MappingProxyType(dict(curves)), cycle_names=cycle_names,
            surgery_name=surgery_name, arc=arc, rho=rho,
            expected=MappingProxyType(dict(expected)),
        )

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _replace(self, **changes) -> "Scenario":
        return Scenario(**{**self.__dict__, **changes})

    @property
    def monodromy(self) -> TwistWord:
        return TwistWord(tuple((self.curves[n], 1) for n in self.cycle_names))

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "polygons": [[str(s) for s in p] for p in self.scheme.polygons],
            "gluing": {str(s): str(t) for s, t in self.scheme.partner.items()},
            "curves": {n: [str(t) for t in c.tokens] for n, c in sorted(self.curves.items())},
            "monodromy": list(self.cycle_names),
            "surgery_curve": self.surgery_name,
            "arc": None if self.arc is None else {
                "start": [str(self.arc.start.slot), self.arc.start.index],
                "tokens": [str(t) for t in self.arc.tokens],
                "end": [str(self.arc.end.slot), self.arc.end.index],
            },
            "expected": dict(self.expected),
        }


def _rho(scheme: Scheme) -> Relabeling:
    """Rotation of the truncated antipodal polygon by two sides.

    Sides and truncated corners alternate around the polygon, so two sides
    on is four slots on.
    """
    poly = scheme.polygons[0]
    return Relabeling.from_dict(scheme, {s: poly[(i + 4) % len(poly)] for i, s in enumerate(poly)})


def family_scenario(n: int) -> Scenario:
    """The antipodal (4n+2)-gon with its cycle of 2n+1 twist curves.

    ``C`` is the one-token curve through edge class 0; ``C1`` crosses the
    edges on either side of it, and the remaining cycles are its images
    under the rotation of order 2n+1.  A member outside 1 to
    ``MAX_FAMILY_MEMBER`` raises ``SchemeError`` before anything is built.
    """
    if n < 1:
        raise SchemeError(f"family member n must be at least 1, got {n}")
    if n > MAX_FAMILY_MEMBER:
        raise SchemeError(f"family member n must be at most {MAX_FAMILY_MEMBER}, got {n}")
    m = 2 * n + 1
    scheme = antipodal_polygon_scheme(m).build()
    rho = _rho(scheme)
    curves = {"C": ClosedCurve(scheme, (0,))}
    c1 = ClosedCurve(scheme, (m, 2))
    curves["C1"] = c1
    for j in range(2, m + 1):
        c1 = relabel_curve(rho, c1)
        curves[f"C{j}"] = c1
    order = tuple(f"C{j}" for j in range(m, 0, -1))
    # only the n = 1 (hexagon) surgery leaves an annulus behind, so the
    # reduced-monodromy check applies there alone
    arc = Arc(scheme, Anchor("u1"), (), Anchor("u2")) if n == 1 else None
    return Scenario(
        name=f"family-{n}",
        description=(
            f"achiral fibration model on the antipodal {4 * n + 2}-gon "
            f"(genus {n}, two boundary circles)"
        ),
        scheme=scheme,
        curves=curves,
        cycle_names=order,
        surgery_name="C",
        arc=arc,
        rho=rho,
        expected=(
            {"round_invariant": True, "reduced_handedness": "left", "cap_slides": 2}
            if n == 1
            else {"round_invariant": True}
        ),
    )


def negative_modification_scenario() -> Scenario:
    """The hexagon model: three vanishing cycles, left-handed reduced twist."""
    return family_scenario(1)._replace(
        name="negative-modification",
        description=(
            "hexagon model of the modification with the standard cycle triple; "
            "the reduced monodromy on the annulus is a left-handed "
            "boundary-parallel twist"
        ),
    )


def positive_modification_scenario() -> Scenario:
    """The reversed-orientation cycle triple on the hexagon.

    Replacing a *positive* singularity would require the reduced monodromy
    to be a right-handed twist along the boundary-parallel curve; that
    expectation is recorded here.  It cannot hold: each ``Di`` is ``Ci``
    with its orientation reversed, and a Dehn twist does not depend on the
    orientation of its curve, so ``T_D3 T_D2 T_D1`` is the same mapping
    class as the standard monodromy ``T_C3 T_C2 T_C1`` and reduces to the
    same left-handed twist.  The verifier reports the computed handedness
    and a failed check.  The right-handed twist belongs to the inverse
    word, the achiral mirror with left twists along ``D1``, ``D2``, ``D3``.
    """
    base = family_scenario(1)
    scheme = base.scheme
    curves = {
        "C": ClosedCurve(scheme, (0,)),
        "D1": ClosedCurve(scheme, (0, 5)),
        "D2": ClosedCurve(scheme, (2, 1)),
        "D3": ClosedCurve(scheme, (4, 3)),
        "C1": ClosedCurve(scheme, (3, 2)),
        "C2": ClosedCurve(scheme, (5, 4)),
        "C3": ClosedCurve(scheme, (1, 0)),
    }
    return Scenario(
        name="positive-modification",
        description=(
            "hexagon model with the reversed-orientation cycle triple; "
            "smoothing adjacent cycles recovers the standard triple, and "
            "the reduced monodromy carries a derived right-handed "
            "expectation that the verifier checks against the computation"
        ),
        scheme=scheme,
        curves=curves,
        cycle_names=("D3", "D2", "D1"),
        surgery_name="C",
        arc=base.arc,
        rho=base.rho,
        expected={
            "round_invariant": True,
            "reduced_handedness": "right",
            "joining": (("D1", "D2"), ("D2", "D3"), ("D3", "D1")),
        },
    )


SCENARIOS = {
    "negative-modification": negative_modification_scenario,
    "positive-modification": positive_modification_scenario,
    "family-1": lambda: family_scenario(1),
    "family-2": lambda: family_scenario(2),
    "family-3": lambda: family_scenario(3),
}


@functools.lru_cache(maxsize=None)
def get_scenario(name: str) -> Scenario:
    """The named scenario, built on the first call and shared by every later one.

    A scenario is read-only; an unknown name raises ``KeyError`` and is not kept.
    """
    try:
        return SCENARIOS[name]()
    except KeyError:
        raise KeyError(f"unknown scenario {name!r}; known: {sorted(SCENARIOS)}")


# -- verifiers -------------------------------------------------------------


class RoundInvarianceReport(NamedTuple):
    scenario: str
    ok: bool
    image_word: Tuple
    curve_word: Tuple

    def to_json(self) -> dict:
        return {
            "check": "round-invariance",
            "scenario": self.scenario,
            "ok": self.ok,
            "image": [str(t) for t in self.image_word],
            "curve": [str(t) for t in self.curve_word],
        }


def verify_round_invariance(sc: Scenario) -> RoundInvarianceReport:
    """Does the monodromy fix the surgered curve, preserving orientation?"""
    c = sc.curves[sc.surgery_name]
    img = sc.monodromy.apply(c)
    return RoundInvarianceReport(
        scenario=sc.name,
        ok=curves_isotopic(img, c, oriented=True),
        image_word=img.canonical(),
        curve_word=c.canonical(),
    )


class ReducedMonodromyReport(NamedTuple):
    scenario: str
    chi: int
    boundary_circles: int
    gamma_word: Tuple
    handedness: str
    cap_slides: int
    ok: bool

    def to_json(self) -> dict:
        return {
            "check": "reduced-monodromy",
            "scenario": self.scenario,
            "chi": self.chi,
            "boundary_circles": self.boundary_circles,
            "gamma": [str(t) for t in self.gamma_word],
            "handedness": self.handedness,
            "cap_slides": self.cap_slides,
            "ok": self.ok,
        }


def reduce_twist_word(
    scheme: Scheme, curve: ClosedCurve, word: TwistWord, arc: Arc
) -> Tuple[str, Projection, ClosedCurve]:
    """Cut along ``curve`` and identify what ``word`` leaves behind.

    The reference arc is pushed into the cut surface before and after the
    word; the leftover mapping class is matched against a single right- or
    left-handed twist along the boundary-parallel curve ``gamma`` through
    the arc's component of the boundary.  Returns the handedness ("none",
    "left", "right" or "other"), the projected image of the arc and
    ``gamma``.
    """
    sr = round_surgery(scheme, curve)
    cut = sr.scheme
    before = project(sr, arc)
    after = project(sr, word.apply(arc))

    circle = next(c for c in cut.boundary_circles() if arc.start.slot in c)
    gamma = ClosedCurve(cut, cut.boundary_parallel_tokens(circle))

    if arcs_isotopic(after.item, before.item):
        handedness = "none"
    elif arcs_isotopic(after.item, dehn_twist(before.item, gamma, -1)):
        handedness = "left"
    elif arcs_isotopic(after.item, dehn_twist(before.item, gamma, 1)):
        handedness = "right"
    else:
        handedness = "other"
    return handedness, after, gamma


def verify_reduced_monodromy(sc: Scenario) -> ReducedMonodromyReport:
    """Cut along the surgered curve and identify the leftover monodromy.

    The cut surface must be an annulus and the monodromy must reduce, by
    :func:`reduce_twist_word`, to the expected twist along its
    boundary-parallel curve.
    """
    if sc.arc is None:
        raise ValueError(f"scenario {sc.name!r} has no reference arc")
    handedness, after, gamma = reduce_twist_word(
        sc.scheme, sc.curves[sc.surgery_name], sc.monodromy, sc.arc
    )
    annulus = gamma.scheme
    chi = annulus.euler_characteristic()
    circles = annulus.boundary_circles()

    expected_hand = sc.expected.get("reduced_handedness")
    expected_caps = sc.expected.get("cap_slides")
    ok = chi == 0 and len(circles) == 2
    if expected_hand is not None:
        ok = ok and handedness == expected_hand
    else:
        ok = ok and handedness in ("left", "right")
    if expected_caps is not None:
        ok = ok and after.cap_slides == expected_caps
    return ReducedMonodromyReport(
        scenario=sc.name,
        chi=chi,
        boundary_circles=len(circles),
        gamma_word=gamma.canonical(),
        handedness=handedness,
        cap_slides=after.cap_slides,
        ok=ok,
    )


class JoiningReport(NamedTuple):
    scenario: str
    matches: Dict[str, str]
    ok: bool

    def to_json(self) -> dict:
        return {
            "check": "vertex-joining",
            "scenario": self.scenario,
            "matches": dict(sorted(self.matches.items())),
            "ok": self.ok,
        }


def _reversed_rows(
    rows: List[Tuple[Tuple[int, int], ...]], m: int
) -> List[Tuple[Tuple[int, int], ...]]:
    """``passage_crossings(u, v.reversed())`` from ``rows = passage_crossings(u,
    v)`` and ``m = |v|``.

    Passage ``kv`` of ``v`` is passage ``(m - kv) mod m`` of its reverse,
    the same chord run the other way, so each crossing keeps its place
    along u's passage and changes sign.
    """
    return [tuple([((m - kv) % m, -sign) for kv, sign in row]) for row in rows]


def _smoothings(u: ClosedCurve, v: ClosedCurve) -> List[ClosedCurve]:
    """All oriented smoothings of crossings of ``u`` with ``v`` or its reverse."""
    # both cycles are simple, so passage_crossings lists the crossings of a
    # minimal position, none for curves that can be made disjoint; each row
    # is ordered along u's passage, and taken in w's passage order.  The
    # reverse's rows are read off v's, so only v's crossing data is built
    rows = passage_crossings(u, v)
    out = []
    for w, w_rows in ((v, rows), (v.reversed(), _reversed_rows(rows, len(v.tokens)))):
        for ku, row in enumerate(w_rows):
            for kv, _sign in sorted(row):
                word = (
                    u.tokens[ku:] + u.tokens[:ku]
                    + w.tokens[kv:] + w.tokens[:kv]
                )
                out.append(ClosedCurve(u.scheme, word))
    return out


def verify_vertex_joining(sc: Scenario) -> JoiningReport:
    """Smoothing adjacent mirror cycles must recover standard cycles."""
    pairs = sc.expected.get("joining", [])
    targets = {
        n: c for n, c in sc.curves.items() if n.startswith("C") and n != sc.surgery_name
    }
    matches: Dict[str, str] = {}
    ok = bool(pairs)
    for pair in pairs:
        u, v = (sc.curves[p] for p in pair)
        found = None
        for smoothed in _smoothings(u, v):
            for name, target in sorted(targets.items()):
                if curves_isotopic(smoothed, target):
                    found = name
                    break
            if found:
                break
        key = "+".join(pair)
        matches[key] = found or "none"
        ok = ok and found is not None
    return JoiningReport(scenario=sc.name, matches=matches, ok=ok)


def run_scenario(sc: Scenario) -> dict:
    """All applicable checks for a scenario, as one JSON-ready report."""
    reports = [verify_round_invariance(sc).to_json()]
    if sc.arc is not None:
        reports.append(verify_reduced_monodromy(sc).to_json())
    if sc.expected.get("joining"):
        reports.append(verify_vertex_joining(sc).to_json())
    return {
        "scenario": sc.name,
        "ok": all(r["ok"] for r in reports),
        "reports": reports,
    }
