"""The records and small classes keep the behaviour callers see.

The reference values were taken from the ``@dataclass`` versions these
classes replaced: repr text, equality, hashing and ordering, where
validation raises, independent copies, and read-only scenarios.
"""

import copy

import pytest

from blfkit import (
    Anchor,
    Arc,
    ClosedCurve,
    PolygonScheme,
    Relabeling,
    TwistWord,
    hexagon_scheme,
)
from blfkit.curves import passage_crossings
from blfkit.errors import CurveError, SchemeError
from blfkit.handles import Step
from blfkit.scenarios import get_scenario, negative_modification_scenario


def _rotation(scheme):
    poly = scheme.polygons[0]
    return Relabeling.from_dict(scheme, {s: poly[(i + 4) % len(poly)] for i, s in enumerate(poly)})


def anchor_repr():
    h, other = hexagon_scheme().build(), hexagon_scheme().build()
    arc = Arc(h, Anchor("u1"), (0, 1), Anchor("u2", 1))
    text = "Arc(Anchor(slot='u1', index=0), [0, 1], Anchor(slot='u2', index=1))"
    assert repr(arc) == text
    with pytest.raises(CurveError) as info:
        passage_crossings(arc, ClosedCurve(other, (0,)))
    assert str(info.value) == f"{text} lives on a different scheme from ClosedCurve([0])"


def anchor_equality_hash_and_order():
    assert Anchor("u1") == Anchor("u1", 0) and hash(Anchor("u1")) == hash(Anchor("u1", 0))
    assert Anchor("u1") != Anchor("u1", 1) and Anchor("u1") != Anchor("u2")
    assert Anchor("u1", 1) < Anchor("u2") and Anchor("u1") <= Anchor("u1", 0)
    assert sorted([Anchor("u2"), Anchor("u1", 1), Anchor("u1")]) == [
        Anchor("u1"), Anchor("u1", 1), Anchor("u2")
    ]
    assert (Anchor("u3").slot, Anchor("u3", 2).index) == ("u3", 2)


def twist_word_equality_hash_and_product():
    h = hexagon_scheme().build()
    c, d = ClosedCurve(h, (0,)), ClosedCurve(h, (2, 1))
    w = TwistWord(((c, 1), (d, -1)))
    same = TwistWord(((ClosedCurve(h, (0,)), 1), (ClosedCurve(h, (1, 2)), -1)))
    assert w == same and hash(w) == hash(same)
    assert w != w.inverse() and w.inverse().inverse() == w
    assert (w * w.inverse()).steps == ((c, 1), (d, -1), (d, 1), (c, -1))
    assert (TwistWord(()) * w) == w
    assert repr(w) == "TwistWord(steps=((ClosedCurve([0]), 1), (ClosedCurve([2, 1]), -1)))"


def step_equality_hash_and_repr():
    s = Step("slide", ("L1", "L3", 1))
    assert s == Step("slide", ("L1", "L3", 1)) and hash(s) == hash(Step("slide", ("L1", "L3", 1)))
    assert s != Step("slide", ("L1", "L3", -1))
    assert (s.kind, s.args) == ("slide", ("L1", "L3", 1))
    assert repr(s) == "Step(kind='slide', args=('L1', 'L3', 1))"


def relabeling_equality_and_hash():
    h = hexagon_scheme().build()
    r = _rotation(h)
    assert r == _rotation(h) and hash(r) == hash(_rotation(h))
    assert r.inverse().inverse() == r and r != r.inverse()
    # a scheme compares by identity, so an equal-looking one differs
    assert r != _rotation(hexagon_scheme().build())
    assert r.mapping[:3] == ((0, 2), (1, 3), (2, 4)) and r(0) == 2 and r("u5") == "u1"


def polygon_scheme_raises_at_construction():
    for args in [(0, ()), (2, [(0, 1, "matched")]), (2, [(0, 1, "twisted")]),
                 (2, [(0, 0, "reversed")]), (4, [(0, 1, "reversed"), (1, 2, "reversed")])]:
        with pytest.raises(SchemeError):
            PolygonScheme(*args)
    with pytest.raises(SchemeError, match="corner 4 out of range"):
        PolygonScheme(4, (), punctured_corners=frozenset({4}))
    square = PolygonScheme(4, ((0, 2, "reversed"), (1, 3, "reversed")))
    assert (square.side_count, square.punctured_corners) == (4, frozenset())
    assert square.build().genus() == 1


def scenario_mappings_stay_read_only():
    sc = get_scenario("family-1")
    built = [
        negative_modification_scenario(),
        copy.copy(sc),
        sc._replace(curves=dict(sc.curves), expected={"round_invariant": True}),
    ]
    for other in built:
        with pytest.raises(TypeError):
            other.curves["X"] = sc.curves["C"]
        with pytest.raises(TypeError):
            other.expected["round_invariant"] = False
        with pytest.raises(AttributeError):
            other.name = "other"
    assert all(other.scheme is sc.scheme and other.rho is sc.rho for other in built[1:])
    assert built[0].name == "negative-modification" and built[1].name == sc.name
    assert dict(built[2].expected) == {"round_invariant": True}
    assert dict(sc.expected) == {"round_invariant": True, "reduced_handedness": "left", "cap_slides": 2}


CASES = {f.__name__: f for f in (
    anchor_repr,
    anchor_equality_hash_and_order,
    twist_word_equality_hash_and_product,
    step_equality_hash_and_repr,
    relabeling_equality_and_hash,
    polygon_scheme_raises_at_construction,
    scenario_mappings_stay_read_only,
)}


@pytest.mark.parametrize("case", sorted(CASES))
def test_contract(case):
    CASES[case]()
