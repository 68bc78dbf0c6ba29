"""Cut-and-cap surgery and the projection of curves and arcs."""

import random

import pytest

from blfkit import (
    Anchor,
    Arc,
    ClosedCurve,
    arcs_isotopic,
    dehn_twist,
    geometric_intersection,
    hexagon_scheme,
    project,
    round_surgery,
)
from blfkit.errors import InessentialCurveError, ProjectionObstructedError
from helpers import random_word


@pytest.fixture(scope="module")
def hexagon():
    return hexagon_scheme().build()


@pytest.fixture(scope="module")
def cut(hexagon):
    return round_surgery(hexagon, ClosedCurve(hexagon, (0,)))


class TestRoundSurgery:
    def test_annulus_invariants(self, cut):
        ann = cut.scheme
        assert ann.euler_characteristic() == 0
        assert len(ann.boundary_circles()) == 2
        assert ann.genus() == 0

    def test_scar_count(self, cut):
        assert cut.scar_count == 2

    def test_null_curve_rejected(self, hexagon):
        with pytest.raises(InessentialCurveError):
            round_surgery(hexagon, ClosedCurve(hexagon, (0, 3)))

    def test_non_simple_curve_rejected(self, hexagon):
        with pytest.raises(InessentialCurveError):
            round_surgery(hexagon, ClosedCurve(hexagon, (0, 0)))

    def test_non_coordinate_curve_standardized(self, hexagon):
        # a cut along C1, C2 or C3 first twists the curve to one token, and
        # each item goes through the same twists, so exactly the items that
        # miss the cut curve project
        rng = random.Random(5)
        pool = [ClosedCurve(hexagon, random_word(hexagon, rng, rng.randint(1, 8))) for _ in range(300)]
        for word in ((3, 2), (5, 4), (1, 0)):
            c = ClosedCurve(hexagon, word)
            result = round_surgery(hexagon, c)
            assert result.scheme.euler_characteristic() == 0
            assert result.standardization is not None
            missed = 0
            for y in pool + [c]:
                if y.is_null:
                    continue
                if geometric_intersection(y, c):
                    with pytest.raises(ProjectionObstructedError):
                        project(result, y)
                else:
                    project(result, y)
                    missed += 1
            assert missed > 10, word


class TestProjection:
    def test_disjoint_arc_transfers_with_cap_slides(self, cut, hexagon):
        A = Arc(hexagon, Anchor("u1"), (), Anchor("u2"))
        p = project(cut, A)
        assert p.cap_slides == 0
        assert p.band_slides == 0
        assert arcs_isotopic(p.item, Arc(cut.scheme, Anchor("u1"), (), Anchor("u2")))

    def test_arc_through_cut_edge(self, cut, hexagon):
        A = Arc(hexagon, Anchor("u1"), (0, 1, 5, 1, 0, 4), Anchor("u2"))
        p = project(cut, A)
        assert p.band_slides == 0
        assert p.cap_slides == 2
        assert p.slide_count == 2

    def test_core_curve_survives(self, cut, hexagon):
        delta = ClosedCurve(hexagon, (1, 5))
        p = project(cut, delta)
        assert not p.item.is_null

    def test_transverse_curve_is_obstructed(self, cut, hexagon):
        with pytest.raises(ProjectionObstructedError):
            project(cut, ClosedCurve(hexagon, (3, 2)))


class TestReducedTwist:
    def test_projected_twist_keeps_handedness(self, cut, hexagon):
        # a right twist upstairs along a curve missing the cut curve
        # descends to a right twist along its projection
        delta = ClosedCurve(hexagon, (1, 5, 3))
        A = Arc(hexagon, Anchor("u1"), (), Anchor("u2"))
        before = project(cut, A).item
        after = project(cut, dehn_twist(A, delta, 1)).item
        circle = next(c for c in cut.scheme.boundary_circles() if "u1" in c)
        gamma = ClosedCurve(cut.scheme, cut.scheme.boundary_parallel_tokens(circle))
        assert arcs_isotopic(after, dehn_twist(before, gamma, 1))
        assert not arcs_isotopic(after, dehn_twist(before, gamma, -1))
