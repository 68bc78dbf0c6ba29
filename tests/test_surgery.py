"""Cut-and-cap surgery and the projection of curves and arcs."""

import random
import time

import pytest

from blfkit import (
    Anchor,
    Arc,
    ClosedCurve,
    PolygonScheme,
    arcs_isotopic,
    dehn_twist,
    geometric_intersection,
    hexagon_scheme,
    is_simple,
    project,
    round_surgery,
    surgery,
)
from blfkit.errors import (
    CurveError,
    InessentialCurveError,
    ProjectionObstructedError,
    StandardizationError,
)
from blfkit.scenarios import family_scenario
from helpers import random_word


def ladder(C, C1, C2, k):
    """The rungs (T_C T_C1^-1)^j (C2) for j = 0 .. k."""
    rungs = [C2]
    for _ in range(k):
        rungs.append(dehn_twist(dehn_twist(rungs[-1], C1, -1), C, 1))
    return rungs


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

    def test_two_scars_raise_chi_by_two(self, cut):
        # the two cut circles are capped with disks
        assert cut.scheme.euler_characteristic() == cut.original.euler_characteristic() + 2

    def test_null_curve_rejected(self, hexagon):
        with pytest.raises(InessentialCurveError):
            round_surgery(hexagon, ClosedCurve(hexagon, (0, 3)))

    def test_non_simple_curve_rejected(self, hexagon):
        with pytest.raises(InessentialCurveError):
            round_surgery(hexagon, ClosedCurve(hexagon, (0, 0)))

    def test_disk_cut_rejected(self):
        # on this square (0) is simple and not null, but cutting along it
        # leaves the piece between sides 0 and 1 empty
        square = PolygonScheme(4, ((0, 1, "reversed"), (2, 3, "reversed"))).build()
        curve = ClosedCurve(square, (0,))
        assert is_simple(curve) and not curve.is_null
        with pytest.raises(InessentialCurveError, match="disk"):
            round_surgery(square, curve)

    def test_non_coordinate_curve_standardized(self, hexagon):
        # a cut along a curve of several tokens first twists it to one
        # token, in fewer twists than it has tokens, and each item goes
        # through the same twists, so exactly the items that miss the cut
        # curve project.  Items that miss the one-token image, carried
        # back through the twists, miss the cut curve
        C, C1, C2, C3 = (ClosedCurve(hexagon, w) for w in ((0,), (3, 2), (5, 4), (1, 0)))
        family2 = family_scenario(2)
        f = family2.curves
        cases = [
            (hexagon, [C1, C2, C3] + ladder(C, C1, C2, 4)[1:]),
            (family2.scheme, [f["C1"], ladder(f["C"], f["C1"], f["C2"], 2)[2]]),
        ]
        rng = random.Random(5)
        for scheme, cuts in cases:
            pool = [ClosedCurve(scheme, random_word(scheme, rng, rng.randint(1, 8))) for _ in range(300)]
            for c in cuts:
                result = round_surgery(scheme, c)
                assert result.scheme.euler_characteristic() == scheme.euler_characteristic() + 2
                assert 0 < len(result.standardization.steps) < len(c.tokens)
                back = result.standardization.inverse()
                pulled = [back.apply(y) for y in pool if not geometric_intersection(y, result.curve)]
                missed = 0
                for y in pool + pulled[:20] + [c]:
                    if y.is_null:
                        continue
                    if geometric_intersection(y, c):
                        with pytest.raises(ProjectionObstructedError):
                            project(result, y)
                    else:
                        project(result, y)
                        missed += 1
                assert missed > 10, c.tokens

    def test_stalled_descent_raises(self, hexagon, cut):
        # no coordinate twist shortens a boundary-parallel or separating
        # curve, and the cut hexagon has no coordinate curve at all
        cases = [ClosedCurve(hexagon, w) for w in ((0, 4, 2), (1, 5, 3), (2, 0, 5, 3))]
        cases.append(ClosedCurve(cut.scheme, (1, 5)))
        for c in cases:
            start = time.perf_counter()
            with pytest.raises(StandardizationError):
                round_surgery(c.scheme, c)
            took = time.perf_counter() - start
            assert took < 0.1, f"{c.tokens}: {took:.3f} s"


class TestProjection:
    def test_disjoint_arc_transfers_with_cap_slides(self, cut, hexagon):
        A = Arc(hexagon, Anchor("u1"), (), Anchor("u2"))
        p = project(cut, A)
        assert p.cap_slides == p.slide_count == 0
        assert arcs_isotopic(p.item, Arc(cut.scheme, Anchor("u1"), (), Anchor("u2")))

    def test_arc_through_cut_edge(self, cut, hexagon):
        A = Arc(hexagon, Anchor("u1"), (0, 1, 5, 1, 0, 4), Anchor("u2"))
        p = project(cut, A)
        assert p.cap_slides == 2
        assert p.slide_count == 2

    def test_core_curve_survives(self, cut, hexagon):
        delta = ClosedCurve(hexagon, (1, 5))
        p = project(cut, delta)
        assert not p.item.is_null

    def test_transverse_curve_is_obstructed(self, cut, hexagon):
        with pytest.raises(ProjectionObstructedError):
            project(cut, ClosedCurve(hexagon, (3, 2)))

    @pytest.mark.parametrize(
        "raised, reported", [(CurveError, ProjectionObstructedError), (TypeError, TypeError)]
    )
    def test_only_an_invalid_word_is_an_obstruction(self, cut, hexagon, monkeypatch, raised, reported):
        # a word the surgered surface rejects is obstructed; any other error
        # building the projected item is a fault of the engine and propagates
        class FailingArc(Arc):
            def __init__(self, *args):
                raise raised("cannot build the projected arc")

        A = Arc(hexagon, Anchor("u1"), (), Anchor("u2"))
        monkeypatch.setattr(surgery, "Arc", FailingArc)
        with pytest.raises(reported, match="cannot build the projected arc"):
            project(cut, A)


class TestReducedTwist:
    def test_projected_twist_keeps_handedness(self, cut, hexagon):
        # a right twist upstairs along a curve missing the cut curve
        # descends to a right twist along its projection, also through the
        # twists that move a cut curve of several tokens to one token.
        # Each cut curve is paired with the shortest arc from u1 to u2
        # that misses it
        delta = ClosedCurve(hexagon, (1, 5, 3))
        C, C1, C2, C3 = (ClosedCurve(hexagon, w) for w in ((0,), (3, 2), (5, 4), (1, 0)))
        cases = [(C1, ()), (C2, (1,)), (C3, (0,)), (ladder(C, C1, C2, 1)[1], (2, 4))]
        for sr, arc in [(cut, ())] + [(round_surgery(hexagon, c), arc) for c, arc in cases]:
            A = Arc(hexagon, Anchor("u1"), arc, Anchor("u2"))
            before = project(sr, A).item
            after = project(sr, dehn_twist(A, delta, 1)).item
            circle = next(c for c in sr.scheme.boundary_circles() if "u1" in c)
            gamma = ClosedCurve(sr.scheme, sr.scheme.boundary_parallel_tokens(circle))
            assert arcs_isotopic(after, dehn_twist(before, gamma, 1)), arc
            assert not arcs_isotopic(after, dehn_twist(before, gamma, -1)), arc
