"""Polygon gluing schemes: construction, invariants, symmetries."""

import pytest

from blfkit import schemes
from blfkit.errors import SchemeError
from blfkit.schemes import (
    PolygonScheme,
    Relabeling,
    antipodal_polygon_scheme,
    hexagon_scheme,
    square_torus_scheme,
)


class TestHexagonBuild:
    def test_slots(self):
        s = hexagon_scheme().build()
        assert s.polygons == (("u0", 0, "u1", 1, "u2", 2, "u3", 3, "u4", 4, "u5", 5),)

    def test_partner_involution(self):
        s = hexagon_scheme().build()
        for k in range(6):
            assert s.partner[k] == (k + 3) % 6
            assert s.partner[s.partner[k]] == k

    def test_euler_characteristic(self):
        s = hexagon_scheme().build()
        assert s.euler_characteristic() == -2

    def test_boundary_circles(self):
        s = hexagon_scheme().build()
        circles = {frozenset(c) for c in s.boundary_circles()}
        assert circles == {
            frozenset({"u0", "u2", "u4"}),
            frozenset({"u1", "u3", "u5"}),
        }

    def test_genus(self):
        s = hexagon_scheme().build()
        assert s.genus() == 1

    def test_corners_walked_once(self, monkeypatch):
        # the build walks the polygon's corners, and the built scheme walks
        # its own once: chi, the circles, the boundary-parallel words and
        # the genus all read that walk, however often they are asked
        walks = []
        walk = schemes._corner_walks
        monkeypatch.setattr(schemes, "_corner_walks", lambda *a: walks.append(a) or walk(*a))
        s = hexagon_scheme().build()
        assert len(walks) == 1
        for _ in range(2):
            assert (s.euler_characteristic(), s.genus()) == (-2, 1)
            words = {s.boundary_parallel_tokens(c) for c in s.boundary_circles()}
            assert len(words) == 2
        assert len(walks) == 2


class TestSquareTorus:
    def test_closed(self):
        s = square_torus_scheme().build()
        assert s.euler_characteristic() == 0
        assert not s.boundary_circles()
        assert s.genus() == 1


class TestAntipodalFamily:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_euler_characteristic(self, n):
        s = antipodal_polygon_scheme(2 * n + 1).build()
        assert s.euler_characteristic() == -2 * n

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_two_boundary_circles(self, n):
        s = antipodal_polygon_scheme(2 * n + 1).build()
        assert len(s.boundary_circles()) == 2

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_genus(self, n):
        s = antipodal_polygon_scheme(2 * n + 1).build()
        assert s.genus() == n


R = "reversed"


class TestPartialPunctures:
    """Only some corners punctured: a punctured corner truncates its whole
    class, and the other classes stay corners of the built polygon."""

    @pytest.mark.parametrize("side_count, pairings, corners, polygon, chi", [
        (6, ((0, 3, R), (1, 4, R), (2, 5, R)), {0},
         ("u0", 0, 1, "u2", 2, 3, "u4", 4, 5), -1),
        (8, ((0, 7, R), (1, 3, R), (2, 6, R), (4, 5, R)), {4},
         (0, "u1", 1, "u2", 2, "u3", 3, "u4", 4, 5, "u6", 6, "u7", 7), -1),
        (4, ((0, 1, R), (2, 3, R)), {1}, (0, "u1", 1, 2, 3), 1),
    ], ids=["hexagon-corner-0", "8-gon-corner-4", "square-corner-1"])
    def test_truncated_corners(self, side_count, pairings, corners, polygon, chi):
        s = PolygonScheme(side_count, pairings, frozenset(corners)).build()
        assert s.polygons == (polygon,)
        assert s.euler_characteristic() == chi
        assert len(s.boundary_circles()) == 1


class TestValidation:
    def test_matched_gluing_rejected(self):
        with pytest.raises(SchemeError):
            PolygonScheme(2, [(0, 1, "matched")], punctured_corners=[]).build()

    def test_self_paired_side_rejected(self):
        with pytest.raises(SchemeError):
            PolygonScheme(2, [(0, 0, "reversed")], punctured_corners=[]).build()


class TestRelabeling:
    def test_rotation_is_symmetry(self):
        s = hexagon_scheme().build()
        mapping = {k: (k + 2) % 6 for k in range(6)}
        mapping.update({f"u{k}": f"u{(k + 2) % 6}" for k in range(6)})
        r = Relabeling.from_dict(s, mapping)
        assert r(0) == 2
        assert r.inverse()(2) == 0

    def test_non_symmetry_rejected(self):
        s = hexagon_scheme().build()
        mapping = {k: k for k in range(6)}
        mapping[0], mapping[1] = 1, 0  # swaps adjacent sides, breaks pairing
        mapping.update({f"u{k}": f"u{k}" for k in range(6)})
        with pytest.raises(SchemeError):
            Relabeling.from_dict(s, mapping)
