"""Dehn twists: fixtures, group identities, homology shadow."""

import gc
import random
import subprocess
import sys
import textwrap
import tracemalloc

import pytest

from blfkit import (
    Anchor,
    Arc,
    ClosedCurve,
    TwistWord,
    arcs_isotopic,
    curves_isotopic,
    dehn_twist,
    geometric_intersection,
    hexagon_scheme,
    relabel_curve,
    square_torus_scheme,
)
from blfkit.curves import homology_class, intersection_form, pair_homology
from blfkit import twists
from blfkit.errors import CurveError, NotSimpleError
from blfkit.scenarios import family_scenario, get_scenario
from blfkit.schemes import Relabeling


@pytest.fixture(scope="module")
def hexagon():
    return hexagon_scheme().build()


def rotation(scheme, amount):
    m = {k: (k + amount) % 6 for k in range(6)}
    m.update({f"u{k}": f"u{(k + amount) % 6}" for k in range(6)})
    return Relabeling.from_dict(scheme, m)


class TestHexagonFixtures:
    def test_first_cycle_rotates_the_round_curve(self, hexagon):
        C = ClosedCurve(hexagon, (0,))
        C1 = ClosedCurve(hexagon, (3, 2))
        image = dehn_twist(C, C1)
        assert curves_isotopic(image, relabel_curve(rotation(hexagon, 2), C), oriented=True)

    def test_three_cycle_composite_fixes_round_curve(self, hexagon):
        C = ClosedCurve(hexagon, (0,))
        word = TwistWord(
            (
                (ClosedCurve(hexagon, (1, 0)), 1),
                (ClosedCurve(hexagon, (5, 4)), 1),
                (ClosedCurve(hexagon, (3, 2)), 1),
            )
        )
        assert curves_isotopic(word.apply(C), C, oriented=True)

    def test_composite_moves_transverse_arc(self, hexagon):
        A = Arc(hexagon, Anchor("u1"), (), Anchor("u2"))
        word = TwistWord(
            (
                (ClosedCurve(hexagon, (1, 0)), 1),
                (ClosedCurve(hexagon, (5, 4)), 1),
                (ClosedCurve(hexagon, (3, 2)), 1),
            )
        )
        image = word.apply(A)
        assert not arcs_isotopic(image, A)
        assert arcs_isotopic(
            image, Arc(hexagon, Anchor("u1"), (0, 1, 5, 1, 0, 4), Anchor("u2"))
        )

    def test_twist_along_disjoint_curve_is_inert(self, hexagon):
        C = ClosedCurve(hexagon, (0,))
        delta = ClosedCurve(hexagon, (1, 5))
        assert curves_isotopic(dehn_twist(C, delta), C, oriented=True)

    def test_twist_requires_simple_curve(self, hexagon):
        C = ClosedCurve(hexagon, (0,))
        with pytest.raises(NotSimpleError):
            dehn_twist(C, ClosedCurve(hexagon, (0, 0)))
        # also when there is nothing to twist
        with pytest.raises(NotSimpleError):
            dehn_twist(ClosedCurve(hexagon, ()), ClosedCurve(hexagon, (0, 0)))


class TestGroupIdentities:
    def test_inverse_law(self, hexagon):
        x = ClosedCurve(hexagon, (0, 1))
        c = ClosedCurve(hexagon, (3, 2))
        assert curves_isotopic(
            dehn_twist(dehn_twist(x, c, 1), c, -1), x, oriented=True
        )

    def test_disjoint_twists_commute(self):
        t = square_torus_scheme().build()
        x = ClosedCurve(t, (1,))
        a = ClosedCurve(t, (0,))
        # a is disjoint from itself in both orders with any bystander
        lhs = dehn_twist(dehn_twist(x, a, 1), a, 1)
        rhs = dehn_twist(x, a, 2)
        assert curves_isotopic(lhs, rhs, oriented=True)

    def test_braid_relation(self, hexagon):
        # for curves crossing once: T_a T_b T_a = T_b T_a T_b
        a = ClosedCurve(hexagon, (0,))
        b = ClosedCurve(hexagon, (3, 2))
        lhs = TwistWord(((a, 1), (b, 1), (a, 1)))
        rhs = TwistWord(((b, 1), (a, 1), (b, 1)))
        for probe in ((1,), (2,), (0, 1), (5, 4)):
            x = ClosedCurve(hexagon, probe)
            assert curves_isotopic(lhs.apply(x), rhs.apply(x), oriented=True)

    def test_conjugation_by_rotation(self, hexagon):
        # T_{r(c)} = r T_c r^{-1}
        r = rotation(hexagon, 2)
        c = ClosedCurve(hexagon, (3, 2))
        x = ClosedCurve(hexagon, (0, 1))
        lhs = dehn_twist(x, relabel_curve(r, c))
        rhs = relabel_curve(r, dehn_twist(relabel_curve(r.inverse(), x), c))
        assert curves_isotopic(lhs, rhs, oriented=True)


def reference_act_on_homology(word, scheme):
    """``TwistWord.act_on_homology`` as it built each transvection row by row
    with ``pair_homology`` and transposed it."""
    form = intersection_form(scheme)
    n = len(form)
    mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for c, p in reversed(word.steps):
        vc = homology_class(scheme, c.tokens)
        rows = []
        for i in range(n):
            e = [1 if j == i else 0 for j in range(n)]
            coef = p * pair_homology(form, e, vc)
            rows.append([e[j] + coef * vc[j] for j in range(n)])
        step = [[rows[i][j] for i in range(n)] for j in range(n)]
        mat = [[sum(step[i][k] * mat[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return mat


class TestHomologyShadow:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_action_matches_row_by_row_transvections(self, n):
        # family-1 is the hexagon; the words mix the scenario's twist
        # curves with random ones, simple or not, and powers -3..3
        sc = family_scenario(n)
        scheme = sc.scheme
        glued = sorted(scheme.partner, key=scheme.rank.get)
        rng = random.Random(n)
        pool = list(sc.curves.values())
        while len(pool) < 2 * len(sc.curves) + 10:
            c = ClosedCurve(scheme, [rng.choice(glued) for _ in range(rng.randint(1, 8))])
            if not c.is_null:
                pool.append(c)
        for _ in range(40):
            word = TwistWord(tuple(
                (rng.choice(pool), rng.randint(-3, 3)) for _ in range(rng.randint(1, 6))
            ))
            assert word.act_on_homology(scheme) == reference_act_on_homology(word, scheme)

    def test_transvection_matrix(self, hexagon):
        # one twist along C: column i, the image of e_i, is e_i + <e_i, C> C
        F = intersection_form(hexagon)
        c = ClosedCurve(hexagon, (0,))
        vc = homology_class(hexagon, c.tokens)
        m = TwistWord(((c, 1),)).act_on_homology(hexagon)
        for i in range(3):
            e = [int(j == i) for j in range(3)]
            k = pair_homology(F, e, vc)
            assert [row[i] for row in m] == [e[j] + k * vc[j] for j in range(3)]
        assert m != [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_twist_word_action_matches_curve_level(self, hexagon):
        F = intersection_form(hexagon)
        word = TwistWord(
            (
                (ClosedCurve(hexagon, (1, 0)), 1),
                (ClosedCurve(hexagon, (5, 4)), 1),
                (ClosedCurve(hexagon, (3, 2)), 1),
            )
        )
        mat = word.act_on_homology(hexagon)
        for probe in ((0,), (1,), (2,), (0, 1)):
            x = ClosedCurve(hexagon, probe)
            v = homology_class(hexagon, probe)
            expected = tuple(
                sum(mat[i][j] * v[j] for j in range(3)) for i in range(3)
            )
            assert expected == tuple(homology_class(hexagon, word.apply(x).tokens))

    def test_inverse_word(self, hexagon):
        word = TwistWord(
            (
                (ClosedCurve(hexagon, (3, 2)), 1),
                (ClosedCurve(hexagon, (5, 4)), -2),
            )
        )
        both = word * word.inverse()
        x = ClosedCurve(hexagon, (0, 1))
        assert curves_isotopic(both.apply(x), x, oriented=True)


class TestBounds:
    def test_bound_counts_the_word_before_reduction(self, monkeypatch):
        # |x| + |power| * |c| * i(x, c)
        sc = get_scenario("negative-modification")
        x, c = sc.curves["C2"], sc.curves["C1"]
        size = len(x.tokens) + 5 * len(c.tokens) * geometric_intersection(x, c)
        monkeypatch.setattr(twists, "MAX_TWIST_TOKENS", size)
        assert len(dehn_twist(x, c, -5).tokens) <= size
        monkeypatch.setattr(twists, "MAX_TWIST_TOKENS", size - 1)
        with pytest.raises(CurveError, match=f"builds {size} tokens"):
            dehn_twist(x, c, -5)

    def test_huge_power_fails_before_building(self):
        # in a child process limited to 1 GB of address space, where
        # building the copies raised MemoryError before the bound
        code = textwrap.dedent("""
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
            from blfkit import dehn_twist
            from blfkit.errors import CurveError
            from blfkit.scenarios import get_scenario
            sc = get_scenario("negative-modification")
            try:
                dehn_twist(sc.curves["C2"], sc.curves["C1"], 10 ** 9)
            except CurveError as exc:
                print(exc)
        """)
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=30
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.endswith(f"more than {twists.MAX_TWIST_TOKENS}\n")

    def test_twisted_images_leave_little_on_the_curve(self):
        # c = (T_C T_C1^-1)^6(C2); a rotation of c kept per crossed passage
        # and power would hold 32 MB after these five twists
        sc = get_scenario("negative-modification")
        C, C1, C3 = (sc.curves[name] for name in ("C", "C1", "C3"))
        c = sc.curves["C2"]
        for _ in range(6):
            c = dehn_twist(dehn_twist(c, C1, -1), C, 1)
        assert len(c.tokens) == 920
        gc.collect()
        tracemalloc.start()
        try:
            for x, power in ((C, 1), (C1, -1), (C3, 2), (C1, 3), (C, -2)):
                image = dehn_twist(x, c, power)
            del image
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 1_000_000, held
