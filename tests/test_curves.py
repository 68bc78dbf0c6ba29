"""Curves and arcs: reduction, canonical forms, intersection numbers."""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from blfkit import (
    Anchor,
    Arc,
    ClosedCurve,
    TwistWord,
    algebraic_intersection,
    arcs_isotopic,
    curves_isotopic,
    geometric_intersection,
    hexagon_scheme,
    is_simple,
    round_surgery,
    square_torus_scheme,
)
from blfkit import curves, render
from blfkit.curves import (
    homology_class,
    intersection_form,
    pair_homology,
)
from blfkit.errors import CurveError, SchemeError
from blfkit.scenarios import SCENARIOS, _rho, family_scenario, get_scenario
from blfkit.schemes import Scheme, slot_key
from blfkit.twists import relabel_curve

from helpers import chord_crossings, position_table, random_word


@pytest.fixture(scope="module")
def hexagon():
    return hexagon_scheme().build()


class TestReduction:
    def test_backtrack_cancels(self, hexagon):
        assert ClosedCurve(hexagon, (0, 3, 1)).tokens == (1,)

    def test_cyclic_cancellation(self, hexagon):
        # leading and trailing tokens cancel around the wrap
        assert ClosedCurve(hexagon, (0, 1, 3)).tokens == (1,)

    def test_null_curve(self, hexagon):
        assert ClosedCurve(hexagon, (0, 3)).is_null

    def test_boundary_token_rejected(self, hexagon):
        with pytest.raises(CurveError):
            ClosedCurve(hexagon, ("u0",))

    def test_cyclic_reduction_matches_loop(self, hexagon):
        def loop(tokens):
            # the reduction before the two-index strip: re-reduce after each one
            toks = curves._reduce_linear(hexagon.partner, tokens)
            while len(toks) >= 2 and toks[0] == hexagon.partner[toks[-1]]:
                toks = curves._reduce_linear(hexagon.partner, toks[1:-1])
            return toks

        rng = random.Random(23)
        for _ in range(2000):
            u = [rng.randrange(6) for _ in range(rng.randint(0, 8))]
            w = [rng.randrange(6) for _ in range(rng.randint(0, 6))]
            word = u + w + [hexagon.partner[t] for t in reversed(u)]
            assert curves._reduce_cyclic(hexagon.partner, word) == loop(word)

    def test_long_conjugate_reduces_fast(self, hexagon):
        u = (1, 2) * 10_000
        word = u + (0,) + tuple(hexagon.partner[t] for t in reversed(u))
        start = time.perf_counter()
        assert ClosedCurve(hexagon, word).tokens == (0,)
        assert time.perf_counter() - start < 1.0


class TestCanonical:
    def test_rotation_invariance(self, hexagon):
        a = ClosedCurve(hexagon, (0, 1, 2))
        b = ClosedCurve(hexagon, (1, 2, 0))
        assert curves_isotopic(a, b, oriented=True)

    def test_reversal_unoriented_only(self, hexagon):
        a = ClosedCurve(hexagon, (3, 2))
        assert curves_isotopic(a, a.reversed(), oriented=False)
        assert not curves_isotopic(a, a.reversed(), oriented=True)

    def test_reversal_word(self, hexagon):
        assert ClosedCurve(hexagon, (3, 2)).reversed().tokens in {(5, 0), (0, 5)}

    def test_primitive_root(self, hexagon):
        # a primitive curve is its own root, so what is kept on it is kept
        # for the intersection numbers and the simplicity verdict of its root
        for word in [(0,), (3, 2), (0, 1, 3, 1), (1, 2, 1, 2, 1)]:
            c = ClosedCurve(hexagon, word)
            root, power = c.primitive_root()
            assert root is c and power == 1
        c = ClosedCurve(hexagon, (1, 2, 1, 2, 1, 2))
        root, power = c.primitive_root()
        assert root.tokens == (1, 2) and power == 3
        assert c.primitive_root()[0] is root
        assert ClosedCurve(hexagon, (0, 0)).primitive_root()[0].tokens == (0,)

    def test_primitive_root_matches_rotation_loop(self):
        # the substring search against the loop it replaced, which tried
        # every divisor p of |c| and compared the word with its rotation by p
        def loop_root(toks):
            m = len(toks)
            for p in range(1, m):
                if m % p == 0 and toks[p:] + toks[:p] == toks:
                    return toks[:p], m // p
            return toks, 1

        rng = random.Random(29)
        seen = set()
        for n in (1, 2, 3):
            sch = family_scenario(n).scheme
            words = [ClosedCurve(sch, ()), ClosedCurve(sch, (0,))] + [
                ClosedCurve(sch, random_word(sch, rng, rng.randint(1, 12))) for _ in range(40)
            ]
            for w in words:
                for k in range(1, 5):
                    c = ClosedCurve(sch, w.tokens * k)
                    root, power = c.primitive_root()
                    assert (root.tokens, power) == loop_root(c.tokens), c
                    assert (root is c) == (power == 1)
                    seen.add(power)
        assert seen >= {1, 2, 3, 4}


def _slot_order(word):
    return [slot_key(t) for t in word]


def brute_canonical(curve, oriented=True):
    """Reference canonical form: every rotation listed, least under ``slot_key``."""
    def least(word):
        return min((word[i:] + word[:i] for i in range(len(word))), key=_slot_order, default=())

    fwd = least(curve.tokens)
    if oriented:
        return fwd
    partner = curve.scheme.partner
    bwd = least(tuple(partner[t] for t in reversed(curve.tokens)))
    return min(fwd, bwd, key=_slot_order)


def random_twist_images(count, seed, max_steps=3):
    """Seeded images of the hexagon's scenario curves and reference arc."""
    sc = get_scenario("negative-modification")
    names = sorted(sc.curves)
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        steps = tuple(
            (sc.curves[rng.choice(names)], rng.choice((1, -1)))
            for _ in range(rng.randint(1, max_steps))
        )
        word = TwistWord(steps)
        out.append(word.apply(sc.curves[rng.choice(names)]))
        out.append(word.apply(sc.arc))
    return out


def mixed_scheme():
    """One polygon whose glued slots mix int and str ids (0 < 1 < "a" < "b")."""
    return Scheme([(0, "a", 1, "b", "c")], {0: "a", "a": 0, 1: "b", "b": 1})


class TestCanonicalForm:
    """The linear-time canonical form against the all-rotations reference."""

    def test_twist_images_match_reference(self):
        items = random_twist_images(40, seed=3)
        closed = [x for x in items if isinstance(x, ClosedCurve)]
        assert max(len(c.tokens) for c in closed) > 20
        for c in closed:
            for oriented in (True, False):
                assert c.canonical(oriented) == brute_canonical(c, oriented)
        for a in items:
            if isinstance(a, Arc):
                rev = a.reversed()
                key = lambda x: (x[0], _slot_order(x[1]), x[2])
                ref = min((a.start, a.tokens, a.end), (rev.start, rev.tokens, rev.end), key=key)
                assert a.canonical(oriented=False) == ref

    @pytest.mark.parametrize(
        "word",
        [
            (0, 1) * 7,
            (1, 0) * 6,
            (0, 1, 2) * 5 + (0, 1),
            (2, 2, 2, 0, 2, 2, 0, 2),
            (1, 1, 0, 1, 1, 0, 1, 1, 0, 1),
            (0, 0, 1) * 3 + (0, 0, 0, 1),
            (5, 5, 5, 5, 4, 5, 5, 5, 4),
            (0,) * 9,
        ],
    )
    def test_periodic_and_repeated_runs(self, hexagon, word):
        c = ClosedCurve(hexagon, word)
        assert c.tokens == word
        for oriented in (True, False):
            assert c.canonical(oriented) == brute_canonical(c, oriented)

    def test_mixed_slot_ids_follow_slot_key(self):
        sch = mixed_scheme()
        assert sorted(sch.rank, key=sch.rank.get) == sch.slots
        rng = random.Random(5)
        for _ in range(200):
            c = ClosedCurve(sch, [rng.choice((0, 1, "a", "b")) for _ in range(rng.randint(1, 12))])
            for oriented in (True, False):
                assert c.canonical(oriented) == brute_canonical(c, oriented)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        word=st.lists(st.integers(0, 5), min_size=1, max_size=40),
        shift=st.integers(0, 10_000),
    )
    def test_invariant_under_rotation_and_reversal(self, word, shift):
        h = hexagon_scheme().build()
        c = ClosedCurve(h, word)
        k = shift % max(1, len(c.tokens))
        rotated = ClosedCurve(h, c.tokens[k:] + c.tokens[:k])
        assert rotated.canonical() == c.canonical()
        assert rotated.canonical(oriented=False) == c.canonical(oriented=False)
        assert c.reversed().canonical(oriented=False) == c.canonical(oriented=False)

    def test_long_curve_is_fast(self, hexagon):
        # listing every rotation of a word this long ran out of memory
        rng = random.Random(11)
        word = [0]
        while len(word) < 50_100:
            word.append(rng.choice([t for t in range(6) if t != (word[-1] + 3) % 6]))
        periodic = (0, 1) * 25_000 + (2,)
        for tokens in (word, periodic):
            c = ClosedCurve(hexagon, tokens)
            assert len(c.tokens) >= 50_000
            start = time.perf_counter()
            fwd, unoriented = c.canonical(), c.canonical(oriented=False)
            assert time.perf_counter() - start < 1.0
            # hexagon tokens are 0..5, so bytes order is slot_key order
            assert bytes(fwd) in bytes(c.tokens * 2)
            for k in rng.sample(range(len(c.tokens)), 50):
                assert bytes(fwd) <= bytes(c.tokens[k:] + c.tokens[:k])
            assert unoriented in (fwd, c.reversed().canonical())
        assert ClosedCurve(hexagon, periodic).canonical(oriented=False) == periodic

    def test_equality_and_hash_follow_reference(self):
        closed = [x for x in random_twist_images(30, seed=8) if isinstance(x, ClosedCurve)]
        for a in closed:
            k = len(a.tokens) // 2
            turned = ClosedCurve(a.scheme, a.tokens[k:] + a.tokens[:k])
            assert a == turned and hash(a) == hash(turned)
            assert hash(a) == hash(brute_canonical(a))
            for b in closed + [a.reversed()]:
                assert (a == b) == (brute_canonical(a) == brute_canonical(b))


class TestArcs:
    def test_anchors_must_be_boundary(self, hexagon):
        with pytest.raises(CurveError):
            Arc(hexagon, Anchor(0), (), Anchor("u2"))

    @pytest.mark.parametrize("tokens", [(), (0, 1, 5, 1, 0, 4)])
    def test_ends_must_be_two_anchors(self, hexagon, tokens):
        # one anchor at both ends is rejected as one anchor ending two arcs
        # is; one slot with two indices is two anchors
        with pytest.raises(CurveError):
            Arc(hexagon, Anchor("u1"), tokens, Anchor("u1"))
        with pytest.raises(CurveError):
            render.position_table(hexagon, {"a": Arc(hexagon, Anchor("u1"), tokens, Anchor("u2", 0)),
                                 "b": Arc(hexagon, Anchor("u3"), tokens, Anchor("u2", 0))})
        arc = Arc(hexagon, Anchor("u1"), tokens, Anchor("u1", 1))
        assert arcs_isotopic(arc, arc.reversed())

    def test_rel_endpoints(self, hexagon):
        a = Arc(hexagon, Anchor("u1"), (), Anchor("u2"))
        b = Arc(hexagon, Anchor("u1"), (0, 1, 5, 1, 0, 4), Anchor("u2"))
        assert not arcs_isotopic(a, b)
        assert arcs_isotopic(a, a.reversed())


class TestConstructionChecks:
    @pytest.fixture(scope="class")
    def annulus(self, hexagon):
        # the hexagon cut along C: polygons (u1, 1, u2, 2, u3) and (u4, 4, u5, 5, u0)
        sch = round_surgery(hexagon, ClosedCurve(hexagon, (0,))).scheme
        assert len(sch.polygons) == 2
        return sch

    def test_consecutive_tokens_in_two_polygons_raise(self, annulus):
        # (1, 5) enters polygon 0 through 2's partner and polygon 1 through 4
        assert ClosedCurve(annulus, (1, 5)).tokens == (1, 5)
        with pytest.raises(CurveError, match="do not share a polygon"):
            ClosedCurve(annulus, (1, 2))
        with pytest.raises(CurveError, match="does not stay in one polygon"):
            Arc(annulus, Anchor("u1"), (2,), Anchor("u2"))
        assert Arc(annulus, Anchor("u1"), (2,), Anchor("u0")).tokens == (2,)

    @pytest.mark.parametrize("tokens, bad", [
        (("u0",), "u0"), ((1, "u3", 99), "u3"), ((1, 99), 99), ((1, 4, "u0"), "u0"),
    ])
    def test_unglued_token_is_named(self, hexagon, annulus, tokens, bad):
        # the first token that is not a glued slot is named, also after a
        # pair that cancels
        for sch in (hexagon, annulus):
            message = f"token {bad!r} is not a glued slot"
            with pytest.raises(CurveError, match=message):
                ClosedCurve(sch, tokens)
            with pytest.raises(CurveError, match=message):
                Arc(sch, Anchor("u1"), tokens, Anchor("u2"))

    def test_words_read_from_iterators(self, hexagon, annulus):
        # a word is read once, so a one-pass iterator gives the same curve
        # as its tuple
        assert ClosedCurve(hexagon, iter([0, 1])).tokens == (0, 1)
        assert Arc(hexagon, Anchor("u1"), iter([0]), Anchor("u2")).tokens == (0,)
        assert ClosedCurve(annulus, iter([1, 5])).tokens == (1, 5)
        assert Arc(annulus, Anchor("u1"), (t for t in (2,)), Anchor("u0")).tokens == (2,)

    def test_one_polygon_words_of_every_length(self, hexagon):
        rng = random.Random(5)
        partner = hexagon.partner
        glued = sorted(partner)
        for length in range(40):
            tokens = [rng.choice(glued) for _ in range(length)]
            assert ClosedCurve(hexagon, tokens).tokens == tuple(curves._reduce_cyclic(partner, tokens))
            arc = Arc(hexagon, Anchor("u1"), tokens, Anchor("u4"))
            assert arc.tokens == tuple(curves._reduce_linear(partner, tokens))


class TestHomology:
    def test_classes(self, hexagon):
        assert homology_class(hexagon, (0,)) == (1, 0, 0)
        assert homology_class(hexagon, (3, 2)) == (-1, 0, 1)
        assert homology_class(hexagon, (5, 4)) == (0, -1, -1)

    def test_table_matches_the_per_token_sum(self):
        # any token sequence, path or not: each token adds its edge class's
        # basis vector, negated on the partner of the class's primary slot
        rng = random.Random(31)
        schemes = [hexagon_scheme().build(), square_torus_scheme().build()] + [
            family_scenario(n).scheme for n in (2, 3)
        ]
        for _ in range(200):
            sch = rng.choice(schemes)
            glued = sorted(sch.partner, key=sch.rank.get)
            word = rng.choice([
                random_word(sch, rng, rng.randint(1, 30)),
                [rng.choice(glued) for _ in range(rng.randint(0, 30))],
            ])
            basis = curves.homology_basis(sch)
            expected = [0] * len(basis)
            for t in word:
                p = sch.edge_of[t][0]
                expected[basis.index(p)] += 1 if t == p else -1
            assert homology_class(sch, word) == tuple(expected), word

    def test_unglued_token_raises(self, hexagon):
        with pytest.raises(SchemeError, match="'u1' is a boundary slot"):
            homology_class(hexagon, (0, "u1", 0))

    def test_intersection_form(self, hexagon):
        F = intersection_form(hexagon)
        assert F == [[0, 1, 1], [-1, 0, 1], [-1, -1, 0]]

    def test_form_is_antisymmetric(self, hexagon):
        F = intersection_form(hexagon)
        for i in range(3):
            for j in range(3):
                assert F[i][j] == -F[j][i]

    def test_pairing_matches_algebraic_count(self, hexagon):
        words = [(0,), (1,), (2,), (3, 2), (5, 4), (1, 0)]
        for u in words:
            for v in words:
                a = ClosedCurve(hexagon, u)
                b = ClosedCurve(hexagon, v)
                assert algebraic_intersection(a, b) == pair_homology(
                    intersection_form(hexagon),
                    homology_class(hexagon, u),
                    homology_class(hexagon, v),
                )


class TestIntersectionNumbers:
    def test_torus_one_token_pair(self):
        t = square_torus_scheme().build()
        a = ClosedCurve(t, (0,))
        b = ClosedCurve(t, (1,))
        assert geometric_intersection(a, b) == 1
        assert algebraic_intersection(a, b) in (1, -1)

    def test_torus_pq_curves(self):
        # on the torus the geometric count of coprime classes is |det|
        t = square_torus_scheme().build()
        a = ClosedCurve(t, (0,))
        assert geometric_intersection(a, ClosedCurve(t, (0, 1))) == 1
        b = ClosedCurve(t, (0, 1, 0, 1, 1))  # class (2, 3)
        assert geometric_intersection(a, b) == abs(algebraic_intersection(a, b)) == 3

    def test_parallel_copies(self, hexagon):
        a = ClosedCurve(hexagon, (0,))
        assert geometric_intersection(a, a) == 0
        assert geometric_intersection(a, ClosedCurve(hexagon, (0, 0))) == 0
        c1 = ClosedCurve(hexagon, (3, 2))
        assert geometric_intersection(c1, c1.reversed()) == 0
        # powers multiply the count of their roots
        cube, square = ClosedCurve(hexagon, (0, 0, 0)), ClosedCurve(hexagon, (3, 2) * 2)
        assert geometric_intersection(cube, square) == 6

    @pytest.mark.parametrize("rotations", [0, 1, 2])
    def test_no_bigons_for_any_labelling(self, hexagon, rotations):
        # a configuration keeps bigons here and counts 3, 3 and 5, but 1,
        # 1 and 1 after one rotation of the hexagon
        rho = _rho(hexagon)

        def turn(x):
            for _ in range(rotations):
                x = relabel_curve(rho, x)
            return x

        c = turn(ClosedCurve(hexagon, (3, 2)))
        for word in ((2, 3, 2), (5, 0, 0), (5, 0, 5, 0, 0)):
            assert geometric_intersection(turn(ClosedCurve(hexagon, word)), c) == 1

    def test_hexagon_fixtures(self, hexagon):
        C = ClosedCurve(hexagon, (0,))
        C1 = ClosedCurve(hexagon, (3, 2))
        C2 = ClosedCurve(hexagon, (5, 4))
        assert geometric_intersection(C, C1) == 1
        # the homology pairing forces the remaining minimal counts
        assert geometric_intersection(C, C2) == abs(algebraic_intersection(C, C2)) == 2
        assert geometric_intersection(C1, C2) == abs(algebraic_intersection(C1, C2)) == 3

    def test_arc_curve_crossings(self, hexagon):
        A = Arc(hexagon, Anchor("u1"), (), Anchor("u2"))
        C1 = ClosedCurve(hexagon, (3, 2))
        C2 = ClosedCurve(hexagon, (5, 4))
        table = position_table({"a": A, "c1": C1, "c2": C2})
        assert len(chord_crossings(table, "a", "c1")) == 0
        assert len(chord_crossings(table, "a", "c2")) == 1


class TestSimplicity:
    def test_one_token_curves_simple(self, hexagon):
        for k in range(6):
            assert is_simple(ClosedCurve(hexagon, (k,)))

    def test_power_not_simple(self, hexagon):
        assert not is_simple(ClosedCurve(hexagon, (0, 0)))

    def test_figure_eight_not_simple(self, hexagon):
        assert not is_simple(ClosedCurve(hexagon, (0, 1, 3, 1)))

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_stored_verdict_matches_fresh_config(self, name, monkeypatch):
        sc = get_scenario(name)
        fresh = {
            n: c.primitive_root()[1] == 1
            and len(chord_crossings(position_table({"c": c}), "c", "c")) == 0
            for n, c in sc.curves.items()
        }
        assert {n: is_simple(c) for n, c in sc.curves.items()} == fresh
        # asked again, each curve answers from its stored verdict
        builds = []
        monkeypatch.setattr(render, "position_table", lambda *a: builds.append(a))
        assert {n: is_simple(c) for n, c in sc.curves.items()} == fresh
        assert builds == []


class TestTautConfigDeterminism:
    def test_crossings_independent_of_insertion_order(self, hexagon):
        items = {
            "c": ClosedCurve(hexagon, (0,)),
            "c1": ClosedCurve(hexagon, (3, 2)),
            "a": Arc(hexagon, Anchor("u1"), (), Anchor("u2")),
        }
        one = position_table(items)
        two = position_table(dict(reversed(items.items())))
        assert one == two
        for pair in (("c", "c1"), ("a", "c1"), ("a", "c")):
            assert chord_crossings(one, *pair) == chord_crossings(two, *pair)
