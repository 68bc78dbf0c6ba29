"""Intersection numbers from linked runs and taut rows, and simplicity.

``brute_linked`` is the quadratic reference: it compares the rays of every
pair of points on an edge step by step and tests every pair of chords in a
polygon.  ``helpers.self_crossings``, the linked-run self-count, is the
reference for the traced simplicity verdict.  The seeded properties are
identities of geometric intersection numbers that hold for every
labelling of the surface (Farb and Margalit, *A Primer on Mapping Class
Groups*, Section 3.1): an edge order that keeps bigons breaks them.
"""

import functools
import random
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from blfkit import (
    ClosedCurve,
    TwistWord,
    algebraic_intersection,
    dehn_twist,
    geometric_intersection,
    hexagon_scheme,
    is_simple,
    square_torus_scheme,
)
from blfkit import curves
from blfkit.curves import TautConfig, intersection_form, pair_homology
from blfkit.errors import CurveError
from blfkit.scenarios import SCENARIOS, family_scenario, get_scenario
from blfkit.twists import relabel_curve
from helpers import linked_intersection, random_word, self_crossings, simple_by_self_count


def _ray(item, k, forward, length):
    """The first ``length`` steps (counterclockwise offset, target) of the strand from ``k``."""
    sch = item.scheme
    partner, location = sch.partner, sch.location
    toks = item.tokens
    m = len(toks)
    src = partner[toks[k]] if forward else toks[k]
    out = []
    for i in range(1, length + 1):
        tgt = toks[(k + i) % m] if forward else partner[toks[(k - i) % m]]
        pi, ps = location[src]
        out.append(((location[tgt][1] - ps) % len(sch.polygons[pi]), sch.rank[tgt]))
        src = partner[tgt]
    return out


def _cmp(a, b):
    return (a > b) - (a < b)


def brute_linked(items):
    """(run ends, length-zero runs) over every pair of points and of chords.

    Pairs are taken between the two items, or within the one item.
    """
    sch = items[0].scheme
    partner, location = sch.partner, sch.location
    # distinct rays of closed curves differ within this many steps (Fine and Wilf)
    length = 2 * sum(len(x.tokens) for x in items) + 4
    sides = {}
    chords = {}
    for owner, x in enumerate(items):
        toks = x.tokens
        for k, t in enumerate(toks):
            fwd, bwd = _ray(x, k, True, length), _ray(x, k, False, length)
            sides.setdefault(partner[t], []).append((owner, fwd, bwd))
            sides.setdefault(t, []).append((owner, bwd, fwd))
            entry = partner[toks[k - 1]]
            chords.setdefault(location[t][0], []).append(
                (owner, location[entry][1], location[t][1])
            )

    def pairs(rows):
        for i, p in enumerate(rows):
            for q in rows[i + 1:]:
                if len(items) == 1 or p[0] != q[0]:
                    yield p, q

    ends = 0
    for rows in sides.values():
        for (_, here_p, there_p), (_, here_q, there_q) in pairs(rows):
            linked = _cmp(here_p, here_q) * _cmp(there_p, there_q) > 0
            ends += linked and here_p[0] != here_q[0]
    zero = 0
    for pi, rows in chords.items():
        n = len(sch.polygons[pi])
        for (_, a1, b1), (_, a2, b2) in pairs(rows):
            between = lambda s: 0 < (s - a1) % n < (b1 - a1) % n
            zero += len({a1, b1, a2, b2}) == 4 and between(a2) != between(b2)
    return ends, zero


def seeded_curves(seed, count):
    """Random primitive closed curves, most of them not simple, on several surfaces."""
    rng = random.Random(seed)
    schemes = [hexagon_scheme().build(), square_torus_scheme().build()] + [
        family_scenario(n).scheme for n in (2, 3)
    ]
    out = []
    while len(out) < count:
        sch = rng.choice(schemes)
        c = ClosedCurve(sch, random_word(sch, rng, rng.randint(1, 14)))
        if not c.is_null and c.primitive_root()[1] == 1:
            out.append(c)
    return out


class TestAgainstBruteForce:
    def test_self_counts(self):
        non_simple = 0
        for c in seeded_curves(1, 300):
            ends, zero = brute_linked((c,))
            assert ends % 2 == 0, c
            assert self_crossings(c) == ends // 2 + zero, c
            assert is_simple(c) == (ends + zero == 0), c
            non_simple += ends + zero > 0
            # a parallel copy's rays tie with the curve's, and ties are never linked
            for w in (c.reversed(), ClosedCurve(c.scheme, c.tokens[1:] + c.tokens[:1])):
                ends, zero = brute_linked((c, w))
                assert curves._linked_crossings((c, w)) == ends // 2 + zero, (c, w)
        assert non_simple > 150

    def test_pair_counts(self):
        rng = random.Random(2)
        pool = seeded_curves(2, 240)
        crossing = 0
        for u in pool:
            v = rng.choice([w for w in pool if w.scheme is u.scheme])
            if u.canonical(oriented=False) == v.canonical(oriented=False):
                continue
            for w in (v, v.reversed()):
                ends, zero = brute_linked((u, w))
                assert ends % 2 == 0, (u, w)
                assert curves._linked_crossings((u, w)) == ends // 2 + zero, (u, w)
                crossing += ends + zero > 0
        assert crossing > 200

    def test_twist_images(self):
        # long simple curves, where most crossings sit on long shared runs
        sc = get_scenario("negative-modification")
        names = sorted(sc.curves)
        rng = random.Random(3)
        for _ in range(40):
            word = TwistWord(tuple(
                (sc.curves[rng.choice(names)], rng.choice((1, -1))) for _ in range(3)
            ))
            x = word.apply(sc.curves[rng.choice(names)])
            c = sc.curves[rng.choice(names)]
            assert brute_linked((x,)) == (0, 0)
            if x.canonical(oriented=False) != c.canonical(oriented=False):
                ends, zero = brute_linked((x, c))
                assert geometric_intersection(x, c) == ends // 2 + zero

    @pytest.mark.parametrize("n", [8, 16])
    def test_large_family_members(self, n):
        # words on four edges of a large polygon: a side sees many first
        # steps, so its sweep finishes many groups
        sc = family_scenario(n)
        sch = sc.scheme
        rng = random.Random(n)
        edges = rng.sample(sorted(s for s, _ in sch.glued_classes), 4)
        slots = edges + [sch.partner[s] for s in edges]
        pool = []
        while len(pool) < 24:
            c = ClosedCurve(sch, [rng.choice(slots) for _ in range(rng.randint(6, 24))])
            if not c.is_null and c.primitive_root()[1] == 1:
                pool.append(c)
        non_simple = 0
        for c in pool:
            ends, zero = brute_linked((c,))
            assert self_crossings(c) == ends // 2 + zero, c
            assert is_simple(c) == (ends + zero == 0), c
            non_simple += ends + zero > 0
        assert non_simple > 12
        firsts = {}
        for c in pool:
            fwd, bwd = curves._ray_steps(c)
            # the forward ray from point k leaves partner(tokens[k]), the backward one tokens[k]
            for t, f, b in zip(c.tokens, fwd, bwd):
                firsts.setdefault((id(c), sch.partner[t]), set()).add(f)
                firsts.setdefault((id(c), t), set()).add(b)
        assert max(map(len, firsts.values())) >= 5

        # the scenario's curves of one or two tokens on those edges, against
        # the longer words, first and second
        short = [c for c in sc.curves.values() if set(map(sch.primary, c.tokens)) & set(edges)]
        assert len(short) >= 3
        crossed = []
        for u in pool:
            for c in rng.sample(short, 3) + rng.sample(pool, 2):
                if u.canonical(oriented=False) == c.canonical(oriented=False):
                    continue
                for w in (c, c.reversed()):
                    ends, zero = brute_linked((u, w))
                    assert curves._linked_crossings((u, w)) == ends // 2 + zero, (u, w)
                    assert curves._linked_crossings((w, u)) == ends // 2 + zero, (w, u)
                    if ends + zero and c in short:
                        crossed.append((u, c))
        assert len(crossed) > 20

        # T_c^k(x) runs along c k times, so c's rays tie with its rays
        for x, c in rng.sample(crossed, 3):
            for k in (1, 2, 5, 8):
                y = dehn_twist(x, c, k)
                for w in (c, c.reversed()):
                    ends, zero = brute_linked((y, w))
                    assert curves._linked_crossings((y, w)) == ends // 2 + zero, (y, w)
                    assert curves._linked_crossings((w, y)) == ends // 2 + zero, (w, y)


# -- simplicity from the chord arrangement ---------------------------------


class TestSimplicity:
    def test_against_the_self_count(self):
        # random words, most of them not simple, and simple twist images c
        # with their powers, reverses and products on families 1-4; every
        # verdict is taken on a fresh curve, with nothing kept on it
        rng = random.Random(14)
        scenarios = [family_scenario(n) for n in (1, 2, 3, 4)]
        verdicts = {True: 0, False: 0}
        for _ in range(400):
            sc = rng.choice(scenarios)
            sch = sc.scheme
            names = sorted(sc.curves)
            word = TwistWord(tuple(
                (sc.curves[rng.choice(names)], rng.choice((1, -1)))
                for _ in range(rng.randint(0, 3))
            ))
            c = word.apply(sc.curves[rng.choice(names)])
            y = ClosedCurve(sch, random_word(sch, rng, rng.randint(1, 16)))
            other = sc.curves[rng.choice(names)]
            for tokens in (
                y.tokens,
                c.tokens,
                c.reversed().tokens,
                c.tokens * rng.randint(2, 3),
                c.tokens + y.tokens,
                c.tokens + other.tokens,
                c.tokens + c.reversed().tokens,
                dehn_twist(y, c, rng.choice((-2, -1, 1, 2))).tokens,
            ):
                x = ClosedCurve(sch, tokens)
                if x.is_null:
                    continue
                expected = simple_by_self_count(x)
                assert is_simple(ClosedCurve(sch, tokens)) == expected, x
                verdicts[expected] += 1
        assert min(verdicts.values()) > 1000, verdicts


# -- seeded properties on the family members -------------------------------

MAX_TOKENS = 60


@st.composite
def simple_pairs(draw):
    """(scenario, a, b): images of two of its cycles under one short twist word."""
    sc = family_scenario(draw(st.integers(1, 3)))
    names = sorted(sc.curves)
    steps = draw(st.lists(
        st.tuples(st.sampled_from(names), st.sampled_from((1, -1))), min_size=0, max_size=3,
    ))
    word = TwistWord(tuple((sc.curves[n], p) for n, p in steps))
    a, b = (word.apply(sc.curves[draw(st.sampled_from(names))]) for _ in range(2))
    return sc, a, b


PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)


class TestFamilyProperties:
    @PROPERTY
    @given(pair=simple_pairs(), k=st.sampled_from((-2, -1, 1, 2)))
    def test_twist_power_formula(self, pair, k):
        # Farb and Margalit, Prop. 3.2: i(T_a^k b, b) = |k| i(a, b)^2
        _, a, b = pair
        if len(a.tokens) + len(b.tokens) > MAX_TOKENS:
            return
        i = geometric_intersection(a, b)
        assert geometric_intersection(dehn_twist(b, a, k), b) == abs(k) * i * i

    @PROPERTY
    @given(pair=simple_pairs())
    def test_symmetry_parity_and_rotation(self, pair):
        sc, a, b = pair
        if len(a.tokens) + len(b.tokens) > MAX_TOKENS:
            return
        i = geometric_intersection(a, b)
        assert i == geometric_intersection(b, a) == geometric_intersection(a, b.reversed())
        alg = algebraic_intersection(a, b)
        assert abs(alg) <= i and (i - alg) % 2 == 0
        ra, rb = relabel_curve(sc.rho, a), relabel_curve(sc.rho, b)
        assert geometric_intersection(ra, rb) == i
        assert is_simple(a) and is_simple(ra)

    @PROPERTY
    @given(pair=simple_pairs(), k=st.sampled_from((-1, 1, 2)))
    def test_twist_inverse_and_invariance(self, pair, k):
        sc, a, b = pair
        if len(a.tokens) + len(b.tokens) > MAX_TOKENS:
            return
        c = sc.curves["C"]
        assert dehn_twist(dehn_twist(b, a, k), a, -k) == b
        # a mapping class preserves intersection numbers
        i = geometric_intersection(a, b)
        assert geometric_intersection(dehn_twist(a, c, k), dehn_twist(b, c, k)) == i

    @PROPERTY
    @given(pair=simple_pairs())
    def test_braid_and_commuting_relations(self, pair):
        sc, a, b = pair
        if len(a.tokens) + len(b.tokens) > MAX_TOKENS // 2:
            return
        i = geometric_intersection(a, b)
        tests = [sc.curves["C"], sc.curves["C1"], a, b]
        if i == 1:
            # T_a T_b T_a = T_b T_a T_b
            aba = TwistWord(((a, 1), (b, 1), (a, 1)))
            bab = TwistWord(((b, 1), (a, 1), (b, 1)))
            assert all(aba.apply(x) == bab.apply(x) for x in tests)
        elif i == 0:
            ab = TwistWord(((a, 1), (b, 1)))
            ba = TwistWord(((b, 1), (a, 1)))
            assert all(ab.apply(x) == ba.apply(x) for x in tests)

    @PROPERTY
    @given(n=st.integers(1, 3), length=st.integers(2, 12), seed=st.integers(0, 10**6),
           twist=st.sampled_from(("C", "C1", "C2")), k=st.sampled_from((-1, 1)))
    def test_self_count_is_a_mapping_class_invariant(self, n, length, seed, twist, k):
        sc = family_scenario(n)
        x = ClosedCurve(sc.scheme, random_word(sc.scheme, random.Random(seed), length))
        if x.is_null or x.primitive_root()[1] != 1:
            return
        count = self_crossings(x)
        assert self_crossings(dehn_twist(x, sc.curves[twist], k)) == count
        assert self_crossings(relabel_curve(sc.rho, x)) == count


# -- taut rows against linked runs -------------------------------------------


class TestTautRowCounts:
    def test_against_linked_runs(self):
        # simple curves c from short twist words, each against random words,
        # its powers and reverse, and twists along it, in both orders
        rng = random.Random(9)
        scenarios = [family_scenario(n) for n in (1, 2, 3)]
        shorter_simple = {True: 0, False: 0}
        parallel = 0
        for _ in range(200):
            sc = rng.choice(scenarios)
            sch = sc.scheme
            names = sorted(sc.curves)
            word = TwistWord(tuple(
                (sc.curves[rng.choice(names)], rng.choice((1, -1)))
                for _ in range(rng.randint(0, 3))
            ))
            c = word.apply(sc.curves[rng.choice(names)])
            y = ClosedCurve(sch, random_word(sch, rng, rng.randint(1, 14)))
            k = rng.choice((-2, -1, 1, 2))
            xs = [
                y,
                ClosedCurve(sch, random_word(sch, rng, rng.randint(2, 6))),
                ClosedCurve(sch, c.tokens * rng.randint(1, 3)),
                c.reversed(),
                dehn_twist(y, c, k),
                dehn_twist(sc.curves[rng.choice(names)], c, k),
            ]
            for x in xs:
                for u, v in ((x, c), (c, x)):
                    assert geometric_intersection(u, v) == linked_intersection(u, v), (u, v)
                if x.is_null:
                    continue
                rx, rc = x.primitive_root()[0], c.primitive_root()[0]
                if rx.canonical(oriented=False) == rc.canonical(oriented=False):
                    parallel += 1
                else:
                    shorter = rx if len(rx.tokens) < len(rc.tokens) else rc
                    shorter_simple[is_simple(shorter)] += 1
        assert parallel > 200
        assert min(shorter_simple.values()) > 40, shorter_simple


# -- signed counts -----------------------------------------------------------


def config_signs(u, v):
    """The signed count of ``u`` against ``v`` on a fresh two-curve configuration."""
    return sum(s for _, _, s in TautConfig(u.scheme, {"u": u, "v": v}).crossings("u", "v"))


class TestAlgebraicIntersection:
    def test_against_a_configuration(self):
        # seeded pairs on one scheme, each in both orders: a simple curve
        # from a short twist word against random words, its powers and
        # twists along it, and pairs of random words
        rng = random.Random(12)
        scenarios = [family_scenario(n) for n in (1, 2, 3)]
        which = Counter()
        for _ in range(150):
            sc = rng.choice(scenarios)
            sch = sc.scheme
            names = sorted(sc.curves)
            word = TwistWord(tuple(
                (sc.curves[rng.choice(names)], rng.choice((1, -1)))
                for _ in range(rng.randint(0, 3))
            ))
            c = word.apply(sc.curves[rng.choice(names)])
            y = ClosedCurve(sch, random_word(sch, rng, rng.randint(1, 14)))
            pairs = [
                (y, c),
                (ClosedCurve(sch, c.tokens * rng.randint(2, 3)), y),
                (dehn_twist(y, c, rng.choice((-1, 1))), c),
                (y, ClosedCurve(sch, random_word(sch, rng, rng.randint(1, 14)))),
            ]
            for u, v in pairs:
                for a, b in ((u, v), (v, u)):
                    assert algebraic_intersection(a, b) == config_signs(a, b), (a, b)
                    shorter, longer = sorted((a, b), key=lambda z: len(z.tokens))
                    which[is_simple(shorter), is_simple(longer)] += 1
        # every branch: the shorter curve simple, only the longer, neither
        assert min(which[True, False], which[False, True], which[False, False]) > 20, which

    def test_long_word_against_a_simple_curve(self, builds):
        # the configuration of T_c^2(C3), 46,168 tokens, and c took 1.6 s;
        # twisting along c keeps the pairing with c
        sc, c = _rung(4)
        x = dehn_twist(sc.curves["C3"], c, 2)
        assert len(x.tokens) == 46168
        form = intersection_form(x.scheme)
        del builds[:]
        start = time.perf_counter()
        alg = algebraic_intersection(x, c)
        assert time.perf_counter() - start < 0.5
        assert alg == algebraic_intersection(sc.curves["C3"], c)
        assert alg == pair_homology(form, x.homology(), c.homology())
        assert algebraic_intersection(c, x) == -alg
        assert abs(alg) <= geometric_intersection(x, c) == 171
        assert builds == []


# -- cost ---------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _ladder():
    sc = get_scenario("negative-modification")
    rungs = [sc.curves["C2"]]
    for _ in range(9):
        rungs.append(dehn_twist(dehn_twist(rungs[-1], sc.curves["C1"], -1), sc.curves["C"], 1))
    return sc, rungs


def _rung(k):
    """(T_C T_C1^-1)^k (C2) on the hexagon, as a fresh curve with nothing kept on it."""
    sc, rungs = _ladder()
    return sc, ClosedCurve(sc.scheme, rungs[k].tokens)


@functools.lru_cache(maxsize=None)
def _long_words():
    """The ninth ladder images of (0, 1, 2) and (0, 1, 5), and those two words."""
    sc, _ = _ladder()
    short = [(0, 1, 2), (0, 1, 5)]
    long = []
    for w in short:
        z = ClosedCurve(sc.scheme, w)
        for _ in range(9):
            z = dehn_twist(dehn_twist(z, sc.curves["C1"], -1), sc.curves["C"], 1)
        long.append(z.tokens)
    return sc, short, long


def _long_pair():
    """Two fresh long curves, neither simple, with nothing kept on them, and their short seeds."""
    sc, short, long = _long_words()
    return [ClosedCurve(sc.scheme, w) for w in long], [ClosedCurve(sc.scheme, w) for w in short]


@pytest.fixture
def ranked(monkeypatch):
    """The first steps of every ray ranking while the test runs.

    ``_ray_ranks`` ends its steps with one for the end of an arc's ray;
    it is dropped, so one curve ranked alone records its ``fwd + bwd``.
    """
    seen = []
    rank = curves._rank_rays

    def counting(steps, nxt):
        seen.append(steps[:-1])
        return rank(steps, nxt)

    monkeypatch.setattr(curves, "_rank_rays", counting)
    return seen


class TestCost:
    def test_long_rung(self):
        # the all-pairs chord test took 32.6 s for is_simple on this rung
        sc, x = _rung(9)
        assert len(x.tokens) == 16492
        start = time.perf_counter()
        assert is_simple(x)
        took = time.perf_counter() - start
        assert took < 2.0, f"is_simple: {took:.3f} s at {len(x.tokens)} tokens"
        c1 = sc.curves["C1"]
        start = time.perf_counter()
        i = geometric_intersection(x, c1)
        took = time.perf_counter() - start
        assert took < 2.0, f"i(x, C1): {took:.3f} s at {len(x.tokens)} tokens"
        alg = algebraic_intersection(x, c1)
        assert abs(alg) <= i and (i - alg) % 2 == 0

    def test_two_fresh_long_curves(self):
        # the shorter curve is ranked for its crossing data, and the longer
        # is read once against it; ranking the two together took 0.12 s and 0.6 s
        sc, x = _rung(8)
        assert len(x.tokens) == 6300
        c3 = sc.curves["C3"]
        y = dehn_twist(x, c3)
        start = time.perf_counter()
        z = _rung(7)[1]
        assert geometric_intersection(x, z) == 11
        took = time.perf_counter() - start
        assert took < 2.0, f"{took:.3f} s at {len(x.tokens)} and {len(z.tokens)} tokens"
        x, y = _rung(8)[1], ClosedCurve(sc.scheme, y.tokens)
        start = time.perf_counter()
        i = geometric_intersection(x, y)
        took = time.perf_counter() - start
        assert took < 2.0, f"{took:.3f} s at {len(x.tokens)} and {len(y.tokens)} tokens"
        # Farb and Margalit, Prop. 3.2
        assert i == geometric_intersection(x, c3) ** 2

    def test_long_word_against_a_simple_curve(self, ranked):
        # T_c^2(C3) runs beside c for most of its 46,168 tokens; ranking its
        # rays for the linked-run count took 0.61-0.70 s
        sc, c = _rung(4)
        x = dehn_twist(sc.curves["C3"], c, 2)
        assert (len(c.tokens), len(x.tokens)) == (135, 46168)
        start = time.perf_counter()
        assert geometric_intersection(x, c) == 171
        took = time.perf_counter() - start
        assert took < 0.5, f"{took:.3f} s at {len(x.tokens)} and {len(c.tokens)} tokens"
        assert geometric_intersection(c, x) == 171
        fwd, bwd = curves._ray_steps(x)
        assert ranked and fwd + bwd not in ranked

    def test_two_fresh_long_curves_neither_simple(self):
        # the shorter curve's trace finds it not simple in 0.01 s, and the
        # pair ranks its rays together and counts linked runs: 0.9-1.0 s
        # here; the ladder is a homeomorphism, so it keeps the count
        (u, v), short = _long_pair()
        assert (len(u.tokens), len(v.tokens)) == (25841, 18699)
        start = time.perf_counter()
        i = geometric_intersection(u, v)
        took = time.perf_counter() - start
        assert took < 2.0, f"{took:.3f} s at {len(u.tokens)} and {len(v.tokens)} tokens"
        assert not is_simple(v)
        assert i == linked_intersection(*short) == 4

    def test_long_simple_curve_against_a_longer_word(self):
        # the taut rows of a 6300-token simple curve take 0.12-0.17 s here;
        # looking up each chord among all of its chords in the polygon took
        # 5.5-6.0 s, and the linked-run count 0.27-0.41 s
        sc, x = _rung(8)
        y0 = ClosedCurve(sc.scheme, (0, 1, 5))
        y = dehn_twist(dehn_twist(y0, sc.curves["C1"], -1), sc.curves["C"], 1)
        short = y
        for _ in range(8):
            y = dehn_twist(dehn_twist(y, sc.curves["C1"], -1), sc.curves["C"], 1)
        y = ClosedCurve(sc.scheme, y.tokens)
        assert (len(x.tokens), len(y.tokens)) == (6300, 18699)
        start = time.perf_counter()
        i = geometric_intersection(y, x)
        took = time.perf_counter() - start
        assert took < 1.0, f"{took:.3f} s at {len(y.tokens)} and {len(x.tokens)} tokens"
        assert i == linked_intersection(short, sc.curves["C2"])

    def test_simplicity_of_a_long_word(self, ranked):
        # T_c^2(C3), 46,168 tokens: the linked-run self-count took 0.55-0.60
        # s; the trace takes 0.03-0.05 s
        sc, c = _rung(4)
        x = dehn_twist(sc.curves["C3"], c, 2)
        x = ClosedCurve(x.scheme, x.tokens)
        assert len(x.tokens) == 46168
        del ranked[:]
        start = time.perf_counter()
        assert is_simple(x)
        took = time.perf_counter() - start
        assert took < 0.25, f"{took:.3f} s at {len(x.tokens)} tokens"
        assert not is_simple(ClosedCurve(x.scheme, x.tokens * 2))
        assert ranked == []

    def test_count_keeps_little(self):
        # the kept ranks, rounds and dominance tables of this pair took 5.5
        # MB; the first steps, which every count reads, are kept apart
        (u, v), _ = _long_pair()
        curves._ray_steps(u)
        curves._ray_steps(v)
        tracemalloc.start()
        try:
            geometric_intersection(u, v)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 1_000_000


# -- builds ---------------------------------------------------------------


@pytest.fixture
def builds(monkeypatch):
    """The item names of every ``TautConfig`` built while the test runs."""
    seen = []
    init = TautConfig.__init__

    def counting(self, scheme, items):
        seen.append(sorted(items))
        init(self, scheme, items)

    monkeypatch.setattr(TautConfig, "__init__", counting)
    return seen


class TestBuilds:
    def test_counts_build_no_configuration(self, builds):
        sc = family_scenario(2)
        x = dehn_twist(sc.curves["C2"], sc.curves["C1"])
        del builds[:]
        for c in sc.curves.values():
            geometric_intersection(x, c)
        for y in seeded_curves(4, 20):
            is_simple(y)
        is_simple(ClosedCurve(x.scheme, x.tokens))
        assert builds == []

    def test_first_twist_along_a_fresh_curve_builds_nothing(self, builds, ranked):
        # c's simplicity is traced without ranks, and its crossing data
        # ranks its rays once
        sc = get_scenario("negative-modification")
        c = dehn_twist(sc.curves["C2"], sc.curves["C1"], 2)
        del builds[:]
        del ranked[:]
        dehn_twist(sc.curves["C3"], c)
        fwd, bwd = curves._ray_steps(c)
        assert builds == []
        assert ranked == [fwd + bwd]

    def test_each_curve_is_ranked_once(self, ranked):
        sc = get_scenario("negative-modification")
        a, b = sc.curves["C"], sc.curves["C1"]
        z = dehn_twist(dehn_twist(sc.curves["C3"], b, -1), a, 1)
        z = ClosedCurve(z.scheme, z.tokens)
        # the twists ranked a and b for their crossing data
        del ranked[:]

        def times_ranked(c):
            fwd, bwd = curves._ray_steps(c)
            return ranked.count(fwd + bwd)

        calls = [lambda: is_simple(z)] + [
            lambda u=u, v=v: geometric_intersection(u, v) for u, v in ((z, a), (z, b), (a, z))
        ]
        for call in calls:
            call()
        # is_simple ranks no rays, and z is the longer curve of each pair
        assert times_ranked(z) <= 1
        assert times_ranked(a) <= 1 and times_ranked(b) <= 1
        assert len(ranked) == times_ranked(z) + times_ranked(a) + times_ranked(b)
        del ranked[:]
        for call in calls:
            call()
        assert ranked == []

    def test_pair_after_simplicity_builds_no_table(self, ranked):
        # is_simple ranks no rays, and a pair whose shorter curve is simple
        # reads x once against that curve's crossing data, never ranking x
        sc, x = _rung(5)
        assert is_simple(x)
        for c in sc.curves.values():
            assert len(c.tokens) <= 2
            assert is_simple(c)
        assert ranked == []
        for c in sc.curves.values():
            assert geometric_intersection(x, c) == geometric_intersection(c, x)
        fwd, bwd = curves._ray_steps(x)
        assert ranked and fwd + bwd not in ranked

    def test_a_power_keeps_its_root(self, ranked):
        # the root of c^2 is found once and kept, so its crossing data is
        # built, and its rays ranked, on the first count only
        sc, c = _rung(4)
        y = dehn_twist(sc.curves["C3"], c)
        c2 = ClosedCurve(c.scheme, c.tokens * 2)
        root, power = c2.primitive_root()
        assert power == 2 and c2.primitive_root()[0] is root
        # the twist ranked c, whose word is the root's
        del ranked[:]
        fwd, bwd = curves._ray_steps(root)
        counts = [geometric_intersection(y, c2) for _ in range(3)]
        assert counts == [2 * geometric_intersection(y, c)] * 3
        assert ranked.count(fwd + bwd) == 1

    def test_curves_on_two_schemes_raise(self):
        # two builds of one scenario give two schemes, whose slots coincide
        sc, x = _rung(5)
        other = get_scenario("negative-modification")
        for c in other.curves.values():
            with pytest.raises(CurveError):
                geometric_intersection(x, c)
            with pytest.raises(CurveError):
                geometric_intersection(c, x)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_joining_pairs_have_no_bigons(self, name):
        # vertex joining smooths the configuration's crossings: with no
        # bigon among them, every smoothing is one of a taut crossing
        sc = get_scenario(name)
        for pair in sc.expected.get("joining", []):
            u, v = (sc.curves[p] for p in pair)
            for w in (v, v.reversed()):
                cfg = TautConfig(sc.scheme, {"u": u, "v": w})
                assert len(cfg.crossings("u", "v")) == geometric_intersection(u, w)
