"""Point placement: the edge order, crossing queries and their cost.

``ReferenceOrder`` is the pairwise ray comparator that ordered crossing
points along each edge before the key-based sort; the position table that
``render`` draws from must give exactly its order.  The ``reference_*``
functions are the twist and band slide code that read crossings off a
two-item position table (``helpers.chord_crossings``) before the crossing
table of ``curves.passage_crossings``.  The crossing table lists only the
crossings of a minimal position, where the position table may keep
bigons, so twists must agree with the references up to isotopy, and the
rows must count ``i(x, c)``.  ``reference_project`` runs the band-slide
search that projection across a round surgery ran before it took any
crossing with the cut curve as an obstruction: the two must agree.
"""

from bisect import bisect_right
import contextlib
import functools
from collections import defaultdict
import itertools
import random
import signal
import time
import tracemalloc

import pytest

from blfkit import (
    Anchor,
    Arc,
    ClosedCurve,
    TwistWord,
    algebraic_intersection,
    dehn_twist,
    hexagon_scheme,
    is_simple,
    project,
    round_surgery,
    square_torus_scheme,
)
from blfkit import Projection, curves, oracle, render, twists
from blfkit.curves import (
    insertion_words,
    intersection_form,
    passage_crossings,
)
from blfkit.errors import CurveError, NotSimpleError, ProjectionObstructedError
from blfkit.scenarios import SCENARIOS, family_scenario, get_scenario
from helpers import (
    chord_crossings,
    edge_order,
    linked_intersection,
    polygon_sizes,
    position_table,
    random_curve,
)

_STOP = ("stop",)


@contextlib.contextmanager
def deadline(seconds):
    """Fail the enclosed code with ``TimeoutError`` after ``seconds`` of wall time (SIGALRM)."""
    def expire(*_):
        raise TimeoutError(f"did not finish in {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class ReferenceOrder:
    """Crossing points along each edge, sorted with the pairwise comparator."""

    def __init__(self, items):
        self.items = items
        self.scheme = next(iter(items.values())).scheme
        self.index_decisions = 0
        self.full_ties = 0

    def _tokens(self, name):
        return self.items[name].tokens

    def _ray(self, name, k, forward):
        item = self.items[name]
        toks = item.tokens
        m = len(toks)
        partner = self.scheme.partner
        if isinstance(item, ClosedCurve):
            j = k
            while True:
                if forward:
                    j = (j + 1) % m
                    yield ("slot", toks[j])
                else:
                    yield ("slot", partner[toks[(j - 1) % m]])
                    j = (j - 1) % m
        else:
            j = k
            while True:
                if forward:
                    j += 1
                    if j >= m:
                        yield ("anchor", item.end.slot, item.end.index)
                        return
                    yield ("slot", toks[j])
                else:
                    if j == 0:
                        yield ("anchor", item.start.slot, item.start.index)
                        return
                    yield ("slot", partner[toks[j - 1]])
                    j -= 1

    def _ray_for_side(self, cp, side_slot):
        name, k = cp
        t = self._tokens(name)[k]
        if t == side_slot:
            return self._ray(name, k, forward=False)
        if self.scheme.partner[t] == side_slot:
            return self._ray(name, k, forward=True)
        raise CurveError("crossing point not on this edge")

    def _cmp_rays(self, cp1, cp2, side_slot):
        scheme = self.scheme
        g1 = self._ray_for_side(cp1, side_slot)
        g2 = self._ray_for_side(cp2, side_slot)
        poly = scheme.polygon_of(side_slot)
        source = side_slot
        cap = 2 * (len(self._tokens(cp1[0])) + len(self._tokens(cp2[0]))) + 4
        for _ in range(cap):
            a = next(g1, _STOP)
            b = next(g2, _STOP)
            if a == b:
                if a[0] != "slot":
                    return 0
                source = scheme.partner[a[1]]
                poly = scheme.polygon_of(source)
                continue
            size = len(scheme.polygons[poly])
            ka = (scheme.location[a[1]][1] - scheme.location[source][1]) % size
            kb = (scheme.location[b[1]][1] - scheme.location[source][1]) % size
            if ka != kb:
                return 1 if ka < kb else -1
            ia = a[2] if a[0] == "anchor" else None
            ib = b[2] if b[0] == "anchor" else None
            if ia is not None and ib is not None and ia != ib:
                self.index_decisions += 1
                return -1 if ia > ib else 1
            return 0
        return 0

    def _cmp_edge(self, e, cp1, cp2):
        if cp1 == cp2:
            return 0
        r = self._cmp_rays(cp1, cp2, e[0])
        if r:
            return r
        r = self._cmp_rays(cp1, cp2, e[1])
        if r:
            return -r
        self.full_ties += 1
        return -1 if cp1 < cp2 else 1

    def edge_order(self):
        scheme = self.scheme
        points = {}
        for name in sorted(self.items):
            for k, t in enumerate(self._tokens(name)):
                p = scheme.edge_of[t][0]
                points.setdefault((p, scheme.partner[p]), []).append((name, k))
        return {
            e: sorted(set(pts), key=functools.cmp_to_key(lambda p, q, e=e: self._cmp_edge(e, p, q)))
            for e, pts in points.items()
        }


def twist_images(sc, count, seed, max_steps):
    """Seeded images of a scenario's curves (and arc) under short twist words."""
    names = sorted(sc.curves)
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        word = TwistWord(tuple(
            (sc.curves[rng.choice(names)], rng.choice((1, -1)))
            for _ in range(rng.randint(1, max_steps))
        ))
        x = word.apply(sc.curves[rng.choice(names)])
        arc = word.apply(sc.arc) if sc.arc is not None else None
        out.append((word, x, arc, sc.curves[rng.choice(names)]))
    return out


def hexagon_configs():
    sc = get_scenario("negative-modification")
    out = []
    for word, x, arc, c in twist_images(sc, 25, seed=13, max_steps=3):
        out += [{"x": x}, {"c": c, "x": x}, {"a": arc, "c": c}, {"a": arc, "c": c, "x": x}]
    return out


def family_configs():
    out = []
    for n in (2, 3):
        sc = family_scenario(n)
        for _, x, _, c in twist_images(sc, 10, seed=n, max_steps=2):
            out += [{"x": x}, {"c": c, "x": x}]
    return out


def anchored_arc_configs():
    """Parallel arcs with ends on shared boundary slots, told apart by anchor index."""
    sc = get_scenario("negative-modification")
    h = sc.scheme
    out = []
    for word, _, _, c in twist_images(sc, 10, seed=21, max_steps=2):
        other = word.apply(Arc(h, Anchor("u0", 0), (), Anchor("u3", 0)))
        for (s0, s1), (t0, t1) in (((0, 1), (0, 1)), ((0, 1), (1, 0)), ((2, 0), (-1, 3))):
            a = word.apply(Arc(h, Anchor("u1", s0), (), Anchor("u2", t0)))
            b = word.apply(Arc(h, Anchor("u1", s1), (), Anchor("u2", t1)))
            out += [{"a": a, "b": b}, {"a": a, "b": b, "c": c, "d": other}]
    return out


def parallel_copy_configs():
    """T_c^k x beside c, and curves beside copies of themselves."""
    sc = get_scenario("negative-modification")
    out = []
    for cn in sorted(sc.curves):
        c = sc.curves[cn]
        for xn in sorted(sc.curves):
            for k in range(1, 9):
                x = dehn_twist(sc.curves[xn], c, k if k % 2 else -k)
                out += [{"c": c, "x": x}, {"x": x, "y": c, "z": c}]
    c1 = sc.curves["C1"]
    out.append({"c": c1, "d": c1, "e": c1.reversed()})
    return out


class TestEdgeOrderMatchesComparator:
    @pytest.mark.parametrize("configs, branch", [
        (hexagon_configs, None),
        (family_configs, None),
        (anchored_arc_configs, "index_decisions"),
        (parallel_copy_configs, "full_ties"),
    ])
    def test_same_order(self, configs, branch):
        reached = 0
        for items in configs():
            ref = ReferenceOrder(items)
            assert edge_order(items, position_table(items)) == ref.edge_order(), items
            reached += getattr(ref, branch) if branch else 0
        # the inputs reach the comparator's anchor-index and full-tie branches
        assert branch is None or reached > 0


def _polygon_points(table):
    """Positions of every passage endpoint, by polygon."""
    points = defaultdict(list)
    for chords in table.chords.values():
        for pi, a, b in chords:
            points[pi] += [a, b]
    return points


def brute_crossings(table, name1, name2):
    """Every pair of passages tested as chords of a circle of points."""
    sizes = {pi: len(pts) for pi, pts in _polygon_points(table).items()}
    out = []
    for i, (pi, a1, b1) in enumerate(table.chords[name1]):
        for j, (pj, a2, b2) in enumerate(table.chords[name2]):
            if pi != pj or (name1 == name2 and j <= i):
                continue
            n = sizes[pi]
            between = lambda x: 0 < (x - a1) % n < (b1 - a1) % n
            if len({a1, b1, a2, b2}) == 4 and between(a2) != between(b2):
                out.append((i, j, 1 if between(a2) else -1))
    return sorted(out)


def brute_on_passage(table, x_name, k, c_name):
    """Crossings of passage k of x with c, by distance of c's near end from x's entry."""
    pi, ax, _ = table.chords[x_name][k]
    n = len(_polygon_points(table)[pi])
    found = []
    for kx, kc, sign in brute_crossings(table, x_name, c_name):
        if kx == k:
            _, ca, cb = table.chords[c_name][kc]
            near = ca if sign > 0 else cb
            found.append(((near - ax) % n, kc, sign))
    return [(kc, sign) for _, kc, sign in sorted(found)]


def assert_taut_rows(x, c, rows, brute=None):
    """Rows of ``passage_crossings(x, c)`` against invariants of the pair.

    A closed ``x`` has ``i(x, c)`` rows, counted from linked runs
    (``linked_intersection``), none when its primitive root is ``c`` up
    to orientation.  Its rows, or an arc's, are no more than ``brute``,
    the position table's crossings of it with ``c`` (each ending in its
    sign), and have the same sum of signs, which is invariant (rel
    endpoints for an arc): for a closed ``x``, ``algebraic_intersection``,
    which reads neither the rows nor a position table.
    """
    count = sum(map(len, rows))
    signs = sum(sign for row in rows for _, sign in row)
    if brute is None:
        brute = chord_crossings(position_table({"c": c, "x": x}), "x", "c")
    if isinstance(x, ClosedCurve):
        assert count == linked_intersection(x, c), (x, c)
        assert signs == algebraic_intersection(x, c), (x, c)
    assert count <= len(brute), (x, c)
    assert signs == sum(sign for *_, sign in brute), (x, c)


def assert_isotopic(got, want):
    """Equal oriented canonical forms for closed images, equal words rel endpoints for arcs."""
    if isinstance(want, ClosedCurve):
        assert isinstance(got, ClosedCurve) and got.canonical() == want.canonical(), (got, want)
    else:
        # an arc's reduced word is a complete invariant rel endpoints
        assert (got.start, got.tokens, got.end) == (want.start, want.tokens, want.end), (got, want)


class TestCrossingQueries:
    def configs(self):
        return hexagon_configs()[:40] + family_configs()[:12] + anchored_arc_configs()[:8]

    def test_positions_are_a_permutation(self):
        # the chords' ends, and the points of the slots read round each
        # polygon, are its positions in counterclockwise order
        for items in self.configs():
            table = position_table(items)
            ends = _polygon_points(table)
            for pi, poly in enumerate(next(iter(items.values())).scheme.polygons):
                pts = ends.get(pi, [])
                assert sorted(pts) == list(range(len(pts)))
                assert [p for s in poly for p in table.slots[s]] == list(range(len(pts)))

    def test_crossings_match_all_pairs(self):
        total = 0
        for items in self.configs():
            table = position_table(items)
            for a in sorted(items):
                for b in sorted(items):
                    got = chord_crossings(table, a, b)
                    assert got == brute_crossings(table, a, b), (items, a, b)
                    total += len(got)
        assert total > 100

    def test_passage_crossings_match_all_pairs(self):
        # the rows are the crossings of a minimal position, where the
        # position table's order may keep bigons
        checked = 0
        for items in self.configs() + parallel_copy_configs():
            if "c" not in items:
                continue
            table = position_table(items)
            c = items["c"]
            for x_name in sorted(items):
                if x_name == "c":
                    continue
                x = items[x_name]
                with deadline(2.0):
                    got = passage_crossings(x, c)
                assert len(got) == len(table.chords[x_name])
                brute = [
                    pair for k in range(len(got)) for pair in brute_on_passage(table, x_name, k, "c")
                ]
                assert_taut_rows(x, c, got, brute)
                checked += 1
        assert checked > 150


def ladder_rung(start, rungs):
    """(T_C T_C1^-1)^rungs applied to a curve of the negative modification."""
    sc = get_scenario("negative-modification")
    x = sc.curves[start]
    for _ in range(rungs):
        x = dehn_twist(dehn_twist(x, sc.curves["C1"], -1), sc.curves["C"], 1)
    return sc, x


def reference_on_passage(table, sizes, x_name, k, c_name):
    """The crossings of passage k of x with c read off a position table, as
    before the crossing table; ``sizes`` are the table's ``polygon_sizes``."""
    pi, ax, bx = table.chords[x_name][k]
    n = sizes[pi]
    span = (bx - ax) % n
    found = []
    for j, (pj, a, b) in enumerate(table.chords[c_name]):
        if pj != pi:
            continue
        da, db = (a - ax) % n, (b - ax) % n
        inside = 0 < da < span
        if inside != (0 < db < span):
            found.append((da if inside else db, j, 1 if inside else -1))
    found.sort()
    return [(j, s) for _, j, s in found]


def reference_insertion(c, kc, direction):
    """``twists._insertion``, which the kept insertion words replaced."""
    rot = list(c.tokens[kc:] + c.tokens[:kc])
    if direction > 0:
        return rot
    partner = c.scheme.partner
    return [partner[t] for t in reversed(rot)]


def reference_insert_copies(x, c, copies):
    """The insertion primitive as it read crossings off a two-item position table."""
    table = position_table({"c": c, "x": x})
    sizes = polygon_sizes(table)
    closed = isinstance(x, ClosedCurve)
    m = len(x.tokens)
    new_tokens = []
    for k in range(m if closed else m + 1):
        for kc, sign in reference_on_passage(table, sizes, "x", k, "c"):
            n = copies(k, kc, sign)
            if n:
                new_tokens.extend(reference_insertion(c, kc, n) * abs(n))
        if k < m:
            new_tokens.append(x.tokens[k])
    if closed:
        return ClosedCurve(x.scheme, new_tokens)
    return Arc(x.scheme, x.start, new_tokens, x.end)


def reference_twist(x, c, power):
    if isinstance(x, ClosedCurve) and x.is_null:
        return x
    return reference_insert_copies(x, c, lambda k, kc, sign: sign * power)


def reference_resolve_bands(sr, item):
    c = sr.curve
    scheme = sr.original
    slides = 0
    for _ in range(4 * (len(item.tokens) + 2)):
        crossings = chord_crossings(position_table({"c": c, "x": item}), "x", "c")
        if not crossings:
            return item, slides
        count = len(crossings)
        best = None
        k, kc, _ = crossings[0]
        for direction in (1, -1):
            cand = reference_insert_copies(
                item, c, lambda i, j, _s: direction if (i, j) == (k, kc) else 0
            )
            ccount = len(chord_crossings(position_table({"c": c, "x": cand}), "x", "c"))
            if ccount < count and (best is None or ccount < best[0]):
                best = (ccount, cand)
        if best is None:
            raise ProjectionObstructedError(
                "no band slide reduces the crossings with the cut curve"
            )
        item = best[1]
        slides += 1
    raise ProjectionObstructedError("band resolution did not terminate")


def reference_project(sr, item):
    """``surgery.project`` as it ran the band-slide search before deleting cut tokens."""
    item, band = reference_resolve_bands(sr, item)
    x, xbar = sr.cut_slots
    kept = [t for t in item.tokens if t not in (x, xbar)]
    caps = len(item.tokens) - len(kept)
    try:
        if isinstance(item, ClosedCurve):
            new = ClosedCurve(sr.scheme, kept)
        else:
            new = Arc(sr.scheme, item.start, kept, item.end)
    except Exception as exc:
        raise ProjectionObstructedError(
            f"projected word is not valid on the surgered surface: {exc}"
        ) from exc
    return Projection(new, band + caps, caps)


def twist_inputs():
    """(x, c) pairs: seeded twist images on the hexagon and on family members
    2-4, every scenario's arc against every curve, and T_c^k x beside c."""
    out = []
    sc = get_scenario("negative-modification")
    for _, x, arc, c in twist_images(sc, 40, seed=31, max_steps=4):
        out += [(x, c), (arc, c)]
    for n in (2, 3, 4):
        fam = family_scenario(n)
        arc = Arc(fam.scheme, Anchor("u1"), (), Anchor("u2"))
        for word, x, _, c in twist_images(fam, 12, seed=40 + n, max_steps=3):
            out += [(x, c), (word.apply(arc), c)]
    for name in SCENARIOS:
        sc = get_scenario(name)
        if sc.arc is not None:
            out += [(sc.arc, c) for c in sc.curves.values()]
    for item in parallel_copy_configs():
        if set(item) == {"c", "x"}:
            out.append((item["x"], item["c"]))
    return out


def _projection_or_error(sr, item, project=project):
    try:
        p = project(sr, item)
    except ProjectionObstructedError as exc:
        return str(exc)
    return p.item.tokens, p.slide_count, p.cap_slides


def short_words(partner, length):
    """Every reduced linear word of at most ``length`` tokens."""
    out = frontier = [()]
    for _ in range(length):
        frontier = [w + (t,) for w in frontier for t in partner if not w or t != partner[w[-1]]]
        out = out + frontier
    return out


def noncrossing_chords(points, rng):
    """A random pairing of ``points`` (even in number) by chords that do not cross."""
    if not points:
        return []
    k = rng.randrange(1, len(points), 2)
    return ([(points[0], points[k])] + noncrossing_chords(points[1:k], rng)
            + noncrossing_chords(points[k + 1:], rng))


def scanned_chord_crossings(n, chords, a, b):
    """The lookup of ``curves._ChordTable`` by a scan of every chord of the polygon."""
    span = (b - a) % n if n else 0
    hits = []
    for j, ca, cb in chords:
        da, db = (ca - a) % n, (cb - a) % n
        inside = da < span
        if inside != (db < span):
            hits.append((da if inside else db, j, 1 if inside else -1))
    return tuple((j, sign) for _, j, sign in sorted(hits))


class TestCrossingTable:
    def test_twists_match_configuration(self):
        for x, c in twist_inputs():
            assert_taut_rows(x, c, passage_crossings(x, c))
            for power in (1, -1, 2):
                assert_isotopic(dehn_twist(x, c, power), reference_twist(x, c, power))

    def test_chord_lookup_matches_scan(self):
        # every chord between two of n points, round past point 0 or not,
        # against simple curves' chords in random nestings and directions
        rng = random.Random(3)
        for _ in range(400):
            n = 2 * rng.randint(0, 10)
            chords = [
                (j, *(pair if rng.random() < 0.5 else pair[::-1]))
                for j, pair in enumerate(noncrossing_chords(list(range(n)), rng))
            ]
            rng.shuffle(chords)
            table = curves._ChordTable([n], {0: chords})
            for a in range(n + 1):
                for b in range(n + 1):
                    assert table[0, a, b] == scanned_chord_crossings(n, chords, a, b), (chords, a, b)

    def test_long_twists_match_configuration(self):
        sc = get_scenario("negative-modification")
        x = sc.curves["C2"]
        for _ in range(8):
            for c, power in ((sc.curves["C1"], -1), (sc.curves["C"], 1)):
                y = dehn_twist(x, c, power)
                assert y.tokens == reference_twist(x, c, power).tokens
                x = y
        assert len(x.tokens) == 6300

    def test_projections_match_configuration(self):
        obstructed = projected = 0
        for name in ("negative-modification", "positive-modification"):
            sc = get_scenario(name)
            sr = round_surgery(sc.scheme, sc.curves[sc.surgery_name])
            items = [sc.monodromy.apply(sc.arc)]
            for _, x, arc, _ in twist_images(sc, 30, seed=50, max_steps=3):
                items += [x, arc]
            got = [_projection_or_error(sr, item) for item in items]
            assert got == [_projection_or_error(sr, item, reference_project) for item in items]
            obstructed += sum(isinstance(g, str) for g in got)
            projected += sum(isinstance(g, tuple) for g in got)
        # crossing items try both slides at their first crossing and are
        # obstructed; the others project
        assert obstructed > 10 and projected > 10

    def test_projections_of_short_words_match_band_search(self):
        # every arc of at most 3 tokens (at 4 the reference takes about 8 s
        # on a 2-vCPU Xeon) and every closed curve of at most 5 tokens on
        # the hexagon cut along C
        h = hexagon_scheme().build()
        sr = round_surgery(h, ClosedCurve(h, (0,)))
        ends = h.boundary_slots
        items = [
            Arc(h, Anchor(a), w, Anchor(b, int(a == b)))
            for w in short_words(h.partner, 3) for a in ends for b in ends
        ]
        closed = {}
        for w in short_words(h.partner, 5):
            with contextlib.suppress(CurveError):
                c = ClosedCurve(h, w)
                if not c.is_null:
                    closed.setdefault(c.canonical(), c)
        items += closed.values()
        got = [_projection_or_error(sr, item) for item in items]
        assert got == [_projection_or_error(sr, item, reference_project) for item in items]
        # the search never completed a band slide: every item projects with
        # cap slides alone or is obstructed
        assert {g[1] - g[2] for g in got if isinstance(g, tuple)} == {0}
        assert len(items) == 7600 and sum(isinstance(g, str) for g in got) == 6552
        # against the one-token cut curve the listed crossings are taut
        primitive = [c for c in closed.values() if c.primitive_root()[1] == 1]
        assert len(primitive) == 832
        for c in primitive:
            assert sum(map(len, passage_crossings(c, sr.curve))) == linked_intersection(c, sr.curve), c

    def test_rays_that_agree_for_ever_end_the_walk(self):
        # a curve beside itself, reversed or repeated: c takes every step of
        # x, and the rays of c that x follows for ever count below x's, so x
        # runs beside c and crosses it nowhere
        sc = get_scenario("negative-modification")
        c = dehn_twist(sc.curves["C2"], sc.curves["C1"], 3)
        with deadline(2.0):
            for x in (c, c.reversed(), ClosedCurve(c.scheme, c.tokens * 3)):
                assert passage_crossings(x, c) == [()] * len(x.tokens)

    def test_no_build_after_the_first_twist(self, monkeypatch):
        sc = get_scenario("negative-modification")
        c1 = sc.curves["C1"]
        sr = round_surgery(sc.scheme, sc.curves[sc.surgery_name])
        arc = sc.monodromy.apply(sc.arc)
        first = dehn_twist(sc.curves["C2"], c1), project(sr, arc)
        builds = []
        place = render.position_table
        monkeypatch.setattr(render, "position_table", lambda *a: builds.append(a) or place(*a))
        assert (dehn_twist(sc.curves["C2"], c1), project(sr, arc)) == first
        assert dehn_twist(sc.curves["C3"], c1, -2) == dehn_twist(dehn_twist(sc.curves["C3"], c1, -1), c1, -1)
        assert builds == []


def reference_ray_steps(item):
    """``curves._ray_steps`` as it computed every step with a nested ``step``."""
    scheme = item.scheme
    partner, location, rank = scheme.partner, scheme.location, scheme.rank
    polygons = scheme.polygons
    width = len(rank)
    toks = item.tokens
    if isinstance(item, ClosedCurve):
        nexts = toks[1:] + toks[:1]
        prevs = [partner[t] for t in toks[-1:] + toks[:-1]]
    else:
        nexts = toks[1:] + (item.end.slot,)
        prevs = [item.start.slot] + [partner[t] for t in toks[:-1]]

    def step(s, t):
        pi, ps = location[s]
        return (location[t][1] - ps) % len(polygons[pi]) * width + rank[t] + 1

    return (
        [step(partner[s], t) for s, t in zip(toks, nexts)],
        [step(s, t) for s, t in zip(toks, prevs)],
    )


def random_items(sch, rng, count):
    """Seeded closed curves and arcs (anchor indices 0-3) of up to 20 tokens on ``sch``."""
    partner, location = sch.partner, sch.location
    glued = sorted(partner, key=sch.rank.get)
    boundary = sch.boundary_slots
    out = []
    while len(out) < count:
        start = rng.choice(boundary) if boundary and rng.random() < 0.5 else None
        here = location[start if start is not None else rng.choice(glued)][0]
        word = []
        for _ in range(rng.randint(0, 20)):
            t = rng.choice([t for t in glued if location[t][0] == here])
            word.append(t)
            here = location[partner[t]][0]
        try:
            if start is None:
                out.append(ClosedCurve(sch, word))
            else:
                ends = [b for b in boundary if location[b][0] == here]
                if ends:
                    out.append(Arc(sch, Anchor(start, rng.randint(0, 3)), word,
                                   Anchor(rng.choice(ends), rng.randint(0, 3))))
        except CurveError:
            pass  # a closed word whose ends lie in different polygons
    return out


def suite_twists(seed):
    """Every distinct (x, c) pair that ``run_agreement_suite(200, seed)`` twists.

    The suite runs from a cleared head table, so the pairs do not depend
    on the heads earlier runs filled, and the table it fills is dropped."""
    seen = {}
    twist = twists.dehn_twist

    def recording(x, c, power=1, **kwargs):
        seen.setdefault((x.tokens, c.tokens), (x, c))
        return twist(x, c, power, **kwargs)

    oracle._hexagon_fixture.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(twists, "dehn_twist", recording)
            oracle.run_agreement_suite(200, seed)
    finally:
        oracle._hexagon_fixture.cache_clear()
    return list(seen.values())


class TestTwistKernel:
    def test_steps_match_nested_step(self):
        rng = random.Random(17)
        hexagon = get_scenario("negative-modification")
        schemes = [hexagon.scheme, square_torus_scheme().build()] + [
            family_scenario(n).scheme for n in (2, 3, 4, 32)
        ] + [round_surgery(hexagon.scheme, hexagon.curves["C"]).scheme]
        arcs, indices = 0, set()
        for sch in schemes:
            for item in random_items(sch, rng, 60):
                assert curves._ray_steps(item) == reference_ray_steps(item), item
                if isinstance(item, Arc):
                    arcs += 1
                    indices.update((item.start.index, item.end.index))
        # the surgered scheme has two polygons
        assert len(schemes[-1].polygons) > 1
        assert arcs > 100 and indices == {0, 1, 2, 3}

    @pytest.mark.parametrize("seed", [0, 7])
    def test_suite_twists_match_configuration(self, seed):
        pairs = suite_twists(seed)
        assert len(pairs) > 400
        for x, c in pairs:
            for power in (1, -1, 2, -2):
                assert_isotopic(dehn_twist(x, c, power), reference_twist(x, c, power))


class TestCost:
    def test_long_word_twist(self):
        # the pairwise comparator took 1.7-3.3 s for this twist
        sc, x = ladder_rung("C2", 7)
        assert len(x.tokens) == 2407
        start = time.perf_counter()
        y = dehn_twist(x, sc.curves["C1"], -1)
        assert time.perf_counter() - start < 1.0
        assert len(y.tokens) == 4559

    def test_many_parallel_copies(self):
        # 50 copies of C1 run beside it: 3.5 s with the pairwise comparator
        sc, x = ladder_rung("C2", 3)
        c = sc.curves["C1"]
        z = dehn_twist(x, c, 50)
        assert len(z.tokens) == 2250
        start = time.perf_counter()
        table = render.position_table(sc.scheme, {"c": c, "x": z})
        assert time.perf_counter() - start < 0.5
        assert len(chord_crossings(table, "x", "c")) == len(chord_crossings(table, "c", "x"))


    def test_long_near_parallel_word(self):
        # T_c^2(C3) runs beside c for most of its 46,168 tokens: the
        # position table's order listed 34,219 crossings here, walking rays
        # with a memo that peaked at 121 MB under tracemalloc
        sc, c = ladder_rung("C2", 4)
        x = dehn_twist(sc.curves["C3"], c, 2)
        assert (len(c.tokens), len(x.tokens)) == (135, 46168)
        tracemalloc.start()
        try:
            rows = passage_crossings(x, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16_000_000
        start = time.perf_counter()
        assert passage_crossings(x, c) == rows
        assert time.perf_counter() - start < 1.0
        assert sum(map(len, rows)) == 171 == linked_intersection(x, c)


def shared_step_words(c, rng, count):
    """Closed words each of whose steps ``c`` or its reverse takes.

    Random walks on the pairs of consecutive tokens of ``c`` and of its
    reverse, closed when the last token may precede the first: powers of
    ``c`` and of its reverse, and pieces of the two glued where ``c``
    visits a token twice.
    """
    follow = {}
    for w in (c.tokens, c.reversed().tokens):
        for a, b in zip(w, w[1:] + w[:1]):
            follow.setdefault(a, set()).add(b)
    out = []
    for _ in range(count):
        word = [rng.choice(c.tokens)]
        for _ in range(rng.randint(1, 4 * len(c.tokens))):
            word.append(rng.choice(sorted(follow[word[-1]])))
            if word[0] in follow[word[-1]] and rng.random() < 0.2:
                out.append(ClosedCurve(c.scheme, word))
                break
    return out


def reference_rows(x, c):
    """``passage_crossings`` with x's points placed by ``_ray_ranks((c, x))``.

    Each point of ``x`` has below it the rays of ``c`` leaving the slot its
    forward ray leaves that are lower than that ray or equal to it, in the
    joint ranks; its two ends, and the crossings of x's chords, are then
    read from what ``c`` keeps, as ``passage_crossings`` reads them.
    """
    ranks, (_, base) = curves._ray_ranks((c, x))
    m = len(c.tokens)
    partner, location = c.scheme.partner, c.scheme.location
    leaving = {}
    for k, t in enumerate(c.tokens):
        leaving.setdefault(partner[t], []).append(ranks[k])
        leaving.setdefault(t, []).append(ranks[m + k])
    pairs, table, _ = curves._crossing_data(c)
    before = pairs.before
    exits, entries = [], []
    for k, t in enumerate(x.tokens):
        v = sum(r <= ranks[base + k] for r in leaving.get(partner[t], ()))
        exits.append(before(t) + v)
        entries.append(before(partner[t], bisect_right) - v)
    polys = [location[t][0] for t in x.tokens]
    if isinstance(x, ClosedCurve):
        entries = entries[-1:] + entries[:-1]
    else:
        entries.insert(0, before(x.start.slot))
        exits.append(before(x.end.slot))
        polys.append(location[x.end.slot][0])
    return [table[key] for key in zip(polys, entries, exits)]


class TestTautStress:
    def test_family_twists(self):
        # seeded simple curves c on family members 1-3, against random
        # closed words and their powers, arcs, T_c^k(y), and words all of
        # whose steps c takes; and c = T_a^k(b), winding k times round a,
        # against a
        rng = random.Random(23)
        pairs = []
        shared = 0
        for n in (1, 2, 3):
            fam = family_scenario(n)
            names = sorted(fam.curves)
            for _ in range(8):
                word = TwistWord(tuple(
                    (fam.curves[rng.choice(names)], rng.choice((1, -1)))
                    for _ in range(rng.randint(1, 3))
                ))
                c = word.apply(fam.curves[rng.choice(names)])
                ys = random_items(fam.scheme, rng, 6)
                xs = ys + [
                    ClosedCurve(y.scheme, y.tokens * rng.randint(2, 3))
                    for y in ys if isinstance(y, ClosedCurve) and not y.is_null
                ]
                xs += [dehn_twist(y, c, rng.choice((1, -1, 2))) for y in ys]
                walks = shared_step_words(c, rng, 6)
                parallel = c.canonical(oriented=False)
                shared += sum(w.primitive_root()[0].canonical(oriented=False) != parallel
                              for w in walks)
                pairs += [(x, c) for x in xs + walks]
            a, b = (fam.curves[name] for name in rng.sample(names, 2))
            c = dehn_twist(b, a, rng.choice((2, 3, -2, -3)))
            pairs += [(x, c) for x in (a, a.reversed(), ClosedCurve(a.scheme, a.tokens * 2))]
        for x, c in pairs:
            rows = passage_crossings(x, c)
            assert rows == reference_rows(x, c), (x, c)
            assert_taut_rows(x, c, rows)
            for power in (1, -2):
                assert_isotopic(dehn_twist(x, c, power), reference_twist(x, c, power))
        closed = sum(isinstance(x, ClosedCurve) for x, _ in pairs)
        assert closed > 250 and len(pairs) - closed > 100 and shared > 50


def fresh(x):
    """A copy of ``x`` with nothing kept on it."""
    if isinstance(x, ClosedCurve):
        return ClosedCurve(x.scheme, x.tokens)
    return Arc(x.scheme, x.start, x.tokens, x.end)


class TestPairTable:
    def test_rows_keep_their_references(self):
        # one entry of c's token-pair table per point of x: on families 1-3,
        # closed words and arcs, T_c^k(y), which runs beside c for long
        # stretches, and words each of whose steps c takes; and on the cut
        # hexagon, whose two polygons tell the entries' polygons apart
        rng = random.Random(43)
        pairs = []
        for n in (1, 2, 3):
            fam = family_scenario(n)
            names = sorted(fam.curves)
            for _ in range(4):
                word = TwistWord(tuple(
                    (fam.curves[rng.choice(names)], rng.choice((1, -1)))
                    for _ in range(rng.randint(1, 3))
                ))
                c = fresh(word.apply(fam.curves[rng.choice(names)]))
                ys = random_items(fam.scheme, rng, 8)
                near = [dehn_twist(y, c, rng.choice((2, 3, -2, -3))) for y in ys[:4]]
                walks = shared_step_words(c, rng, 4)
                powers = [ClosedCurve(c.scheme, c.tokens * 2), c.reversed()]
                pairs += [(x, c) for x in ys + near + walks + powers]
        hexagon = get_scenario("negative-modification")
        cut = round_surgery(hexagon.scheme, hexagon.curves["C"]).scheme
        c = ClosedCurve(cut, (1, 5))
        pairs += [(x, c) for x in random_items(cut, rng, 40)]
        closed = arcs = long = shared = 0
        for x, c in pairs:
            x = fresh(x)
            rows = passage_crossings(x, c)
            assert x._steps is None
            assert_taut_rows(x, c, rows)
            closed += isinstance(x, ClosedCurve)
            arcs += isinstance(x, Arc)
            long += len(x.tokens) >= 10 * len(c.tokens)
            # c takes the step of every point of x
            fwd, bwd = curves._ray_steps(c)
            shared += bool(x.tokens) and set(curves._ray_steps(x)[0]) <= set(fwd + bwd)
        assert closed > 120 and arcs > 60 and long > 30 and shared > 50


    def test_points_of_c_match_a_configuration(self):
        # c's chords, read off the trace of its arrangement, sit where a
        # position table of c alone puts them, whichever way the trace runs
        # along c: every simple reduced word of up to four tokens on the
        # hexagon, and seeded simple curves on the two-polygon surfaces
        # round surgery leaves of families 1-3 and on the square torus
        hexagon = hexagon_scheme().build()
        glued = sorted(hexagon.partner, key=hexagon.rank.get)
        cs = [ClosedCurve(hexagon, w) for n in range(1, 5) for w in itertools.product(glued, repeat=n)]
        rng = random.Random(8)
        for sch in [square_torus_scheme().build()] + [
            round_surgery(sc.scheme, sc.curves[sc.surgery_name]).scheme
            for sc in map(family_scenario, (1, 2, 3))
        ]:
            cs += [random_curve(sch, rng, 8) for _ in range(150)]
        backward = forward = 0
        for c in cs:
            if not is_simple(c):
                continue
            c = fresh(c)
            table = curves._crossing_data(c)[1]
            got = sorted((k, pi, a, b) for pi, chords in table.chords.items() for k, a, b in chords)
            chords = render.position_table(c.scheme, {"c": c}).chords["c"]
            assert got == sorted((k,) + chord for k, chord in enumerate(chords)), c
            runs_back = curves._traces_once(c)[1][2]
            backward += runs_back
            forward += not runs_back
        assert backward > 10 and forward > 100, (backward, forward)


class TestNotSimple:
    @pytest.mark.parametrize("word", [(0, 1, 3, 1), (0, 0)])
    def test_crossing_data_raises(self, word):
        # (0, 1, 3, 1) crosses itself, and (0, 0) is a power
        sc = get_scenario("negative-modification")
        c = ClosedCurve(sc.scheme, word)
        assert not is_simple(c)
        with pytest.raises(NotSimpleError):
            passage_crossings(sc.curves["C1"], c)
        with pytest.raises(NotSimpleError):
            insertion_words(c)


class TestIntersectionFormCache:
    def test_second_call_builds_nothing(self, monkeypatch):
        h = hexagon_scheme().build()
        c = ClosedCurve(h, (0,))
        form = intersection_form(h)
        word = TwistWord(((c, 1),))
        mat = word.act_on_homology(h)
        builds = []
        monkeypatch.setattr(render, "position_table", lambda *a: builds.append(a))
        assert intersection_form(h) == form
        assert word.act_on_homology(h) == mat
        assert builds == []

    def test_callers_get_copies(self):
        h = hexagon_scheme().build()
        form = intersection_form(h)
        form[0][1] = 99
        assert intersection_form(h) == [[0, 1, 1], [-1, 0, 1], [-1, -1, 0]]
