"""Point placement: the edge order, crossing queries and their cost.

``ReferenceOrder`` is the pairwise ray comparator that ordered crossing
points along each edge before the key-based sort; the position table that
``render`` draws from must give exactly its order.  ``helpers.reference_twist``
and the ``reference_*`` functions here are the twist and band slide code
that read crossings off a two-item position table
(``helpers.chord_crossings``) before the crossing table of
``curves.passage_crossings``.  The crossing table lists only the
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
import random
import signal

import pytest

from blfkit import (
    Anchor,
    Arc,
    ClosedCurve,
    TwistWord,
    dehn_twist,
    hexagon_scheme,
    project,
    round_surgery,
)
from blfkit import Projection, curves, render
from blfkit.curves import intersection_form, passage_crossings
from blfkit.errors import CurveError, ProjectionObstructedError
from blfkit.scenarios import SCENARIOS, family_scenario, get_scenario
from helpers import (
    assert_isotopic,
    assert_taut_rows,
    chord_crossings,
    edge_order,
    linked_intersection,
    position_table,
    random_items,
    reference_insert_copies,
    reference_twist,
    shared_step_words,
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
        ends = [s for s in h.slots if s not in h.partner]
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
