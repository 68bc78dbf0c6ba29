"""Taut configurations: the edge order, crossing queries and their cost.

``ReferenceOrder`` is the pairwise ray comparator that ordered crossing
points along each edge before the key-based sort; the key must give
exactly its order.
"""

import functools
import random
import time

import pytest

from blfkit import Anchor, Arc, ClosedCurve, TwistWord, dehn_twist, hexagon_scheme
from blfkit import curves
from blfkit.curves import TautConfig, intersection_form
from blfkit.errors import CurveError
from blfkit.scenarios import family_scenario, get_scenario

_STOP = ("stop",)


class ReferenceOrder:
    """Crossing points along each edge, sorted with the pairwise comparator."""

    def __init__(self, cfg: TautConfig):
        self.scheme = cfg.scheme
        self.items = cfg.items
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
            ka = (scheme.position_of(a[1]) - scheme.position_of(source)) % size
            kb = (scheme.position_of(b[1]) - scheme.position_of(source)) % size
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
                p = scheme.primary(t)
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


def _config(items):
    return TautConfig(next(iter(items.values())).scheme, items)


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
            cfg = _config(items)
            ref = ReferenceOrder(cfg)
            assert cfg._edge_order == ref.edge_order(), items
            reached += getattr(ref, branch) if branch else 0
        # the inputs reach the comparator's anchor-index and full-tie branches
        assert branch is None or reached > 0


def _polygon_points(cfg):
    """Positions of every passage endpoint, by polygon."""
    points = {}
    for p in cfg.passages:
        points.setdefault(p.polygon, []).extend(
            cfg.position(pt) for pt in (p.entry_point, p.exit_point)
        )
    return points


def brute_crossings(cfg, name1, name2):
    """Every pair of passages tested as chords of a circle of points."""
    sizes = {pi: len(pts) for pi, pts in _polygon_points(cfg).items()}
    out = []
    for p in cfg.passages:
        for q in cfg.passages:
            if p.item != name1 or q.item != name2 or p.polygon != q.polygon:
                continue
            if name1 == name2 and q.index <= p.index:
                continue
            n = sizes[p.polygon]
            a1, b1 = cfg.position(p.entry_point), cfg.position(p.exit_point)
            a2, b2 = cfg.position(q.entry_point), cfg.position(q.exit_point)
            between = lambda x: 0 < (x - a1) % n < (b1 - a1) % n
            if len({a1, b1, a2, b2}) == 4 and between(a2) != between(b2):
                out.append((p.index, q.index, 1 if between(a2) else -1))
    return sorted(out)


def brute_on_passage(cfg, x_name, k, c_name):
    """Crossings of passage k of x with c, by distance of c's near end from x's entry."""
    p = next(p for p in cfg.passages if (p.item, p.index) == (x_name, k))
    n = len(_polygon_points(cfg)[p.polygon])
    ax = cfg.position(p.entry_point)
    found = []
    for kx, kc, sign in brute_crossings(cfg, x_name, c_name):
        if kx == k:
            q = next(q for q in cfg.passages if (q.item, q.index) == (c_name, kc))
            near = q.entry_point if sign > 0 else q.exit_point
            found.append(((cfg.position(near) - ax) % n, kc, sign))
    return [(kc, sign) for _, kc, sign in sorted(found)]


class TestCrossingQueries:
    def configs(self):
        return hexagon_configs()[:40] + family_configs()[:12] + anchored_arc_configs()[:8]

    def test_positions_are_a_permutation(self):
        for items in self.configs():
            for pts in _polygon_points(_config(items)).values():
                assert sorted(pts) == list(range(len(pts)))

    def test_crossings_match_all_pairs(self):
        total = 0
        for items in self.configs():
            cfg = _config(items)
            for a in sorted(items):
                for b in sorted(items):
                    got = cfg.crossings(a, b)
                    assert got == brute_crossings(cfg, a, b), (items, a, b)
                    total += len(got)
                assert cfg.self_crossings(a) == len(cfg.crossings(a, a))
        assert total > 100

    def test_crossings_on_passage_match_all_pairs(self):
        for items in self.configs():
            if "c" not in items:
                continue
            cfg = _config(items)
            for x_name in sorted(items):
                if x_name == "c":
                    continue
                count = sum(p.item == x_name for p in cfg.passages)
                for k in range(count):
                    assert cfg.crossings_on_passage(x_name, k, "c") == brute_on_passage(
                        cfg, x_name, k, "c")


def ladder_rung(start, rungs):
    """(T_C T_C1^-1)^rungs applied to a curve of the negative modification."""
    sc = get_scenario("negative-modification")
    x = sc.curves[start]
    for _ in range(rungs):
        x = dehn_twist(dehn_twist(x, sc.curves["C1"], -1), sc.curves["C"], 1)
    return sc, x


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
        cfg = TautConfig(sc.scheme, {"c": c, "x": z})
        assert time.perf_counter() - start < 0.5
        assert len(cfg.crossings("x", "c")) == len(cfg.crossings("c", "x"))


class TestIntersectionFormCache:
    def test_second_call_builds_nothing(self, monkeypatch):
        h = hexagon_scheme().build()
        c = ClosedCurve(h, (0,))
        form = intersection_form(h)
        word = TwistWord(((c, 1),))
        mat = word.act_on_homology(h)
        builds = []
        monkeypatch.setattr(curves, "TautConfig", lambda *a: builds.append(a))
        assert intersection_form(h) == form
        assert word.act_on_homology(h) == mat
        assert builds == []

    def test_callers_get_copies(self):
        h = hexagon_scheme().build()
        form = intersection_form(h)
        form[0][1] = 99
        assert intersection_form(h) == [[0, 1, 1], [-1, 0, 1], [-1, -1, 0]]
