"""The twist kernel: ray steps, twists and their cost.

``curves._ray_steps`` must match the nested step it replaced, on random
closed curves and arcs of several schemes.  Every twist the oracle's
agreement suite makes must agree, up to isotopy, with
``helpers.reference_twist``, which reads crossings off a two-item position
table.  Long twist words and many parallel copies must stay fast, and a
long near-parallel word's crossing rows must stay small in memory.
"""

import random
import time
import tracemalloc

import pytest

from blfkit import ClosedCurve, dehn_twist, round_surgery, square_torus_scheme
from blfkit import Arc, curves, oracle, render, twists
from blfkit.curves import passage_crossings
from blfkit.scenarios import family_scenario, get_scenario
from helpers import (
    assert_isotopic,
    chord_crossings,
    linked_intersection,
    random_items,
    reference_twist,
)


def ladder_rung(start, rungs):
    """(T_C T_C1^-1)^rungs applied to a curve of the negative modification."""
    sc = get_scenario("negative-modification")
    x = sc.curves[start]
    for _ in range(rungs):
        x = dehn_twist(dehn_twist(x, sc.curves["C1"], -1), sc.curves["C"], 1)
    return sc, x


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
