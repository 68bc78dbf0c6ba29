"""What ``curves._crossing_data`` keeps on a simple curve ``c``.

The token-pair table (``curves._PairTable``) must place every point of a
curve or arc ``x`` so that ``curves.passage_crossings`` lists the
crossings of a minimal position, without computing x's own steps; c's
chords, read off the trace of its arrangement, must sit where a position
table of ``c`` alone puts them; and asking for the crossing data of a
curve that is not simple raises ``NotSimpleError``.
"""

import itertools
import random

import pytest

from blfkit import (
    Arc,
    ClosedCurve,
    TwistWord,
    dehn_twist,
    hexagon_scheme,
    is_simple,
    round_surgery,
    square_torus_scheme,
)
from blfkit import curves, render
from blfkit.curves import insertion_words, passage_crossings
from blfkit.errors import NotSimpleError
from blfkit.scenarios import family_scenario, get_scenario
from helpers import assert_taut_rows, random_curve, random_items, shared_step_words


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
