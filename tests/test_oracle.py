"""Free-group cross-check layer: word algebra and automorphism tables."""

import gc
import itertools
import json
import random
import subprocess
import sys
import textwrap
import time
import tracemalloc

import pytest

from blfkit import ClosedCurve, TwistWord, cli, curves_isotopic, dehn_twist, hexagon_scheme
from blfkit import oracle, render
from blfkit.errors import BlfkitError, ImageTooLargeError
from blfkit.oracle import (
    BASE_WORDS,
    GENERATORS,
    FreeAutomorphism,
    IDENTITY,
    RHO,
    RHO_INV,
    TWIST_C,
    TWIST_C1,
    conjugacy_key,
    cyclically_reduce,
    AgreementReport,
    _hexagon_fixture,
    invert_word,
    random_twist_words,
    reduce_word,
    run_agreement_suite,
    tokens_to_word,
    word_to_tokens,
)


class TestWordAlgebra:
    def test_reduce(self):
        assert reduce_word((1, -1, 2)) == (2,)
        assert reduce_word((1, 2, -2, -1)) == ()

    def test_cyclic_reduce(self):
        assert cyclically_reduce((1, 2, -1)) == (2,)

    def test_invert(self):
        assert invert_word((1, 2)) == (-2, -1)

    def test_conjugacy_key_rotations(self):
        assert conjugacy_key((1, 2, 3)) == conjugacy_key((3, 1, 2))

    def test_conjugates_share_a_key(self):
        assert conjugacy_key((1, 2)) == conjugacy_key((3, 1, 2, -3))
        assert conjugacy_key((1, 2)) != conjugacy_key((2, 1, 1))


def loop_reduce(word):
    """Cyclic reduction that re-reduces the whole word after each end strip."""
    w = list(reduce_word(word))
    while len(w) >= 2 and w[0] == -w[-1]:
        w = list(reduce_word(w[1:-1]))
    return tuple(w)


def rotations_key(word, oriented=True):
    """The conjugacy key as the least of every rotation."""
    w = loop_reduce(word)
    if not w:
        return w
    best = min(w[i:] + w[:i] for i in range(len(w)))
    if oriented:
        return best
    v = invert_word(w)
    return min(best, min(v[i:] + v[:i] for i in range(len(v))))


def seeded_words(count, seed):
    """Random words, periodic words and conjugates u w u^-1."""
    rng = random.Random(seed)
    letters = (1, -1, 2, -2, 3, -3)
    out = []
    for _ in range(count):
        base = [rng.choice(letters) for _ in range(rng.randint(0, 6))]
        u = [rng.choice(letters) for _ in range(rng.randint(0, 8))]
        out += [
            [rng.choice(letters) for _ in range(rng.randint(0, 30))],
            base * rng.randint(2, 5),
            u + base * rng.randint(1, 3) + list(invert_word(u)),
        ]
    return out


class TestLinearWordKeys:
    def test_keys_match_all_rotations(self):
        for word in seeded_words(1500, 29):
            for oriented in (True, False):
                assert conjugacy_key(word, oriented) == rotations_key(word, oriented), word

    def test_cyclic_reduction_matches_loop(self):
        for word in seeded_words(1500, 31):
            assert cyclically_reduce(word) == loop_reduce(word), word

    def test_long_key_is_fast(self):
        rng = random.Random(37)
        word = tuple(rng.choice((1, -1, 2, -2, 3, -3)) for _ in range(50_000))
        start = time.perf_counter()
        key = conjugacy_key(word, oriented=False)
        assert time.perf_counter() - start < 1.0
        assert len(key) == len(cyclically_reduce(word))

    def test_long_conjugate_reduces_fast(self):
        u = (3, 1) * 10_000
        start = time.perf_counter()
        assert cyclically_reduce(u + (1, 2) + invert_word(u)) == (1, 2)
        assert time.perf_counter() - start < 1.0


class TestLetterBridge:
    def test_round_trip(self):
        for word in ((1,), (2, 3), (-1, 2, -3)):
            assert tokens_to_word(word_to_tokens(word)) == word
        letters = (1, 2, 3, -1, -2, -3)
        assert word_to_tokens(letters) == (0, 1, 2, 3, 4, 5)
        assert tokens_to_word(range(6)) == letters
        for x in letters:
            assert tokens_to_word(word_to_tokens((x,))) == (x,)
        for t in range(6):
            assert word_to_tokens(tokens_to_word((t,))) == (t,)
        assert tokens_to_word(()) == word_to_tokens(()) == ()

    @pytest.mark.parametrize("letter", [4, 0, -4, 7])
    def test_bad_letter_raises(self, letter):
        with pytest.raises(BlfkitError, match=f"^{letter} is not a hexagon letter$"):
            word_to_tokens((letter,))
        with pytest.raises(BlfkitError, match=f"^{letter} is not a hexagon letter$"):
            word_to_tokens((1, letter, 2))

    @pytest.mark.parametrize("token", [6, -1, 7, "u0"])
    def test_bad_token_raises(self, token):
        with pytest.raises(BlfkitError, match=f"^{token!r} is not a hexagon token$"):
            tokens_to_word((token,))
        with pytest.raises(BlfkitError, match=f"^{token!r} is not a hexagon token$"):
            tokens_to_word((0, token))

    def test_base_words_match_curves(self):
        scheme = hexagon_scheme().build()
        assert word_to_tokens(BASE_WORDS["C"]) == (0,)
        for letters in BASE_WORDS.values():
            # every table entry is a valid curve word on the hexagon surface
            ClosedCurve(scheme, word_to_tokens(letters))


class TestAutomorphismTables:
    @pytest.mark.parametrize("name", ["c1", "c2", "c3"])
    def test_generator_inverse_law(self, name):
        fwd = GENERATORS[(name, 1)]
        back = GENERATORS[(name, -1)]
        both = fwd.compose(back)
        for g in (1, 2, 3):
            assert reduce_word(both.images[g - 1]) == (g,)

    def test_rho_has_order_three(self):
        cube = RHO.compose(RHO).compose(RHO)
        for g in (1, 2, 3):
            assert reduce_word(cube.images[g - 1]) == (g,)
        for g in (1, 2, 3):
            assert reduce_word(RHO.compose(RHO_INV).images[g - 1]) == (g,)

    def test_twist_tables_fix_conjugacy_of_own_curve(self):
        # a twist along a curve fixes that curve's free homotopy class
        assert conjugacy_key(TWIST_C.apply(BASE_WORDS["C"])) == conjugacy_key(BASE_WORDS["C"])
        assert conjugacy_key(TWIST_C1.apply(BASE_WORDS["C1"])) == conjugacy_key(BASE_WORDS["C1"])

    def test_twist_table_matches_engine_on_base_curves(self):
        scheme = hexagon_scheme().build()
        c1 = ClosedCurve(scheme, word_to_tokens(BASE_WORDS["C1"]))
        for probe in ("C", "C2", "C3"):
            x = ClosedCurve(scheme, word_to_tokens(BASE_WORDS[probe]))
            engine = dehn_twist(x, c1)
            oracle = ClosedCurve(
                scheme, word_to_tokens(TWIST_C1.apply(BASE_WORDS[probe]))
            )
            assert curves_isotopic(engine, oracle, oriented=True)

    def test_abelianization_is_multiplicative(self):
        # the composite's matrix is the product of its factors' matrices
        def matmul(a, b):
            return [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)] for i in range(3)]

        for word in random_twist_words(40, 13, 4):
            auto, mat = IDENTITY, IDENTITY.abelianization()
            for g in word:
                auto = GENERATORS[g].compose(auto)
                mat = matmul(GENERATORS[g].abelianization(), mat)
            assert auto.abelianization() == mat, word
        assert IDENTITY.abelianization() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert RHO.abelianization() == [[0, -1, 0], [0, 0, -1], [1, 0, 0]]

    def test_base_images_are_cyclically_reduced(self):
        # conjugation by b maps each base word to a conjugate of itself,
        # and its reduced image of a, b a b^-1, is not cyclically reduced
        inner = FreeAutomorphism(((2, 1, -2), (2,), (2, 3, -2)))
        assert inner.apply(BASE_WORDS["C"]) == (2, 1, -2)
        want = tuple(BASE_WORDS[name] for name in sorted(BASE_WORDS))
        assert oracle._base_images(inner) == want

    def test_abelianization_matches_transvection(self):
        scheme = hexagon_scheme().build()
        c1 = ClosedCurve(scheme, word_to_tokens(BASE_WORDS["C1"]))
        word = TwistWord(((c1, 1),))
        assert TWIST_C1.abelianization() == word.act_on_homology(scheme)


class TestAgreementSuite:
    def test_short_run_agrees(self):
        report = run_agreement_suite(count=25, seed=7, max_length=4)
        assert report.ok
        assert report.count == 25

    def test_deterministic(self):
        a = run_agreement_suite(count=10, seed=3, max_length=3)
        b = run_agreement_suite(count=10, seed=3, max_length=3)
        assert a.to_json() == b.to_json()


def reference_suite(count, seed, max_length):
    """The suite as first written: a fresh scheme and restated generators on
    every call, and unoriented ``conjugacy_key``s for every pair of image and
    base word."""
    scheme = hexagon_scheme().build()
    engine_curves = {
        name: ClosedCurve(scheme, word_to_tokens(w)) for name, w in BASE_WORDS.items()
    }
    engine_gens = {
        ("c1", 1): (ClosedCurve(scheme, (3, 2)), 1),
        ("c1", -1): (ClosedCurve(scheme, (3, 2)), -1),
        ("c2", 1): (ClosedCurve(scheme, (5, 4)), 1),
        ("c2", -1): (ClosedCurve(scheme, (5, 4)), -1),
        ("c3", 1): (ClosedCurve(scheme, (1, 0)), 1),
        ("c3", -1): (ClosedCurve(scheme, (1, 0)), -1),
    }
    base_names = sorted(BASE_WORDS)
    words_ok = verdicts_ok = homology_ok = 0
    failures = []
    for idx, gens in enumerate(random_twist_words(count, seed, max_length)):
        steps = tuple(reversed([engine_gens[g] for g in gens]))
        tword = TwistWord(steps)
        auto = IDENTITY
        for g in gens:
            auto = GENERATORS[g].compose(auto)

        word_match = True
        verdict_match = True
        for name in base_names:
            engine_img = tword.apply(engine_curves[name])
            oracle_img = auto.apply(BASE_WORDS[name])
            if conjugacy_key(tokens_to_word(engine_img.tokens)) != conjugacy_key(oracle_img):
                word_match = False
            for other in base_names:
                engine_says = curves_isotopic(engine_img, engine_curves[other])
                oracle_says = (conjugacy_key(oracle_img, oriented=False)
                               == conjugacy_key(BASE_WORDS[other], oriented=False))
                if engine_says != oracle_says:
                    verdict_match = False

        engine_mat = tword.act_on_homology(scheme)
        if engine_mat == auto.abelianization():
            homology_ok += 1
            h_match = True
        else:
            h_match = False

        words_ok += word_match
        verdicts_ok += verdict_match
        if not (word_match and verdict_match and h_match):
            failures.append({"index": idx, "twists": [list(g) for g in gens]})
    return AgreementReport(
        count=count,
        seed=seed,
        max_length=max_length,
        word_agreements=words_ok,
        verdict_agreements=verdicts_ok,
        homology_agreements=homology_ok,
        failures=failures,
    ).to_json()


@pytest.fixture
def fresh_heads():
    """A fresh hexagon fixture for the test, dropped after it, so that a
    head entry filled while the test patches the engine outlives it in
    no other test."""
    _hexagon_fixture.cache_clear()
    yield
    _hexagon_fixture.cache_clear()


class TestSuiteDoesNoRepeatedWork:
    @pytest.mark.parametrize("count, seed, max_length", [
        (200, 0, 5), (25, 7, 4), (50, 11, 5),
        # images of up to 9,088 letters
        (20, 1, 8),
    ])
    def test_report_equals_reference(self, count, seed, max_length):
        got = run_agreement_suite(count, seed, max_length).to_json()
        assert got == reference_suite(count, seed, max_length)

    def wrong_engine(self, monkeypatch, change):
        apply = TwistWord.apply
        monkeypatch.setattr(TwistWord, "apply", lambda self, x: change(apply(self, x)))
        got = run_agreement_suite(10, 3, 3).to_json()
        assert got == reference_suite(10, 3, 3)
        return got

    def test_report_equals_reference_for_a_wrong_engine(self, monkeypatch):
        # every image reversed: the word check is oriented and must fail on
        # every word, while the unoriented verdicts and homology still agree
        got = self.wrong_engine(monkeypatch, lambda x: x.reversed())
        assert got["word_agreements"] == 0
        assert got["verdict_agreements"] == got["homology_agreements"] == 10

    def test_report_equals_reference_for_a_rotating_engine(self, monkeypatch):
        # every image started at its second token: the same conjugacy class
        def rotate(x):
            return ClosedCurve(x.scheme, x.tokens[1:] + x.tokens[:1])

        got = self.wrong_engine(monkeypatch, rotate)
        assert got["ok"] and got["word_agreements"] == 10

    @pytest.mark.parametrize("change", [
        lambda x: ClosedCurve(x.scheme, x.tokens * 2),
        lambda x: ClosedCurve(x.scheme, ((x.tokens[0] + 1) % 6,) + x.tokens[1:]),
    ], ids=["squared", "one-token-changed"])
    def test_report_equals_reference_for_a_wrong_word(self, monkeypatch, change):
        got = self.wrong_engine(monkeypatch, change)
        assert got["word_agreements"] == 0
        assert not got["ok"] and len(got["failures"]) == 10

    def test_wrong_homology_action_is_caught(self, monkeypatch, fresh_heads):
        # every transvection's sign flipped: a word that is its own head
        # reads the action its entry keeps, so the entries must be filled
        # with the patched action, from a cold table and again on a warm
        # rerun; a table cleared after the patch gives the true report
        act = TwistWord.act_on_homology

        def flipped(self, scheme):
            return act(TwistWord(tuple((c, -p) for c, p in self.steps)), scheme)

        args = (30, 3, 5)
        with monkeypatch.context() as m:
            m.setattr(TwistWord, "act_on_homology", flipped)
            want = reference_suite(*args)
            assert want["homology_agreements"] < 30
            for _ in range(2):
                got = run_agreement_suite(*args).to_json()
                assert got == want
                assert got["homology_agreements"] < 30
                assert got["word_agreements"] == got["verdict_agreements"] == 30
        _hexagon_fixture.cache_clear()
        assert run_agreement_suite(*args).to_json() == reference_suite(*args)

    def test_table_state_cannot_change_a_report(self, monkeypatch):
        # seeds and lengths interleaved, each run's report equal to the
        # reference suite's: the first from the table the wrong-engine
        # tests above left, one from a cleared table, and two after a
        # wrong engine filled a cleared table; no head entry may depend on
        # what ran before
        apply = TwistWord.apply
        runs = [(10, 3, 3), (30, 8, 2), (12, 1, 8), (30, 3, 5), (20, 5, 1), (12, 1, 8)]
        for i, args in enumerate(runs):
            want = reference_suite(*args)
            if i % 3:
                _hexagon_fixture.cache_clear()
            if i % 3 == 1:
                with monkeypatch.context() as m:
                    m.setattr(TwistWord, "apply", lambda self, x: apply(self, x).reversed())
                    assert run_agreement_suite(*args).to_json()["word_agreements"] == 0
            assert run_agreement_suite(*args).to_json() == want, (i, args)
            assert run_agreement_suite(*args).to_json() == want, (i, args)

    def test_fixture_is_the_negative_modification_model(self):
        from blfkit.scenarios import negative_modification_scenario

        fixture = _hexagon_fixture()
        scheme, base, gens, base_keys, heads = fixture
        assert all(a is b for a, b in zip(_hexagon_fixture(), fixture))
        sc = negative_modification_scenario()
        assert scheme.polygons == sc.scheme.polygons
        assert scheme.partner == sc.scheme.partner
        assert sorted(base) == sorted(BASE_WORDS) == ["C", "C1", "C2", "C3"]
        for name, curve in base.items():
            assert curve.tokens == sc.curves[name].tokens
            # the oracle's base word is the same oriented curve
            assert curve == ClosedCurve(scheme, word_to_tokens(BASE_WORDS[name]))
            assert base_keys[name] == conjugacy_key(BASE_WORDS[name], oriented=False)
        assert set(gens) == set(GENERATORS)
        for (name, power), (curve, p) in gens.items():
            assert curve is base[name.upper()] and p == power
        # the head table holds only heads of one to three generators
        assert all(len(head) in (1, 2, 3) and set(head) <= set(GENERATORS) for head in heads)

    def test_fixture_keeps_every_first_twist(self, fresh_heads):
        # a fresh fixture has an empty head table; every entry is the
        # dehn_twist composition from the base curves, the compose of its
        # generators' automorphisms, the head's homology action, the
        # automorphism's abelianization and the cyclically reduced images
        # of the base words under it, and is kept for later calls
        scheme, base, gens, _, heads = _hexagon_fixture()
        assert len(heads) == 0
        names = sorted(BASE_WORDS)
        every = [
            head for n in (1, 2, 3) for head in itertools.product(sorted(GENERATORS), repeat=n)
        ]
        entries = {head: heads[head] for head in every}
        for head, (images, auto, action, abelianization, words) in entries.items():
            want, want_auto = [base[name] for name in names], IDENTITY
            for g in head:
                want = [dehn_twist(x, *gens[g]) for x in want]
                want_auto = GENERATORS[g].compose(want_auto)
            assert list(images) == want, head
            assert auto == want_auto, head
            assert words == tuple(
                cyclically_reduce(want_auto.apply(BASE_WORDS[name])) for name in names
            ), head
            assert type(words) is tuple and all(type(w) is tuple for w in words), head
            # both matrices are kept immutably, as tuples of rows
            word = TwistWord(tuple(reversed([gens[g] for g in head])))
            assert action == tuple(map(tuple, word.act_on_homology(scheme))), head
            assert abelianization == tuple(map(tuple, auto.abelianization())), head
            for matrix in (action, abelianization):
                assert type(matrix) is tuple and all(type(row) is tuple for row in matrix)
        assert len(heads) == 6 + 36 + 216
        again = _hexagon_fixture()[4]
        assert all(again[head] is entry for head, entry in entries.items())
        assert len(again) == 6 + 36 + 216

    @pytest.mark.parametrize("seed", [0, 1, 2, 5, 7, 9])
    def test_each_word_twists_base_curves_after_its_first_generator(
        self, monkeypatch, fresh_heads, seed
    ):
        # a cold word fills its heads, of one to three generators, at 4 twists
        # and one homology action each: no more than twisting each base
        # curve along the whole word; a warm word of k twists twists them
        # along all but its head, and reads its homology action from its
        # head's entry when it is its own head
        from blfkit import twists

        _hexagon_fixture()
        (word,) = random_twist_words(1, seed, 5)
        k = len(word)
        calls = []
        actions = []
        twist, act = twists.dehn_twist, TwistWord.act_on_homology
        monkeypatch.setattr(twists, "dehn_twist", lambda *a: calls.append(a) or twist(*a))
        monkeypatch.setattr(
            TwistWord, "act_on_homology", lambda self, s: actions.append(self) or act(self, s)
        )
        assert run_agreement_suite(1, seed, 5).ok
        assert len(calls) == 4 * k
        assert len(actions) == min(k, 3) + (k > 3)
        calls.clear()
        actions.clear()
        assert run_agreement_suite(1, seed, 5).ok
        assert len(calls) == 4 * (k - min(k, 3))
        assert len(actions) == (k > 3)

    @pytest.mark.parametrize("seed", [0, 4])
    def test_warm_head_word_does_no_free_group_work(self, monkeypatch, fresh_heads, seed):
        # a word of at most three twists reads its oracle images from its
        # head's entry: once the entry is filled, no word is reduced, and
        # no automorphism is composed or applied; a longer word composes
        # the rest of itself and reduces its images again
        reductions = []
        reduce = oracle.reduce_word
        monkeypatch.setattr(oracle, "reduce_word", lambda w: reductions.append(w) or reduce(w))
        assert run_agreement_suite(40, seed, 3).ok
        assert reductions
        reductions.clear()
        with monkeypatch.context() as m:
            for name in ("apply", "compose"):
                m.setattr(FreeAutomorphism, name, None)
            report = run_agreement_suite(40, seed, 3)
        assert report.ok and report.word_agreements == 40
        assert reductions == []
        words = [w for w in random_twist_words(40, seed, 5) if len(w) > 3]
        assert words
        run_agreement_suite(40, seed, 5)
        reductions.clear()
        assert run_agreement_suite(40, seed, 5).ok
        assert len(reductions) >= 4 * len(words)
        # no kept automorphism was left with a letter table; a
        # one-generator head's is the generator itself, which composes
        heads = _hexagon_fixture()[4]
        assert not any(
            "_letter_images" in auto.__dict__ for head, (_, auto, *_) in heads.items()
            if len(head) > 1
        )

    def test_second_call_builds_no_taut_config(self, monkeypatch):
        builds = []
        rotations = []
        place, rotate = render.position_table, oracle.least_rotation

        def counting_place(*args):
            builds.append(args)
            return place(*args)

        longest = max(len(cyclically_reduce(w)) for w in BASE_WORDS.values())
        # every oracle image of seed 5's word is longer than every base word,
        # and one of seed 6's is not
        for seed, short in ((5, 0), (6, 1)):
            (word,) = random_twist_words(1, seed, 5)
            assert len(word) > 1
            auto = IDENTITY
            for g in word:
                auto = GENERATORS[g].compose(auto)
            images = [cyclically_reduce(auto.apply(w)) for w in BASE_WORDS.values()]
            assert sum(len(w) <= longest for w in images) == short
            run_agreement_suite(1, seed, 5)
            builds.clear()
            rotations.clear()
            with monkeypatch.context() as m:
                m.setattr(render, "position_table", counting_place)
                m.setattr(oracle, "least_rotation", lambda w: rotations.append(w) or rotate(w))
                report = run_agreement_suite(1, seed, 5)
            assert report.ok
            # the generators' crossing tables were built by the first call:
            # no twist, form or simplicity check builds a configuration
            assert builds == []
            # word agreement is a substring search: the only rotations are
            # the two of the unoriented key of each oracle image no longer
            # than some base word, so a long image gets none
            assert len(rotations) == 2 * short


class TestLazyWords:
    @staticmethod
    def peak(count, seed, max_length):
        """The traced peak of one suite run.  CPython keeps up to 2,000
        freed tuples of each length up to 20 for reuse, and a tuple freed
        into those free lists stays traced, so a run would grow them with
        its length: they are filled first, with a margin on both counts,
        and the collector, whose full passes empty them, is held off for
        the run."""
        gc.collect()
        gc.disable()
        held = [tuple(range(n)) for n in range(1, 25) for _ in range(2_100)]
        del held
        tracemalloc.start()
        try:
            assert run_agreement_suite(count, seed, max_length).ok
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            gc.enable()

    def test_memory_does_not_grow_with_count(self):
        run_agreement_suite(1, 3, 1)
        small, large = self.peak(400, 3, 1), self.peak(4_000, 3, 1)
        # words drawn up front as a list would raise the peak by about 96
        # bytes a word, 350 kB at these counts; the reports equal the
        # reference suite's, which lists its words first
        assert large - small < 16_000, (small, large)

    def test_head_table_stays_bounded(self, monkeypatch, fresh_heads):
        # 2,000 words of up to 5 twists meet every head of one to three
        # generators, and the table holds no other
        assert run_agreement_suite(2_000, 3, 5).ok
        every = {
            head for n in (1, 2, 3) for head in itertools.product(GENERATORS, repeat=n)
        }
        assert set(_hexagon_fixture()[4]) == every and len(every) == 6 + 36 + 216
        # the full table filled afresh, with the tables it fills on the
        # twist curves, traced after a full collection, which also empties
        # the free lists
        _hexagon_fixture.cache_clear()
        heads = _hexagon_fixture()[4]
        gc.collect()
        tracemalloc.start()
        try:
            for head in every:
                heads[head]
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 2_000_000, kept
        # with the table warm, the same 40 words cycled, each drawn afresh:
        # a longer run meets no longer image, so only its count could raise
        # its peak, by about 96 bytes a word were the words listed first
        words = random_twist_words(40, 3, 5)
        monkeypatch.setattr(
            oracle, "_twist_words", lambda count, seed, max_length: (
                list(words[i % len(words)]) for i in range(count)
            ),
        )
        self.peak(40, 3, 5)
        small, large = self.peak(100, 3, 5), self.peak(1_000, 3, 5)
        assert large - small < 16_000, (small, large)
        assert len(heads) == 6 + 36 + 216


class TestCrosscheckCommand:
    @pytest.mark.parametrize("count, max_length, message", [
        (-1, 5, "count must be at least 1, not -1"),
        # a run of no word would check nothing and report ok
        (0, 5, "count must be at least 1, not 0"),
        (3, 0, "max length must be at least 1, not 0"),
        (3, -3, "max length must be at least 1, not -3"),
        (-2, 0, "count must be at least 1, not -2"),
    ])
    def test_bad_arguments_raise(self, count, max_length, message):
        with pytest.raises(BlfkitError, match=message):
            run_agreement_suite(count, 0, max_length)

    def test_smallest_arguments_run(self):
        report = run_agreement_suite(1, 0, 5)
        assert report.to_json()["ok"] is True and report.word_agreements == 1
        report = run_agreement_suite(5, 0, 1)
        assert report.ok and report.word_agreements == 5

    def test_seed_read_from_environment_when_command_runs(self, monkeypatch, capsys):
        for seed in (3, 11):
            monkeypatch.setenv("BLFKIT_SEED", str(seed))
            assert cli.main(["oracle-crosscheck", "--count", "2"]) == 0
            assert json.loads(capsys.readouterr().out)["seed"] == seed

    @pytest.mark.parametrize("value", ["abc", "1.5", ""])
    def test_bad_seed_in_environment_is_a_usage_error(self, monkeypatch, capsys, value):
        monkeypatch.setenv("BLFKIT_SEED", value)
        assert cli.main(["oracle-crosscheck", "--count", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"blfkit: BLFKIT_SEED must be an integer, not {value!r}\n"

    def test_seed_option_overrides_environment(self, monkeypatch, capsys):
        monkeypatch.setenv("BLFKIT_SEED", "3")
        assert cli.main(["oracle-crosscheck", "--count", "2", "--seed", "4"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 4


class TestImageBound:
    def test_bound_counts_letters_before_reduction(self, monkeypatch):
        # b b^-1 maps to 10 letters that reduce to none
        word = (2, -2)
        size = 2 * len(TWIST_C1.images[1])
        assert size == 10 and TWIST_C1.apply(word) == ()
        monkeypatch.setattr(oracle, "MAX_IMAGE_LETTERS", size - 1)
        with pytest.raises(ImageTooLargeError, match=f"has {size} letters before reduction"):
            TWIST_C1.apply(word)
        with pytest.raises(ImageTooLargeError):
            TWIST_C1.compose(IDENTITY.compose(TWIST_C1))

    @pytest.mark.parametrize("seed", [0, 7])
    def test_default_suite_stays_far_below(self, monkeypatch, seed):
        # every image of 200 words of up to 5 twists has at most a
        # thousandth of the bound's letters
        monkeypatch.setattr(oracle, "MAX_IMAGE_LETTERS", oracle.MAX_IMAGE_LETTERS // 1000)
        assert run_agreement_suite(200, seed, 5).ok

    def test_long_word_fails_in_bounded_memory(self):
        # seed 0 draws one word of 25 twists, whose images pass the bound
        # at its 15th; in a child process limited to 1 GB of address space
        code = textwrap.dedent("""
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
            from blfkit.errors import ImageTooLargeError
            from blfkit.oracle import run_agreement_suite
            try:
                run_agreement_suite(1, 0, 40)
            except ImageTooLargeError as exc:
                print(exc)
        """)
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=30
        )
        elapsed = time.perf_counter() - start
        assert done.returncode == 0, done.stderr
        assert done.stdout.endswith(f"more than {oracle.MAX_IMAGE_LETTERS}\n"), done.stdout
        assert elapsed < 10.0, f"{elapsed:.2f} s"
