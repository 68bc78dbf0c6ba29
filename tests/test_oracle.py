"""Free-group cross-check layer: word algebra and automorphism tables."""

import json
import random
import subprocess
import sys
import textwrap
import time

import pytest

from blfkit import ClosedCurve, TwistWord, cli, curves, curves_isotopic, dehn_twist, hexagon_scheme
from blfkit import oracle
from blfkit.errors import BlfkitError, ImageTooLargeError
from blfkit.oracle import (
    BASE_WORDS,
    GENERATORS,
    IDENTITY,
    RHO,
    RHO_INV,
    TWIST_C,
    TWIST_C1,
    conjugacy_key,
    conjugate_words,
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

    def test_conjugate_words(self):
        assert conjugate_words((1, 2), (3, 1, 2, -3))
        assert not conjugate_words((1, 2), (2, 1, 1))


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
            assert reduce_word(both.image_of(g)) == (g,)

    def test_rho_has_order_three(self):
        cube = RHO.compose(RHO).compose(RHO)
        for g in (1, 2, 3):
            assert reduce_word(cube.image_of(g)) == (g,)
        for g in (1, 2, 3):
            assert reduce_word(RHO.compose(RHO_INV).image_of(g)) == (g,)

    def test_twist_tables_fix_conjugacy_of_own_curve(self):
        # a twist along a curve fixes that curve's free homotopy class
        assert conjugate_words(TWIST_C.apply(BASE_WORDS["C"]), BASE_WORDS["C"])
        assert conjugate_words(TWIST_C1.apply(BASE_WORDS["C1"]), BASE_WORDS["C1"])

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
    every call, and ``conjugate_words`` for every pair of image and base word."""
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
                oracle_says = conjugate_words(oracle_img, BASE_WORDS[other], oriented=False)
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


class TestSuiteDoesNoRepeatedWork:
    @pytest.mark.parametrize("count, seed, max_length", [(200, 0, 5), (25, 7, 4), (50, 11, 5)])
    def test_report_equals_reference(self, count, seed, max_length):
        got = run_agreement_suite(count, seed, max_length).to_json()
        assert got == reference_suite(count, seed, max_length)

    def test_report_equals_reference_for_a_wrong_engine(self, monkeypatch):
        # every image reversed: the word check is oriented and must fail on
        # every word, while the unoriented verdicts and homology still agree
        apply = TwistWord.apply
        monkeypatch.setattr(TwistWord, "apply", lambda self, x: apply(self, x).reversed())
        got = run_agreement_suite(10, 3, 3).to_json()
        assert got["word_agreements"] == 0
        assert got["verdict_agreements"] == got["homology_agreements"] == 10
        assert got == reference_suite(10, 3, 3)

    def test_fixture_is_the_negative_modification_model(self):
        from blfkit.scenarios import negative_modification_scenario

        scheme, base, gens, base_keys = _hexagon_fixture()
        assert _hexagon_fixture()[0] is scheme
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

    def test_second_call_builds_no_taut_config(self, monkeypatch):
        builds = []
        rotations = []
        init, rotate = curves.TautConfig.__init__, oracle.least_rotation

        def counting_init(self, *args, **kwargs):
            builds.append(args)
            init(self, *args, **kwargs)

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
                m.setattr(curves.TautConfig, "__init__", counting_init)
                m.setattr(oracle, "least_rotation", lambda w: rotations.append(w) or rotate(w))
                report = run_agreement_suite(1, seed, 5)
            assert report.ok
            # the generators' crossing tables were built by the first call:
            # no twist, form or simplicity check builds a configuration
            assert builds == []
            # one rotation per engine image and per oracle image, and one of
            # the inverse per oracle image no longer than some base word
            assert len(rotations) == 2 * len(BASE_WORDS) + short


class TestCrosscheckCommand:
    @pytest.mark.parametrize("count, max_length, message", [
        (-1, 5, "count must be at least 0, not -1"),
        (3, 0, "max length must be at least 1, not 0"),
        (3, -3, "max length must be at least 1, not -3"),
        (-2, 0, "count must be at least 0, not -2"),
    ])
    def test_bad_arguments_raise(self, count, max_length, message):
        with pytest.raises(BlfkitError, match=message):
            run_agreement_suite(count, 0, max_length)

    def test_smallest_arguments_run(self):
        assert run_agreement_suite(0, 0, 5).to_json()["ok"] is True
        report = run_agreement_suite(5, 0, 1)
        assert report.ok and report.word_agreements == 5

    def test_seed_read_from_environment_when_command_runs(self, monkeypatch, capsys):
        for seed in (3, 11):
            monkeypatch.setenv("BLFKIT_SEED", str(seed))
            assert cli.main(["oracle-crosscheck", "--count", "2"]) == 0
            assert json.loads(capsys.readouterr().out)["seed"] == seed

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
