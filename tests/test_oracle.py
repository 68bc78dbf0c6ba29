"""Free-group cross-check layer: word algebra and automorphism tables."""

import pytest

from blfkit import ClosedCurve, TwistWord, curves_isotopic, dehn_twist, hexagon_scheme
from blfkit.oracle import (
    BASE_WORDS,
    GENERATORS,
    RHO,
    RHO_INV,
    TWIST_C,
    TWIST_C1,
    conjugacy_key,
    conjugate_words,
    cyclically_reduce,
    invert_word,
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
