"""Handle presentations: moves, invariants, the simplification script."""

import pytest

from blfkit import cli, handles
from blfkit.errors import HandleMoveError, SchemeError
from blfkit.handles import (
    expected_final_profile,
    fibration_presentation,
    fibration_report,
    is_ball_profile,
    is_standard_form,
    localized_presentation,
    localized_report,
    run_script,
    simplification_script,
    smith_invariant_factors,
)


class TestSmithInvariantFactors:
    def test_identity(self):
        assert smith_invariant_factors([[1, 0], [0, 1]]) == [1, 1]

    def test_diagonalizable(self):
        assert smith_invariant_factors([[2, 0], [0, 3]]) == [1, 6]

    def test_rank_deficient(self):
        assert smith_invariant_factors([[1, 2], [2, 4]]) == [1]

    def test_torsion(self):
        assert smith_invariant_factors([[2, 4], [4, 2]]) == [2, 6]

    def test_zero_matrix(self):
        assert smith_invariant_factors([[0, 0], [0, 0]]) == []


class TestFibrationPresentation:
    @pytest.mark.parametrize("genus", [1, 2, 3])
    def test_euler_characteristic(self, genus):
        assert fibration_presentation(genus).euler_characteristic() == 3 - 2 * genus

    @pytest.mark.parametrize("genus", [1, 2, 3])
    def test_boundary_condition(self, genus):
        fibration_presentation(genus).validate()

    @pytest.mark.parametrize("genus", [1, 2, 3])
    def test_initial_profile_matches_final(self, genus):
        pres = fibration_presentation(genus)
        assert pres.homology_profile() == expected_final_profile(genus)

    @pytest.mark.parametrize("genus", [0, -1])
    def test_genus_below_one_is_an_input_error(self, genus, capsys):
        # rejected as family_scenario(n < 1) is: a bad input, not an illegal move
        with pytest.raises(SchemeError, match="need genus at least one") as info:
            fibration_presentation(genus)
        assert not isinstance(info.value, HandleMoveError)
        assert cli.main(["handle-sim", "--genus", str(genus)]) == 3
        assert capsys.readouterr() == ("", "blfkit: need genus at least one\n")


class TestSimplificationScript:
    @pytest.mark.parametrize("genus", [1, 2, 3])
    def test_profile_constant_throughout(self, genus):
        pres = fibration_presentation(genus)
        log = run_script(pres, simplification_script())
        profiles = [entry["profile"] for entry in log]
        assert all(p == profiles[0] for p in profiles)

    @pytest.mark.parametrize("genus", [1, 2, 3])
    def test_reaches_standard_form(self, genus):
        pres = fibration_presentation(genus)
        run_script(pres, simplification_script())
        assert is_standard_form(pres, genus)

    def test_framing_arithmetic_of_slides(self):
        pres = fibration_presentation(2)
        pres.cancel12("R", "hr")
        before = pres.framings["L1"]
        pres.slide("L1", "L3", 1)
        # f -> f + 2*sign*lk + f_over
        assert pres.framings["L1"] == before + 2 * 1 * 1 + pres.framings["L3"]


class TestMoveValidation:
    def test_cancel12_requires_geometric_pair(self):
        pres = fibration_presentation(2)
        with pytest.raises(HandleMoveError):
            pres.cancel12("F", "hr")

    def test_cancel23_requires_clean_two_handle(self):
        pres = fibration_presentation(2)
        with pytest.raises(HandleMoveError):
            pres.cancel23("L2", "t1")

    def test_slide_unknown_handle(self):
        pres = fibration_presentation(2)
        with pytest.raises(HandleMoveError):
            pres.slide("L1", "nope", 1)


class TestLocalizedPiece:
    def test_euler_characteristic_one(self):
        assert localized_presentation().euler_characteristic() == 1

    def test_trivial_reduced_homology(self):
        assert is_ball_profile(localized_presentation().homology_profile())

    def test_validates(self):
        localized_presentation().validate()


class TestHandleSimReports:
    @pytest.mark.parametrize("genus", [1, 2, 3])
    def test_fibration_report_passes(self, genus):
        out = fibration_report(genus)
        assert out["presentation"] == f"fibration-genus-{genus}"
        assert out["ok"] is out["profile_constant"] is out["standard_form"] is True
        assert len(out["trace"]) == len(simplification_script()) + 1

    def test_fibration_report_fails_on_another_final_profile(self, monkeypatch):
        monkeypatch.setattr(handles, "expected_final_profile", lambda genus: {})
        out = fibration_report(1)
        assert out["profile_constant"] is out["standard_form"] is True
        assert out["ok"] is False

    def test_localized_report_is_a_ball(self):
        out = localized_report()
        assert out["presentation"] == "localized"
        assert out["ok"] is out["ball"] is True
        assert len(out["trace"]) == 1
