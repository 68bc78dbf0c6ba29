"""Handle presentations: moves, invariants, the simplification script."""

import random
import subprocess
import sys
import textwrap
import time

import pytest

from blfkit import cli, handles
from blfkit.errors import HandleMoveError, SchemeError
from blfkit.handles import (
    HandlePresentation,
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

    @pytest.mark.parametrize("genus", [1, 2, 3])
    def test_idle_fiber_handles_are_counted(self, genus):
        pres = fibration_presentation(genus)
        assert pres.one_handles == ["u1", "hr", "hb"]
        assert pres.idle_one_handles == 2 * genus - 1
        assert {one for _, one in pres.incidence2} == set(pres.one_handles)


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
        before = pres.link("L1", "L1")
        pres.slide("L1", "L3", 1)
        # f -> f + 2*sign*lk + f_over
        assert pres.link("L1", "L1") == before + 2 * 1 * 1 + pres.link("L3", "L3")


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

    def test_incidences_are_the_homology_classes_of_the_hexagon_curves(self):
        # the table the piece was built from by hand before its incidences
        # were read from the negative modification's curves
        hand_table = {
            ("C1", "a"): -1, ("C1", "c"): 1,
            ("C2", "b"): -1, ("C2", "c"): -1,
            ("C3", "a"): 1, ("C3", "b"): 1,
            ("C", "a"): 1,
        }
        pres = localized_presentation()
        assert pres.incidence2 == hand_table
        assert pres.linking == {} and pres.idle_one_handles == 0


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

    def test_localized_report_computes_one_profile(self, monkeypatch):
        # the trace has no steps, so its start profile is the verdict's
        calls = []
        profile = handles.HandlePresentation.homology_profile
        monkeypatch.setattr(handles.HandlePresentation, "homology_profile",
                            lambda pres: calls.append(pres) or profile(pres))
        out = localized_report()
        assert len(calls) == 1
        assert out["ball"] is is_ball_profile(out["trace"][-1]["profile"]) is True


# -- the sparse tracker against dense references -------------------------------


def dense_profile(pres):
    """``homology_profile`` from Smith normal form on the full incidence matrices."""
    ones, twos, threes = pres.one_handles, pres.two_handles, pres.three_handles
    n1 = len(ones) + pres.idle_one_handles
    d2 = [[pres.inc2(two, one) for one in ones] for two in twos]
    d3 = [[pres.inc3(three, two) for two in twos] for three in threes]
    f2 = smith_invariant_factors(d2) if twos and ones else []
    f3 = smith_invariant_factors(d3) if threes and twos else []
    r2, r3 = len(f2), len(f3)
    return {
        "chi": 1 - n1 + len(twos) - len(threes),
        "H1": {"betti": n1 - r2, "torsion": [d for d in f2 if d > 1]},
        "H2": {"betti": len(twos) - r2 - r3, "torsion": [d for d in f3 if d > 1]},
        "H3": {"betti": len(threes) - r3, "torsion": []},
    }


def dense_validate(pres):
    """``validate`` as the triple loop over every 3-, 1- and 2-handle."""
    for three in pres.three_handles:
        for one in pres.one_handles:
            total = sum(
                pres.inc3(three, two) * pres.inc2(two, one) for two in pres.two_handles
            )
            if total:
                raise HandleMoveError(
                    f"boundary-of-boundary is nonzero over {one!r} for {three!r}"
                )


def random_presentation(rng):
    """A valid chain complex on 2-8 one-handles, at least one of them idle.

    Each 3-handle t bounds ``m * a - b + s * z``, where ``b`` runs ``m``
    times along ``a`` and ``z``, when present, runs over nothing.
    """
    ones = [f"o{i}" for i in range(rng.randint(2, 8))]
    used = rng.sample(ones, rng.randint(1, len(ones) - 1))
    twos, inc2, inc3, threes = [], {}, {}, []

    def attach(name, row, times=1):
        twos.append(name)
        for one, v in row.items():
            if v:
                inc2[name, one] = times * v

    def random_row():
        return {one: rng.choice([-2, -1, 1, 1, 2]) for one in rng.sample(used, rng.randint(1, len(used)))}

    for i in range(rng.randint(1, 3)):
        attach(f"x{i}", random_row())
    for k in range(rng.randint(0, 2)):
        three, m, row = f"t{k}", rng.choice([-2, -1, 1, 2]), random_row()
        attach(f"a{k}", row)
        attach(f"b{k}", row, m)
        threes.append(three)
        inc3[three, f"a{k}"], inc3[three, f"b{k}"] = m, -1
        if rng.random() < 0.5:
            attach(f"z{k}", {})
            inc3[three, f"z{k}"] = rng.choice([-1, 1])
    rng.shuffle(twos)
    linking = {}
    for a, b in zip(twos, twos[1:]):
        if not a.startswith("z") and not b.startswith("z") and rng.random() < 0.5:
            linking[a, b] = rng.choice([-1, 1])
    for t in twos:
        framing = 0 if t.startswith("z") else rng.randint(-2, 2)
        if framing:
            linking[t, t] = framing
    return HandlePresentation(
        one_handles=ones,
        two_handles=twos,
        linking=linking,
        incidence2=inc2,
        three_handles=threes,
        incidence3=inc3,
    )


def random_move(rng, pres):
    """A move that may be illegal: a slide, or a cancellation of a unit incidence."""
    cancels = [("cancel12", k) for k, v in pres.incidence2.items() if abs(v) == 1]
    cancels += [("cancel23", (two, three)) for (three, two), v in pres.incidence3.items() if abs(v) == 1]
    if len(pres.two_handles) > 1 and (rng.random() < 0.6 or not cancels):
        mover, over = rng.sample(pres.two_handles, 2)
        return "slide", (mover, over, rng.choice([-1, 1]))
    return rng.choice(cancels) if cancels else None


def random_script(seed, moves=12):
    """Yield a random presentation after each legal move of a random script.

    A move is tried on a copy and dropped if it is illegal.
    """
    rng = random.Random(seed)
    pres = random_presentation(rng)
    yield None, pres
    for _ in range(moves):
        move = random_move(rng, pres)
        if move is None:
            return
        trial = pres.copy()
        try:
            getattr(trial, move[0])(*move[1])
        except HandleMoveError:
            continue
        pres = trial
        yield move, pres


def dense_linking(pres):
    """The linking matrix over every pair of 2-handles, framings on the diagonal."""
    return [[pres.link(a, b) for b in pres.two_handles] for a in pres.two_handles]


def congruent(q, p):
    """The matrix P^T Q P."""
    n = len(q)
    qp = [[sum(q[i][k] * p[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(p[k][i] * qp[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def broken_presentation(seed):
    """A random presentation with one 3-handle incidence and one 2-handle run changed."""
    rng = random.Random(seed)
    pres = random_presentation(rng)
    if not pres.three_handles:
        pres.three_handles.append("t9")
    three, two = rng.choice(pres.three_handles), rng.choice(pres.two_handles)
    pres._set_inc3(three, two, pres.inc3(three, two) + rng.choice([-1, 1]))
    pres._set_inc2(two, rng.choice(pres.one_handles), rng.choice([-1, 1]))
    return pres


class TestSparseTracker:
    @pytest.mark.parametrize("seed", range(40))
    def test_profiles_match_dense_reference_through_random_scripts(self, seed):
        for move, pres in random_script(seed):
            pres.validate()
            dense_validate(pres)
            assert pres.homology_profile() == dense_profile(pres), move

    def test_scripts_reach_every_move_and_keep_idle_handles(self):
        kinds, idle = set(), 0
        for seed in range(40):
            for move, pres in random_script(seed):
                kinds.add(move and move[0])
            idle += len(set(pres.one_handles) - {one for _, one in pres.incidence2})
        assert kinds == {None, "slide", "cancel12", "cancel23"}
        assert idle >= 40

    def test_slides_change_the_linking_matrix_by_congruence(self):
        # sliding mover over over replaces mover by mover + sign * over, so
        # Q becomes P^T Q P with P = I + sign * E[over, mover]
        slides = 0
        for seed in range(40):
            before = None
            for move, pres in random_script(seed):
                assert all(pres.linking.values())
                assert not any((b, a) in pres.linking for a, b in pres.linking if a != b)
                if move and move[0] == "slide":
                    mover, over, sign = move[1]
                    twos = pres.two_handles
                    p = [[int(i == j) for j in range(len(twos))] for i in range(len(twos))]
                    p[twos.index(over)][twos.index(mover)] += sign
                    assert dense_linking(pres) == congruent(dense_linking(before), p), move
                    slides += 1
                before = pres
        assert slides >= 200

    @pytest.mark.parametrize("seed", range(40))
    def test_broken_presentation_raises_the_triple_loop_message(self, seed):
        pres = broken_presentation(seed)
        try:
            dense_validate(pres)
        except HandleMoveError as exc:
            with pytest.raises(HandleMoveError) as info:
                pres.validate()
            assert str(info.value) == str(exc)
        else:
            pres.validate()

    def test_most_perturbed_presentations_are_broken(self):
        broken = 0
        for seed in range(40):
            try:
                broken_presentation(seed).validate()
            except HandleMoveError:
                broken += 1
        assert broken >= 20


class TestCostAndBound:
    def test_report_cost_does_not_grow_with_idle_handles(self):
        # 200,002 one-handles, three of them carrying an incidence: 4.5 s of
        # CPU time when every move and profile read all of them
        start = time.process_time()
        out = fibration_report(100_000)
        took = time.process_time() - start
        assert out["ok"] is True
        assert took < 1.0, f"{took:.2f} s"

    def test_cli_runs_any_genus_in_bounded_memory(self):
        # in a child process limited to 1 GB of address space: the idle
        # fiber handles are counted, so a picture of 2 * 10**12 one-handles
        # costs what the genus-1 picture does
        code = textwrap.dedent("""
            import resource, sys
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
            from blfkit import cli
            sys.exit(cli.main(["handle-sim", "--genus", "1000000000000"]))
        """)
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=30
        )
        elapsed = time.perf_counter() - start
        assert done.returncode == 0, done.stderr
        assert '"ok": true' in done.stdout
        assert elapsed < 5.0, f"{elapsed:.2f} s"
