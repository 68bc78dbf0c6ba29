"""End-to-end scenario verification: registry, individual checks, full runs."""

import json
import subprocess
import sys
import textwrap
import time

import pytest

from blfkit import Arc, ClosedCurve, PolygonScheme, cli, curves
from blfkit.curves import curves_isotopic, geometric_intersection, is_simple, passage_crossings
from blfkit.errors import SchemeError
from blfkit.schemes import Relabeling
from blfkit.scenarios import (
    MAX_FAMILY_MEMBER,
    SCENARIOS,
    _reversed_rows,
    _smoothings,
    family_scenario,
    get_scenario,
    negative_modification_scenario,
    run_scenario,
    verify_reduced_monodromy,
    verify_round_invariance,
    verify_vertex_joining,
)
from helpers import chord_crossings, position_table


class TestRegistry:
    @pytest.mark.parametrize("n", [0, -1])
    def test_family_needs_a_positive_member(self, n):
        with pytest.raises(SchemeError):
            family_scenario(n)

    def test_all_scenarios_present(self):
        assert set(SCENARIOS) == {
            "negative-modification",
            "positive-modification",
            "family-1",
            "family-2",
            "family-3",
        }

    def test_family_builds_its_rotation_table_once(self, monkeypatch):
        # each cycle is relabeled through the rotation's kept table, so the
        # build is linear in n, not a table rebuilt per cycle
        calls = []
        from_dict = Relabeling.from_dict
        monkeypatch.setattr(Relabeling, "from_dict", staticmethod(
            lambda scheme, mapping: calls.append(mapping) or from_dict(scheme, mapping)
        ))
        for n in (10, 50):
            calls.clear()
            family_scenario(n)
            assert len(calls) == 1, n

    def test_get_scenario_unknown(self):
        with pytest.raises(KeyError):
            get_scenario("no-such-scenario")

    def test_scenarios_have_round_curve_first(self):
        for name in SCENARIOS:
            sc = get_scenario(name)
            assert len(sc.curves) >= 1
            assert sc.expected.get("round_invariant") is True


class TestFamilyBound:
    @pytest.mark.parametrize("n", [MAX_FAMILY_MEMBER + 1, 10**9])
    def test_cli_rejects_a_member_past_the_bound_before_building(self, n):
        # in a child process limited to 1 GB of address space: a member is
        # about 9 KB a unit of n, so 10**9 built would need about 9 TB
        code = textwrap.dedent(f"""
            import resource, sys
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
            from blfkit import cli
            sys.exit(cli.main(["generate-family", "{n}"]))
        """)
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=30
        )
        elapsed = time.perf_counter() - start
        assert done.returncode == 3, done.stderr
        assert done.stdout == ""
        assert done.stderr == (
            f"blfkit: family member n must be at most {MAX_FAMILY_MEMBER}, got {n}\n"
        )
        assert elapsed < 5.0, f"{elapsed:.2f} s"

    def test_member_past_the_bound_is_a_scheme_error(self):
        with pytest.raises(SchemeError, match=f"at most {MAX_FAMILY_MEMBER}, got"):
            family_scenario(MAX_FAMILY_MEMBER + 1)


class TestFamilyCost:
    def test_cold_round_invariance_of_a_large_member(self):
        # in a child process, so every twist curve's crossing data is built
        # afresh: each reads c's points before a slot off the slots c
        # occupies, where counting every slot of the (4n + 2)-gon made the
        # check quadratic in n (20 s for n = 2000 on a 2-vCPU Xeon)
        code = textwrap.dedent("""
            import time
            from blfkit.scenarios import family_scenario, verify_round_invariance
            sc = family_scenario(2000)
            start = time.perf_counter()
            report = verify_round_invariance(sc)
            print(report.ok, time.perf_counter() - start)
        """)
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        ok, elapsed = done.stdout.split()
        assert ok == "True"
        assert float(elapsed) < 5.0, f"{float(elapsed):.2f} s"


class TestNamedScenarios:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_built_once_per_process(self, name):
        assert get_scenario(name) is get_scenario(name)

    def test_family_members_are_built_on_every_call(self):
        assert family_scenario(1) is not family_scenario(1)
        assert negative_modification_scenario() is not get_scenario("negative-modification")

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_frozen(self, name):
        sc = get_scenario(name)
        with pytest.raises(AttributeError):
            sc.name = "other"
        assert sc.name == name
        with pytest.raises(TypeError):
            sc.curves["X"] = sc.curves[sc.surgery_name]
        with pytest.raises(TypeError):
            sc.expected["round_invariant"] = False

    def test_hexagon_builds_keep_their_own_names_and_schemes(self):
        neg, fam, pos = (
            get_scenario(name)
            for name in ("negative-modification", "family-1", "positive-modification")
        )
        assert (neg.name, fam.name, pos.name) == (
            "negative-modification", "family-1", "positive-modification"
        )
        assert neg.description != fam.description
        assert len({id(neg.scheme), id(fam.scheme), id(pos.scheme)}) == 3
        assert neg.to_json()["polygons"] == fam.to_json()["polygons"]

    def test_runs_and_commands_leave_scenarios_unchanged(self, tmp_path, capsys):
        before = {name: json.dumps(get_scenario(name).to_json()) for name in SCENARIOS}
        for name in sorted(SCENARIOS):
            run_scenario(get_scenario(name))
            for argv in (["render", name, "-o", str(tmp_path / "out.svg")],
                         ["dump-scenario", name], ["verify", name], ["list-scenarios"]):
                cli.main(argv)
        capsys.readouterr()
        assert {name: json.dumps(get_scenario(name).to_json()) for name in SCENARIOS} == before


class TestRoundInvariance:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_composite_twist_fixes_round_curve(self, name):
        report = verify_round_invariance(get_scenario(name))
        assert report.ok
        assert report.image_word == report.curve_word

    @pytest.mark.parametrize("third", ["C1", "C3"])
    def test_a_monodromy_that_reverses_the_round_curve_fails(self, third):
        # the palindrome T_x T_C T_x T_C T_x carries C onto C reversed
        sc = get_scenario("negative-modification")
        sc = sc._replace(cycle_names=(third, "C", third, "C", third))
        c = sc.curves["C"]
        image = sc.monodromy.apply(c)
        assert curves_isotopic(image, c, oriented=False)
        assert not verify_round_invariance(sc).ok


class TestReducedMonodromy:
    def test_negative_modification_is_left(self):
        report = verify_reduced_monodromy(get_scenario("negative-modification"))
        assert report.ok
        assert report.chi == 0
        assert report.boundary_circles == 2
        assert report.handedness == "left"
        assert report.cap_slides == 2

    def test_cut_scheme_is_walked_once(self, monkeypatch):
        # gamma's circle and word, chi and the circle count all read the
        # cut scheme's one corner walk
        from blfkit import schemes

        sc = get_scenario("negative-modification")
        walks = []
        walk = schemes._corner_walks
        monkeypatch.setattr(schemes, "_corner_walks", lambda *a: walks.append(a) or walk(*a))
        assert verify_reduced_monodromy(sc).ok
        assert len(walks) == 1

    def test_positive_modification_computes_left_despite_expectation(self):
        # The right-handed expectation recorded on this scenario is refuted:
        # D_i is C_i reversed, so the monodromy is the same mapping class as
        # the negative modification's and reduces to the same left twist along
        # the same boundary-parallel curve.  The check reports the mismatch.
        report = verify_reduced_monodromy(get_scenario("positive-modification"))
        assert report.handedness == "left"
        assert not report.ok
        assert report.gamma_word == (1, 5)

    def test_family_one_matches_hexagon(self):
        report = verify_reduced_monodromy(get_scenario("family-1"))
        assert report.ok
        assert report.handedness == "left"
        assert report.cap_slides == 2

    def test_a_cut_that_is_no_annulus_fails(self):
        # the hexagon stabilized by one handle, its curves and arc carried
        # over token for token: the arc still reduces to a left twist, but
        # the cut surface has chi = -2
        sc = get_scenario("negative-modification")
        pairs = ((0, 3), (1, 4), (2, 5), (6, 8), (7, 9))
        scheme = PolygonScheme(10, tuple((i, j, "reversed") for i, j in pairs),
                               frozenset(range(10))).build()
        sc = sc._replace(
            scheme=scheme,
            curves={name: ClosedCurve(scheme, c.tokens) for name, c in sc.curves.items()},
            arc=Arc(scheme, sc.arc.start, sc.arc.tokens, sc.arc.end),
        )
        report = verify_reduced_monodromy(sc)
        assert report.handedness == "left"
        assert (report.chi, report.boundary_circles) == (-2, 2)
        assert not report.ok


def reference_smoothings(u, v):
    """``scenarios._smoothings`` as it read crossings off a two-item position table."""
    out = []
    for w in (v, v.reversed()):
        for ku, kv, _sign in chord_crossings(position_table({"u": u, "v": w}), "u", "v"):
            word = (
                u.tokens[ku:] + u.tokens[:ku]
                + w.tokens[kv:] + w.tokens[:kv]
            )
            out.append(ClosedCurve(u.scheme, word))
    return out


class TestVertexJoining:
    def test_positive_modification_recovers_standard_triple(self):
        report = verify_vertex_joining(get_scenario("positive-modification"))
        assert report.ok
        assert report.matches == {"D1+D2": "C3", "D2+D3": "C1", "D3+D1": "C2"}

    def test_smoothings_match_configuration(self):
        # the same smoothings up to isotopy and order, and none for a pair
        # that can be made disjoint, where the configuration may keep a
        # bigon and smooth it
        pairs = smoothed = bigons = 0
        for name in sorted(SCENARIOS):
            curves = get_scenario(name).curves.values()
            for u in curves:
                for v in curves:
                    if u is not v:
                        got = sorted(c.canonical() for c in _smoothings(u, v))
                        want = sorted(c.canonical() for c in reference_smoothings(u, v))
                        if geometric_intersection(u, v) == 0:
                            assert got == [], (name, u, v)
                            bigons += want != []
                        else:
                            assert got == want, (name, u, v)
                        pairs += 1
                        smoothed += len(got)
        assert pairs == 152 and smoothed > 100 and bigons > 0

    def test_reversed_rows_match_crossings(self):
        # the reverse's crossings, read off v's, are those passage_crossings
        # lists for v.reversed() itself, row for row and in order, for every
        # curve of a scenario against every simple one
        pairs = crossings = 0
        for name in sorted(SCENARIOS):
            members = list(get_scenario(name).curves.values())
            for u in members:
                for v in filter(is_simple, members):
                    got = _reversed_rows(passage_crossings(u, v), len(v.tokens))
                    assert got == passage_crossings(u, v.reversed()), (name, u, v)
                    pairs += 1
                    crossings += sum(map(len, got))
        assert pairs == 181 and crossings > 0

    def test_warm_joining_traces_nothing(self, monkeypatch):
        # the pairs are the scenario's own curves, which keep their crossing
        # data: a second check builds no reversed curve's and traces nothing
        sc = get_scenario("positive-modification")
        first = verify_vertex_joining(sc)
        traced = []
        trace = curves._traces_once
        monkeypatch.setattr(curves, "_traces_once", lambda c: traced.append(c) or trace(c))
        assert verify_vertex_joining(sc) == first
        assert traced == []


class TestRunScenario:
    def test_negative_modification_passes(self):
        out = run_scenario(get_scenario("negative-modification"))
        assert out["ok"] is True
        checks = [(r["check"], r["ok"]) for r in out["reports"]]
        assert checks == [("round-invariance", True), ("reduced-monodromy", True)]

    def test_positive_modification_fails_only_on_reduced_check(self):
        out = run_scenario(get_scenario("positive-modification"))
        assert out["ok"] is False
        by_check = {r["check"]: r["ok"] for r in out["reports"]}
        assert by_check == {
            "round-invariance": True,
            "reduced-monodromy": False,
            "vertex-joining": True,
        }

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_family_members_pass(self, n):
        out = run_scenario(get_scenario(f"family-{n}"))
        assert out["ok"] is True
