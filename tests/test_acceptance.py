"""Acceptance suite: the eight headline checks, one verdict line each.

Each test computes its verdict, prints a single PASS/FAIL line, then asserts.
The positive-modification scenario records a right-handed reduced twist as
its expectation.  That expectation is refuted: its cycles are the standard
cycles reversed, so its monodromy is the same mapping class as the negative
modification's and reduces to the same left twist.  Criterion 3 asserts this
argument step by step, and the right twist for the mirror word.
"""

import json
import subprocess
import sys
import time

from blfkit import (
    ClosedCurve,
    TwistWord,
    arcs_isotopic,
    curves_isotopic,
    dehn_twist,
    relabel_curve,
)
from blfkit.handles import (
    expected_final_profile,
    fibration_presentation,
    is_ball_profile,
    is_standard_form,
    localized_presentation,
    run_script,
    simplification_script,
)
from blfkit.oracle import run_agreement_suite
from blfkit.scenarios import (
    get_scenario,
    reduce_twist_word,
    verify_reduced_monodromy,
    verify_round_invariance,
    verify_vertex_joining,
)
from blfkit.schemes import Relabeling, hexagon_scheme


def verdict(number, label, ok):
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_1_negative_modification_round_invariance_is_fast():
    start = time.monotonic()
    report = verify_round_invariance(get_scenario("negative-modification"))
    elapsed = time.monotonic() - start
    ok = report.ok and elapsed < 1.0
    assert verdict(1, "negative modification fixes the round curve in <1s", ok)


def test_criterion_2_surgery_yields_annulus_with_left_reduced_twist():
    report = verify_reduced_monodromy(get_scenario("negative-modification"))
    ok = (
        report.chi == 0
        and report.boundary_circles == 2
        and report.cap_slides == 2
        and report.handedness == "left"
        and report.ok
    )
    assert verdict(2, "surgered annulus carries a left boundary-parallel twist", ok)


def test_criterion_3_positive_modification():
    sc = get_scenario("positive-modification")
    curve, arc, cv = sc.curves["C"], sc.arc, sc.curves
    round_ok = verify_round_invariance(sc).ok
    joining = verify_vertex_joining(sc)

    # Each D_i is C_i reversed, and a Dehn twist does not see the orientation
    # of its curve, so T_D3 T_D2 T_D1 is the standard monodromy T_C3 T_C2 T_C1.
    reversed_ok = all(
        curves_isotopic(cv[f"D{i}"], cv[f"C{i}"].reversed(), oriented=True)
        for i in (1, 2, 3)
    )
    standard = TwistWord(tuple((cv[n], 1) for n in ("C3", "C2", "C1")))
    same_class = curves_isotopic(
        sc.monodromy.apply(curve), standard.apply(curve), oriented=True
    ) and arcs_isotopic(sc.monodromy.apply(arc), standard.apply(arc))

    # Hence the reduced twist is criterion 2's left twist.
    reduced = verify_reduced_monodromy(sc)
    negative = verify_reduced_monodromy(get_scenario("negative-modification"))
    left_ok = reduced.handedness == "left" == negative.handedness

    # The right-handed twist belongs to the achiral mirror, the inverse word,
    # reduced by the verifier's own surgery and projection.
    mirror = TwistWord(tuple((cv[n], -1) for n in ("D1", "D2", "D3")))
    mirror_fixes = curves_isotopic(mirror.apply(curve), curve, oriented=True)
    mirror_hand, after, _ = reduce_twist_word(sc.scheme, curve, mirror, arc)
    mirror_right = mirror_hand == "right"

    ok = (
        round_ok and joining.ok and reversed_ok and same_class and left_ok
        and mirror_fixes and mirror_right
        and (after.cap_slides, after.slide_count) == (2, 2)
    )
    verdict(
        3,
        "positive modification: invariance, joining, same class as the "
        "negative one so left reduction, right reduction for its mirror",
        ok,
    )
    assert round_ok
    assert joining.ok
    assert joining.matches == {"D1+D2": "C3", "D2+D3": "C1", "D3+D1": "C2"}
    assert reversed_ok
    assert same_class
    assert reduced.handedness == "left"
    assert reduced.handedness == negative.handedness
    assert mirror_fixes
    assert mirror_right
    assert (after.cap_slides, after.slide_count) == (2, 2)


def test_criterion_4_family_round_invariance_within_budget():
    ok = True
    for n in (1, 2, 3):
        start = time.monotonic()
        report = verify_round_invariance(get_scenario(f"family-{n}"))
        elapsed = time.monotonic() - start
        ok = ok and report.ok and elapsed < 30.0
    assert verdict(4, "family members n=1,2,3 fix the round curve in <30s", ok)


def test_criterion_5_random_words_agree_with_group_oracle():
    report = run_agreement_suite(count=200, seed=0, max_length=5)
    ok = (
        report.ok
        and report.count == 200
        and report.word_agreements == 200
        and report.homology_agreements == 200
        and report.verdict_agreements == 200
    )
    assert verdict(5, "200 random twist words match the group oracle", ok)


def test_criterion_6_mapping_class_identities():
    scheme = hexagon_scheme().build()
    a = ClosedCurve(scheme, (0,))
    b = ClosedCurve(scheme, (3, 2))
    probes = [ClosedCurve(scheme, w) for w in ((1,), (2,), (0, 1), (5, 4))]

    inverse_ok = all(
        curves_isotopic(dehn_twist(dehn_twist(x, b, 1), b, -1), x, oriented=True)
        for x in probes
    )

    delta = ClosedCurve(scheme, (1, 5))  # disjoint from a
    commute_ok = all(
        curves_isotopic(
            dehn_twist(dehn_twist(x, a, 1), delta, 1),
            dehn_twist(dehn_twist(x, delta, 1), a, 1),
            oriented=True,
        )
        for x in probes
    )

    lhs = TwistWord(((a, 1), (b, 1), (a, 1)))
    rhs = TwistWord(((b, 1), (a, 1), (b, 1)))
    braid_ok = all(
        curves_isotopic(lhs.apply(x), rhs.apply(x), oriented=True) for x in probes
    )

    rot = Relabeling.from_dict(
        scheme,
        {
            **{k: (k + 2) % 6 for k in range(6)},
            **{f"u{k}": f"u{(k + 2) % 6}" for k in range(6)},
        },
    )
    conj_ok = all(
        curves_isotopic(
            dehn_twist(x, relabel_curve(rot, b)),
            relabel_curve(rot, dehn_twist(relabel_curve(rot.inverse(), x), b)),
            oriented=True,
        )
        for x in probes
    )

    ok = inverse_ok and commute_ok and braid_ok and conj_ok
    assert verdict(6, "twist identities: inverse, commuting, braid, conjugation", ok)


def test_criterion_7_handle_script_invariance_and_profiles():
    ok = True
    for genus in (1, 2, 3):
        pres = fibration_presentation(genus)
        log = run_script(pres, simplification_script())
        profiles = [entry["profile"] for entry in log]
        ok = ok and all(p == profiles[0] for p in profiles)
        ok = ok and profiles[-1] == expected_final_profile(genus)
        ok = ok and is_standard_form(pres, genus)
    ok = ok and is_ball_profile(localized_presentation().homology_profile())
    assert verdict(7, "handle script preserves homology; localized piece is a ball", ok)


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "blfkit.cli", *args], capture_output=True, text=True
    )


def test_criterion_8_reports_and_drawings_are_deterministic(tmp_path):
    ok = True
    for name in ("negative-modification", "positive-modification", "family-2"):
        a = _cli("dump-scenario", name)
        b = _cli("dump-scenario", name)
        ok = ok and a.returncode == 0 and a.stdout == b.stdout
        json.loads(a.stdout)
    one, two = tmp_path / "a.svg", tmp_path / "b.svg"
    ok = ok and _cli("render", "negative-modification", "-o", str(one)).returncode == 0
    ok = ok and _cli("render", "negative-modification", "-o", str(two)).returncode == 0
    ok = ok and one.read_bytes() == two.read_bytes()
    assert verdict(8, "reports and drawings are byte-identical across runs", ok)
