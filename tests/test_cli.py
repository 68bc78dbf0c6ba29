"""Command-line interface: exit codes, output shapes, determinism."""

import json
import os
import subprocess
import sys

import pytest


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "blfkit.cli", *args],
        capture_output=True,
        text=True,
    )


class TestVerify:
    def test_passing_scenario_exits_zero(self):
        proc = run_cli("verify", "negative-modification")
        assert proc.returncode == 0
        assert "[ok] round-invariance" in proc.stdout
        assert "[ok] reduced-monodromy" in proc.stdout
        assert "[FAIL]" not in proc.stdout

    def test_failing_check_exits_one(self):
        proc = run_cli("verify", "positive-modification")
        assert proc.returncode == 1
        assert "[FAIL] reduced-monodromy" in proc.stdout
        assert "[ok] vertex-joining" in proc.stdout

    def test_json_report_written(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("verify", "family-1", "--json", str(out))
        assert proc.returncode == 0
        data = json.loads(out.read_text())
        assert data["scenario"] == "family-1"
        assert data["ok"] is True

    def test_unknown_scenario_rejected(self):
        proc = run_cli("verify", "nope")
        assert proc.returncode == 2


class TestRejectedInput:
    @pytest.mark.parametrize("args", [
        ("generate-family", "0"),
        ("handle-sim", "--genus", "0"),
        ("oracle-crosscheck", "--max-length", "0"),
        ("oracle-crosscheck", "--max-length", "-3"),
        ("oracle-crosscheck", "--count", "-1"),
        # an oracle image past oracle.MAX_IMAGE_LETTERS
        ("oracle-crosscheck", "--count", "1", "--seed", "0", "--max-length", "40"),
    ])
    def test_one_line_and_exit_three(self, args):
        proc = run_cli(*args)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("blfkit: ")
        assert len(proc.stderr.splitlines()) == 1
        assert "Traceback" not in proc.stderr


class TestListScenarios:
    def test_lists_all_five(self):
        proc = run_cli("list-scenarios")
        assert proc.returncode == 0
        names = [line.split(":")[0] for line in proc.stdout.splitlines() if line]
        assert sorted(names) == [
            "family-1",
            "family-2",
            "family-3",
            "negative-modification",
            "positive-modification",
        ]


class TestDumpDeterminism:
    @pytest.mark.parametrize("name", ["negative-modification", "positive-modification"])
    def test_dump_is_byte_identical_across_runs(self, name):
        a = run_cli("dump-scenario", name)
        b = run_cli("dump-scenario", name)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
        json.loads(a.stdout)

    def test_generate_family_matches_dump(self):
        a = run_cli("generate-family", "2")
        b = run_cli("dump-scenario", "family-2")
        assert a.returncode == b.returncode == 0
        assert json.loads(a.stdout) == json.loads(b.stdout)


# every scenario through ``cli.main``: verify (stdout, exit code, --json),
# dump-scenario and render, writing files in the working directory; then
# an oracle cross-check and a handle simulation, which fill the per-scheme
# step tables and the tables kept on twist curves; prints the sha256 of
# all of it
DIGEST_SCRIPT = """
import contextlib, hashlib, io
from blfkit import cli, scenarios
digest = hashlib.sha256()

def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    digest.update(f"{argv} {code}\\n{buf.getvalue()}".encode())

for name in sorted(scenarios.SCENARIOS):
    report, svg = "report.json", "scene.svg"
    run(["verify", name, "--json", report])
    run(["dump-scenario", name])
    run(["render", name, "-o", svg])
    for path in (report, svg):
        with open(path, "rb") as fh:
            digest.update(fh.read())
run(["oracle-crosscheck", "--count", "50"])
run(["handle-sim", "--genus", "2"])
print(digest.hexdigest())
"""


class TestHashSeed:
    def test_outputs_do_not_depend_on_the_hash_seed(self, tmp_path):
        digests = []
        for seed in ("123", "77"):
            out = tmp_path / seed
            out.mkdir()
            proc = subprocess.run(
                [sys.executable, "-c", DIGEST_SCRIPT], cwd=out,
                capture_output=True, text=True, env={**os.environ, "PYTHONHASHSEED": seed},
            )
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.strip())
        assert len(digests[0]) == 64
        assert digests[0] == digests[1]


class TestRender:
    def test_svg_byte_identical_across_runs(self, tmp_path):
        one, two = tmp_path / "a.svg", tmp_path / "b.svg"
        assert run_cli("render", "negative-modification", "-o", str(one)).returncode == 0
        assert run_cli("render", "negative-modification", "-o", str(two)).returncode == 0
        data = one.read_bytes()
        assert data == two.read_bytes()
        assert data.startswith(b"<svg") or b"<svg" in data[:200]


class TestOracleCrosscheck:
    def test_agreement_run_exits_zero(self):
        proc = run_cli("oracle-crosscheck", "--count", "10", "--seed", "3",
                       "--max-length", "4")
        assert proc.returncode == 0
        assert "10/10" in proc.stdout or "ok" in proc.stdout.lower()

    def test_seeded_runs_identical(self):
        a = run_cli("oracle-crosscheck", "--count", "10", "--seed", "3")
        b = run_cli("oracle-crosscheck", "--count", "10", "--seed", "3")
        assert a.stdout == b.stdout


class TestHandleSim:
    def test_full_picture_trace(self):
        proc = run_cli("handle-sim", "--genus", "2")
        assert proc.returncode == 0
        assert "cancel12" in proc.stdout
        assert "slide" in proc.stdout

    def test_localized_piece(self):
        proc = run_cli("handle-sim", "--localized")
        assert proc.returncode == 0
