"""Command-line interface: exit codes, output shapes, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from blfkit import cli, scenarios


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
        ("oracle-crosscheck", "--count", "0"),
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


class TestUnwritableOutput:
    @pytest.mark.parametrize("command", [
        ("render", "family-1", "-o"),
        ("verify", "family-1", "--json"),
    ], ids=["render", "verify"])
    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_one_line_and_exit_two(self, tmp_path, command, where):
        path = tmp_path / "missing" / "out" if where == "missing-directory" else tmp_path
        proc = run_cli(*command, str(path))
        # a usage error, not a failed verification
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"blfkit: cannot write {path}: ")
        assert len(proc.stderr.splitlines()) == 1
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_failed_verification_keeps_exit_one(self, tmp_path, where):
        # the refutation of the positive modification stays re-runnable
        # from the shell whatever the report path
        path = tmp_path / "missing" / "out" if where == "missing-directory" else tmp_path
        proc = run_cli("verify", "positive-modification", "--json", str(path))
        assert proc.returncode == 1
        assert "[FAIL] reduced-monodromy" in proc.stdout
        assert proc.stderr.startswith(f"blfkit: cannot write {path}: ")
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

# the digest of every output above; a change to any output byte must
# change this value, in its own recorded step
CLI_DIGEST = "9ecd02b846b531c499363c0e98272a30f1bfa70e0a641882ca908cda6aab78d7"


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
        assert digests == [CLI_DIGEST, CLI_DIGEST]


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
        report = json.loads(proc.stdout)
        assert report["ok"] is True
        for key in ("word_agreements", "verdict_agreements", "homology_agreements"):
            assert report[key] == 10
        assert report["failures"] == []

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

    def test_genus_and_localized_exclude_each_other(self):
        # the localized piece has no genus, so a genus given with it is a
        # usage error rather than ignored
        proc = run_cli("handle-sim", "--genus", "5", "--localized")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "not allowed with argument --genus" in proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert "Traceback" not in proc.stderr


# `dataclasses` would pull in `inspect`, `ast` and `dis`; the modules of
# handle-sim, oracle-crosscheck and render wait for their commands
NO_DATACLASSES = {"dataclasses", "inspect", "ast", "dis"}


class TestImportFootprint:
    @pytest.mark.parametrize("modules, unwanted", [
        (["blfkit", "blfkit.cli"],
         NO_DATACLASSES | {"blfkit.handles", "blfkit.oracle", "blfkit.render"}),
        (["blfkit.cli", "blfkit.handles", "blfkit.oracle", "blfkit.render"], NO_DATACLASSES),
    ], ids=["cli", "every-module"])
    def test_modules_loaded_by_an_import(self, modules, unwanted):
        # a fresh interpreter without site, as the benchmark starts one
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        code = ("import importlib, sys; sys.path.insert(0, sys.argv[1]);"
                " [importlib.import_module(m) for m in sys.argv[2:]]; print(*sys.modules)")
        proc = subprocess.run([sys.executable, "-S", "-c", code, src, *modules],
                              capture_output=True, text=True, check=True)
        loaded = set(proc.stdout.split())
        assert set(modules) <= loaded
        assert loaded & unwanted == set()


# -- the JSON writer ------------------------------------------------------------


def reference(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class Pair(NamedTuple):
    left: object
    right: object


strings = st.text() | st.sampled_from(
    ['', '"', "\\", "\"quoted\"", "\n\t\r\x00\x1f\x7f", "é", "\u2028", "\U0001f600", "\ud800"]
)
scalars = (
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2 ** 64).map(lambda n: -n)
    | st.floats() | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 1e300])
    | strings
)
documents = st.recursive(
    scalars,
    lambda children: (
        st.lists(children) | st.lists(children).map(tuple)
        | st.builds(Pair, children, children) | st.dictionaries(strings, children)
    ),
    max_leaves=40,
)


class TestJsonWriter:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(doc=documents)
    def test_matches_the_standard_library(self, doc):
        assert cli._dump(doc) == reference(doc)

    @pytest.mark.parametrize("doc", [{1, 2}, {"a": [b"x"]}, [object()]], ids=["set", "bytes", "object"])
    def test_other_types_raise(self, doc):
        with pytest.raises(TypeError):
            reference(doc)
        with pytest.raises(TypeError):
            cli._dump(doc)

    def test_every_json_command(self, monkeypatch, tmp_path):
        # each document a command writes, with its tuples and NamedTuples
        # as the command built it, against the standard library's text
        written = []
        dump = cli._dump

        def checked(doc):
            text = dump(doc)
            assert text == reference(doc)
            written.append(text)
            return text

        monkeypatch.setattr(cli, "_dump", checked)
        commands = [["verify", name, "--json", str(tmp_path / "report.json")]
                    for name in sorted(scenarios.SCENARIOS)]
        commands += [["dump-scenario", name] for name in sorted(scenarios.SCENARIOS)]
        commands += [
            ["generate-family", "3"],
            ["handle-sim", "--genus", "3"],
            ["handle-sim", "--localized"],
            ["oracle-crosscheck", "--count", "20", "--seed", "4"],
        ]
        for argv in commands:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                cli.main(argv)
            if argv[0] != "verify":
                assert buf.getvalue() == written[-1], argv
        assert len(written) == len(commands)
