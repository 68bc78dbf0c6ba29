"""The mutant ledger: one-line changes to blfkit that its tests must catch.

Run it from the root of the repository as ``python tools/mutants.py``.

Each mutant is a file under ``src/blfkit``, an exact old text that occurs in
it once, the new text, and the test files expected to fail.  For each one
the script copies ``src``, ``tests`` and ``pyproject.toml`` to a temporary
directory, applies the mutant there and runs pytest on those test files
only, stopping at the first failure.  A mutant is killed when a test fails.
The script exits 1 when a mutant survives, when its old text does not
occur exactly once, or when pytest stops for any other reason (an error
while collecting, say).  It needs only the standard library and pytest.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: Tuple[str, ...]


MUTANTS = (
    Mutant(
        "twist-handedness", "src/blfkit/twists.py",
        "if sign * power > 0:",
        "if sign * power < 0:",
        ("tests/test_twists.py",),
    ),
    Mutant(
        "slide-three-handle-sign", "src/blfkit/handles.py",
        "self.inc3(three, over) - sign * self.inc3(three, mover)",
        "self.inc3(three, over) + sign * self.inc3(three, mover)",
        ("tests/test_acceptance.py",),
    ),
    Mutant(
        "slide-linking-sign", "src/blfkit/handles.py",
        "self.link(mover, other) + sign * self.link(over, other)",
        "self.link(mover, other) - sign * self.link(over, other)",
        ("tests/test_handles.py",),
    ),
    Mutant(
        "cancel23-second-three-handle", "src/blfkit/handles.py",
        'raise HandleMoveError(f"{other!r} is also incident to {two!r}")',
        "pass",
        ("tests/test_handles.py",),
    ),
    Mutant(
        "ball-without-h2", "src/blfkit/handles.py",
        '        and profile["H2"] == {"betti": 0, "torsion": []}\n',
        "",
        ("tests/test_handles.py",),
    ),
    Mutant(
        "surgery-without-disk-check", "src/blfkit/surgery.py",
        "if not piece1 or not piece2:",
        "if False:",
        ("tests/test_surgery.py",),
    ),
    Mutant(
        "projection-without-obstruction", "src/blfkit/surgery.py",
        "if any(passage_crossings(item, sr.curve)):",
        "if False:",
        ("tests/test_surgery.py",),
    ),
    Mutant(
        "cap-count-off-by-one", "src/blfkit/surgery.py",
        "caps = len(item.tokens) - len(kept)",
        "caps = len(item.tokens) - len(kept) + 1",
        ("tests/test_surgery.py",),
    ),
    Mutant(
        "projection-dataclass", "src/blfkit/surgery.py",
        "class Projection(NamedTuple):",
        "from dataclasses import dataclass\n\n\n@dataclass\nclass Projection:",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "round-invariance-unoriented", "src/blfkit/scenarios.py",
        "ok=curves_isotopic(img, c, oriented=True),",
        "ok=curves_isotopic(img, c, oriented=False),",
        ("tests/test_scenarios.py",),
    ),
    Mutant(
        "reduced-monodromy-any-surface", "src/blfkit/scenarios.py",
        "ok = chi == 0 and len(circles) == 2",
        "ok = True",
        ("tests/test_scenarios.py",),
    ),
    Mutant(
        "joining-without-reverse", "src/blfkit/scenarios.py",
        "((v, rows), (v.reversed(), _reversed_rows(rows, len(v.tokens))))",
        "((v, rows),)",
        ("tests/test_scenarios.py",),
    ),
    Mutant(
        "smoothings-trace-the-reverse", "src/blfkit/scenarios.py",
        "_reversed_rows(rows, len(v.tokens))",
        "passage_crossings(u, v.reversed())",
        ("tests/test_scenarios.py",),
    ),
    Mutant(
        "position-table-in-passage-crossings", "src/blfkit/curves.py",
        "    pairs, table, _ = _crossing_data(c)\n",
        "    from . import render\n"
        "    render.position_table(scheme, {'c': c})\n"
        "    pairs, table, _ = _crossing_data(c)\n",
        ("tests/test_intersections.py",),
    ),
    Mutant(
        "head-action-is-abelianization", "src/blfkit/oracle.py",
        "images, auto, tuple(map(tuple, action)),",
        "images, auto, tuple(map(tuple, auto.abelianization())),",
        ("tests/test_oracle.py",),
    ),
    Mutant(
        "head-keeps-shorter-head-images", "src/blfkit/oracle.py",
        "            _base_images(auto),\n",
        "            self[tuple(first)][4] if first else _base_images(auto),\n",
        ("tests/test_oracle.py",),
    ),
    Mutant(
        "base-images-not-cyclically-reduced", "src/blfkit/oracle.py",
        "        cyclically_reduce(chain.from_iterable(map(letters.__getitem__, word)))",
        "        reduce_word(chain.from_iterable(map(letters.__getitem__, word)))",
        ("tests/test_oracle.py",),
    ),
    Mutant(
        "end-of-slot-count-bisect-left", "src/blfkit/curves.py",
        "self.before(s, bisect_right)",
        "self.before(s, bisect_left)",
        ("tests/test_intersections.py", "tests/test_taut.py"),
    ),
    Mutant(
        "least-rotation-resets-on-ties", "src/blfkit/curves.py",
        "k = i if s[k] < s[j] else k + 1",
        "k = i if s[k] <= s[j] else k + 1",
        ("tests/test_curves.py",),
    ),
    Mutant(
        "unglued-token-raises-key-error", "src/blfkit/curves.py",
        'raise CurveError(f"token {t!r} is not a glued slot") from None',
        "raise",
        ("tests/test_curves.py",),
    ),
    Mutant(
        "step-without-wrap", "src/blfkit/curves.py",
        "(location[t][1] - i) % len(scheme.polygons[pi])",
        "(location[t][1] - i)",
        ("tests/test_intersections.py", "tests/test_twist_kernel.py"),
    ),
    Mutant(
        "corner-walk-clockwise", "src/blfkit/schemes.py",
        "zip(poly, poly[1:] + poly[:1])",
        "zip(poly, poly[-1:] + poly[:-1])",
        ("tests/test_schemes.py",),
    ),
    Mutant(
        "corner-walks-not-kept", "src/blfkit/schemes.py",
        "    @functools.cached_property\n    def _walks(",
        "    @property\n    def _walks(",
        ("tests/test_schemes.py",),
    ),
    Mutant(
        "truncate-the-corner-a-side-starts-at", "src/blfkit/schemes.py",
        "corners = {(k + 1) % n for k in walk}",
        "corners = {(k) % n for k in walk}",
        ("tests/test_schemes.py",),
    ),
)


def run(mutant: Mutant) -> str:
    """Apply ``mutant`` to a fresh copy and run its tests: "killed", "survived"
    or a line saying why it could not be judged."""
    with open(os.path.join(ROOT, mutant.path), encoding="utf-8") as f:
        text = f.read()
    found = text.count(mutant.old)
    if found != 1:
        return f"old text occurs {found} times in {mutant.path}, not once"
    with tempfile.TemporaryDirectory(prefix="blfkit-mutant-") as tmp:
        for name in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, name), os.path.join(tmp, name),
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), tmp)
        with open(os.path.join(tmp, mutant.path), "w", encoding="utf-8") as f:
            f.write(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests],
            cwd=tmp, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
    if proc.returncode == 0:
        return "survived"
    if proc.returncode == 1:
        return "killed"
    tail = proc.stdout.strip().splitlines()[-1:] or [""]
    return f"pytest exited {proc.returncode}: {tail[0]}"


def main() -> int:
    bad = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        verdict = run(mutant)
        bad += verdict != "killed"
        print(f"{verdict:<8} {mutant.name} ({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
