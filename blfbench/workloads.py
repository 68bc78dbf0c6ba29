"""The three blfkit benchmark workloads.

A workload builds its fixed state at construction (the set-up the
benchmark times), makes the inputs of pass ``j`` from the benchmark seed,
and runs a pass: a closed loop of verdict-producing operations through
blfkit's public API.  Every pass runs the same operations, so that each
has a best latency over the run; only twist-ladder changes how its
inputs are written from pass to pass.  Every output is checked against a witness that does
not share the code path under test.  A failed check is counted, whether or
not it is a known defect; the ledger in ``defects.py`` only lets the
result tell a known failure from a new one.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import json
import os
import random
import time
import xml.etree.ElementTree as ET
from collections import Counter
from typing import Dict, List, Sequence, Tuple

from blfkit import cli, curves, handles, oracle, scenarios, twists

FAILURE_EXAMPLES = 5


class Tally:
    """Reference checks attempted and failed, by ``"<kind>|<subject>"``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()


class Recorder:
    """Operation latencies, reference-check tallies and output digests.

    Every pass repeats the operations of the first, under the same keys,
    so each has a best latency: the one least slowed by the host.  So does
    the time after each operation, up to the start of the next (or the end
    of the pass), which holds the checks of its output: timed apart from
    the operation, so that no timed step is much longer than one
    operation.
    Checks of the first pass go to ``first``, those of every later pass to
    ``rest``.  The inputs of a first pass, and so its number of checks and
    of failures, depend only on the seed, while the number of later passes
    depends on the machine's speed; the benchmark's ``attempted`` and
    ``failed`` come from ``first`` so that they repeat exactly.
    """

    def __init__(self, on_op=None) -> None:
        self.op_s: List[float] = []
        self.best: Dict[str, float] = {}
        self.step_best: Dict[str, float] = {}
        self.repeats: Counter = Counter()
        self._step = None
        self.first = Tally()
        self.rest = Tally()
        self.tally = self.first
        self.examples: List[str] = []
        self.digests: Dict[str, str] = {}
        self.first_digests: Dict[str, str] = {}
        self._on_op = on_op

    def _end_step(self, now: float) -> None:
        if self._step is not None:
            key, t0 = self._step
            self.step_best[key] = min(now - t0, self.step_best.get(key, now - t0))
            self._step = None

    def end_pass(self) -> None:
        self._end_step(time.perf_counter())
        if self.tally is self.first:
            self.tally = self.rest
            self.first_digests = dict(self.digests)

    def op(self, key: str, fn, *args):
        """Run operation ``key`` and record its latency and its best one."""
        if self._on_op is not None:
            self._on_op(len(self.op_s))
        t0 = time.perf_counter()
        self._end_step(t0)
        out = fn(*args)
        t1 = time.perf_counter()
        self._step = (key, t1)
        dt = t1 - t0
        self.op_s.append(dt)
        self.best[key] = min(dt, self.best.get(key, dt))
        self.repeats[key] += 1
        return out

    def check(self, kind: str, subject: str, ok: bool, detail: str = "") -> None:
        self.tally.attempted += 1
        if ok:
            return
        self.tally.failed += 1
        self.tally.failures[f"{kind}|{subject}"] += 1
        if len(self.examples) < FAILURE_EXAMPLES:
            self.examples.append(f"{kind} [{subject}] {detail}".rstrip())

    def digest(self, key: str, data: bytes) -> None:
        """Output determinism: a digest must match the first one seen."""
        d = hashlib.sha256(data).hexdigest()
        first = self.digests.get(key)
        if first is None:
            self.digests[key] = d
        else:
            self.check("determinism", key, d == first, "output differs between passes")


def _free_image(auto_steps, word):
    for auto in auto_steps:
        word = auto.apply(word)
    return oracle.cyclically_reduce(word)


class OracleCrosscheck:
    """``oracle.run_agreement_suite`` on seeded random twist words.

    Why: many short-to-medium words over C1..C3 on the hexagon, each image
    compared 16 times for isotopy.  ``canonical`` (``_min_rotation``) is
    the largest share, about half of a traced pass, so this is where
    canonical-form and caching changes show.

    Moves: ``curves.canonical.*`` (wall_s, op_ms.p95, peak_rss_mb);
    ``curves.is_simple.*`` and ``twists.dehn_twist.*`` (wall_s);
    ``oracle.free_group.*`` (wall_s, here only).  Minor share:
    ``curves.taut_build``, ``curves.crossings``.  Flat: ``surgery``,
    ``scenarios.verify``, ``handles``, ``render``, ``cli``.

    Each operation is one twist word (a one-word suite run, so the word is
    drawn by the suite's own generator from a seed the benchmark makes).
    Cost grows with the square of the image lengths, which are
    heavy-tailed, so the words are matched to fixed costs: a reference
    pool of ``pool_factor`` x ``words_per_pass`` words, drawn once for all
    seeds, is sorted by the sum of the squared lengths of the oracle
    images after each twist, and for the middle word of each run of
    ``pool_factor`` neighbours the seed's own pool, twice as large, gives
    up the word nearest in that cost.  So seeds check different words at
    nearly the same cost.  The costliest tenth (``fixed_tail`` words) is
    the reference pool's own for every seed: there, words of the same
    cost proxy differ in time by up to 1.5x, so matched words moved
    op_ms.p95 by 0.19 of its median from seed to seed.  Words with an image that reaches ``max_image``
    tokens after any of their twists (about 19% of the generator's words)
    are left out, or a few of them would decide a pass.  Every pass checks
    the same words, as a caller re-checking its images would.  A pass is
    kept short (120 words, under a second) so that each word repeats often
    in a run; that leaves six beyond op_ms.p95.
    """

    name = "oracle-crosscheck"
    max_length = 5
    max_image = 128
    words_per_pass = 120
    pool_factor = 4
    fixed_tail = 12

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.gens = dict(oracle.GENERATORS)
        self.base = dict(oracle.BASE_WORDS)
        self.words: List[int] = []

    def _image_sizes(self, word_seed: int) -> List[int]:
        """Lengths of the oracle images of the base words after each twist
        of the word: the engine twists every one of them."""
        (word,) = oracle.random_twist_words(1, word_seed, self.max_length)
        sizes = []
        for w in self.base.values():
            for g in word:
                w = oracle.cyclically_reduce(self.gens[g].apply(w))
                sizes.append(len(w))
        return sizes

    def _pool(self, rng: random.Random, size: int) -> List[Tuple[int, int]]:
        """``size`` words as (sum of squared image lengths, word seed), sorted."""
        pool = []
        while len(pool) < size:
            s = rng.randrange(2 ** 31)
            sizes = self._image_sizes(s)
            if max(sizes) < self.max_image:
                pool.append((sum(n * n for n in sizes), s))
        return sorted(pool)

    def inputs(self, j: int) -> List[int]:
        if self.words:
            return self.words
        k = self.pool_factor
        ref = self._pool(random.Random(0), self.words_per_pass * k)
        rng = random.Random(self.seed * 1_000_003)
        pool = self._pool(rng, 2 * self.words_per_pass * k)
        costs = [c for c, _ in pool]
        taken = set()
        for i in range(self.words_per_pass):
            target, ref_seed = ref[i * k + k // 2]
            if i >= self.words_per_pass - self.fixed_tail:
                self.words.append(ref_seed)
                continue
            hi = bisect.bisect_left(costs, target)
            lo = hi - 1
            while hi in taken:
                hi += 1
            while lo in taken:
                lo -= 1
            if hi >= len(costs) or (lo >= 0 and target - costs[lo] <= costs[hi] - target):
                hi = lo
            taken.add(hi)
            self.words.append(pool[hi][1])
        rng.shuffle(self.words)
        return self.words

    def run(self, word_seeds: Sequence[int], rec: Recorder) -> None:
        for i, s in enumerate(word_seeds):
            report = rec.op(f"word {i} seed {s}", oracle.run_agreement_suite, 1, s, self.max_length)
            detail = f"word seed {s}"
            rec.check("oracle.word", "suite", report.word_agreements == 1, detail)
            rec.check("oracle.verdict", "suite", report.verdict_agreements == 1, detail)
            rec.check("oracle.homology", "suite", report.homology_agreements == 1, detail)


class TwistLadder:
    """Iterates of T_a T_b^-1 on the hexagon from seeded start curves.

    Why: the longest words of the benchmark.  Each rung is about 2.6 times
    as long as the one before (1 / 4 / 11 / 29 / 76 tokens along C1 from
    ``(3,)``); ``TautConfig`` builds and the crossing queries dominate and
    grow with the square of the length.  This is where ROADMAP item 3's
    near-linear goal shows, and where a canonical-form cache kept on the
    curve object does not (every rung makes new curves;
    a cache keyed by canonical form would hit on later passes, which
    repeat the first pass's curves up to orientation and rotation).

    Moves: ``curves.taut_build.*`` and ``curves.crossings.*`` (wall_s,
    about 50% and 20% of a traced pass); ``curves.canonical.*`` (about
    20%);
    ``curves.is_simple.*`` (``dehn_twist`` re-runs ``require_simple``);
    ``twists.dehn_twist.*`` and ``twists.homology.self_s``.  Flat:
    ``surgery``, ``scenarios.verify``, ``handles``, ``render``, ``cli``;
    ``oracle.free_group`` is a small share (the witness only).

    An operation is one rung: both twists, ``canonical``, ``is_simple`` and
    the geometric intersections with both twist curves.  Each pass runs,
    for each of the pairs (C, C1), (C, C2), (C, C3), one ladder from each
    of six start curves (the hexagon curves' free words in
    ``start_words``), up to the last rung whose image, as the oracle
    predicts it, has at most ``max_tokens`` tokens: 59 rungs of 1 to 90
    tokens (an odd count, so that op_ms.p50 is the latency of one rung
    length rather than the gap between two).  The cap keeps the longest
    rung near 20 ms: a rung of 233 tokens takes about 150 ms, and so few
    repeats of a step that long fall wholly in a fast spell of a shared
    host that its fastest one varied by 1.8x from run to run.  The seed
    picks each start curve's orientation, the order of the ladders and,
    before each rung, the token at which the current curve's cyclic word
    starts.  So seeds give different token words but the same rung
    lengths, cost and checks: 413 checks a pass, of which 20 fail today
    (i(T_C1^-1 x, C1) = i(x, C1) on 20 of the 22 C1 rungs).
    """

    name = "twist-ladder"
    max_tokens = 100
    pairs = (("C", "C1"), ("C", "C2"), ("C", "C3"))
    start_words = ((1,), (2,), (3,), (-1, 3), (-3, -2), (2, 1))

    def __init__(self, seed: int) -> None:
        self.seed = seed
        sc = scenarios.get_scenario("negative-modification")
        self.scheme = sc.scheme
        self.curves = {n: sc.curves[n] for n in ("C", "C1", "C2", "C3")}
        self.form = curves.intersection_form(self.scheme)
        self.free = {"C": (oracle.TWIST_C,)}
        for n in ("C1", "C2", "C3"):
            self.free[n] = (oracle.GENERATORS[(n.lower(), -1)],)
        self.ladders = [(a, b, w, self._rungs(a, b, w))
                        for a, b in self.pairs for w in self.start_words]

    def _rungs(self, a: str, b: str, start) -> int:
        """Rungs of the ladder from ``start`` within ``max_tokens``."""
        steps = self.free[b] + self.free[a]
        n, word = 0, start
        while True:
            word = _free_image(steps, word)
            if len(word) > self.max_tokens:
                return n
            n += 1

    def inputs(self, j: int):
        rng = random.Random(self.seed * 1_000_003 + j)
        ladders = []
        for a, b, start, rungs in self.ladders:
            start_word = start
            if rng.random() < 0.5:
                start = oracle.cyclically_reduce(oracle.invert_word(start))
            x = curves.ClosedCurve(self.scheme, oracle.word_to_tokens(start))
            ladders.append((a, b, start_word, x, [rng.random() for _ in range(rungs)]))
        rng.shuffle(ladders)
        return ladders

    def _rung(self, x, a, b):
        y = twists.dehn_twist(x, b, -1)
        z = twists.dehn_twist(y, a, 1)
        z.canonical()
        simple = curves.is_simple(z)
        return y, z, simple, curves.geometric_intersection(z, a), curves.geometric_intersection(z, b)

    def run(self, ladders, rec: Recorder) -> None:
        for an, bn, start, x, turns in ladders:
            a, b = self.curves[an], self.curves[bn]
            steps = self.free[bn] + self.free[an]
            word = oracle.tokens_to_word(x.tokens)
            ixb = curves.geometric_intersection(x, b)
            for r, turn in enumerate(turns):
                k = int(turn * len(x.tokens))
                x = curves.ClosedCurve(self.scheme, x.tokens[k:] + x.tokens[:k])
                key = f"T_{an} T_{bn}^-1 from {start} rung {r + 1}"
                y, z, simple, iza, izb = rec.op(key, self._rung, x, a, b)
                subject = f"T_{an} T_{bn}^-1"
                where = f"rung {r + 1} ({len(z.tokens)} tokens)"
                word = _free_image(steps, word)
                engine_key = oracle.conjugacy_key(oracle.tokens_to_word(z.tokens))
                rec.check("ladder.oracle_image", subject,
                          engine_key == oracle.conjugacy_key(word), where)
                rec.check("ladder.simple", subject, simple is True, where)
                mat = twists.TwistWord(((a, 1), (b, -1))).act_on_homology(self.scheme)
                hx, hz = x.homology(), z.homology()
                image = tuple(sum(mat[i][k] * hx[k] for k in range(len(hx))) for i in range(len(hx)))
                rec.check("ladder.homology", subject, image == hz, where)
                iyb = curves.geometric_intersection(y, b)
                iya = curves.geometric_intersection(y, a)
                rec.check("ladder.twist_invariance", f"{subject} along {bn}", iyb == ixb,
                          f"{where}: i(x, {bn}) = {ixb} but i(T_{bn}^-1 x, {bn}) = {iyb}")
                rec.check("ladder.twist_invariance", f"{subject} along {an}", iza == iya,
                          f"{where}: i(y, {an}) = {iya} but i(T_{an} y, {an}) = {iza}")
                for cn, c, geo in ((an, a, iza), (bn, b, izb)):
                    alg = curves.pair_homology(self.form, hz, c.homology())
                    rec.check("ladder.parity", f"{subject} with {cn}",
                              abs(alg) <= geo and (geo - alg) % 2 == 0,
                              f"{where}: algebraic {alg}, geometric {geo}")
                x, ixb = z, izb


class PaperChecks:
    """The paper's verdicts on small inputs, repeated.

    Why: ``run_scenario`` on all five scenarios, round invariance on the
    family members n = 4..7 in a seeded order, ``handle-sim`` over a seeded genus range and
    ``--localized``, and ``dump-scenario`` and ``render`` through
    ``cli.main``.  It exercises ``surgery``, ``scenarios``, ``handles``,
    ``render`` and ``cli``, which the other workloads barely touch, and
    builds ``TautConfig`` many times on tiny inputs, so fixed overhead
    added per call or per ``Scheme`` shows here as a regression.

    Moves: ``surgery.*`` and ``scenarios.verify.*`` (wall_s, here only);
    ``handles.run_script.self_s`` and ``handles.smith.*`` (wall_s, here
    only); ``render.*``, ``cli.main.self_s`` and ``schemes.build.self_s``
    (wall_s; ``schemes.build`` also moves setup_s); the per-build cost of
    ``curves.taut_build`` on tiny inputs (op_ms.p50).  Flat: ``curves.canonical``
    (close to 0) and ``oracle.free_group``.

    An operation is one scenario run, check or command.  Every JSON dump
    and SVG is digested; a digest that differs between passes, or between
    worker processes run under different ``PYTHONHASHSEED`` values, fails
    a determinism check.
    """

    name = "paper-checks"
    family_sizes = (4, 5, 6, 7)
    genus_choices = (1, 2, 3, 4)
    genus_span = 3

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.names = sorted(scenarios.SCENARIOS)
        self.scenarios = {n: scenarios.get_scenario(n) for n in self.names}
        self.family = {n: scenarios.family_scenario(n) for n in self.family_sizes}
        self.dumps = {n: json.loads(json.dumps(sc.to_json())) for n, sc in self.scenarios.items()}
        self.svg_path = os.path.join(workdir, f"render-{os.getpid()}.svg")

    def inputs(self, j: int) -> Tuple[List[int], List[int]]:
        """The same for every pass: family members in a seeded order and a
        seeded genus range."""
        rng = random.Random(self.seed * 1_000_003)
        fam = rng.sample(self.family_sizes, len(self.family_sizes))
        g0 = rng.choice(self.genus_choices)
        return fam, list(range(g0, g0 + self.genus_span))

    @staticmethod
    def _cli(argv: List[str]) -> Tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return rc, buf.getvalue()

    def _check_scenario(self, name: str, report: dict, rec: Recorder) -> None:
        expected = self.scenarios[name].expected
        for r in report["reports"]:
            if r["check"] == "round-invariance":
                rec.check("paper.round_invariant", name, r["ok"] == expected["round_invariant"])
            elif r["check"] == "reduced-monodromy":
                rec.check("paper.annulus", name, r["chi"] == 0 and r["boundary_circles"] == 2)
                if "reduced_handedness" in expected:
                    rec.check("paper.reduced_handedness", name,
                              r["handedness"] == expected["reduced_handedness"],
                              f"computed {r['handedness']}, expected {expected['reduced_handedness']}")
                if "cap_slides" in expected:
                    rec.check("paper.cap_slides", name, r["cap_slides"] == expected["cap_slides"])
            elif r["check"] == "vertex-joining":
                for pair in expected["joining"]:
                    rec.check("paper.joining", f"{name} {'+'.join(pair)}",
                              r["matches"].get("+".join(pair), "none") != "none")

    def _passages(self, name: str) -> int:
        sc = self.scenarios[name]
        n = sum(len(c.tokens) for c in sc.curves.values())
        return n if sc.arc is None else n + len(sc.arc.tokens) + 1

    def run(self, inputs, rec: Recorder) -> None:
        fam, genera = inputs
        for name in self.names:
            report = rec.op(f"verify {name}", scenarios.run_scenario, self.scenarios[name])
            self._check_scenario(name, report, rec)
            rec.digest(f"verify {name}", json.dumps(report, sort_keys=True).encode())
        for n in fam:
            sc = self.family[n]
            rep = rec.op(f"round-invariance {sc.name}", scenarios.verify_round_invariance, sc)
            rec.check("paper.family_round_invariant", sc.name, rep.ok == sc.expected["round_invariant"])
            rec.digest(f"round-invariance {sc.name}", json.dumps(rep.to_json(), sort_keys=True).encode())
        for g in genera:
            rc, out = rec.op(f"handle-sim genus {g}", self._cli, ["handle-sim", "--genus", str(g)])
            doc = json.loads(out)
            want = handles.expected_final_profile(g)
            subject = f"genus {g}"
            rec.check("paper.exit_code", f"handle-sim {subject}", rc == 0)
            rec.check("paper.handle_profile", subject, all(t["profile"] == want for t in doc["trace"]))
            rec.check("paper.standard_form", subject, doc["standard_form"] is True)
            rec.digest(f"handle-sim {subject}", out.encode())
        rc, out = rec.op("handle-sim localized", self._cli, ["handle-sim", "--localized"])
        doc = json.loads(out)
        rec.check("paper.exit_code", "handle-sim localized", rc == 0)
        rec.check("paper.ball_profile", "localized", handles.is_ball_profile(doc["trace"][-1]["profile"]))
        rec.digest("handle-sim localized", out.encode())
        for name in self.names:
            rc, out = rec.op(f"dump {name}", self._cli, ["dump-scenario", name])
            rec.check("paper.dump", name, rc == 0 and json.loads(out) == self.dumps[name])
            rec.digest(f"dump {name}", out.encode())
        for name in self.names:
            rc = rec.op(f"render {name}", cli.main, ["render", name, "-o", self.svg_path])
            with open(self.svg_path, "rb") as fh:
                svg = fh.read()
            root = ET.fromstring(svg)
            lines = root.findall("{http://www.w3.org/2000/svg}line")
            rec.check("paper.render", name, rc == 0 and len(lines) == self._passages(name),
                      f"{len(lines)} chords drawn, {self._passages(name)} passages")
            rec.digest(f"render {name}", svg)

    def close(self) -> None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.svg_path)


WORKLOADS = {
    OracleCrosscheck.name: OracleCrosscheck,
    TwistLadder.name: TwistLadder,
    PaperChecks.name: PaperChecks,
}


def make(name: str, seed: int, workdir: str):
    if name == PaperChecks.name:
        return PaperChecks(seed, workdir)
    return WORKLOADS[name](seed)
