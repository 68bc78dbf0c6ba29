"""Per-layer tracing for the benchmark, installed from outside the package.

The tracer replaces blfkit's public functions and methods with wrappers
that record a span per call: name, start, end, the span that caused it and
the operation it belongs to.  Functions imported by name into other modules
(``from .curves import is_simple``) are replaced at every binding site, so
a call counts the same wherever it is made from.  Methods are patched on
their class, which every binding shares.

Self time of a span is its duration minus the duration of its child spans.
Counts and self times are kept per pass; spans of the first pass are kept
in memory and written out when the worker exits.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import weakref
from typing import Callable, Dict, List, Optional

MODULES = (
    "schemes", "curves", "twists", "surgery", "scenarios",
    "oracle", "handles", "render", "cli",
)

SPAN_CAP = 400_000


# -- counters fed from call arguments and results --------------------------


def _count_canonical(tr: "Tracer", args, result) -> None:
    curve = args[0]
    tr.add("curves.canonical.tokens", len(curve.tokens))
    tr.see_len(len(curve.tokens))
    if tr.seen_before("curves.canonical", curve):
        tr.add("curves.canonical.repeats", 1)


def _count_taut(tr: "Tracer", args, result) -> None:
    items = args[2] if len(args) > 2 else {}
    for item in items.values():
        tr.add("curves.taut_build.tokens", len(item.tokens))
        tr.see_len(len(item.tokens))


def _count_simple(tr: "Tracer", args, result) -> None:
    if tr.seen_before("curves.is_simple", args[0]):
        tr.add("curves.is_simple.repeats", 1)


def _count_twist(tr: "Tracer", args, result) -> None:
    tr.add("twists.dehn_twist.out_tokens", len(result.tokens))


def _count_slides(tr: "Tracer", args, result) -> None:
    tr.add("surgery.slides", result.slide_count)


def _count_svg(tr: "Tracer", args, result) -> None:
    tr.add("render.svg_bytes", len(result.encode()))


# (span name, module, attribute path, counter hook)
TARGETS = (
    ("schemes.build", "schemes", "PolygonScheme.build", None),
    ("curves.canonical", "curves", "ClosedCurve.canonical", _count_canonical),
    ("curves.taut_build", "curves", "TautConfig.__init__", _count_taut),
    ("curves.crossings", "curves", "TautConfig.crossings", None),
    ("curves.crossings", "curves", "TautConfig.self_crossings", None),
    ("curves.crossings", "curves", "TautConfig.crossings_on_passage", None),
    ("curves.is_simple", "curves", "is_simple", _count_simple),
    ("curves.geometric_intersection", "curves", "geometric_intersection", None),
    ("twists.dehn_twist", "twists", "dehn_twist", _count_twist),
    ("twists.apply", "twists", "TwistWord.apply", None),
    ("twists.homology", "twists", "TwistWord.act_on_homology", None),
    ("surgery.round_surgery", "surgery", "round_surgery", None),
    ("surgery.project", "surgery", "project", _count_slides),
    ("scenarios.run_scenario", "scenarios", "run_scenario", None),
    ("scenarios.verify.round_invariance", "scenarios", "verify_round_invariance", None),
    ("scenarios.verify.reduced_monodromy", "scenarios", "verify_reduced_monodromy", None),
    ("scenarios.verify.vertex_joining", "scenarios", "verify_vertex_joining", None),
    ("oracle.suite", "oracle", "run_agreement_suite", None),
    ("oracle.free_group", "oracle", "FreeAutomorphism.apply", None),
    ("oracle.free_group", "oracle", "FreeAutomorphism.compose", None),
    ("oracle.free_group", "oracle", "conjugacy_key", None),
    ("handles.run_script", "handles", "run_script", None),
    ("handles.smith", "handles", "smith_invariant_factors", None),
    ("render.render_svg", "render", "render_svg", _count_svg),
    ("cli.main", "cli", "main", None),
)

# metric name -> (unit, better); the per-layer metrics of BENCHMARK.json
LAYER_METRICS: Dict[str, tuple] = {
    "curves.canonical.calls": ("count", "lower"),
    "curves.canonical.self_s": ("s", "lower"),
    "curves.canonical.tokens": ("count", "lower"),
    "curves.canonical.repeat_ratio": ("ratio", "lower"),
    "curves.taut_build.calls": ("count", "lower"),
    "curves.taut_build.self_s": ("s", "lower"),
    "curves.taut_build.tokens": ("count", "lower"),
    "curves.crossings.calls": ("count", "lower"),
    "curves.crossings.self_s": ("s", "lower"),
    "curves.is_simple.calls": ("count", "lower"),
    "curves.is_simple.self_s": ("s", "lower"),
    "curves.is_simple.repeat_ratio": ("ratio", "lower"),
    "curves.max_word_len": ("count", "lower"),
    "twists.dehn_twist.calls": ("count", "lower"),
    "twists.dehn_twist.self_s": ("s", "lower"),
    "twists.dehn_twist.out_tokens": ("count", "lower"),
    "twists.homology.self_s": ("s", "lower"),
    "surgery.round_surgery.calls": ("count", "lower"),
    "surgery.round_surgery.self_s": ("s", "lower"),
    "surgery.project.calls": ("count", "lower"),
    "surgery.project.self_s": ("s", "lower"),
    "surgery.slides": ("count", "lower"),
    "scenarios.verify.round_invariance.self_s": ("s", "lower"),
    "scenarios.verify.reduced_monodromy.self_s": ("s", "lower"),
    "scenarios.verify.vertex_joining.self_s": ("s", "lower"),
    "oracle.free_group.calls": ("count", "lower"),
    "oracle.free_group.self_s": ("s", "lower"),
    "handles.run_script.self_s": ("s", "lower"),
    "handles.smith.calls": ("count", "lower"),
    "handles.smith.self_s": ("s", "lower"),
    "render.render_svg.self_s": ("s", "lower"),
    "render.svg_bytes": ("count", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "schemes.build.self_s": ("s", "lower"),
}
LAYER_METRICS.update({f"{m}.self_s": ("s", "lower") for m in MODULES})
LAYER_METRICS["trace.overhead_s"] = ("s", "lower")

COUNT_METRICS = [m for m, (unit, _) in LAYER_METRICS.items() if unit != "s"]


def _resolve(owner, path: str):
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Span recorder and per-pass accumulator for the wrapped functions."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}
        self.max_len = 0
        self._seen: Dict[str, Dict[int, weakref.ref]] = {}
        self._stack: List[list] = []  # [span index or -1, child ns]
        self.spans: List[list] = []
        self.recording = False
        self.truncated = False
        self.op = -1
        self.missing: List[str] = []
        self._patches: List[tuple] = []

    # -- per-pass state -----------------------------------------------------

    def start_pass(self, record: bool) -> None:
        self.calls, self.self_ns, self.counts = {}, {}, {}
        self.max_len = 0
        self._seen = {}
        self.recording = record

    def add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def see_len(self, n: int) -> None:
        if n > self.max_len:
            self.max_len = n

    def seen_before(self, kind: str, obj) -> bool:
        table = self._seen.setdefault(kind, {})
        ref = table.get(id(obj))
        if ref is not None and ref() is obj:
            return True
        table[id(obj)] = weakref.ref(obj)
        return False

    def end_pass(self) -> Dict[str, float]:
        """Stop recording; counts and self times of the pass, by metric name."""
        self.recording = False
        out: Dict[str, float] = {}
        for name in self.names:
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.self_s"] = self.self_ns.get(name, 0) / 1e9
        for key, n in self.counts.items():
            out[key] = n
        for m in MODULES:
            out[f"{m}.self_s"] = sum(
                ns for name, ns in self.self_ns.items() if name.split(".")[0] == m
            ) / 1e9
        for metric in ("curves.canonical", "curves.is_simple"):
            calls = self.calls.get(metric, 0)
            repeats = self.counts.get(f"{metric}.repeats", 0)
            out[f"{metric}.repeat_ratio"] = repeats / calls if calls else 0.0
        out["curves.max_word_len"] = self.max_len
        return out

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        clock = time.perf_counter_ns
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = -1
            if tracer.recording:
                if len(tracer.spans) < SPAN_CAP:
                    idx = len(tracer.spans)
                    parent = stack[-1][0] if stack else -1
                    tracer.spans.append([name_id, 0, 0, parent, tracer.op])
                else:
                    tracer.truncated = True
            frame = [idx, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                tracer.self_ns[name] = tracer.self_ns.get(name, 0) + dur - frame[1]
                if idx >= 0:
                    span = tracer.spans[idx]
                    span[1], span[2] = t0, t1
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target at its home and at every module that binds it."""
        pkg = [m for n, m in sorted(sys.modules.items()) if n == "blfkit" or n.startswith("blfkit.")]
        for name, module, path, hook in TARGETS:
            home = sys.modules.get(f"blfkit.{module}")
            try:
                owner, attr = _resolve(home, path)
                original = getattr(owner, attr)
            except AttributeError:
                self.missing.append(f"blfkit.{module}.{path}")
                continue
            wrapped = self._wrap(name, original, hook)
            self._patches.append((owner, attr, original, wrapped))
            if "." in path:
                continue  # a method: patched once on its class
            for mod in pkg:
                for key, value in list(vars(mod).items()):
                    if value is original and mod is not owner:
                        self._patches.append((mod, key, original, wrapped))
        self.activate(True)

    def activate(self, on: bool) -> None:
        """Put the wrappers in place, or the original functions back."""
        for owner, attr, original, wrapped in self._patches:
            setattr(owner, attr, wrapped if on else original)

    def dump_spans(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({
                "names": self.names,
                "fields": ["name", "start_ns", "end_ns", "parent", "op"],
                "truncated": self.truncated,
                "spans": self.spans,
            }, fh, separators=(",", ":"))
