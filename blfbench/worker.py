"""One benchmark process: set up a workload, then run passes until time is up.

Started by ``run.py`` in a fresh interpreter.  It prints one JSON line:
the monotonic-clock time at which set-up was done (the parent spawned it
at a time it knows, and the clock is shared by all processes), and, for
``--role work``, the pass times, operation latencies, check tallies of
the first pass and of the later ones, output digests, peak resident set,
the set-up times of the probes it started and, when traced, the per-layer
metrics of every pass.

A work process with ``--probes n`` times ``n`` set-up probes (fresh
interpreters that only set up) at even intervals through its run, one at
a time while its own work waits, so that the median set-up time covers
the whole run rather than a spell of the machine at either end.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, "blfbench", "out")
PROBE_TIMEOUT_S = 60.0


def command(workload: str, seed: int, seconds: float, trace: int, role: str,
            tag: str, probes: int = 0) -> list:
    # -S: no site module, so set-up times blfkit and the interpreter rather
    # than whatever the machine's site-packages import at start-up
    return [sys.executable, "-S", os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
            "--role", role, "--tag", tag, "--probes", str(probes)]


def environment(seed: int, k: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str((seed * 7919 + k * 104729 + 1) % 4294967295))
    env.pop("PYTHONPATH", None)
    return env


def time_setup(workload: str, seed: int, k: int) -> float:
    """Seconds from starting a set-up probe to its being ready."""
    t0 = time.monotonic()
    proc = subprocess.Popen(command(workload, seed, 0, 0, "setup", f"probe{k}"), cwd=ROOT,
                            env=environment(seed, 1000 + k), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"set-up probe {k} did not finish in time")
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"set-up probe {k} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])["ready"] - t0


def _tally(t) -> dict:
    return {"attempted": t.attempted, "failed": t.failed, "failures": dict(t.failures)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "work"), default="work")
    ap.add_argument("--tag", default="0")
    ap.add_argument("--probes", type=int, default=0)
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(OUT_DIR, exist_ok=True)
    import blfkit
    import workloads

    if not os.path.abspath(blfkit.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        sys.stderr.write("blfkit was not imported from this checkout's src/\n")
        return 2
    wl = workloads.make(args.workload, args.seed, OUT_DIR)
    ready = time.monotonic()
    if args.role == "setup":
        print(json.dumps({"ready": ready}), flush=True)
        return 0

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()

    def on_op(i: int) -> None:
        tracer.op = i

    rec = workloads.Recorder(on_op if tracer else None)
    # traced: every pass runs twice, with and without the wrappers, in
    # alternating order, so the tracing overhead is measured on the same
    # inputs at nearly the same time
    modes = (False, True) if tracer else (False,)
    walls, plain_walls, layers, probe_setups, error = [], [], [], [], None
    start = time.perf_counter()
    deadline = start + args.seconds

    def probe_due(now: float) -> bool:
        k = len(probe_setups)
        return k < args.probes and now >= start + (k + 0.5) * args.seconds / args.probes

    j = 0
    try:
        while j == 0 or time.perf_counter() < deadline:
            while probe_due(time.perf_counter()):
                probe_setups.append(time_setup(args.workload, args.seed, len(probe_setups)))
            inputs = wl.inputs(j)
            for traced in (modes if j % 2 == 0 else modes[::-1]):
                if tracer:
                    tracer.activate(traced)
                    tracer.start_pass(record=traced and j == 0)
                t0 = time.perf_counter()
                wl.run(inputs, rec)
                dt = time.perf_counter() - t0
                rec.end_pass()
                if traced:
                    layers.append(tracer.end_pass())
                    walls.append(dt)
                elif tracer:
                    plain_walls.append(dt)
                else:
                    walls.append(dt)
            j += 1
        while len(probe_setups) < args.probes:
            probe_setups.append(time_setup(args.workload, args.seed, len(probe_setups)))
    except Exception:  # the program under test failed: report, do not hide
        error = traceback.format_exc()
        sys.stderr.write(error)
    finally:
        if hasattr(wl, "close"):
            wl.close()

    result = {
        "ready": ready,
        "walls": walls,
        "op_best": rec.best,
        "step_best": rec.step_best,
        "op_repeats": dict(rec.repeats),
        "first": _tally(rec.first),
        "rest": _tally(rec.rest),
        "examples": rec.examples,
        "first_digests": rec.first_digests,
        "digests": rec.digests,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "probe_setups": probe_setups,
        "error": error,
    }
    if tracer:
        result["layers"] = layers
        result["plain_walls"] = plain_walls
        result["missing"] = tracer.missing
        result["spans_file"] = os.path.relpath(
            os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}-{args.tag}.json"), ROOT)
        tracer.dump_spans(os.path.join(ROOT, result["spans_file"]))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
