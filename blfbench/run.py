"""blfkit benchmark: one workload per run, reported as one JSON line.

    python3 blfbench/run.py --workload twist-ladder --seed 1 --seconds 40 --trace 0
    python3 blfbench/run.py --workload all --seed 1 --seconds 40

A stdlib-only, closed-loop harness with one client and no threads: each
workload runs in fresh interpreters started one after another, each
calling blfkit's public API in-process and checking every output against
an independent witness (see ``workloads.py``).

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports the per-layer metrics from two traced processes
(their counts must repeat exactly); each runs every pass with and without
the wrappers, which gives the tracing overhead.  ``--workload all`` runs every workload both ways and
prints every metric with its unit and each workload's fail_ratio.  The
last line of standard output is always the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import defects  # noqa: E402  (stdlib only, like spans and worker)
import spans  # noqa: E402
import worker  # noqa: E402

WORKLOADS = ("oracle-crosscheck", "twist-ladder", "paper-checks")
# worker processes per untraced run; paper-checks needs two hash seeds
WORK_PROCESSES = {"oracle-crosscheck": 1, "twist-ladder": 1, "paper-checks": 2}
# set-up probes per untraced run, spread over the run by the work processes
SETUP_PROBES = 14
RUN_LIMIT_S = 170.0
P95_MIN_BEYOND = 10

E2E_UNITS = {
    "wall_s": "s",
    "op_ms.p50": "ms",
    "op_ms.p95": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark itself could not run (no program, a worker died)."""


def _spawn(workload: str, seed: int, seconds: float, trace: int, k: int,
           deadline: float, probes: int = 0) -> dict:
    cmd = worker.command(workload, seed, seconds, trace, "work", f"work{k}", probes)
    t0 = time.monotonic()
    # a session of its own, so that a kill also reaches its set-up probes
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker.environment(seed, k),
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} work process {k} did not finish in time")
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{workload} work process {k} exited with {proc.returncode}")
    res = json.loads(out.strip().splitlines()[-1])
    res["setup_s"] = res["ready"] - t0
    return res


def _passes(results) -> None:
    for r in results:
        if not r["walls"]:
            raise BenchError("a worker completed no pass:\n" + (r["error"] or ""))


def _p95(sorted_ms):
    rank = math.ceil(0.95 * len(sorted_ms))
    return sorted_ms[rank - 1], len(sorted_ms) - rank


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _sum_tallies(results, part: str, first_key: str, later_key: str = "") -> dict:
    """One part ("first" or "rest") of the check tallies, summed over
    processes, plus digest agreement between the processes: on the keys of
    ``first_key``, less those already compared in ``later_key``."""
    attempted = sum(r[part]["attempted"] for r in results)
    failed = sum(r[part]["failed"] for r in results)
    failures = {}
    for r in results:
        for key, n in r[part]["failures"].items():
            failures[key] = failures.get(key, 0) + n
    first = results[0][first_key]
    done = set(results[0][later_key]) if later_key else set()
    for r in results[1:]:
        for key in sorted(set(first) & set(r[first_key]) - done):
            attempted += 1
            if first[key] != r[first_key][key]:
                failed += 1
                k = f"determinism|{key} (across PYTHONHASHSEED)"
                failures[k] = failures.get(k, 0) + 1
    return {"attempted": attempted, "failed": failed,
            "fail_ratio": failed / attempted if attempted else 0.0,
            "failures": failures}


def _tally(results, header) -> dict:
    """Checks of the first pass of every process (inputs that depend on the
    seed alone, so the counts repeat exactly) make ``attempted`` and
    ``failed``; the later passes are checked as well and reported apart."""
    first = _sum_tallies(results, "first", "first_digests")
    rest = _sum_tallies(results, "rest", "digests", "first_digests")
    errors = [r["error"] for r in results if r["error"]]
    unknown = sorted(k for k in set(first["failures"]) | set(rest["failures"])
                     if not defects.is_known(k))
    header["checks"] = dict(first, unknown_failures=unknown, errors=len(errors),
                            examples=[e for r in results for e in r["examples"]][:5])
    header["later_pass_checks"] = rest
    return {"attempted": first["attempted"], "failed": first["failed"],
            "correct": not errors and not unknown and first["attempted"] > 0}


def run_untraced(workload: str, seed: int, seconds: float, header: dict) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    n_work = WORK_PROCESSES[workload]
    results = [_spawn(workload, seed, seconds / n_work, 0, k, deadline, SETUP_PROBES // n_work)
               for k in range(n_work)]
    _passes(results)
    setups = [s for r in results for s in [r["setup_s"]] + r["probe_setups"]]
    walls = [w for r in results for w in r["walls"]]
    best, steps, repeats = {}, {}, {}
    for r in results:
        for key, dt in r["op_best"].items():
            best[key] = min(dt, best.get(key, dt))
            steps[key] = min(r["step_best"][key], steps.get(key, math.inf))
            repeats[key] = repeats.get(key, 0) + r["op_repeats"][key]
    ops = sorted(1000.0 * dt for dt in best.values())
    p95, beyond = _p95(ops)
    out = _tally(results, header)
    # every pass repeats the same steps, and a shared host can slow a run by
    # up to 2x, in spells from a fraction of a second to minutes: each
    # step's fastest repeat is what one run measures steadily, and the
    # shorter the steps, the steadier (an operation and the checks after it
    # are two steps)
    out["metrics"] = {
        "wall_s": sum(best.values()) + sum(steps.values()),
        "op_ms.p50": statistics.median(ops),
        "op_ms.p95": p95,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["rss_kb"] / 1024.0 for r in results),
    }
    header["samples"] = {
        "wall_s": (f"{len(best) + len(steps)} steps, each its fastest repeat; over {len(walls)} "
                   f"passes the fastest took {min(walls):.6g} s, the median {statistics.median(walls):.6g} s"),
        "op_ms": (f"{len(ops)} operations, each its fastest of "
                  f"{statistics.median(repeats.values()):g} repeats (median)"),
        "op_ms.p95_samples_beyond": beyond,
        "setup_s": len(setups),
        "peak_rss_mb": len(results),
    }
    if beyond < P95_MIN_BEYOND:
        header["note"] = (f"op_ms.p95 has only {beyond} samples beyond it "
                          f"(fewer than {P95_MIN_BEYOND}); run longer")
    return out


def run_traced(workload: str, seed: int, seconds: float, header: dict) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    traced = [_spawn(workload, seed, seconds / 2, 1, k, deadline) for k in range(2)]
    _passes(traced)
    out = _tally(traced, header)
    firsts = [r["layers"][0] for r in traced]
    unequal = sorted(m for m in spans.COUNT_METRICS if firsts[0].get(m) != firsts[1].get(m))
    metrics = {}
    for name in spans.LAYER_METRICS:
        if name.endswith(".self_s"):
            metrics[name] = statistics.median(p.get(name, 0.0) for r in traced for p in r["layers"])
        else:
            metrics[name] = firsts[0].get(name, 0)
    # each pass ran traced and untraced back to back, on the same inputs
    pairs = [(t, u) for r in traced for t, u in zip(r["walls"], r["plain_walls"])]
    metrics["trace.overhead_s"] = statistics.median(t - u for t, u in pairs)
    out["metrics"] = metrics
    out["correct"] = out["correct"] and not unequal
    header["samples"] = {
        "self_s": len(pairs),
        "counts": "first pass of each of the two traced processes",
        "trace.overhead_s": len(pairs),
    }
    header["counts_repeat"] = not unequal
    if unequal:
        header["counts_differ"] = unequal
    header["untraced_wall_s"] = statistics.median(u for _, u in pairs)
    header["traced_wall_s"] = statistics.median(t for t, _ in pairs)
    header["spans_files"] = [r["spans_file"] for r in traced]
    missing = sorted({m for r in traced for m in r["missing"]})
    if missing:
        header["untraced_targets"] = missing
    return out


def run_one(workload: str, seed: int, seconds: float, trace: int):
    header = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
    }
    runner = run_traced if trace else run_untraced
    result = runner(workload, seed, seconds, header)
    units = ({m: u for m, (u, _) in spans.LAYER_METRICS.items()} if trace else E2E_UNITS)
    result = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in result["metrics"].items()},
    }
    return result, header


def _print_table(workload: str, result: dict, header: dict) -> None:
    checks = header["checks"]
    print(f"# {workload}  trace={header['trace']}  correct={result['correct']}  "
          f"fail_ratio={checks['fail_ratio']:.4f} ({checks['failed']}/{checks['attempted']})")
    for name, m in result["metrics"].items():
        print(f"#   {name:44s} {m['value']:>14.6g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "blfkit", "__init__.py")):
        sys.stderr.write("blfbench: no blfkit sources under src/ in this checkout\n")
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    modes = (0, 1) if args.workload == "all" else (args.trace,)
    combined = {}
    try:
        for name in names:
            for trace in modes:
                result, header = run_one(name, args.seed, args.seconds, trace)
                print("# header " + json.dumps(header, sort_keys=True))
                _print_table(name, result, header)
                combined.setdefault(name, {})[f"trace{trace}"] = result
    except BenchError as exc:
        sys.stderr.write(f"blfbench: {exc}\n")
        return 1
    print(json.dumps(result if len(combined) == 1 and len(modes) == 1 else combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
