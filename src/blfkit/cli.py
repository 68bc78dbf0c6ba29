"""Command line interface.

Subcommands::

    blfkit list-scenarios
    blfkit verify SCENARIO [--json FILE]
    blfkit dump-scenario SCENARIO
    blfkit generate-family N
    blfkit handle-sim [--genus G | --localized]
    blfkit oracle-crosscheck [--count N] [--seed S] [--max-length L]
    blfkit render SCENARIO -o FILE.svg

Exit status: 0 when all checks pass, 1 when a verification fails, 2 on
usage errors, 3 when the engine rejects an input (a ``BlfkitError``).
Besides argparse's usage errors, an output file (``--json``, ``-o``) that
cannot be written and a ``BLFKIT_SEED`` that is not an integer exit 2;
these two and a rejected input are reported as one ``blfkit: <message>``
line on stderr.  ``verify`` runs its checks before it writes ``--json``,
so a failed check keeps exit 1 when the report cannot be written; the
write error is still reported on its line.  All output is deterministic;
the cross-check seed defaults to the ``BLFKIT_SEED`` environment variable
(or 0), read when the command runs.  JSON is written exactly as
``json.dumps(doc, indent=2, sort_keys=True)`` and a newline would write
it, without that call's pure-Python indenting encoder (see ``_dump``).
A command imports only the modules it runs: ``handles``, ``oracle`` and
``render`` are imported by their own commands, so ``verify`` and the
dumps start without them.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _quote
from typing import Optional, Sequence

from . import scenarios
from .errors import BlfkitError


class _UsageError(Exception):
    """A usage error found after parsing: exit status 2, one line."""


def _dump(obj) -> str:
    """``obj`` as ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"`` writes it."""
    return _encode(obj, "\n") + "\n"


def _encode(o, newline: str) -> str:
    """One JSON value, its lines after the first starting with ``newline``.

    Types are tested in the order of ``json``'s own encoder, so a tuple
    (and a NamedTuple) is an array and ``True`` is not an int; dict keys
    must be strings.  Each container is one ``str.join``.
    """
    if isinstance(o, str):
        return _quote(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return json.dumps(o)
    inner = newline + "  "
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        return f"[{inner}{(',' + inner).join([_encode(v, inner) for v in o])}{newline}]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = [f"{_quote(k)}: {_encode(o[k], inner)}" for k in sorted(o)]
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}"
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc.strerror}") from None


def _cmd_list(_args) -> int:
    for name in sorted(scenarios.SCENARIOS):
        sc = scenarios.get_scenario(name)
        print(f"{name}: {sc.description}")
    return 0


def _cmd_verify(args) -> int:
    sc = scenarios.get_scenario(args.scenario)
    report = scenarios.run_scenario(sc)
    for r in report["reports"]:
        status = "ok" if r["ok"] else "FAIL"
        print(f"[{status}] {r['check']} ({sc.name})")
    if args.json:
        try:
            _write(args.json, _dump(report))
        except _UsageError as exc:
            if report["ok"]:
                raise
            print(f"blfkit: {exc}", file=sys.stderr)
    return 0 if report["ok"] else 1


def _cmd_dump(args) -> int:
    sc = scenarios.get_scenario(args.scenario)
    sys.stdout.write(_dump(sc.to_json()))
    return 0


def _cmd_family(args) -> int:
    sc = scenarios.family_scenario(args.n)
    sys.stdout.write(_dump(sc.to_json()))
    return 0


def _cmd_handles(args) -> int:
    from . import handles

    if args.localized:
        out = handles.localized_report()
    else:
        out = handles.fibration_report(args.genus)
    sys.stdout.write(_dump(out))
    return 0 if out["ok"] else 1


def _cmd_oracle(args) -> int:
    from . import oracle

    seed = _default_seed() if args.seed is None else args.seed
    report = oracle.run_agreement_suite(args.count, seed, args.max_length)
    sys.stdout.write(_dump(report.to_json()))
    return 0 if report.ok else 1


def _cmd_render(args) -> int:
    from . import render

    sc = scenarios.get_scenario(args.scenario)
    items = dict(sc.curves)
    if sc.arc is not None:
        items["A"] = sc.arc
    _write(args.output, render.render_svg(sc.scheme, items))
    return 0


def _default_seed() -> int:
    value = os.environ.get("BLFKIT_SEED", "0")
    try:
        return int(value)
    except ValueError:
        raise _UsageError(f"BLFKIT_SEED must be an integer, not {value!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blfkit",
        description="verification engine for round-handle modifications of fibrations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-scenarios", help="list the built-in scenarios").set_defaults(fn=_cmd_list)

    p = sub.add_parser("verify", help="run every check of a scenario")
    p.add_argument("scenario", choices=sorted(scenarios.SCENARIOS))
    p.add_argument("--json", help="also write the full report to this file")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("dump-scenario", help="print a scenario as JSON")
    p.add_argument("scenario", choices=sorted(scenarios.SCENARIOS))
    p.set_defaults(fn=_cmd_dump)

    p = sub.add_parser("generate-family", help="print the n-th family member as JSON")
    p.add_argument("n", type=int)
    p.set_defaults(fn=_cmd_family)

    p = sub.add_parser("handle-sim", help="run the handle simplification script")
    picture = p.add_mutually_exclusive_group()
    picture.add_argument("--genus", type=int, default=1)
    picture.add_argument("--localized", action="store_true",
                         help="trace the localized piece instead of the full picture")
    p.set_defaults(fn=_cmd_handles)

    p = sub.add_parser("oracle-crosscheck", help="engine vs fundamental-group oracle")
    p.add_argument("--count", type=int, default=200,
                   help="random twist words to check (default 200); the time grows"
                        " linearly with it, and the memory stays bounded")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-length", type=int, default=5)
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("render", help="draw a scenario as SVG")
    p.add_argument("scenario", choices=sorted(scenarios.SCENARIOS))
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_render)

    return parser


# parsing leaves a parser as it was, so one serves every call in a process
_parser = functools.lru_cache(maxsize=None)(build_parser)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except _UsageError as exc:
        print(f"blfkit: {exc}", file=sys.stderr)
        return 2
    except BlfkitError as exc:
        print(f"blfkit: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
