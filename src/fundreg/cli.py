"""Command line front end.

Four subcommands:

    verify     run the verification battery (or one property) on a system
    render     draw neighbourhoods, the region, or the quotient strip
    quotient   emit the identification structure as JSON or SVG
    conformal  build the smooth rescaling fields and report diagnostics

Exit codes: 0 verified / as expected, 1 refuted or out of tolerance,
2 inconclusive, 64 usage or configuration error (including a run one of
whose enumerations would hold more than the memory budget, refused
before that enumeration starts), 70 internal error (a fault in fundreg
itself, never a verdict; the traceback goes to stderr).  All output is
deterministic; repeated runs with equal arguments produce equal bytes.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import Any, Callable, Iterable, NoReturn, Optional, Sequence

from . import checker
from .checker import (
    RunConfig,
    VerificationReport,
    battery_exit_code,
    make_system,
    quotient_build,
    run_battery,
)
from .tilespace import TruncationError

USAGE_EXIT = 64
INTERNAL_EXIT = 70


class UsageError(Exception):
    """Bad arguments or configuration; mapped to exit code 64."""


# ``verify --property`` runs each check as the checker module holds it at
# import.  A wrapper put on this table afterwards therefore wraps the check
# itself, not a second wrapper put on the module.
_PROPERTY_RUNNERS: dict[str, Callable[..., VerificationReport]] = {
    prop: checker.property_check(prop) for prop in checker.CHECKS
}


# ----------------------------------------------------------- arg helpers


def _parse_schedule(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"schedule must be comma-separated integers: {text!r}")


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"not a rational number: {text!r}")


# ---------------------------------------------------------- option table


class Arg:
    """One argument of a subcommand, a positional or (if its name starts
    with a dash) an option, with the keywords that ``add_argument`` takes:
    ``dest``, ``type``, ``default``, ``choices``, ``required``, and
    ``nargs="?"`` or ``action="store_true"``."""

    __slots__ = ("name", "spec", "dest", "option", "flag", "default")

    def __init__(self, name: str, help: Optional[str] = None, **spec: Any) -> None:
        self.name = name
        self.spec = {"help": help, **spec}
        self.dest = spec.get("dest") or name.lstrip("-").replace("-", "_")
        self.option = name.startswith("-")
        self.flag = spec.get("action") == "store_true"
        self.default = spec.get("default", False if self.flag else None)


_DEFAULTS = RunConfig()  # the truncation of the options left at their defaults

_OUT = Arg("--out", "write output to this file instead of stdout")
_RADIUS = Arg("--radius", "word ball radius", type=int, default=_DEFAULTS.radius)

# verify and quotient: the truncation and the systems' parameters
_SYSTEM_OPTIONS = (
    Arg("--depth", "group ball depth", type=int, default=_DEFAULTS.depth),
    _RADIUS,
    _OUT,
    Arg("--schedule", "comma-separated growth horizons, e.g. 2,3,4,5,6",
        type=_parse_schedule, default=_DEFAULTS.schedule),
    Arg("--N", "interval count for the line systems", dest="n_intervals", type=int,
        default=_DEFAULTS.n_intervals),
    Arg("--c", "cylinder shift (rational)", type=_parse_fraction, default=Fraction(1)),
    Arg("--x-noncompact", "model the cylinder cross-section as non-compact",
        action="store_true"),
)

# subcommand -> (help line, arguments in help order)
COMMANDS: dict[str, tuple[str, tuple[Arg, ...]]] = {
    "verify": ("run checks against expectations", (
        Arg("selector", choices=checker.SELECTORS),
        Arg("--property", "run a single property instead of the battery",
            choices=sorted(_PROPERTY_RUNNERS)),
        Arg("--format", choices=("text", "json"), default="text"),
        *_SYSTEM_OPTIONS,
    )),
    "render": ("draw an SVG picture", (
        Arg("view", choices=("nbhd", "spine", "quotient")),
        Arg("center", "room word, e.g. ru", nargs="?", default=""),
        _RADIUS,
        _OUT,
    )),
    "quotient": ("emit the identification structure", (
        Arg("selector", choices=checker.SELECTORS),
        Arg("--format", choices=("json", "svg"), default="json"),
        *_SYSTEM_OPTIONS,
    )),
    "conformal": ("smooth rescaling diagnostics", (
        Arg("--s", "scaling step", type=float, required=True),
        Arg("--grid", "samples per period", type=int, default=64),
        Arg("--K", "periods modelled each side", dest="reach", type=int, default=6),
        Arg("--null-rescaling",
            "use the zero field: a control that must fail the isometry check",
            action="store_true"),
        Arg("--format", choices=("json", "csv"), default="json"),
        _OUT,
    )),
}


def _parse_plain(argv: Sequence[str]) -> Optional[dict[str, Any]]:
    """The values of a plain command line, or None for any other line.

    A plain line is a command, then its positionals in order and options
    by their full names as ``--opt value`` or ``--opt=value``, in any mix,
    with no value that starts with a dash, and every value reads under its
    type and choices.  On such a line argparse's corner cases (prefixes,
    ``--``, negative numbers, help, errors) cannot arise, so it reads the
    line alike."""
    if not argv or argv[0] not in COMMANDS:
        return None
    args = COMMANDS[argv[0]][1]
    values = {"command": argv[0]} | {arg.dest: arg.default for arg in args}
    options = {arg.name: arg for arg in args if arg.option}
    positionals = [arg for arg in args if not arg.option]
    tokens, given = list(argv[1:]), set()

    def read(arg: Arg, text: str) -> bool:
        kind, choices = arg.spec.get("type"), arg.spec.get("choices")
        if text.startswith("-"):
            return False
        try:
            value = text if kind is None else kind(text)
        except (UsageError, TypeError, ValueError):
            return False
        values[arg.dest] = value
        return choices is None or value in choices

    while tokens:
        token = tokens.pop(0)
        if not token.startswith("-"):
            if not (positionals and read(positionals.pop(0), token)):
                return None
            continue
        name, eq, text = token.partition("=")
        arg = options.get(name)
        if arg is None or arg.flag and eq:
            return None
        if arg.flag:
            values[arg.dest] = True
        elif not (eq or tokens) or not read(arg, text if eq else tokens.pop(0)):
            return None
        given.add(arg)
    missing = [arg for arg in positionals if arg.spec.get("nargs") != "?"]
    if missing or any(arg.spec.get("required") and arg not in given for arg in args):
        return None
    return values


def _refuse(parser: Any, message: str) -> NoReturn:
    raise UsageError(message)


def argparse_parser() -> Any:
    """An argparse parser built from ``COMMANDS``; its errors raise
    ``UsageError``.  Only a line that is not plain imports argparse."""
    import argparse

    class Parser(argparse.ArgumentParser):
        error = _refuse
        mixing = False

        def parse_known_args(self, args=None, namespace=None):
            """A command with an optional positional reads its positionals
            wherever they stand among its options, so that one may follow
            them, as on a plain line."""
            optional = any(a.nargs == "?" for a in self._get_positional_actions())
            if self.mixing or not optional:
                return super().parse_known_args(args, namespace)
            self.mixing = True  # the two passes of the intermixed parse
            try:
                return self.parse_known_intermixed_args(args, namespace)
            finally:
                self.mixing = False

    parser = Parser(
        prog="fundreg", description="Exact tiling verification at truncation scale."
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (help, args) in COMMANDS.items():
        sub = commands.add_parser(command, help=help)
        for arg in args:
            sub.add_argument(arg.name, **arg.spec)
    return parser


def parse(argv: Sequence[str]) -> SimpleNamespace:
    """The arguments of one ``fundreg`` command line.  A plain line is
    read from ``COMMANDS`` directly; any other goes to argparse, whose
    usage error raises ``UsageError`` and whose ``-h`` or ``--help``
    prints the help and exits 0."""
    values = _parse_plain(argv)
    if values is None:
        values = vars(argparse_parser().parse_args(list(argv)))
    return SimpleNamespace(**values)


def _config_from(args: SimpleNamespace) -> RunConfig:
    return RunConfig(
        depth=args.depth,
        radius=args.radius,
        schedule=args.schedule,
        n_intervals=args.n_intervals,
        m_range=max(_DEFAULTS.m_range, args.n_intervals),
    )


def _emit(text: str | Iterable[str], out: Optional[str]) -> None:
    """Write ``text``, or its pieces one at a time, to ``out`` or stdout."""
    pieces = [text] if isinstance(text, str) else text
    if out:
        try:
            with open(out, "w", encoding="utf-8") as stream:
                stream.writelines(pieces)
        except OSError as exc:
            raise UsageError(f"cannot write --out {out}: {exc.strerror}") from None
    else:
        try:
            sys.stdout.writelines(pieces)
        except BrokenPipeError:  # the reader stopped early; the exit code stands
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ------------------------------------------------------------ subcommands


def _report_text(report: VerificationReport) -> str:
    lines = [
        f"property: {report.property_name}",
        f"verdict: {report.verdict}",
        "truncation: depth={depth} radius={radius}".format(**report.truncation),
    ]
    if report.counts:
        lines.append("counts: " + ", ".join(str(c) for c in report.counts))
    for witness in report.witnesses:
        lines.append(f"witness: {witness}")
    return "\n".join(lines) + "\n"


def cmd_verify(args: SimpleNamespace) -> int:
    cfg = _config_from(args)
    system = make_system(args.selector, args.c, not args.x_noncompact)
    if args.property:
        report = _PROPERTY_RUNNERS[args.property](system, cfg)
        if args.format == "json":
            _emit(_dumps(report.to_dict()), args.out)
        else:
            _emit(_report_text(report), args.out)
        return report.exit_code

    results = run_battery(system, cfg)
    if args.format == "json":
        payload = {
            "selector": args.selector,
            "results": [
                {**report.to_dict(), "expected": want, "match": report.verdict == want}
                for report, want in results
            ],
            "exit_code": battery_exit_code(results),
        }
        _emit(_dumps(payload), args.out)
    else:
        lines = []
        matches = 0
        for report, want in results:
            ok = report.verdict == want
            matches += ok
            lines.append(
                f"{report.property_name}: expected {want}, "
                f"got {report.verdict} [{'PASS' if ok else 'FAIL'}]"
            )
        lines.append(f"battery: {len(results)} checks, {matches} as expected")
        _emit("\n".join(lines) + "\n", args.out)
    return battery_exit_code(results)


def cmd_render(args: SimpleNamespace) -> int:
    from .render import draw  # the drawing code loads only to draw

    _emit(draw(args.view, args.center, args.radius), args.out)
    return 0


def cmd_quotient(args: SimpleNamespace) -> int:
    cfg = _config_from(args)
    system = make_system(args.selector, args.c, not args.x_noncompact)
    report, desc = quotient_build(system, cfg)
    if args.format == "svg":
        if desc is None or args.selector != "free2house":
            raise UsageError("svg output is only drawn for the free2house quotient")
        from .render import quotient_svg

        _emit(quotient_svg(desc), args.out)
        return report.exit_code
    payload = {
        "report": report.to_dict(),
        "description": desc.to_dict() if desc else None,
    }
    _emit(_dumps(payload), args.out)
    return report.exit_code


def build_rescaling(*args, **kwargs):
    """``conformal.build_rescaling``, imported on first use.

    ``conformal`` is the only module that needs numpy, so ``verify``,
    ``render`` and ``quotient`` start without it.
    """
    from .conformal import build_rescaling

    return build_rescaling(*args, **kwargs)


def cmd_conformal(args: SimpleNamespace) -> int:
    """Exit 0 within tolerance, 1 out of it; a scale whose diagnostics
    are not finite numbers decides neither, and is refused."""
    import numpy as np

    from .conformal import rescaling_report

    if not math.isfinite(args.s):
        raise UsageError(f"--s must be a finite scaling step, not {args.s}")
    if args.s <= 0:
        raise UsageError("scaling step must be positive")
    with np.errstate(all="ignore"):  # an overflow is refused below
        try:
            resc = build_rescaling(
                args.s, grid=args.grid, reach=args.reach, null=args.null_rescaling
            )
        except ValueError as exc:
            raise UsageError(str(exc))
        report = rescaling_report(resc)
    diagnostics = [report["equivariance_defect"], report["isometry_rel_error"]]
    if not all(map(math.isfinite, diagnostics + [*report["partition"].values()])):
        raise UsageError(f"--s {args.s} is too large: its diagnostics overflow")
    if args.format == "csv":
        # row by row, so the text is never held whole: the budget counts
        # only the samples (no float repr needs csv quoting)
        rows = (
            f"{float(t)!r},{float(value)!r}\n"
            for t, value in zip(resc.partition.ts, resc.values)
        )
        _emit(itertools.chain(["t,f\n"], rows), args.out)
    else:
        _emit(_dumps(report), args.out)
    return 0 if report["within_tolerance"] else 1


# ----------------------------------------------------------------- entry


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = parse(sys.argv[1:] if argv is None else argv)
        handler = {
            "verify": cmd_verify,
            "render": cmd_render,
            "quotient": cmd_quotient,
            "conformal": cmd_conformal,
        }[args.command]
        return handler(args)
    except (UsageError, ValueError, TruncationError) as exc:
        print(f"fundreg: error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except Exception as exc:
        # exits 1 and 2 are verdicts; a fault must not read as one
        import traceback  # only on this path: it costs start-up time

        traceback.print_exc()
        print(f"fundreg: internal error: {exc!r}", file=sys.stderr)
        return INTERNAL_EXIT


if __name__ == "__main__":
    sys.exit(main())
