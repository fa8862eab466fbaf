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
import re
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import Any, Callable, Iterable, Optional, Sequence

from . import checker
from .checker import (
    QuotientDescription,
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
    """One argument of a subcommand: a positional, or an option if its
    name starts with a dash.  ``dest`` names its attribute, ``type`` reads
    its text; a ``flag`` takes no value and defaults to False, and an
    ``optional`` positional may be left out."""

    __slots__ = ("name", "help", "dest", "type", "default", "choices", "flag",
                 "required", "optional", "option")

    def __init__(
        self,
        name: str,
        help: str = "",
        *,
        dest: Optional[str] = None,
        type: Optional[Callable[[str], Any]] = None,
        default: Any = None,
        choices: Optional[Sequence[str]] = None,
        flag: bool = False,
        required: bool = False,
        optional: bool = False,
    ) -> None:
        self.name = name
        self.help = help
        self.dest = dest or name.lstrip("-").replace("-", "_")
        self.type = type
        self.default = False if flag else default
        self.choices = choices
        self.flag = flag
        self.required = required
        self.optional = optional
        self.option = name.startswith("-")

    def label(self) -> str:
        """The argument's name in an error message, as argparse gave it."""
        return self.name if self.option else self.dest


_HELP = Arg("--help", "show this help and exit", flag=True)
_HELP_OPTIONS = {"-h": _HELP, "--help": _HELP}
_OUT = Arg("--out", "write output to this file instead of stdout")
_RADIUS = Arg("--radius", "word ball radius", type=int, default=8)

# verify and quotient: the truncation and the systems' parameters
_SYSTEM_OPTIONS = (
    Arg("--depth", "group ball depth", type=int, default=4),
    _RADIUS,
    _OUT,
    Arg("--schedule", "comma-separated growth horizons, e.g. 2,3,4,5,6",
        type=_parse_schedule, default=(2, 3, 4, 5, 6)),
    Arg("--N", "interval count for the line systems", dest="n_intervals", type=int,
        default=200),
    Arg("--c", "cylinder shift (rational)", type=_parse_fraction, default=Fraction(1)),
    Arg("--x-noncompact", "model the cylinder cross-section as non-compact", flag=True),
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
        Arg("center", "room word, e.g. ru", default="", optional=True),
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
            flag=True),
        Arg("--format", choices=("json", "csv"), default="json"),
        _OUT,
    )),
}

# argparse reads a token that looks like a negative number as a value
_NEGATIVE_NUMBER = r"^-\d+$|^-\d*\.\d+$"


def _read_token(
    token: str, options: dict[str, Arg]
) -> Optional[tuple[Optional[Arg], Optional[str]]]:
    """How argparse reads ``token``: None for a value or a positional,
    else the option it names (None for an unknown one) and the value
    attached to it, after ``=`` or after ``-h``."""
    if not token.startswith("-") or token in ("-", "--"):
        return None
    if token in options:
        return options[token], None
    head, eq, value = token.partition("=")
    if eq and head in options:
        return options[head], value
    if token.startswith("--"):  # a unique prefix of a long option names it
        named = [name for name in options if name.startswith(head)]
        if len(named) > 1:
            matches = ", ".join(named)
            raise UsageError(f"ambiguous option: {token} could match {matches}")
        if named:
            return options[named[0]], value if eq else None
    elif token[:2] in options:
        return options[token[:2]], token[2:]
    if re.match(_NEGATIVE_NUMBER, token) or " " in token:
        return None
    return None, None


def _convert(arg: Arg, text: str) -> Any:
    value = text
    if arg.type is not None:
        try:
            value = arg.type(text)
        except (TypeError, ValueError):
            raise UsageError(
                f"argument {arg.label()}: invalid {arg.type.__name__} value: {text!r}"
            )
    if arg.choices is not None and value not in arg.choices:
        raise UsageError(
            f"argument {arg.label()}: invalid choice: {value!r} "
            f"(choose from {', '.join(map(repr, arg.choices))})"
        )
    return value


def _help(command: Optional[str] = None) -> None:
    """Print the help of ``fundreg`` or of one subcommand, built from
    ``COMMANDS``, and exit 0."""
    import textwrap  # only help needs it

    if command is None:
        usage = "fundreg <command> [options]"
        summary = "Exact tiling verification at truncation scale."
        rows = [(name, help) for name, (help, _) in COMMANDS.items()]
    else:
        summary, args = COMMANDS[command]
        shown = [f"[{a.name}]" if a.optional else a.name for a in args if not a.option]
        shown += [f"{a.name} {a.dest.upper()}" for a in args if a.required]
        usage = " ".join(["fundreg", command, *shown, "[options]"])
        rows = []
        for arg in (*args, _HELP):
            notes = [arg.help] if arg.help else []
            if arg.choices:
                notes.append("one of " + ", ".join(arg.choices))
            if arg.default not in (None, False, ""):
                default = arg.default
                if isinstance(default, tuple):
                    default = ",".join(map(str, default))
                notes.append(f"default {default}")
            left = arg.name
            if arg.option and not arg.flag:
                left += " " + arg.dest.upper()
            rows.append((left, "; ".join(notes)))
    width = max(len(left) for left, _ in rows) + 4
    lines = [f"usage: {usage}", "", summary, ""]
    for left, note in rows:
        lines.append(textwrap.fill(
            note, 79, initial_indent=f"  {left:<{width - 2}}",
            subsequent_indent=" " * width, break_on_hyphens=False,
        ))
    sys.stdout.write("\n".join(lines) + "\n")
    raise SystemExit(0)


def _parse_command(command: str, tokens: list[str]) -> dict[str, Any]:
    """Read a subcommand's tokens as argparse did: left to right, each
    value checked where it is read, the last of a repeated option winning,
    and unknown arguments refused at the end.  A run of positionals fills
    the open positionals in order; an optional one that the run does not
    reach is closed with its default."""
    args = COMMANDS[command][1]
    options = {arg.name: arg for arg in args if arg.option} | _HELP_OPTIONS
    waiting = [arg for arg in args if not arg.option]
    values = {arg.dest: arg.default for arg in args}
    given, extras = set(), []
    if "--" in tokens:  # everything after it is positional
        cut = tokens.index("--")
        tokens = tokens[:cut] + tokens[cut + 1 :]
    else:
        cut = len(tokens)
    reads = [_read_token(t, options) if k < cut else None for k, t in enumerate(tokens)]
    i = 0
    while i < len(tokens):
        if reads[i] is None:
            run = i
            while run < len(tokens) and reads[run] is None:
                run += 1
            while waiting and (i < run or waiting[0].optional):
                arg = waiting.pop(0)
                if i < run:
                    values[arg.dest] = _convert(arg, tokens[i])
                    i += 1
            extras += tokens[i:run]
            i = run
            continue
        arg, value = reads[i]
        if arg is None:
            extras.append(tokens[i])
        elif arg.flag:
            if value is not None:
                raise UsageError(
                    f"argument {arg.label()}: ignored explicit argument {value!r}"
                )
            if arg is _HELP:
                _help(command)
            values[arg.dest] = True
        else:
            if value is None:
                if i + 1 == len(tokens) or reads[i + 1] is not None:
                    raise UsageError(f"argument {arg.label()}: expected one argument")
                i += 1
                value = tokens[i]
            values[arg.dest] = _convert(arg, value)
            given.add(arg.dest)
        i += 1
    missing = [
        arg.label()
        for arg in args
        if arg.required and arg.dest not in given or arg in waiting and not arg.optional
    ]
    if missing:
        raise UsageError("the following arguments are required: " + ", ".join(missing))
    if extras:
        raise UsageError("unrecognized arguments: " + " ".join(extras))
    return values


def parse(argv: Sequence[str]) -> SimpleNamespace:
    """The arguments of one ``fundreg`` command line, under argparse's
    attribute names.  A usage error raises ``UsageError``; ``-h`` or
    ``--help`` prints the help and exits 0."""
    tokens = list(argv)
    extras = []
    while tokens and (read := _read_token(tokens[0], _HELP_OPTIONS)):
        if read[0] is _HELP:
            if read[1] is not None:
                raise UsageError(
                    f"argument -h/--help: ignored explicit argument {read[1]!r}"
                )
            _help()
        extras.append(tokens.pop(0))
    if not tokens:
        raise UsageError("the following arguments are required: command")
    command = tokens[0]
    if command not in COMMANDS:
        raise UsageError(
            f"argument command: invalid choice: {command!r} "
            f"(choose from {', '.join(map(repr, COMMANDS))})"
        )
    values = _parse_command(command, tokens[1:])
    if extras:
        raise UsageError("unrecognized arguments: " + " ".join(extras))
    return SimpleNamespace(command=command, **values)


def _config_from(args: SimpleNamespace) -> RunConfig:
    return RunConfig(
        depth=args.depth,
        radius=args.radius,
        schedule=args.schedule,
        n_intervals=args.n_intervals,
        m_range=max(200, args.n_intervals),
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
