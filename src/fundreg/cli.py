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

import argparse
import functools
import itertools
import json
import math
import os
import sys
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

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
from .freegroup import word
from .tilespace import (
    TruncationError,
    label_color,
    neighborhood_roomset,
    render_roomsets,
)

USAGE_EXIT = 64
INTERNAL_EXIT = 70


class UsageError(Exception):
    """Bad arguments or configuration; mapped to exit code 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


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


@functools.lru_cache(maxsize=None)
def build_parser() -> _Parser:
    """The process's one parser: parsing never changes it."""
    parser = _Parser(
        prog="fundreg",
        description="Exact tiling verification at truncation scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def radius_and_out(p: _Parser) -> None:
        p.add_argument("--radius", type=int, default=8, help="word ball radius")
        p.add_argument("--out", help="write output to this file instead of stdout")

    def common(p: _Parser) -> None:
        p.add_argument("--depth", type=int, default=4, help="group ball depth")
        radius_and_out(p)
        p.add_argument(
            "--schedule",
            type=_parse_schedule,
            default=(2, 3, 4, 5, 6),
            help="comma-separated growth horizons, e.g. 2,3,4,5,6",
        )
        p.add_argument(
            "--N",
            dest="n_intervals",
            type=int,
            default=200,
            help="interval count for the line systems",
        )
        p.add_argument(
            "--c",
            type=_parse_fraction,
            default=Fraction(1),
            help="cylinder shift (rational)",
        )
        p.add_argument(
            "--x-noncompact",
            action="store_true",
            help="model the cylinder cross-section as non-compact",
        )

    p_verify = sub.add_parser("verify", help="run checks against expectations")
    p_verify.add_argument("selector", choices=checker.SELECTORS)
    p_verify.add_argument(
        "--property",
        choices=sorted(_PROPERTY_RUNNERS),
        help="run a single property instead of the battery",
    )
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    common(p_verify)

    p_render = sub.add_parser("render", help="draw an SVG picture")
    p_render.add_argument("view", choices=("nbhd", "spine", "quotient"))
    p_render.add_argument("center", nargs="?", default="", help="room word, e.g. ru")
    radius_and_out(p_render)

    p_quot = sub.add_parser("quotient", help="emit the identification structure")
    p_quot.add_argument("selector", choices=checker.SELECTORS)
    p_quot.add_argument("--format", choices=("json", "svg"), default="json")
    common(p_quot)

    p_conf = sub.add_parser("conformal", help="smooth rescaling diagnostics")
    p_conf.add_argument("--s", type=float, required=True, help="scaling step")
    p_conf.add_argument("--grid", type=int, default=64, help="samples per period")
    p_conf.add_argument(
        "--K", dest="reach", type=int, default=6, help="periods modelled each side"
    )
    p_conf.add_argument(
        "--null-rescaling",
        action="store_true",
        help="use the zero field: a control that must fail the isometry check",
    )
    p_conf.add_argument("--format", choices=("json", "csv"), default="json")
    p_conf.add_argument("--out", help="write output to this file instead of stdout")

    return parser


def _config_from(args: argparse.Namespace) -> RunConfig:
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


def cmd_verify(args: argparse.Namespace) -> int:
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


def cmd_render(args: argparse.Namespace) -> int:
    cfg = RunConfig(radius=args.radius)
    if args.view == "nbhd":
        center = word(args.center)
        name = center.text()
        layers = [
            (f"neighbourhood of {name}", neighborhood_roomset(center, cfg.radius))
        ]
        svg = render_roomsets(layers)
    elif args.view == "spine":
        system = make_system("free2house")
        layers = [
            ("fundamental region", system.region(cfg.radius)),
            ("region boundary", system.boundary(cfg.radius)),
        ]
        svg = render_roomsets(layers)
    else:
        _, desc = quotient_build(make_system("free2house"), cfg)
        assert desc is not None
        svg = quotient_strip_svg(desc)
    _emit(svg + "\n", args.out)
    return 0


def cmd_quotient(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    system = make_system(args.selector, args.c, not args.x_noncompact)
    report, desc = quotient_build(system, cfg)
    if args.format == "svg":
        if desc is None or args.selector != "free2house":
            raise UsageError("svg output is only drawn for the free2house quotient")
        _emit(quotient_strip_svg(desc) + "\n", args.out)
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


def cmd_conformal(args: argparse.Namespace) -> int:
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


# ---------------------------------------------------------- quotient svg


def quotient_strip_svg(desc: QuotientDescription) -> str:
    """Row of closed triangles with arrowed edge identifications.

    Triangle k's top edge carries the same arrow colour as triangle
    k+1's left edge; both arrows point in the direction of increasing
    edge parameter, which is how the gluing matches them up.
    """
    rooms = [piece.rsplit(" ", 1)[-1] for piece in desc.pieces]
    count = len(rooms)
    unit, gap, pad = 72, 30, 20
    top = pad + 26
    bottom = top + unit
    width = pad * 2 + count * unit + (count - 1) * gap
    height = bottom + 40 + 18 * (len(desc.notes) + 1)

    defs = []
    body = []
    for k, via in enumerate(d["via"] for d in desc.identifications):
        color = label_color(via)
        defs.append(
            f'<marker id="arrow{k}" viewBox="0 0 10 10" refX="9" refY="5" '
            f'markerWidth="7" markerHeight="7" orient="auto-start-reverse">'
            f'<path d="M 0 0 L 10 5 L 0 10 z" fill="{color}"/></marker>'
        )

    for k, room in enumerate(rooms):
        x0 = pad + k * (unit + gap)
        points = f"{x0},{bottom} {x0},{top} {x0 + unit},{top}"
        body.append(
            f'<polygon points="{points}" fill="{label_color(room)}" '
            f'fill-opacity="0.35" stroke="#444444" stroke-width="1"/>'
        )
        body.append(
            f'<text x="{x0 + unit // 3}" y="{bottom + 16}" font-size="13" '
            f'text-anchor="middle" font-family="monospace" '
            f'fill="#333333">{room}</text>'
        )

    for k, ident in enumerate(desc.identifications):
        color = label_color(ident["via"])
        x_from = pad + k * (unit + gap)
        body.append(
            f'<line x1="{x_from}" y1="{top}" x2="{x_from + unit}" y2="{top}" '
            f'stroke="{color}" stroke-width="3" marker-end="url(#arrow{k})"/>'
        )
        body.append(
            f'<text x="{x_from + unit // 2}" y="{top - 8}" font-size="11" '
            f'text-anchor="middle" font-family="monospace" '
            f'fill="{color}">{ident["via"]}</text>'
        )
        x_to = pad + (k + 1) * (unit + gap)
        body.append(
            f'<line x1="{x_to}" y1="{bottom}" x2="{x_to}" y2="{top}" '
            f'stroke="{color}" stroke-width="3" marker-end="url(#arrow{k})"/>'
        )

    captions = [f"orientation: {d['orientation']}" for d in desc.identifications[:1]]
    captions += desc.notes
    for i, caption in enumerate(captions):
        body.append(
            f'<text x="{pad}" y="{bottom + 40 + 18 * i}" font-size="12" '
            f'font-family="monospace" fill="#555555">{caption}</text>'
        )

    return "\n".join(
        [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">',
            f'<rect width="{width}" height="{height}" fill="white"/>',
            "<defs>" + "".join(defs) + "</defs>",
            *body,
            "</svg>",
        ]
    )


# ----------------------------------------------------------------- entry


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
