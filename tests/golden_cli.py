"""Golden CLI runs: the argv list and a recorder for their digests.

Each case is one ``fundreg`` invocation; ``golden_cli.json`` holds the
sha256 of its stdout and its exit code.  ``tests/test_golden_cli.py``
re-runs every case in-process and compares.  The free2house runs use
``--depth 3 --radius 5`` so that the whole sweep stays a few seconds.

Compare every case with its recording, writing nothing; the changed
rows are listed, and the exit code is 1 if there are any:

    PYTHONPATH=src python tests/golden_cli.py

Re-record with ``--record``, naming by its space-joined argv each row
whose change of output is intended (and named in CHANGES.md):

    PYTHONPATH=src python tests/golden_cli.py --record \
        "verify plane-pathological --property coverage --format json"

If any row not named changed, it writes nothing, lists those rows and
exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

DATA = Path(__file__).with_name("golden_cli.json")

SELECTORS = (
    "free2house",
    "line-standard",
    "line-pathological",
    "plane-pathological",
    "cylinder",
)

PROPERTIES = (
    "disjointness",
    "coverage",
    "boundary-containment",
    "local-finiteness",
    "finite-self-adjacency",
    "self-adjacency-implies-local-finiteness",
    "orbit-boundary-finiteness",
    "quotient-structure",
    "compactness-proxy",
)

SMALL_F2H = ["--depth", "3", "--radius", "5"]


def _sized(selector: str) -> list[str]:
    return SMALL_F2H if selector == "free2house" else []


def cases() -> list[list[str]]:
    out: list[list[str]] = []
    for sel in SELECTORS:
        out.append(["verify", sel, *_sized(sel)])
        out.append(["verify", sel, "--format", "json", *_sized(sel)])
    for sel in SELECTORS:
        for prop in PROPERTIES:
            out.append(
                ["verify", sel, "--property", prop, "--format", "json", *_sized(sel)]
            )
    for sel in SELECTORS:
        out.append(["quotient", sel, *_sized(sel)])
    out += [
        ["quotient", "free2house", "--format", "svg", *SMALL_F2H],
        ["render", "spine", "--radius", "5"],
        ["render", "quotient", "--radius", "5"],
        ["verify", "cylinder", "--c", "3/2", "--format", "json"],
        ["verify", "cylinder", "--x-noncompact", "--format", "json"],
        ["verify", "line-pathological", "--N", "48", "--format", "json"],
        ["verify", "plane-pathological", "--schedule", "1,2,3", "--format", "json"],
        # a schedule past the exact depth cap of local finiteness
        ["verify", "free2house", "--property", "local-finiteness",
         "--schedule", "2,4,6,8", "--format", "json", *SMALL_F2H],
        # coverage at the default depth and radius
        ["verify", "free2house", "--property", "coverage", "--format", "json"],
        # the rescaling: its report, the zero-field control, and the samples
        ["conformal", "--s", "0.3"],
        ["conformal", "--s", "0.3", "--null-rescaling"],
        ["conformal", "--s", "0.7", "--format", "csv"],
        # plane schedules past the defaults, and cylinder shifts off 1
        ["verify", "plane-pathological", "--schedule", "1,2,3,7,11,40",
         "--format", "json"],
        ["verify", "plane-pathological", "--property", "local-finiteness",
         "--schedule", "3,7,11,100"],
        ["verify", "cylinder", "--c", "5/7", "--N", "2", "--schedule", "1,2,3",
         "--format", "json"],
        ["verify", "cylinder", "--c", "7/3", "--N", "1", "--x-noncompact"],
        ["verify", "cylinder", "--c", "2/3", "--format", "json"],
        ["verify", "cylinder", "--c", "3", "--x-noncompact", "--format", "json"],
        # the deepest scan ball the budget admits, and coverage past the
        # radius whose room ball it refuses
        ["verify", "free2house", "--depth", "6"],
        ["verify", "free2house", "--depth", "6", "--format", "json"],
        ["verify", "free2house", "--property", "coverage", "--radius", "13",
         "--format", "json"],
    ]
    return out


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout sha256 of one in-process invocation."""
    from fundreg.cli import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(list(argv))
    return code, hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest()


def record() -> list[dict]:
    rows = []
    for argv in cases():
        code, digest = run(argv)
        rows.append({"argv": argv, "exit": code, "sha256": digest})
    return rows


def changed_rows(
    old: list[dict], new: list[dict], named: frozenset[str] = frozenset()
) -> list[str]:
    """One line per row of ``new`` whose exit code or digest differs from
    the row with the same argv in ``old``, or that ``old`` lacks, less the
    rows whose space-joined argv is in ``named``."""
    before = {tuple(row["argv"]): (row["exit"], row["sha256"]) for row in old}
    lines = []
    for row in new:
        text = " ".join(row["argv"])
        was = before.get(tuple(row["argv"]))
        now = (row["exit"], row["sha256"])
        if was != now and text not in named:
            lines.append(f"{text}: {was or 'new row'} -> {now}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--record",
        nargs="+",
        metavar="ARGV",
        help=f"write the runs to {DATA.name}; each ARGV names, as its "
        "space-joined text, a row that may change",
    )
    args = parser.parse_args(argv)
    old = json.loads(DATA.read_text(encoding="utf-8")) if DATA.exists() else []
    rows = record()
    changes = changed_rows(old, rows)
    for line in changes:
        print(line)
    print(f"{len(changes)} rows changed")
    if not args.record:
        return 1 if changes else 0
    unnamed = changed_rows(old, rows, frozenset(args.record))
    if unnamed:
        print(f"{len(unnamed)} changed rows not named; wrote nothing:")
        for line in unnamed:
            print(line)
        return 1
    DATA.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {DATA}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
