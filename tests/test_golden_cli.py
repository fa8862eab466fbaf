"""Every recorded CLI run still prints the same bytes and exits the same.

The digests in ``golden_cli.json`` were recorded before the system
protocol refactor; see ``golden_cli.py`` for the cases and the recorder.
The benchmark's ops are held to ``perfbench/reference.json`` here too,
so that a changed byte shows in the suite, not only in the benchmark.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from fundreg import cli
from fundreg.cli import USAGE_EXIT
import golden_cli
from golden_cli import DATA, changed_rows, run

ROWS = json.loads(DATA.read_text(encoding="utf-8"))

# the benchmark's ops, keyed by their space-joined argv, with the exit
# code, byte count and sha256 of stdout each must keep
BENCH_OPS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text(
        encoding="utf-8"
    )
)["ops"]


@pytest.mark.parametrize("row", ROWS, ids=[" ".join(r["argv"]) for r in ROWS])
def test_cli_output_matches_the_recording(row):
    assert run(row["argv"]) == (row["exit"], row["sha256"])


@pytest.mark.parametrize("op", sorted(BENCH_OPS))
def test_benchmark_op_prints_its_reference_bytes(op):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(op.split())
    data = out.getvalue().encode("utf-8")
    want = BENCH_OPS[op]
    assert (code, len(data), hashlib.sha256(data).hexdigest()) == (
        want["exit_code"],
        want["bytes"],
        want["sha256"],
    )


def test_one_parser_serves_runs_in_turn():
    """The parser serves every run in a process, a usage error in
    between included, and each run still prints its recorded bytes."""
    recorded = {tuple(r["argv"]): (r["exit"], r["sha256"]) for r in ROWS}
    nothing = hashlib.sha256(b"").hexdigest()
    runs = [
        (["verify", "line-standard", "--format", "json"], None),
        (["verify", "line-standard", "--property", "no-such"], (USAGE_EXIT, nothing)),
        (["verify", "line-pathological", "--property", "disjointness",
          "--format", "json"], None),
        (["quotient", "line-pathological"], None),
    ]
    for argv, want in runs:
        assert run(argv) == (want or recorded[tuple(argv)]), argv


def test_the_recorder_lists_each_changed_row():
    old = [
        {"argv": ["verify", "a"], "exit": 0, "sha256": "x"},
        {"argv": ["verify", "b"], "exit": 1, "sha256": "y"},
    ]
    new = [
        {"argv": ["verify", "a"], "exit": 0, "sha256": "x"},
        {"argv": ["verify", "b"], "exit": 2, "sha256": "y"},
        {"argv": ["verify", "c"], "exit": 0, "sha256": "z"},
    ]
    assert changed_rows(old, old) == []
    assert changed_rows(old, new) == [
        "verify b: (1, 'y') -> (2, 'y')",
        "verify c: new row -> (0, 'z')",
    ]


def test_a_re_record_writes_nothing_when_a_row_it_does_not_name_changed(
    tmp_path, monkeypatch, capsys
):
    old = [
        {"argv": ["verify", "a"], "exit": 0, "sha256": "x"},
        {"argv": ["verify", "b"], "exit": 1, "sha256": "y"},
    ]
    new = [
        {"argv": ["verify", "a"], "exit": 0, "sha256": "w"},
        {"argv": ["verify", "b"], "exit": 2, "sha256": "y"},
    ]
    data = tmp_path / "golden.json"
    data.write_text(json.dumps(old), encoding="utf-8")
    monkeypatch.setattr(golden_cli, "DATA", data)
    monkeypatch.setattr(golden_cli, "record", lambda: new)
    assert changed_rows(old, new, frozenset({"verify a"})) == [
        "verify b: (1, 'y') -> (2, 'y')"
    ]
    # one changed row named, the other not: refused, the file untouched
    assert golden_cli.main(["--record", "verify a"]) == 1
    assert json.loads(data.read_text(encoding="utf-8")) == old
    out = capsys.readouterr().out
    assert out.endswith(
        "1 changed rows not named; wrote nothing:\nverify b: (1, 'y') -> (2, 'y')\n"
    )
    # both named: written
    assert golden_cli.main(["--record", "verify a", "verify b"]) == 0
    assert json.loads(data.read_text(encoding="utf-8")) == new
