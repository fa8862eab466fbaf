"""Every recorded CLI run still prints the same bytes and exits the same.

The digests in ``golden_cli.json`` were recorded before the system
protocol refactor; see ``golden_cli.py`` for the cases and the recorder.
"""

import json

import pytest

from golden_cli import DATA, run

ROWS = json.loads(DATA.read_text(encoding="utf-8"))


@pytest.mark.parametrize("row", ROWS, ids=[" ".join(r["argv"]) for r in ROWS])
def test_cli_output_matches_the_recording(row):
    assert run(row["argv"]) == (row["exit"], row["sha256"])
