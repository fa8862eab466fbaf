"""Smoke test for the benchmark harness, on a tiny configuration.

    python3 -m pytest perfbench/tests

It is kept out of the package's own test suite, which it would slow down.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

OPS = [["verify", "line-standard", "--format", "json"]]
SPEC = json.loads(run.SPEC.read_text(encoding="utf-8"))
REFERENCE = json.loads(run.REFERENCE.read_text(encoding="utf-8"))["ops"]


def measure(trace: bool, reference: dict = REFERENCE) -> dict:
    return run.run_workload(OPS, 0, trace, reference, SPEC)


def units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_workloads_match_the_spec_and_the_reference():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    for ops in run.WORKLOADS.values():
        for argv in ops:
            assert run.op_key(argv) in REFERENCE


def test_untraced_run_emits_every_end_to_end_metric():
    out = measure(False)
    result = out["result"]
    assert result["correct"], out["record"]
    assert (result["attempted"], result["failed"]) == (1, 0)
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert out["record"]["failed_ratio"]["value"] == 0
    assert out["record"]["environment"]["ops"] == [run.op_key(OPS[0])]


def test_traced_run_emits_every_per_layer_metric():
    out = measure(True)
    result = out["result"]
    assert result["correct"], out["record"]["trace_problems"]
    assert len(out["traces"]) == 2
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values["cli.main.calls"] == 1
    assert values["checker.disjointness.calls"] == 1
    assert values["regions.IntervalSet.init.calls"] > 0
    assert values["tilespace.translate.calls"] == 0
    assert values["cli.stdout_bytes"] == REFERENCE[run.op_key(OPS[0])]["bytes"]


def test_altered_reference_digest_fails_the_gate():
    key = run.op_key(OPS[0])
    reference = {**REFERENCE, key: {**REFERENCE[key], "sha256": "0" * 64}}
    out = measure(False, reference)
    assert out["record"]["failed_ratio"]["value"] > 0
    assert out["record"]["failed_ops"] == [key]
    assert not out["result"]["correct"]


def test_trace_check_flags_unbalanced_self_times_and_unstable_counts():
    def fake(wall_s: float, translates: int) -> dict:
        return {
            "wall_s": wall_s,
            "trace": {
                "spans": [[1, None, "pass", 0.0, 1.0, 0.25]],
                "leaves": [[1, "tilespace.translate", translates, 0.75, 0.75]],
                "counts": {},
            },
        }

    assert run.trace_problems([fake(1.0, 3), fake(1.0, 3)]) == []
    problems = run.trace_problems([fake(1.0, 3), fake(2.0, 4)])
    assert any("self times" in p for p in problems)
    assert any("tilespace.translate.calls" in p for p in problems)


def test_exits_nonzero_without_the_package_sources(tmp_path):
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=ignore)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "metric-systems",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
