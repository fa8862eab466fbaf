"""fundreg benchmark: fixed CLI workloads, an output gate, a traced run.

    python3 perfbench/run.py --workload f2h-default --seed 1 --seconds 36 --trace 0

Each pass runs a workload's CLI calls one after another, through
``fundreg.cli.main``, in a fresh child interpreter: one closed-loop
client, no threads, cold caches.  Passes repeat while half a typical pass
still fits in ``--seconds``; the end-to-end metrics are medians over
passes, with each time rescaled to nominal machine speed by the probe
bursts its child timed (see ``child.SpeedProbe``).  Every op's exit code
and stdout sha256 are checked against ``reference.json``.  With
``--trace 1`` traced and untraced passes alternate and the per-layer
metrics come from the traced ones.

The last line of stdout is the result object; the line before it records
the environment, sample counts and failed ops.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
REFERENCE = BENCH / "reference.json"
TRACE_DIR = BENCH / "out"

# Every child is killed once the run has lasted this long.
HARD_LIMIT_S = 170.0
# The duration of child.burst that counts as nominal machine speed.  Each
# end-to-end time is scaled by NOMINAL_BURST_S / (median burst of the child
# that measured it); only the ratio between runs matters.
NOMINAL_BURST_S = 0.004

WORKLOADS: dict[str, list[list[str]]] = {
    "f2h-default": [["verify", "free2house", "--format", "json"]],
    "metric-systems": [
        ["verify", "line-pathological", "--format", "json"],
        ["verify", "line-standard", "--format", "json"],
        ["verify", "plane-pathological", "--format", "json"],
        ["verify", "cylinder", "--format", "json"],
        ["verify", "cylinder", "--c", "3/2", "--format", "json"],
        ["quotient", "line-pathological"],
        ["conformal", "--s", "0.3"],
        ["conformal", "--s", "0.3", "--null-rescaling"],
    ],
    "f2h-deep": [
        ["verify", "free2house", "--property", "disjointness",
         "--depth", "5", "--radius", "1", "--format", "json"],
    ],
}

# Counts that must repeat exactly between two traced passes.
DETERMINISTIC = (
    "action.group_ball.elements",
    "action.ball_iterated.elements",
    "tilespace.translate.calls",
    "tilespace.intersect.nonempty",
    "checker.finite-self-adjacency.calls",
)


def op_key(argv: list[str]) -> str:
    return " ".join(argv)


def spawn(ops: list[list[str]], trace: bool, started: float) -> dict:
    """Run one pass in a child interpreter; add its set-up time."""
    config = json.dumps({"src": str(SRC), "ops": ops, "trace": trace})
    launch = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py")],
        cwd=ROOT,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        out, _ = proc.communicate(
            config, timeout=max(1.0, HARD_LIMIT_S - (launch - started))
        )
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark child exited with {proc.returncode}")
    result = json.loads(out)
    result["setup_s"] = result["ready"] - launch
    return result


def at_nominal_speed(p: dict, key: str) -> float:
    """A child's time ``key``, rescaled to nominal machine speed with the
    probe bursts timed around it: those after import for the set-up time,
    all of them for the pass."""
    bursts = p["setup_bursts"] if key == "setup_s" else p["setup_bursts"] + p["bursts"]
    return p[key] * NOMINAL_BURST_S / statistics.median(bursts)


def failed_ops(passes: list[dict], reference: dict) -> list[str]:
    """Ops that raised, or whose exit code or stdout digest is not the
    reference's."""
    bad = []
    for p in passes:
        for op in p["ops"]:
            want = reference[op_key(op["argv"])]
            if (
                op["error"] is not None
                or op["exit_code"] != want["exit_code"]
                or op["sha256"] != want["sha256"]
            ):
                bad.append(op_key(op["argv"]))
    return bad


def layer_totals(trace: dict) -> dict[str, list]:
    """Per layer name: [calls, inclusive s, self s] over spans and leaves."""
    totals: dict[str, list] = {}

    def add(name: str, calls: int, total: float, own: float) -> None:
        agg = totals.setdefault(name, [0, 0.0, 0.0])
        agg[0] += calls
        agg[1] += total
        agg[2] += own

    for _, _, name, start, end, own in trace["spans"]:
        add(name, 1, end - start, own)
    for _, name, calls, total, own in trace["leaves"]:
        add(name, calls, total, own)
    return totals


def layer_metrics(trace: dict, names: list[str], stdout_bytes: int) -> dict:
    """Values of the named per-layer metrics for one traced pass."""
    totals = layer_totals(trace)
    counts = trace["counts"]
    kinds = {"calls": 0, "s": 1, "self_s": 2}
    values = {}
    for name in names:
        if name == "trace.overhead_s":
            continue  # needs the untraced passes too; see run_workload
        layer, _, kind = name.rpartition(".")
        if name == "cli.stdout_bytes":
            values[name] = stdout_bytes
        elif name == "tilespace.intersect.hit_ratio":
            calls = totals.get("tilespace.intersect", [0])[0]
            hits = counts.get("tilespace.intersect.nonempty", 0)
            values[name] = hits / calls if calls else 0.0
        elif name in tracer.COUNT_NAMES:
            values[name] = counts.get(name, 0)
        elif layer in tracer.LAYERS and kind in kinds:
            values[name] = totals.get(layer, [0, 0.0, 0.0])[kinds[kind]]
        else:
            raise KeyError(f"no rule for per-layer metric {name!r}")
    return values


def trace_problems(traced: list[dict]) -> list[str]:
    """Self times must add up to each traced pass's wall time, and the
    deterministic counts must repeat between passes."""
    problems = []
    for i, p in enumerate(traced):
        own = sum(s[5] for s in p["trace"]["spans"]) + sum(
            leaf[4] for leaf in p["trace"]["leaves"]
        )
        if abs(own - p["wall_s"]) > 1e-3:
            problems.append(
                f"traced pass {i}: self times add to {own:.6f} s, "
                f"wall is {p['wall_s']:.6f} s"
            )
    counts = [layer_metrics(p["trace"], list(DETERMINISTIC), 0) for p in traced]
    for name in DETERMINISTIC:
        seen = {c[name] for c in counts}
        if len(seen) > 1:
            problems.append(f"{name} differs between traced passes: {sorted(seen)}")
    return problems


def run_workload(
    ops: list[list[str]], seconds: float, trace: bool, reference: dict, spec: dict
) -> dict:
    """Measure ``ops`` for ``seconds``; return the result object and the
    record printed before it."""
    started = time.monotonic()
    setups: list[float] = []
    untraced: list[dict] = []
    traced: list[dict] = []
    durations: list[float] = []
    while True:
        # Start another pass while half a typical pass still fits, so a run
        # ends within half a pass of ``seconds``, on either side.
        enough = untraced and (not trace or len(traced) >= 2)
        now = time.monotonic()
        if enough and now - started + statistics.median(durations) / 2 > seconds:
            break
        # An import-only child before each pass spreads the set-up samples
        # over the run.
        setups.append(at_nominal_speed(spawn([], False, started), "setup_s"))
        use_trace = trace and len(traced) <= len(untraced)
        p = spawn(ops, use_trace, started)
        durations.append(time.monotonic() - now)
        (traced if use_trace else untraced).append(p)
        setups.append(at_nominal_speed(p, "setup_s"))

    passes = untraced + traced
    failed = failed_ops(passes, reference)
    attempted = sum(len(p["ops"]) for p in passes)
    median = statistics.median
    run_s = median(at_nominal_speed(p, "run_s") for p in untraced)
    problems: list[str] = []
    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        per_pass = [
            layer_metrics(p["trace"], names, sum(op["bytes"] for op in p["ops"]))
            for p in traced
        ]
        # median_low keeps each value one that a pass produced: counts stay whole.
        values = {
            name: statistics.median_low(v[name] for v in per_pass)
            for name in per_pass[0]
        }
        values["trace.overhead_s"] = (
            median(at_nominal_speed(p, "run_s") for p in traced) - run_s
        )
        problems = trace_problems(traced)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {
            "run_s": run_s,
            "cpu_s": median(at_nominal_speed(p, "cpu_s") for p in untraced),
            "setup_s": median(setups),
            "peak_rss_mb": median(p["maxrss_kb"] / 1024 for p in untraced),
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    record = {
        "environment": {
            "commit": git_commit(),
            "src_sha256": src_digest(),
            "python": platform.python_version(),
            "numpy": passes[0]["numpy"],
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "repeats": {
                "untraced_passes": len(untraced),
                "traced_passes": len(traced),
                "setup_samples": len(setups),
            },
            "ops": [op_key(argv) for argv in ops],
        },
        "samples": {
            "wall_run_s": [p["run_s"] for p in untraced],
            "wall_traced_run_s": [p["run_s"] for p in traced],
            "median_burst_s": [
                statistics.median(p["setup_bursts"] + p["bursts"]) for p in passes
            ],
            "setup_s": setups,
        },
        "failed_ratio": {
            "value": len(failed) / attempted,
            "unit": "ratio",
            "failed": len(failed),
            "attempted": attempted,
        },
        "failed_ops": failed,
        "trace_problems": problems,
    }
    result = {
        "correct": not failed and not problems,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
    }
    return {"result": result, "record": record, "traces": [p["trace"] for p in traced]}


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fundreg" / "cli.py").is_file():
        print(f"run.py: no fundreg sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["ops"]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    # The seed permutes op order; it matters only for multi-op workloads.
    ops = list(WORKLOADS[args.workload])
    random.Random(args.seed).shuffle(ops)

    out = run_workload(ops, seconds, bool(args.trace), reference, spec)
    record = {"workload": args.workload, "seed": args.seed, **out["record"]}
    if out["traces"]:
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(out["traces"]), encoding="utf-8")
        record["trace_file"] = str(path.relative_to(ROOT))
    for op in record["failed_ops"]:
        print(f"run.py: op failed the output gate: {op}", file=sys.stderr)
    for problem in record["trace_problems"]:
        print(f"run.py: trace check failed: {problem}", file=sys.stderr)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
