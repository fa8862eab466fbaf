"""One benchmark pass in a fresh interpreter, so every cache starts cold.

Reads a JSON config on stdin: ``src`` (directory holding the fundreg
package), ``ops`` (CLI argument lists, run one after another through
``fundreg.cli.main``) and ``trace``.  Writes one JSON object on stdout:
the monotonic time at which ``fundreg.cli`` finished importing, the pass's
wall and CPU time, peak RSS, each op's exit code and stdout digest, the
durations of the speed-probe bursts, and with ``trace`` the tracer's spans
and counts.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import signal
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

# One probe burst every this many seconds of a pass; a burst takes ~4 ms.
PROBE_INTERVAL_S = 0.25
# Bursts timed right after import, for the set-up time.
SETUP_BURSTS = 5


def burst() -> None:
    """A fixed piece of work that uses only the standard library: a dict of
    tuple keys and a Fraction sum, the operations fundreg spends its time
    on.  No change to fundreg can move its duration; a slow phase of a
    shared host stretches it as it stretches a pass."""
    table = {}
    for i in range(12000):
        table[(i & 63, (i >> 6) & 31)] = i  # 2048 keys: little memory
    total = Fraction(0)
    for i in range(1, 200):
        total += Fraction(i % 7, 1 + i % 11)


class SpeedProbe:
    """Times ``burst`` every PROBE_INTERVAL_S from a SIGALRM handler, so the
    samples cover the same seconds as the pass, and keeps the wall and CPU
    time the handler took so that they can be taken out of the pass."""

    def __init__(self) -> None:
        self.bursts: list[float] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def sample(self, *_signal_args) -> None:
        start, cpu0 = time.perf_counter(), time.process_time()
        # The collector would scan the program's heap, whose size is not a
        # property of the machine.
        enabled = gc.isenabled()
        gc.disable()
        try:
            burst()
        finally:
            if enabled:
                gc.enable()
        self.bursts.append(time.perf_counter() - start)
        self.wall_s += time.perf_counter() - start
        self.cpu_s += time.process_time() - cpu0

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_op(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except Exception:
        error = traceback.format_exc()
    data = out.getvalue().encode("utf-8")
    return {
        "argv": argv,
        "exit_code": code,
        "sha256": hashlib.sha256(data).hexdigest(),
        "bytes": len(data),
        "error": error,
    }


def main() -> int:
    config = json.load(sys.stdin)
    src = Path(config["src"]).resolve()
    sys.path.insert(0, str(src))
    import fundreg.cli as cli

    ready = time.monotonic()
    import numpy

    if Path(cli.__file__).resolve().parent.parent != src:
        raise SystemExit(f"fundreg imported from {cli.__file__}, not {src}")

    setup_probe = SpeedProbe()
    for _ in range(SETUP_BURSTS):
        setup_probe.sample()

    results: list[dict] = []

    def run_ops() -> None:
        for argv in config["ops"]:
            results.append(run_op(cli, argv))

    tracer = None
    run = run_ops
    if config["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        run = tracer.span("pass", run_ops)

    with SpeedProbe() as probe:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        run()
        wall_s = time.perf_counter() - t0
        cpu_s = time.process_time() - cpu0

    json.dump(
        {
            "ready": ready,
            "wall_s": wall_s,
            "run_s": wall_s - probe.wall_s,
            "cpu_s": cpu_s - probe.cpu_s,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "setup_bursts": setup_probe.bursts,
            "bursts": probe.bursts,
            "numpy": numpy.__version__,
            "ops": results,
            "trace": tracer.snapshot() if tracer else None,
        },
        sys.stdout,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
