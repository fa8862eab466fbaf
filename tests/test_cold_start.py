"""Each command loads only what it runs.

Only the rescaling fields use floating point, so importing the package,
importing the CLI and running the exact battery must leave numpy
unimported.  Likewise ``hashlib``, which only the drawings use, and
``csv``, which nothing uses, stay unimported.  The drawing code itself,
``fundreg.render``, loads only to draw, no command loads ``dataclasses``
(with what it imports), and argparse loads only for a command line that
is not plain.  The probes run
in a fresh interpreter: this test process has all of these loaded already.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import contextlib, io, sys

def numpy_loaded():
    return "numpy" in sys.modules

before = set(sys.modules)
import fundreg
assert not numpy_loaded(), "import fundreg"
import fundreg.cli as cli
assert not numpy_loaded(), "import fundreg.cli"
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["verify", "line-standard"])
assert code == 0, code
assert not numpy_loaded(), "verify line-standard"
added = set(sys.modules) - before
assert not added & {"csv", "hashlib"}, sorted(added & {"csv", "hashlib"})

try:
    fundreg.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("fundreg.no_such_name resolved")

with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["conformal", "--s", "0.3"])
assert code == 0, code
assert numpy_loaded(), "conformal ran without numpy"

import fundreg.conformal
assert fundreg.build_rescaling is fundreg.conformal.build_rescaling
assert fundreg.rescaling_report is fundreg.conformal.rescaling_report
assert fundreg.build_partition is fundreg.conformal.build_partition
print("ok")
"""


def test_numpy_is_imported_only_by_conformal():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True
    )
    assert (proc.returncode, proc.stdout) == (0, "ok\n"), proc.stderr


START_UP_PROBE = """
import contextlib, io, sys

import fundreg
import fundreg.cli as cli

runs = [["verify", selector] for selector in (
    "free2house", "line-standard", "line-pathological", "plane-pathological",
    "cylinder",
)] + [["quotient", "line-pathological"]]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
unwanted = {
    "dataclasses", "inspect", "argparse", "gettext", "locale",
    "fundreg.render", "fundreg.conformal", "numpy",
}
print(sorted(unwanted & set(sys.modules)))

# argparse reads only a line that is not plain, such as a prefix
assert cli.parse(["verify", "line-standard", "--dep", "3"]).depth == 3
assert "argparse" in sys.modules, "verify line-standard --dep 3"

with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["render", "spine", "--radius", "3"]) == 0
assert "fundreg.render" in sys.modules, "render spine"
import fundreg.render
assert fundreg.render_roomsets is fundreg.render.render_roomsets
print("ok")
"""


def test_verify_and_quotient_load_neither_drawing_nor_dataclasses_nor_argparse():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", START_UP_PROBE], env=env, capture_output=True, text=True
    )
    assert (proc.returncode, proc.stdout) == (0, "[]\nok\n"), proc.stderr
