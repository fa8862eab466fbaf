"""Exact verification of fundamental-region properties on tiled spaces.

The package builds finite truncations of a group acting on a glued room
space, plus several metric comparison systems, and checks disjointness,
coverage, local finiteness, self-adjacency, boundary containment, and
quotient structure mechanically.  All tiling arithmetic is exact
(reduced words and rationals); only the smooth rescaling module uses
floating point.  numpy is needed by that module alone: ``build_partition``,
``build_rescaling`` and ``rescaling_report`` import it on first access, so
the exact battery, ``render`` and ``quotient`` never load it.  Likewise
``render_roomsets`` loads the drawing code, ``fundreg.render``, on first
access.

The rescaling's one BLAS call is too small for a thread pool, and
OpenBLAS's pool threads busy-wait on another core after numpy loads, so
importing the package sets ``OPENBLAS_NUM_THREADS`` to 1 unless it is
set: this holds wherever numpy loads after fundreg.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .action import (
    ActionElement,
    GroupBall,
    group_ball,
    identity,
    room_reflection,
    walk_to_spine,
)
from .checker import (
    EXIT_CODES,
    INCONCLUSIVE,
    REFUTED,
    SELECTORS,
    VERIFIED,
    RunConfig,
    VerificationReport,
    battery_exit_code,
    make_system,
    run_battery,
)
from .freegroup import ReducedWord, ball_size, enumerate_ball, r_power, u_power, word
from .tilespace import (
    Cell,
    RoomPoint,
    RoomSet,
    canonical_point,
    materialize_cell,
    neighborhood_roomset,
)

__version__ = "0.1.0"

# Names whose modules load on first access (PEP 562): only the rescaling
# needs numpy, and only drawing needs the SVG code.
_LAZY = {
    "build_partition": "conformal",
    "build_rescaling": "conformal",
    "rescaling_report": "conformal",
    "render_roomsets": "render",
}


def __getattr__(name: str):
    if name in _LAZY:
        from importlib import import_module

        return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ActionElement",
    "Cell",
    "EXIT_CODES",
    "GroupBall",
    "INCONCLUSIVE",
    "REFUTED",
    "ReducedWord",
    "RoomPoint",
    "RoomSet",
    "RunConfig",
    "SELECTORS",
    "VERIFIED",
    "VerificationReport",
    "ball_size",
    "battery_exit_code",
    "build_partition",
    "build_rescaling",
    "canonical_point",
    "enumerate_ball",
    "group_ball",
    "identity",
    "make_system",
    "materialize_cell",
    "neighborhood_roomset",
    "r_power",
    "render_roomsets",
    "rescaling_report",
    "room_reflection",
    "run_battery",
    "u_power",
    "walk_to_spine",
    "word",
]
