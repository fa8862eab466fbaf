"""Exact verification of fundamental-region properties on tiled spaces.

The package builds finite truncations of a group acting on a glued room
space, plus several metric comparison systems, and checks disjointness,
coverage, local finiteness, self-adjacency, boundary containment, and
quotient structure mechanically.  All tiling arithmetic is exact
(reduced words and rationals); only the smooth rescaling module uses
floating point.  numpy is needed by that module alone: ``build_partition``,
``build_rescaling`` and ``rescaling_report`` import it on first access, so
the exact battery, ``render`` and ``quotient`` never load it.
"""

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
    render_roomsets,
)

__version__ = "0.1.0"

# Only the rescaling needs numpy: its names load ``conformal`` on first access.
_CONFORMAL = frozenset({"build_partition", "build_rescaling", "rescaling_report"})


def __getattr__(name: str):
    if name in _CONFORMAL:
        from . import conformal

        return getattr(conformal, name)
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
