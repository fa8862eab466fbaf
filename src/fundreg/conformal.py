"""Smooth rescaling fields along a one-parameter scaling action.

Work happens in the logarithmic radial coordinate, where scaling by
``exp(s)`` becomes translation by ``s``.  A smooth plateau bump is
shifted through all integer multiples of ``s`` and normalized into a
partition of unity; the rescaling field is the index-weighted sum of the
partition, which makes it drop by exactly ``s`` per period.  Pulling the
rescaled metric back through one scaling step multiplies the conformal
factor by ``exp(2 s)``, and the drop cancels that multiplication, so the
scaling acts by isometries of the rescaled metric.

Everything is sampled on a uniform grid whose step divides ``s``
exactly; field shifts are integer index shifts, so no interpolation
error enters the diagnostics.
"""

from __future__ import annotations

import numpy as np

from .checker import refuse_over_budget
from .record import Record

__all__ = [
    "PartitionData",
    "RescalingData",
    "smooth_step",
    "plateau_bump",
    "build_partition",
    "build_rescaling",
    "partition_diagnostics",
    "equivariance_defect",
    "isometry_rel_error",
    "rescaling_report",
    "partition_estimate",
    "PARTITION_TOL",
    "EQUIVARIANCE_TOL",
    "ISOMETRY_REL_TOL",
]

PARTITION_TOL = 1e-12
EQUIVARIANCE_TOL = 1e-10
ISOMETRY_REL_TOL = 1e-9


def smooth_step(u: np.ndarray) -> np.ndarray:
    """Smooth 0-to-1 transition on [0, 1] built from exp(-1/u).

    Flat to infinite order at both ends; complementary in the sense
    smooth_step(u) + smooth_step(1 - u) == 1.
    """
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        head = np.where(u > 0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)
        tail = np.where(1 - u > 0, np.exp(-1.0 / np.maximum(1 - u, 1e-300)), 0.0)
    out = np.where(u <= 0, 0.0, np.where(u >= 1, 1.0, head / (head + tail)))
    return out


def plateau_bump(t: np.ndarray, s: float) -> np.ndarray:
    """Smooth bump: 1 on [0, s], supported on (-s/2, 3s/2).

    Rises over [-s/2, 0] and falls over [s, 3s/2]; shifted copies at
    integer multiples of s overlap in at most two at any point.
    """
    t = np.asarray(t, dtype=float)
    half = s / 2.0
    rising = smooth_step((t + half) / half)
    falling = smooth_step((1.5 * s - t) / half)
    return np.minimum(rising, falling)


def partition_estimate(grid: int, reach: int) -> int:
    """Upper estimate of the bytes of samples a partition and its report hold
    at once: the fields and their unnormalised copy, 2 reach + 1 rows of
    (2 reach + 1) grid + 1 floats, beside four arrays over the bump's
    (4 reach + 1) grid + 1 points, plus 64 KiB.  Output text is not
    counted: csv rows are written one at a time."""
    rows = 2 * reach + 1
    samples = rows * grid + 1
    bump = (4 * reach + 1) * grid + 1
    return 8 * (2 * rows * samples + 4 * bump) + 2**16


class _SampledRecord(Record):
    """A record some of whose fields are numpy arrays, compared by value."""

    __slots__ = ()

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(
            np.array_equal(a, b)
            if isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
            else a == b
            for a, b in zip(self._values(), other._values())
        )


class PartitionData(_SampledRecord):
    """Normalized partition of unity on the sample grid.

    fields[k] samples the field with shift index ``indices[k]``; the
    partition identity holds on the interior window, where every
    contributing shift lies inside the modelled family.  ``window``
    holds inclusive array positions, not coordinates.
    """

    __slots__ = ("s", "step", "grid", "reach", "ts", "indices", "fields", "window")

    def __init__(
        self,
        s: float,
        step: float,
        grid: int,
        reach: int,
        ts: np.ndarray,
        indices: list[int],
        fields: np.ndarray,
        window: tuple[int, int],
    ) -> None:
        self.s = s
        self.step = step
        self.grid = grid
        self.reach = reach
        self.ts = ts
        self.indices = indices
        self.fields = fields
        self.window = window

    def window_slice(self) -> slice:
        lo, hi = self.window
        return slice(lo, hi + 1)


def build_partition(s: float, grid: int = 64, reach: int = 6) -> PartitionData:
    """Sample the normalized plateau partition.

    ``grid`` sample steps per period; the grid spans [-reach*s,
    (reach+1)*s] and the partition identity is checked on the interior
    window [-(reach-1)*s, reach*s].
    """
    if s <= 0:
        raise ValueError("scale must be positive")
    if grid < 4 or grid % 2:
        raise ValueError("grid must be an even count of at least 4")
    if reach < 2:
        raise ValueError("reach must be at least 2")
    need = partition_estimate(grid, reach)
    refuse_over_budget(need, f"the partition at grid {grid} and K {reach}")
    h = s / grid
    j_lo, j_hi = -reach * grid, (reach + 1) * grid
    js = np.arange(j_lo, j_hi + 1)
    ts = js * h
    indices = list(range(-reach, reach + 1))
    # One base evaluation, sliced at integer offsets: shifted fields are
    # bit-identical translates, so the shift identities below hold exactly.
    m_lo = j_lo - reach * grid
    m_hi = j_hi + reach * grid
    base = plateau_bump(np.arange(m_lo, m_hi + 1) * h, s)
    raw = np.stack(
        [
            base[j_lo - i * grid - m_lo : j_hi - i * grid - m_lo + 1]
            for i in indices
        ]
    )
    total = raw.sum(axis=0)
    if np.any(total <= 0):
        raise AssertionError("plateau shifts must cover the grid")
    fields = raw / total
    w_lo = (-(reach - 1) * grid) - j_lo
    w_hi = (reach * grid) - j_lo
    return PartitionData(s, h, grid, reach, ts, indices, fields, (w_lo, w_hi))


class RescalingData(_SampledRecord):
    __slots__ = ("partition", "values", "null")

    def __init__(
        self, partition: PartitionData, values: np.ndarray, null: bool = False
    ) -> None:
        self.partition = partition
        self.values = values
        self.null = null


def build_rescaling(
    s: float, grid: int = 64, reach: int = 6, null: bool = False
) -> RescalingData:
    """Index-weighted partition sum; drops by s per period.

    ``null`` replaces the field by zero, a deliberately broken control
    whose isometry error is exp(2 s) - 1.
    """
    part = build_partition(s, grid=grid, reach=reach)
    if null:
        values = np.zeros_like(part.ts)
    else:
        weights = -part.s * np.asarray(part.indices, dtype=float)
        values = np.tensordot(weights, part.fields, axes=(0, 0))
    return RescalingData(part, values, null)


def partition_diagnostics(part: PartitionData) -> dict:
    """Measured partition quality on the interior window."""
    sl = part.window_slice()
    window_fields = part.fields[:, sl]
    defect = float(np.max(np.abs(window_fields.sum(axis=0) - 1.0)))
    active = int(np.max((part.fields > 0).sum(axis=0)))
    return {
        "max_partition_defect": defect,
        "min_field_value": float(part.fields.min()),
        "max_active_fields": active,
    }


def equivariance_defect(resc: RescalingData) -> float:
    """max |f(t + s) - f(t) + s| where both samples sit in the window."""
    part = resc.partition
    lo, hi = part.window
    span = slice(lo, hi + 1 - part.grid)
    shifted = slice(lo + part.grid, hi + 1)
    defect = resc.values[shifted] - resc.values[span] + part.s
    return float(np.max(np.abs(defect)))


def isometry_rel_error(resc: RescalingData) -> float:
    """Pull the rescaled conformal factor through one scaling period.

    Compares exp(2 f(t + s)) * exp(2 s) with exp(2 f(t)) in relative
    terms on the interior window.
    """
    part = resc.partition
    lo, hi = part.window
    span = slice(lo, hi + 1 - part.grid)
    shifted = slice(lo + part.grid, hi + 1)
    pulled = np.exp(2.0 * resc.values[shifted]) * np.exp(2.0 * part.s)
    original = np.exp(2.0 * resc.values[span])
    return float(np.max(np.abs(pulled - original) / original))


def rescaling_report(resc: RescalingData) -> dict:
    part = resc.partition
    report = {
        "scale": part.s,
        "grid": part.grid,
        "reach": part.reach,
        "step": part.step,
        "null_control": resc.null,
        "partition": partition_diagnostics(part),
        "equivariance_defect": equivariance_defect(resc),
        "isometry_rel_error": isometry_rel_error(resc),
        "tolerances": {
            "partition": PARTITION_TOL,
            "equivariance": EQUIVARIANCE_TOL,
            "isometry": ISOMETRY_REL_TOL,
        },
    }
    report["within_tolerance"] = bool(
        report["partition"]["max_partition_defect"] <= PARTITION_TOL
        and report["equivariance_defect"] <= EQUIVARIANCE_TOL
        and report["isometry_rel_error"] <= ISOMETRY_REL_TOL
    )
    return report
