"""Tests for the smooth rescaling fields."""

import math
import tracemalloc

import numpy as np
import pytest

from fundreg import cli
from fundreg.conformal import (
    EQUIVARIANCE_TOL,
    ISOMETRY_REL_TOL,
    PARTITION_TOL,
    build_partition,
    build_rescaling,
    equivariance_defect,
    isometry_rel_error,
    partition_diagnostics,
    partition_estimate,
    plateau_bump,
    rescaling_report,
    smooth_step,
)

SCALES = (0.3, 0.7, 1.5)


# --------------------------------------------------------------- bump shape


def test_smooth_step_endpoints_and_complement():
    us = np.linspace(-0.5, 1.5, 201)
    vals = smooth_step(us)
    assert vals[0] == 0.0 and vals[-1] == 1.0
    assert np.all(vals >= 0) and np.all(vals <= 1)
    assert np.all(np.diff(vals) >= -1e-15)
    inner = np.linspace(0.0, 1.0, 101)
    assert np.max(np.abs(smooth_step(inner) + smooth_step(1 - inner) - 1)) < 1e-14


@pytest.mark.parametrize("s", SCALES)
def test_plateau_bump_profile(s):
    half = s / 2
    plateau = np.linspace(0, s, 9)
    assert np.all(plateau_bump(plateau, s) == 1.0)
    outside = np.array([-half, 1.5 * s, -half - 0.01, 1.5 * s + 0.01, -5.0, 5.0])
    assert np.all(plateau_bump(outside, s) == 0.0)
    ramp = np.linspace(-half, 1.5 * s, 301)
    vals = plateau_bump(ramp, s)
    assert np.all(vals >= 0) and np.all(vals <= 1)


@pytest.mark.parametrize("s", SCALES)
def test_plateau_bump_symmetric_about_midpoint(s):
    ts = np.linspace(-s, 2 * s, 401)
    left = plateau_bump(ts, s)
    right = plateau_bump(s - ts, s)
    assert np.max(np.abs(left - right)) < 1e-15


# --------------------------------------------------------------- partition


@pytest.mark.parametrize("s", SCALES)
def test_partition_identity_on_window(s):
    part = build_partition(s, grid=64, reach=6)
    diag = partition_diagnostics(part)
    assert diag["max_partition_defect"] <= PARTITION_TOL
    assert diag["min_field_value"] >= 0.0
    assert diag["max_active_fields"] <= 2


def test_partition_fields_are_exact_shifts():
    part = build_partition(0.7, grid=64, reach=6)
    lo, hi = part.window
    # f_{i+1} sampled one period later must reproduce f_i on the window.
    for k in range(len(part.indices) - 1):
        inner = part.fields[k][lo : hi + 1 - part.grid]
        outer = part.fields[k + 1][lo + part.grid : hi + 1]
        assert np.array_equal(inner, outer)


def test_partition_window_coordinates():
    part = build_partition(0.3, grid=64, reach=6)
    sl = part.window_slice()
    assert math.isclose(part.ts[sl][0], -5 * 0.3)
    assert math.isclose(part.ts[sl][-1], 6 * 0.3)
    assert len(part.ts) == (2 * 6 + 1) * 64 + 1


@pytest.mark.parametrize(
    "kwargs",
    [
        {"s": 0.0},
        {"s": -1.0},
        {"s": 0.3, "grid": 7},
        {"s": 0.3, "grid": 2},
        {"s": 0.3, "reach": 1},
    ],
)
def test_partition_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        build_partition(**kwargs)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("grid, reach", [(64, 6), (256, 2), (512, 4), (64, 20)])
def test_partition_estimate_bounds_the_traced_peak(grid, reach, fmt, tmp_path):
    # the budget refuses by this estimate, so it must not undercount, and
    # a loose one would refuse what fits; the whole command is traced, so
    # the output text counts too
    argv = ["conformal", "--s", "0.3", "--grid", str(grid), "--K", str(reach)]
    argv += ["--format", fmt, "--out", str(tmp_path / f"out.{fmt}")]
    np.ones(1)  # numpy's first allocations are not the partition's
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    estimate = partition_estimate(grid, reach)
    assert 0.8 * estimate < peak <= estimate


# --------------------------------------------------------------- rescaling


@pytest.mark.parametrize("s", SCALES)
def test_rescaling_drops_one_scale_per_period(s):
    resc = build_rescaling(s, grid=64, reach=6)
    assert equivariance_defect(resc) <= EQUIVARIANCE_TOL


@pytest.mark.parametrize("s", SCALES)
def test_rescaled_factor_is_scaling_invariant(s):
    resc = build_rescaling(s, grid=64, reach=6)
    assert isometry_rel_error(resc) <= ISOMETRY_REL_TOL


@pytest.mark.parametrize("s", SCALES)
def test_report_within_tolerance(s):
    rep = rescaling_report(build_rescaling(s, grid=64, reach=6))
    assert rep["within_tolerance"] is True
    assert rep["scale"] == s
    assert rep["null_control"] is False
    assert set(rep["tolerances"]) == {"partition", "equivariance", "isometry"}


def test_null_control_breaks_isometry():
    """Zero field leaves the raw exp(2s) mismatch in place."""
    resc = build_rescaling(0.3, grid=64, reach=6, null=True)
    err = isometry_rel_error(resc)
    assert math.isclose(err, math.exp(0.6) - 1, rel_tol=1e-12)
    assert err >= math.exp(0.6) - 1 - 1e-12
    assert equivariance_defect(resc) == pytest.approx(0.3)
    assert rescaling_report(resc)["within_tolerance"] is False


def test_rescaling_values_are_finite_and_bounded():
    resc = build_rescaling(1.5, grid=64, reach=6)
    assert np.all(np.isfinite(resc.values))
    # weighted sum of a probability vector over indices -6..6, scaled by s
    assert np.max(np.abs(resc.values)) <= 6 * 1.5 + 1e-9


def test_fields_built_alike_compare_equal():
    """Equality reads the sample arrays by value, as two builds hold
    equal arrays in distinct objects."""
    assert build_partition(0.3, grid=8, reach=2) == build_partition(0.3, grid=8, reach=2)
    assert build_partition(0.3, grid=8, reach=2) != build_partition(0.3, grid=8, reach=3)
    assert build_partition(0.3, grid=8, reach=2) != build_partition(0.4, grid=8, reach=2)
    one = build_rescaling(0.3, grid=8, reach=2)
    assert one == build_rescaling(0.3, grid=8, reach=2)
    assert one != build_rescaling(0.3, grid=8, reach=2, null=True)
    assert one != build_rescaling(0.4, grid=8, reach=2)
