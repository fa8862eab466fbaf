"""Tests for the command line front end."""

import json
import os
import subprocess
import sys
import tracemalloc
import warnings
import xml.dom.minidom
from pathlib import Path

import pytest

from fundreg import checker, cli, regions
from fundreg.action import GroupBall
from fundreg.cli import INTERNAL_EXIT, USAGE_EXIT, main
from fundreg.render import quotient_strip_svg
from fundreg.checker import Free2HouseSystem, RunConfig, quotient_build
from fundreg.freegroup import enumerate_ball


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ verify


def test_battery_text_lines_and_exit(capsys):
    code, out, _ = run_cli(capsys, ["verify", "line-standard"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "battery: 9 checks, 9 as expected"
    assert all("[PASS]" in line for line in lines[:-1])
    assert lines[0].startswith("disjointness: expected verified-at-truncation")


def test_battery_expected_refutation_passes(capsys):
    code, out, _ = run_cli(capsys, ["verify", "line-pathological", "--N", "48"])
    assert code == 0
    assert "local-finiteness: expected refuted, got refuted [PASS]" in out


def test_single_property_json_shape(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "line-standard", "--property", "local-finiteness",
         "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["property"] == "local-finiteness"
    assert payload["verdict"] == "verified-at-truncation"
    assert payload["counts"] == [2, 2, 2, 2, 2]
    assert set(payload) == {"property", "verdict", "truncation", "counts", "witnesses"}


def test_refuted_property_exits_one(capsys):
    code, _, _ = run_cli(
        capsys,
        ["verify", "free2house", "--property", "finite-self-adjacency",
         "--depth", "3", "--radius", "6", "--schedule", "1,2,3"],
    )
    assert code == 1


def test_inconclusive_property_exits_two(capsys):
    code, _, _ = run_cli(
        capsys, ["verify", "plane-pathological", "--property", "quotient-structure"]
    )
    assert code == 2


def test_verify_json_is_deterministic(capsys):
    argv = ["verify", "cylinder", "--c", "3/2", "--format", "json"]
    code_a, out_a, _ = run_cli(capsys, argv)
    code_b, out_b, _ = run_cli(capsys, argv)
    assert code_a == code_b == 0
    assert out_a == out_b
    payload = json.loads(out_a)
    assert payload["exit_code"] == 0
    assert all(entry["match"] for entry in payload["results"])


def test_verify_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        ["verify", "line-standard", "--format", "json", "--out", str(target)],
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text(encoding="utf-8"))
    assert payload["selector"] == "line-standard"


def test_unwritable_out_file_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, ["verify", "line-standard", "--out", str(target)])
    assert code == USAGE_EXIT
    assert out == ""
    assert err == (
        f"fundreg: error: cannot write --out {target}: No such file or directory\n"
    )
    assert not target.parent.exists()


# ------------------------------------------------------------------ render


@pytest.mark.parametrize(
    "argv",
    [
        ["render", "nbhd", "ru", "--radius", "4"],
        ["render", "spine", "--radius", "5"],
        ["render", "quotient", "--radius", "3"],
    ],
)
def test_render_views_emit_valid_svg(capsys, argv):
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    xml.dom.minidom.parseString(out)
    assert out.startswith("<svg ")


def test_render_is_deterministic(capsys):
    argv = ["render", "quotient", "--radius", "3"]
    _, out_a, _ = run_cli(capsys, argv)
    _, out_b, _ = run_cli(capsys, argv)
    assert out_a == out_b


def test_strip_svg_shows_gluing_arrows():
    _, desc = quotient_build(Free2HouseSystem(), RunConfig(radius=3))
    svg = "\n".join(quotient_strip_svg(desc))
    assert svg.count("<polygon") == 7  # spine rooms at radius 3
    assert svg.count("marker-end") == 12  # two arrowed edges per gluing
    assert ">g[e]</text>" in svg
    assert "orientation: t -&gt; t" in svg or "orientation: t -> t" in svg


@pytest.mark.parametrize("radius", [50, 300])
def test_render_spine_stays_within_the_spine_estimate(radius, tmp_path):
    # the SVG is written line by line, so beside the region, closure and
    # boundary that the estimate bounds the command holds only a few
    # words per room; the whole command is traced, its text included
    out = str(tmp_path / "spine.svg")
    assert main(["render", "spine", "--radius", "1", "--out", out]) == 0  # imports
    tracemalloc.start()
    try:
        assert main(["render", "spine", "--radius", str(radius), "--out", out]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= Free2HouseSystem().spine_estimate(radius)


# ---------------------------------------------------------------- quotient


def test_quotient_json_includes_description(capsys):
    code, out, _ = run_cli(capsys, ["quotient", "line-standard"])
    assert code == 0
    payload = json.loads(out)
    assert payload["description"]["compact"] is True
    assert payload["report"]["property"] == "quotient-structure"


def test_a_one_tile_family_quotient_is_inconclusive(capsys):
    # one tile has no consecutive pair, so no gluing was tested
    reason = "one tile: no consecutive pair whose gluing could be tested"
    argv = ["line-pathological", "--N", "1"]
    code, out, _ = run_cli(capsys, ["quotient", *argv])
    payload = json.loads(out)
    assert code == 2 and payload["report"]["witnesses"] == [reason]
    assert payload["description"]["pieces"] == ["[0, 1/2]", "... 1 tiles in total"]
    prop = "quotient-structure"
    code, out, _ = run_cli(capsys, ["verify", *argv, "--property", prop])
    assert code == 2 and f"witness: {reason}" in out
    code, out, _ = run_cli(capsys, ["verify", *argv])
    assert code == 2
    assert f"{prop}: expected verified-at-truncation, got inconclusive" in out


def test_quotient_svg_only_for_free2house(capsys):
    code, _, err = run_cli(capsys, ["quotient", "cylinder", "--format", "svg"])
    assert code == USAGE_EXIT
    assert "free2house" in err


# --------------------------------------------------------------- conformal


def test_conformal_json_within_tolerance(capsys):
    code, out, _ = run_cli(capsys, ["conformal", "--s", "0.3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["within_tolerance"] is True
    assert payload["grid"] == 64 and payload["reach"] == 6


def test_conformal_null_control_fails(capsys):
    code, out, _ = run_cli(capsys, ["conformal", "--s", "0.3", "--null-rescaling"])
    assert code == 1
    assert json.loads(out)["null_control"] is True


def test_conformal_csv_rows(capsys):
    code, out, _ = run_cli(capsys, ["conformal", "--s", "0.7", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,f"
    assert len(lines) == 1 + (2 * 6 + 1) * 64 + 1


@pytest.mark.parametrize("null, want", [([], 0), (["--null-rescaling"], 1)])
def test_csv_rows_to_a_reader_that_stops_early_keep_the_exit_code(null, want):
    # the rows are written one at a time, so a reader that closes the pipe
    # after the header leaves the later writes without a reader
    argv = ["conformal", "--s", "0.3", "--grid", "2000", "--format", "csv", *null]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "fundreg.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.read(4) == b"t,f\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == want
    assert proc.stderr.read() == b""


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("scale", ["nan", "inf", "1e3"])
def test_conformal_refuses_a_scale_without_finite_diagnostics(capsys, scale, fmt):
    # a numpy warning raised as an error would exit INTERNAL_EXIT
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, ["conformal", "--s", scale, "--format", fmt])
    assert code == USAGE_EXIT and out == ""
    assert err.startswith("fundreg: error: --s ")


def test_conformal_largest_passing_scale_still_passes(capsys):
    # the isometry check overflows one float above this scale
    code, out, _ = run_cli(capsys, ["conformal", "--s", "64.5257011721258"])
    assert code == 0 and json.loads(out)["within_tolerance"] is True
    code, out, _ = run_cli(capsys, ["conformal", "--s", "64.52570117212582"])
    assert code == USAGE_EXIT and out == ""


@pytest.mark.parametrize(
    "sizes, named",
    [
        (["--grid", "40000"], "grid 40000 and K 6"),
        (["--grid", "4", "--K", "2000"], "grid 4 and K 2000"),
    ],
)
def test_conformal_refuses_an_over_budget_grid_before_sampling(
    capsys, monkeypatch, sizes, named
):
    # each partition would hold over 128 MiB, most of it in the fields; a
    # refusal samples no bump, and without one a run fails at the bump
    # having allocated only its coordinates (about 24 MB and 1 MB)
    from fundreg import conformal

    def unreachable(*args):
        raise AssertionError("the bump was sampled")

    monkeypatch.setattr(conformal, "plateau_bump", unreachable)
    code, out, err = run_cli(capsys, ["conformal", "--s", "0.3", *sizes])
    assert code == USAGE_EXIT and out == ""
    assert err.startswith(f"fundreg: error: the partition at {named} needs about ")
    assert err.rstrip().endswith("the budget is 128 MiB")


def test_conformal_just_over_the_budget_reads_above_it(capsys):
    # grid 38284 fits; 38286 is over by under 0.1 MiB and is rounded up
    code, out, err = run_cli(capsys, ["conformal", "--s", "0.3", "--grid", "38286"])
    assert code == USAGE_EXIT and out == ""
    assert err == (
        "fundreg: error: the partition at grid 38286 and K 6 needs about "
        "128.1 MiB; the budget is 128 MiB\n"
    )


# ------------------------------------------------------------- exit codes


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "unknown-system"],
        ["verify", "line-standard", "--schedule", "5,4,3"],
        ["verify", "line-standard", "--schedule", "2;3;4"],
        ["verify", "cylinder", "--c", "abc"],
        ["render", "nbhd", "xyz"],
        ["render", "nbhd", "rrrrrrrrrrrr"],
        ["conformal", "--s", "0"],
        ["conformal", "--s", "-0.5"],
        ["conformal", "--s", "0.3", "--grid", "7"],
        ["quotient", "plane-pathological", "--format", "svg"],
        # render reads only the view, the center, --radius and --out
        ["render", "spine", "--depth", "3"],
        ["render", "spine", "--format", "svg"],
    ],
)
def test_usage_errors_exit_64(capsys, argv):
    code, _, err = run_cli(capsys, argv)
    assert code == USAGE_EXIT
    assert err.startswith("fundreg: error:")


def test_threads_env_is_tolerated(capsys, monkeypatch):
    monkeypatch.setenv("FUNDREG_THREADS", "8")
    code, _, _ = run_cli(capsys, ["verify", "line-standard"])
    assert code == 0
    monkeypatch.setenv("FUNDREG_THREADS", "not-a-number")
    code, _, _ = run_cli(capsys, ["verify", "line-standard"])
    assert code == 0


def test_non_monotone_profile_is_inconclusive_not_a_crash(capsys):
    code, out, err = run_cli(
        capsys,
        ["verify", "plane-pathological", "--schedule", "1,2,3", "--format", "json"],
    )
    assert code == 2
    assert err == ""
    results = {r["property"]: r for r in json.loads(out)["results"]}
    lf = results["local-finiteness"]
    assert lf["verdict"] == "inconclusive"
    assert lf["witnesses"][-1].startswith(f"counts {lf['counts']} are not monotone")


def test_internal_error_exits_70(capsys, monkeypatch):
    def broken(system, cfg):
        raise RuntimeError("broken battery")

    monkeypatch.setattr(cli, "run_battery", broken)
    code, out, err = run_cli(capsys, ["verify", "line-standard"])
    assert code == INTERNAL_EXIT == 70
    assert out == ""
    assert "fundreg: internal error: RuntimeError('broken battery')" in err


def test_internal_key_error_exits_70(capsys, monkeypatch):
    # no argument can raise KeyError (the choices guard every lookup), so
    # one from inside is a fault, not a usage error
    def broken(self, cfg):
        raise KeyError("missing")

    monkeypatch.setattr(Free2HouseSystem, "disjointness", broken)
    argv = ["verify", "free2house", "--depth", "1", "--radius", "2"]
    code, out, err = run_cli(capsys, argv)
    assert code == INTERNAL_EXIT and out == ""
    assert "Traceback" in err
    assert err.endswith("fundreg: internal error: KeyError('missing')\n")


def test_over_budget_depth_exits_64_before_enumerating(capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("built a scan ball over the budget")

    # the scan ball grows from the estimate's depth-2 ball; no ball past
    # depth 2 may be built
    monkeypatch.setattr(GroupBall, "to_depth", never)
    monkeypatch.setattr(checker, "group_ball", never)
    code, out, err = run_cli(capsys, ["verify", "free2house", "--depth", "7"])
    assert (code, out) == (USAGE_EXIT, "")
    assert err == (
        "fundreg: error: the scan ball at depth 7 needs about 722.9 MiB; "
        "the budget is 128 MiB\n"
    )


def test_failing_coverage_over_budget_exits_64_before_enumerating(
    capsys, monkeypatch
):
    # a coverage that fails (here on the rooms of exponent sum 0) needs the
    # room ball, about 260 MiB at radius 12
    def counted(radius):
        assert radius < 12, "enumerated the radius-12 room ball"
        return enumerate_ball(radius)

    monkeypatch.setattr(checker, "enumerate_ball", counted)
    monkeypatch.setattr(Free2HouseSystem, "_box_covered", lambda self, ext, m: m)
    argv = ["verify", "free2house", "--property", "coverage", "--depth", "1"]
    code, out, err = run_cli(capsys, [*argv, "--radius", "12"])
    assert (code, out) == (USAGE_EXIT, "")
    assert err == (
        "fundreg: error: the room ball at radius 12 needs about 259.5 MiB; "
        "the budget is 128 MiB\n"
    )
    code, _, _ = run_cli(capsys, [*argv, "--radius", "3"])
    assert code == 1


def test_long_plane_schedule_exits_0_without_a_shift_scan(capsys, monkeypatch):
    # the scan would have tested 800,005 shift pairs at horizon 20,000 alone
    def never(*args, **kwargs):
        raise AssertionError("tested a shift pair")

    monkeypatch.setattr(checker, "plane2d_translate_meets_box", never)
    monkeypatch.setattr(regions, "plane2d_translate_meets_box", never)
    argv = ["verify", "plane-pathological", "--schedule", "2,3,20000"]
    code, out, err = run_cli(capsys, argv)
    assert code == 0 and err == ""
    assert out.endswith("battery: 4 checks, 4 as expected\n")
    # on its own the property exits with its verdict, the expected refutation
    argv += ["--property", "local-finiteness", "--format", "json"]
    code, out, err = run_cli(capsys, argv)
    assert code == 1 and err == ""
    report = json.loads(out)
    assert report["verdict"] == "refuted"
    assert report["counts"] == [9, 12, 60002]


def test_cylinder_at_a_trillion_shifts_exits_0(capsys):
    # no cylinder check loops over the shift range, m_range = max(200, N)
    for extra in ([], ["--c", "3/2"]):
        argv = ["verify", "cylinder", "--N", "1000000000000", *extra]
        code, out, _ = run_cli(capsys, [*argv, "--format", "json"])
        assert code == 0
        witnesses = [w for r in json.loads(out)["results"] for w in r["witnesses"]]
        assert "overlapping shifts: [-2, -1, 0, 1, 2]" in witnesses
        assert (
            "orbit of the 0 section meets the band boundary at shifts [0, 1]"
            in witnesses
        )


def test_over_budget_line_scans_exit_64_before_building(capsys, monkeypatch):
    family_of = checker.pathological_1d

    def guarded(count):
        assert count <= 6461, "built a region over the budget"
        return family_of(count)

    monkeypatch.setattr(checker, "pathological_1d", guarded)
    # a horizon of 1,616 builds 6,464 intervals (4 each), just over the budget
    argv = ["verify", "line-pathological", "--N", "8", "--schedule", "1,2,1616"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (USAGE_EXIT, "")
    assert "line-pathological at 6464 intervals needs about 128.1 MiB" in err


def test_line_scans_run_at_400_and_exit_64_just_over_the_budget(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["verify", "line-pathological", "--N", "400"])
    assert code == 0
    assert out.endswith("as expected\n")

    def never(count):
        raise AssertionError("built a region over the budget")

    monkeypatch.setattr(checker, "pathological_1d", never)
    code, out, err = run_cli(capsys, ["verify", "line-pathological", "--N", "6462"])
    assert code == USAGE_EXIT
    assert out == ""
    # the need is rounded up to 0.1 MiB, so it reads above the budget
    assert "line-pathological at 6462 intervals needs about 128.1 MiB" in err


@pytest.mark.parametrize(
    "argv, what",
    [
        (["verify", "free2house"], "spine region"),
        (["verify", "free2house", "--property", "disjointness"], "spine region"),
        (["quotient", "free2house"], "quotient"),
        (["render", "quotient"], "quotient"),
        (["render", "spine"], "spine region"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else v,
)
def test_every_command_runs_at_radius_13_and_refuses_an_over_budget_spine(
    capsys, monkeypatch, argv, what
):
    # no command past radius 12 is refused for a room ball it never builds
    code, out, err = run_cli(capsys, [*argv, "--radius", "13"])
    assert (code, err) == (0, "") and out
    # a spine room is named, for the region or the quotient, only in budget
    monkeypatch.setattr(checker, "r_power", None)
    code, out, err = run_cli(capsys, [*argv, "--radius", "2300"])
    assert (code, out) == (USAGE_EXIT, "")
    assert err == (
        f"fundreg: error: the {what} at radius 2300 needs about 130.2 MiB; "
        "the budget is 128 MiB\n"
    )


def test_line_property_runs_refuse_only_the_regions_they_build(capsys):
    argv = ["verify", "line-pathological", "--schedule", "1,2,1616"]
    code, _, _ = run_cli(capsys, [*argv, "--property", "disjointness"])
    assert code == 0
    code, out, err = run_cli(capsys, [*argv, "--property", "local-finiteness"])
    assert (code, out) == (USAGE_EXIT, "")
    assert "line-pathological at 6464 intervals" in err
