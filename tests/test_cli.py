"""Tests for the command line front end."""

import json
import os
import subprocess
import sys
import warnings
import xml.dom.minidom
from pathlib import Path

import pytest

from fundreg import checker, cli, regions
from fundreg.cli import INTERNAL_EXIT, USAGE_EXIT, main, quotient_strip_svg
from fundreg.checker import Free2HouseSystem, RunConfig, quotient_build


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
        capsys, ["verify", "plane-pathological", "--property", "coverage"]
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
    svg = quotient_strip_svg(desc)
    assert svg.count("<polygon") == 7  # spine rooms at radius 3
    assert svg.count("marker-end") == 12  # two arrowed edges per gluing
    assert ">g[e]</text>" in svg
    assert "orientation: t -&gt; t" in svg or "orientation: t -> t" in svg


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
    assert err.startswith(f"fundreg: error: {named} need about ")
    assert err.rstrip().endswith("the budget is 128 MiB")


def test_conformal_just_over_the_budget_reads_above_it(capsys):
    # grid 38284 fits; 38286 is over by under 0.1 MiB and is rounded up
    code, out, err = run_cli(capsys, ["conformal", "--s", "0.3", "--grid", "38286"])
    assert code == USAGE_EXIT and out == ""
    assert err == (
        "fundreg: error: grid 38286 and K 6 need about 128.1 MiB of samples; "
        "the budget is 128 MiB\n"
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


def test_over_budget_depth_exits_64_before_enumerating(capsys, monkeypatch):
    # a small budget stands in for depth 6: a broken guard builds a
    # depth-3 ball here, never the 8-million-element one
    monkeypatch.setattr(checker, "SCAN_BALL_BUDGET", 1000)
    code, out, err = run_cli(capsys, ["verify", "free2house", "--depth", "3"])
    assert code == USAGE_EXIT
    assert out == ""
    assert "budget is 1,000" in err


def test_over_budget_radius_exits_64_before_enumerating(capsys, monkeypatch):
    # a budget lowered to radius 3 stands in for a huge --radius
    monkeypatch.setattr(checker, "SCAN_BALL_BUDGET", 53)
    argv = ["verify", "free2house", "--property", "coverage", "--depth", "1"]
    code, out, err = run_cli(capsys, [*argv, "--radius", "4"])
    assert code == USAGE_EXIT
    assert out == ""
    assert "radius 4 needs a ball of 161 rooms; the budget is 53" in err
    code, _, _ = run_cli(capsys, [*argv, "--radius", "3"])
    assert code == 0


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
    # a budget lowered to N = 8 stands in for a huge --N or --schedule; a
    # broken guard builds a 9-interval region here, never a huge one
    family = checker.LineSystem("line-pathological")
    monkeypatch.setattr(checker, "LINE_SCAN_BUDGET", family.scan_estimate(8))
    for argv, what in (
        (["--N", "9"], "9 intervals"),
        (["--N", "8", "--schedule", "1,2,3"], "schedule horizon 3 (12 intervals)"),
    ):
        code, out, err = run_cli(capsys, ["verify", "line-pathological", *argv])
        assert code == USAGE_EXIT
        assert out == ""
        assert f"line-pathological at {what} needs about" in err


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
    "argv",
    [
        ["verify", "free2house"],
        ["verify", "free2house", "--property", "disjointness"],
        ["quotient", "free2house"],
        ["render", "quotient"],
        ["render", "spine"],
    ],
    ids=" ".join,
)
def test_every_command_refuses_the_radius_the_battery_refuses(capsys, argv):
    # a property run, a quotient and a drawing at radius 13 would each be
    # cheap, but the rule is the battery's: the room ball is over budget
    code, out, err = run_cli(capsys, [*argv, "--radius", "13"])
    assert (code, out) == (USAGE_EXIT, "")
    assert err == (
        "fundreg: error: radius 13 needs a ball of 3,188,645 rooms; "
        "the budget is 2,000,000\n"
    )


def test_line_property_runs_refuse_the_schedule_the_battery_refuses(capsys):
    argv = ["verify", "line-pathological", "--property", "disjointness"]
    code, _, _ = run_cli(capsys, [*argv, "--schedule", "1,2,1615"])
    assert code == 0
    code, out, err = run_cli(capsys, [*argv, "--schedule", "1,2,1616"])
    assert (code, out) == (USAGE_EXIT, "")
    assert "line-pathological at schedule horizon 1616 (6464 intervals)" in err
