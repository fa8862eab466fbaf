"""Oracles for the start-up path's hand-written replacements.

``fundreg.cli.parse`` reads a plain command line from its option table
and hands any other to an argparse parser built from the same table.
The argparse parser that the table replaced, kept verbatim as
``oracles.reference_parser``, must read every argv alike, refuse it with
the same message, or print the same help.  The record classes replaced
``@dataclass``es: each must compare, hash, print, freeze and serialise
as a dataclass twin does.
"""

import contextlib
import dataclasses
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

from fundreg.checker import QuotientDescription, RunConfig, VerificationReport
from fundreg import cli
from fundreg.cli import COMMANDS, UsageError, parse
from fundreg.conformal import PartitionData, RescalingData, build_rescaling
from fundreg.freegroup import word
from fundreg.tilespace import RoomPoint
from golden_cli import cases
from oracles import reference_parser

ROOT = Path(__file__).resolve().parents[1]

# ------------------------------------------------------------------ parser

PERFBENCH_OPS = [
    key.split(" ")
    for key in json.loads((ROOT / "perfbench" / "reference.json").read_text())["ops"]
]

LS = ["verify", "line-standard"]

EDGE_GRID = [
    # no command, an unknown one, options before it, help at the top
    [],
    ["bogus"],
    ["-2"],
    ["--depth", "3", "verify", "line-standard"],
    ["--bogus", "verify", "line-standard"],
    ["-h"],
    ["--help"],
    ["--he"],
    ["--help=x"],
    ["-hx"],
    ["--", "verify", "line-standard"],
    # positionals
    ["verify"],
    ["verify", "bogus"],
    [*LS, "extra"],
    ["verify", "--depth", "3", "line-standard"],
    ["verify", "--", "line-standard"],
    [*LS, "--", "--depth"],
    [*LS, "--=x"],
    # unique prefixes and = forms
    [*LS, "--dep", "3"],
    [*LS, "--d=3"],
    [*LS, "--depth=3"],
    [*LS, "--for", "json"],
    [*LS, "--f=json"],
    [*LS, "--format="],
    [*LS, "--x"],
    [*LS, "--x-non"],
    [*LS, "--x-noncompact=1"],
    [*LS, "--p", "coverage"],
    [*LS, "--s", "2,3,4"],
    [*LS, "--sch=2,3,4"],
    [*LS, "--N", "5"],
    [*LS, "--n", "5"],
    [*LS, "--r", "3", "--o", "file"],
    [*LS, "--out="],
    [*LS, "--out", "-"],
    [*LS, "--out", "- x"],
    # the last occurrence wins
    [*LS, "--depth", "3", "--depth", "5"],
    [*LS, "--format", "json", "--format", "text"],
    [*LS, "--c", "2", "--c", "1/3"],
    # missing and bad values
    [*LS, "--depth"],
    [*LS, "--depth", "--radius", "3"],
    [*LS, "--out"],
    [*LS, "--depth", "x"],
    [*LS, "--depth", "3.5"],
    [*LS, "--depth", "-1"],
    [*LS, "--schedule", "a,b"],
    [*LS, "--c", "abc"],
    [*LS, "--c", "1/0"],
    [*LS, "--format", "xml"],
    [*LS, "--property", "nope"],
    # negative values: a number is a value, -3/2 reads as an option
    [*LS, "--c", "-2"],
    [*LS, "--c", "-3/2"],
    [*LS, "--c=-3/2"],
    [*LS, "--c", "-2.5"],
    [*LS, "--c", "-.5"],
    # unknown options
    [*LS, "--bogus"],
    [*LS, "-x"],
    [*LS, "--depth", "3", "-q"],
    # render's optional centre
    ["render", "nbhd", "ru"],
    ["render", "nbhd", "--radius", "4", "ru"],
    ["render", "--radius", "4", "nbhd", "ru"],
    ["render", "nbhd"],
    ["render", "nbhd", "ru", "extra"],
    ["render"],
    ["render", "bogus"],
    ["render", "spine", "--depth", "3"],
    ["render", "spine", "--format", "svg"],
    # conformal's required --s
    ["conformal"],
    ["conformal", "--s"],
    ["conformal", "--s=0.3", "--K", "3"],
    ["conformal", "--s", "abc"],
    ["conformal", "--s", "-0.5"],
    ["conformal", "--s", "nan"],
    ["conformal", "--n", "--s", "1"],
    ["conformal", "--s", "1", "--null-rescaling=yes"],
    ["conformal", "--g", "8", "--s", "1"],
    ["conformal", "--s", "1", "positional"],
    ["quotient", "cylinder", "--format", "svg", "--c", "5/7"],
    ["quotient", "cylinder", "--format", "text"],
    # help against errors: whichever comes first decides
    ["verify", "--help"],
    ["verify", "-h"],
    ["render", "spine", "--he"],
    ["conformal", "--help"],
    [*LS, "extra", "--help"],
    ["verify", "bogus", "--help"],
    ["verify", "--help", "bogus"],
    ["verify", "--depth", "--help"],
]


# The one named change from the replaced parser: render's optional centre
# may follow its options, where that parser left it empty and refused the
# centre ("unrecognized arguments: ru").  Its oracle is the replaced
# parser's reading of the line with the centre before the options.
CENTRE_AFTER_OPTIONS = ["render", "nbhd", "--radius", "4", "ru"]
CENTRE_BEFORE_OPTIONS = ["render", "nbhd", "ru", "--radius", "4"]


def as_the_reference_reads(argv):
    return CENTRE_BEFORE_OPTIONS if argv == CENTRE_AFTER_OPTIONS else argv


def outcome(parser, argv):
    """The namespace's attributes (as text, so that nan equals nan), or
    how the parser refused or exited."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return "namespace", repr(sorted(vars(parser(list(argv))).items()))
        except UsageError:
            return ("usage error",)
        except SystemExit as exc:
            return "exit", exc.code


@pytest.mark.parametrize(
    "argvs",
    [[row for row in cases()], PERFBENCH_OPS, EDGE_GRID],
    ids=["golden", "perfbench", "edge-grid"],
)
def test_parse_reads_every_argv_as_argparse_did(argvs):
    reference = reference_parser().parse_args
    for argv in argvs:
        want = outcome(reference, as_the_reference_reads(argv))
        assert outcome(parse, argv) == want, argv


def test_the_edge_grid_reaches_every_outcome():
    outcomes = [outcome(parse, argv) for argv in EDGE_GRID]
    assert ("usage error",) in outcomes and ("exit", 0) in outcomes
    assert sum(kind == "namespace" for kind, *_ in outcomes) >= 20


def refusal(parser, argv):
    """The message of the usage error that ``parser`` raises, if any."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            parser(list(argv))
        except UsageError as exc:
            return str(exc)
        except SystemExit:
            pass


def test_a_usage_error_reads_as_argparse_wrote_it():
    reference = reference_parser().parse_args
    messages = [refusal(parse, argv) for argv in EDGE_GRID]
    assert messages == [
        refusal(reference, as_the_reference_reads(argv)) for argv in EDGE_GRID
    ]
    assert sum(message is not None for message in messages) >= 30


def test_plain_lines_never_build_the_argparse_parser(monkeypatch):
    def refuse():
        raise AssertionError("argparse read a plain line")

    monkeypatch.setattr(cli, "argparse_parser", refuse)
    for argv in [*cases(), *PERFBENCH_OPS]:
        parse(argv)
    with pytest.raises(AssertionError):
        parse([*LS, "--dep", "3"])


def test_the_centre_may_follow_the_options(monkeypatch):
    want = vars(parse(CENTRE_BEFORE_OPTIONS))
    assert want["center"] == "ru" and want["radius"] == 4
    # the argparse fallback reads it alike, and the plain path without it
    assert vars(cli.argparse_parser().parse_args(CENTRE_AFTER_OPTIONS)) == want
    monkeypatch.setattr(cli, "argparse_parser", None)
    assert vars(parse(CENTRE_AFTER_OPTIONS)) == want


@pytest.mark.parametrize("argv", [["-h"], *([name, "-h"] for name in COMMANDS)],
                         ids=" ".join)
def test_help_is_argparse_text(argv):
    texts = []
    for parser in (parse, reference_parser().parse_args):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            with pytest.raises(SystemExit) as exc:
                parser(argv)
        assert exc.value.code == 0
        texts.append(out.getvalue().encode())
    assert texts[0] == texts[1]
    assert texts[0].startswith(b"usage: fundreg")


# ------------------------------------------------------------------ records


def twin(cls, fields, frozen=False, **namespace):
    """A ``@dataclass`` with ``cls``'s name and the given fields."""
    return dataclasses.make_dataclass(
        cls.__name__, fields, frozen=frozen, namespace=namespace
    )


def _run_config_post_init(self):
    # RunConfig.__post_init__ as the dataclass had it
    if self.depth < 0 or self.radius < 0:
        raise ValueError("depth and radius must be nonnegative")
    if len(self.schedule) < 3:
        raise ValueError("schedule needs at least three horizons")
    if any(b <= a for a, b in zip(self.schedule, self.schedule[1:])):
        raise ValueError("schedule must be strictly increasing")
    if any(k < 1 for k in self.schedule):
        raise ValueError("schedule horizons must be positive")
    if self.n_intervals < 1 or self.m_range < 1:
        raise ValueError("n_intervals and m_range must be positive")


def listed(name):
    return (name, list, dataclasses.field(default_factory=list))


TWINS = {
    VerificationReport: twin(
        VerificationReport,
        ["property_name", "verdict", "truncation", listed("counts"),
         listed("witnesses")],
    ),
    QuotientDescription: twin(
        QuotientDescription,
        ["system", "pieces", "identifications", "removed_points", "compact",
         listed("notes")],
    ),
    RunConfig: twin(
        RunConfig,
        [("depth", int, 4), ("radius", int, 8), ("schedule", tuple, (2, 3, 4, 5, 6)),
         ("n_intervals", int, 200), ("m_range", int, 200)],
        frozen=True,
        __post_init__=_run_config_post_init,
    ),
    RoomPoint: twin(RoomPoint, ["room", "x", "y"], frozen=True),
    PartitionData: twin(
        PartitionData,
        ["s", "step", "grid", "reach", "ts", "indices", "fields", "window"],
    ),
    RescalingData: twin(RescalingData, ["partition", "values", ("null", bool, False)]),
}

FROZEN = {RunConfig, RoomPoint}

# Two builds alike: equal arrays in distinct objects, which the records
# compare by value (the dataclass twins' equality raised on them).
RESCALING, AGAIN = (build_rescaling(0.3, grid=8, reach=2) for _ in range(2))

# per class: argument tuples, the first two equal, the third different
SAMPLES = {
    VerificationReport: [
        ("disjointness", "refuted", {"depth": 3, "radius": 5}, [1, 2], ["w"]),
        ("disjointness", "refuted", {"depth": 3, "radius": 5}, [1, 2], ["w"]),
        ("disjointness", "refuted", {"depth": 3, "radius": 5}),
    ],
    QuotientDescription: [
        ("line", ["a"], [{"via": "g", "orientation": "t -> t"}], ["p"], True, ["n"]),
        ("line", ["a"], [{"via": "g", "orientation": "t -> t"}], ["p"], True, ["n"]),
        ("line", ["a"], [{"via": "g", "orientation": "t -> t"}], ["p"], True),
    ],
    RunConfig: [(3, 5, (1, 2, 3), 48, 200), (3, 5, (1, 2, 3), 48, 200), ()],
    RoomPoint: [
        (word("ru"), Fraction(1, 3), Fraction(0)),
        (word("ru"), Fraction(1, 3), Fraction(0)),
        (word("ru"), Fraction(0), Fraction(1, 3)),
    ],
    PartitionData: [
        tuple(getattr(resc.partition, name) for name in PartitionData.__slots__)
        for resc in (RESCALING, AGAIN)
    ] + [(1.0, 0.5, 2, 2, None, [0], None, (0, 1))],
    RescalingData: [
        (RESCALING.partition, RESCALING.values),
        (AGAIN.partition, AGAIN.values),
        (RESCALING.partition, RESCALING.values, True),
    ],
}


@pytest.mark.parametrize("cls", list(TWINS), ids=lambda cls: cls.__name__)
def test_record_behaves_as_its_dataclass_twin(cls):
    twin_cls = TWINS[cls]
    a, b, c = (cls(*args) for args in SAMPLES[cls])
    ta, tc = twin_cls(*SAMPLES[cls][0]), twin_cls(*SAMPLES[cls][2])
    assert repr(a) == repr(ta) and repr(c) == repr(tc)
    assert a == b and a != c and not a != b
    assert a != ta and ta != a  # another class never compares equal
    keywords = dict(zip(cls.__slots__, SAMPLES[cls][0]))
    assert cls(**keywords) == a
    name = cls.__slots__[0]
    if cls in FROZEN:
        assert hash(a) == hash(b) == hash(ta)
        for obj in (a, ta):
            with pytest.raises(AttributeError):
                setattr(obj, name, getattr(obj, name))
            with pytest.raises(AttributeError):
                delattr(obj, name)
    else:
        for obj in (a, ta):
            with pytest.raises(TypeError):
                hash(obj)
        setattr(a, name, "changed")
        assert getattr(a, name) == "changed" and a != b


@pytest.mark.parametrize("cls, name", [
    (VerificationReport, "counts"),
    (VerificationReport, "witnesses"),
    (QuotientDescription, "notes"),
])
def test_default_lists_are_not_shared(cls, name):
    args = SAMPLES[cls][2]
    one, two = cls(*args), cls(*args)
    assert getattr(one, name) == [] and getattr(one, name) is not getattr(two, name)
    getattr(one, name).append(1)
    assert getattr(two, name) == []


@pytest.mark.parametrize("kwargs", [
    {"depth": -1},
    {"radius": -2},
    {"schedule": (1, 2)},
    {"schedule": (1, 3, 2)},
    {"schedule": (0, 1, 2)},
    {"n_intervals": 0},
    {"m_range": 0},
    {"depth": -1, "schedule": (1,)},
])
def test_run_config_refuses_what_the_dataclass_refused(kwargs):
    with pytest.raises(ValueError) as ours:
        RunConfig(**kwargs)
    with pytest.raises(ValueError) as theirs:
        TWINS[RunConfig](**kwargs)
    assert str(ours.value) == str(theirs.value)


def test_quotient_to_dict_is_asdict_with_copies():
    args = SAMPLES[QuotientDescription][0]
    desc = QuotientDescription(*args)
    out = desc.to_dict()
    want = dataclasses.asdict(TWINS[QuotientDescription](*args))
    assert json.dumps(out) == json.dumps(want)
    out["pieces"].append("x")
    out["identifications"][0]["via"] = "h"
    out["notes"].clear()
    assert desc == QuotientDescription(*args)
