"""Fuzzed argv over the grammar of all eight subcommands, hostile numbers included.

Whatever the argv, ``cli.run`` must exit 0, 1 or 2, write no traceback,
and on success print strict JSON (or ``key,value`` CSV of JSON values)
that validates against ``cli_output.schema.json``; on failure stdout stays
empty.  Counts that set the amount of work (``mc --n``/``--k``,
``lambda-plot --grid``, ``outer --samples``) are drawn small apart from
values above their caps, which the CLI must reject, so that the test runs
in seconds.  Matrices include volume-preserving ones whose rows or columns
are scaled from 1e-200 to 1e200, where squared lengths overflow.  Where
``outer`` answers both memberships, the full bound must lie inside the
perpendicular-point bound.
"""

import contextlib
import importlib.resources
import io
import json
import os

import pytest

pytest.importorskip("hypothesis")
jsonschema = pytest.importorskip("jsonschema")
from hypothesis import HealthCheck, example, given, settings, strategies as st  # noqa: E402

from polyslip.cli import run  # noqa: E402
from polyslip.geometry import (chord_disk, polycrystal_to_dict, quadrant_disk,  # noqa: E402
                               sheared_square_polycrystal)

SCHEMA = json.loads(importlib.resources.files("polyslip").joinpath(
    "schemas/cli_output.schema.json").read_text())

NON_FINITE = ["nan", "-nan", "inf", "-inf", "1e999"]
HOSTILE = ["1e308", "-1e308", "1e-320", "-0", "0", "1/0", str(10 ** 400), str(-10 ** 400),
           str(2 ** 64), "", "x"]
FLOAT = st.floats(-4.0, 4.0, allow_nan=False)
NUMBER = st.one_of(FLOAT.map(repr), st.integers(-3, 3).map(str),
                   st.sampled_from(NON_FINITE), st.sampled_from(HOSTILE))


def _listed(n_min, n_max):
    return st.lists(NUMBER, min_size=n_min, max_size=n_max).map(",".join)


def _sl2(a, b, c):
    return f"{a!r},{b!r},{c!r},{(1.0 + b * c) / a!r}"  # det 1 up to rounding


def _scaled_sl2(k, rows, a, b, c):
    """``_sl2(a, b, c)`` with its rows (or columns) scaled by 10^k and 10^-k: det 1 up to rounding."""
    lam, d = 10.0 ** k, (1.0 + b * c) / a
    e = (lam * a, lam * b, c / lam, d / lam) if rows else (lam * a, b / lam, lam * c, d / lam)
    return ",".join(repr(x) for x in e)


ANGLES = _listed(0, 4)
MATRIX = st.one_of(st.builds(_sl2, st.floats(0.25, 4.0), FLOAT, FLOAT),
                   st.builds(_scaled_sl2, st.floats(-200.0, 200.0), st.booleans(),
                             st.floats(0.25, 4.0), FLOAT, FLOAT),
                   _listed(4, 4), _listed(3, 5))
VECTOR = st.one_of(st.tuples(FLOAT, FLOAT).map(lambda v: f"{v[0]!r},{v[1]!r}"),
                   _listed(2, 2), _listed(1, 3))
GAMMA = st.one_of(NUMBER, st.sampled_from(["1/2", "-7/10", "3/4", "1/3", "0/5", "1/-3",
                                           f"1/{10 ** 40}", f"{10 ** 40}/3"]))
HUGE_COUNTS = [str(10 ** 400), str(2 ** 63), "1000000000", "-0", "1.5", "x"]


def _count(lo, hi, hostile=()):
    return st.one_of(st.integers(lo, hi).map(str), st.sampled_from(["-1", "0", *hostile]))


def _required(name, values):
    """``--name=value``: the = form lets values start with "-"."""
    return values.map(lambda v: [f"--{name}={v}"])


def _opt(name, values):
    return st.one_of(st.just([]), _required(name, values))


def _flag(name):
    return st.sampled_from([[], [f"--{name}"]])


def _command(name, *parts):
    return st.tuples(*parts).map(lambda ps: [name] + [a for p in ps for a in p])


def _argv():
    tol = st.one_of(st.sampled_from(["1e-9", "0", "1e-6"]), NUMBER)
    # each shared option only on the subcommands that read it, so draws reach success paths
    tol_opt, degrees = _opt("tol", tol), _flag("degrees")
    fmt = _opt("format", st.sampled_from(["json", "csv"]))
    return st.one_of(
        _command("taylor", _required("angles", ANGLES), tol_opt, degrees, fmt),
        _command("member", _required("angles", ANGLES), _required("matrix", MATRIX),
                 _opt("space", st.sampled_from(["N", "M"])), tol_opt, degrees, fmt),
        _command("compat", _required("matrix", MATRIX), _required("slip", VECTOR),
                 _required("normal", VECTOR), tol_opt, fmt),
        _command("laminate", _required("matrix", MATRIX), _required("slip", VECTOR),
                 _required("slip2", VECTOR), tol_opt, fmt),
        _command("outer", _required("polycrystal", st.sampled_from(POLYCRYSTALS)),
                 _opt("matrix", MATRIX), _opt("samples", _count(1, 400, HUGE_COUNTS)),
                 _opt("angular-tol", tol), tol_opt, fmt),
        _command("mc", _required("k", _count(1, 40, HUGE_COUNTS)),
                 _opt("n", _count(1, 2000, HUGE_COUNTS)),
                 _opt("seed", st.one_of(_count(0, 100), st.just(str(10 ** 40)))), fmt),
        _command("shear", _required("gamma", GAMMA), _flag("verify"), fmt),
        _command("lambda-plot", _required("thetas", ANGLES),
                 _opt("grid", _count(1, 60, HUGE_COUNTS)), degrees, fmt),
    )


_HUGE = [{"kind": "segment", "p": list(a), "q": list(b)}
         for a, b in [((0, 0), (1e308, 0)), ((1e308, 0), (0, 1e308)), ((0, 1e308), (0, 0))]]
POLYCRYSTAL_FILES = {
    "quadrant.json": lambda: polycrystal_to_dict(quadrant_disk()),
    "square.json": lambda: polycrystal_to_dict(sheared_square_polycrystal()),
    "chords.json": lambda: polycrystal_to_dict(
        chord_disk([-0.4, 0.1, 0.5], [0.3, 1.9, 0.0, 2.6])),
    "huge.json": lambda: {"domain": _HUGE, "grains": [{"id": 1, "boundary": _HUGE, "theta": 0.0}]},
    "malformed.json": lambda: {"domain": [], "grains": "none"},
}
# relative paths, read from the directory the fixture below changes into
POLYCRYSTALS = [*POLYCRYSTAL_FILES, "truncated.json", "missing.json"]


def _strict(token):
    raise ValueError(f"non-finite number {token} in stdout")


def _payload(stdout: str, fmt: str) -> dict:
    if fmt == "csv":
        lines = stdout.splitlines()
        assert lines[0] == "key,value"
        return {key: json.loads(value, parse_constant=_strict)
                for key, value in (line.split(",", 1) for line in lines[1:])}
    return json.loads(stdout, parse_constant=_strict)


@pytest.fixture(scope="module", autouse=True)
def in_polycrystal_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    for name, content in POLYCRYSTAL_FILES.items():
        (directory / name).write_text(json.dumps(content()))
    (directory / "truncated.json").write_text('{"domain": [')
    cwd = os.getcwd()
    os.chdir(directory)
    yield
    os.chdir(cwd)


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=_argv())
@example(argv=["laminate", "--matrix=2,0,0,0.5", "--slip=1,0", "--slip2=1,1e-6"])
@example(argv=["laminate", "--matrix=2,0,0,0.5", "--slip=1,0", "--slip2=1,1e-8"])
@example(argv=["laminate", "--matrix=1e154,0,0,1e-154", "--slip=1,0", "--slip2=1,1e-5",
               "--tol=0"])
@example(argv=["laminate", "--matrix=1e300,0,0,1e-300", "--slip=1,0", "--slip2=1,1e-8"])
@example(argv=["outer", "--polycrystal=quadrant.json", "--matrix=-0.11291846531775036,"
               "-0.993604256352239,0.993604258339448,-0.11291846509191339"])
@example(argv=["outer", "--polycrystal=quadrant.json", "--matrix=1,0,1.4901161193847656e-08,1",
               "--tol=0"])
def test_cli_contract_holds_for_any_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert out.getvalue() == ""
        return
    fmt = "csv" if "--format=csv" in argv else "json"
    payload = _payload(out.getvalue(), fmt)
    jsonschema.validate(payload, SCHEMA)
    if "member_full" in payload and "member_perp" in payload:
        assert payload["member_perp"] or not payload["member_full"]  # full bound inside perp
