import argparse
import json
import math
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

from helpers import FALSE_SAMPLED_MEMBERS
from polyslip import cli
from polyslip.cli import _parse_gamma, _parse_unit, build_parser, emit_lambda_plot, run
from polyslip.errors import DomainError, InvalidPolycrystal
from polyslip.geometry import (chord_disk, load_polycrystal, polycrystal_to_dict, quadrant_disk,
                               sheared_square_polycrystal)
from polyslip.mat2 import Vec2

PI = math.pi


@pytest.fixture(scope="module")
def output_schema():
    jsonschema = pytest.importorskip("jsonschema")
    import importlib.resources as res
    schema = json.loads(res.files("polyslip").joinpath(
        "schemas/cli_output.schema.json").read_text())
    return lambda payload: jsonschema.validate(payload, schema)


def _run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out), out


def test_taylor_command(capsys, output_schema):
    payload, _ = _run_json(capsys, ["taylor", "--angles", "0,0.5236,2.618"])
    assert payload["trivial"] is False
    assert payload["reduced"] == [0.0, 0.5236, 2.618]
    assert payload["kind"] == "triple"
    output_schema(payload)


def test_taylor_degrees_matches_radians(capsys):
    a, _ = _run_json(capsys, ["taylor", "--angles", "0,30,90", "--degrees"])
    b, _ = _run_json(capsys, ["taylor", "--angles",
                              f"0,{math.radians(30)!r},{PI / 2!r}"])
    assert a["trivial"] == b["trivial"] is True
    assert a["reduced"] == pytest.approx(b["reduced"])


def test_member_command(capsys, output_schema):
    payload, _ = _run_json(capsys, [
        "member", "--angles", "0,1.5707963267948966",
        "--matrix", "1,0.0,0,1"])
    assert payload["member"] is True
    output_schema(payload)
    payload, _ = _run_json(capsys, [
        "member", "--angles", "0,1.5707963267948966",
        "--matrix", "0.9,-0.1,0,1.1111111111111112"])
    assert payload["member"] is False


def test_compat_command(capsys, output_schema):
    payload, _ = _run_json(capsys, [
        "compat", "--matrix", "2,0,0,0.5", "--slip", "1,0", "--normal", "1,0"])
    assert payload["compatible"] is False
    assert payload["connection"] is None
    output_schema(payload)
    payload, _ = _run_json(capsys, [
        "compat", "--matrix", "1,3,0,1", "--slip", "1,0", "--normal", "1,1"])
    assert payload["compatible"] is True
    assert payload["connection"] is not None
    output_schema(payload)


def test_laminate_command(capsys, output_schema):
    payload, _ = _run_json(capsys, [
        "laminate", "--matrix", "2,0,0,0.5", "--slip", "1,0", "--slip2", "1,1"])
    assert 0.0 <= payload["lambda"] <= 1.0
    assert payload["t_minus"] < 0 < payload["t_plus"]
    output_schema(payload)


def test_mc_command(capsys, output_schema):
    payload, _ = _run_json(capsys, ["mc", "--k", "3", "--n", "20000", "--seed", "42"])
    assert payload["analytic"] == 0.5
    assert abs(payload["estimate"] - 0.5) < 4 * payload["stderr"]
    output_schema(payload)


def test_shear_command(capsys, output_schema, tmp_path):
    svg = tmp_path / "shear.svg"
    mesh = tmp_path / "mesh.json"
    payload, _ = _run_json(capsys, [
        "shear", "--gamma", "1/2", "--verify",
        "--svg", str(svg), "--mesh", str(mesh)])
    assert payload["F"] == [[1.1, -0.2], [0.6, 0.8]]
    assert payload["checks"]["all_passed"] is True
    assert payload["conclusion"]["separates"] is True
    assert payload["exact"] is True
    assert svg.read_text().startswith("<svg")
    assert len(json.loads(mesh.read_text())["cells"]) == 9
    payload.pop("svg"), payload.pop("mesh")
    output_schema(payload)


def test_outer_command(capsys, output_schema, tmp_path):
    path = tmp_path / "quadrant.json"
    path.write_text(json.dumps(polycrystal_to_dict(quadrant_disk())))
    payload, _ = _run_json(capsys, [
        "outer", "--polycrystal", str(path), "--matrix", "1,0,0,1"])
    assert payload["J"] == [1, 2, 3, 4]
    assert payload["equal_perp_full"] is True
    assert payload["member_perp"] is True
    assert payload["member_full"] is True
    output_schema(payload)

    path2 = tmp_path / "square.json"
    path2.write_text(json.dumps(polycrystal_to_dict(sheared_square_polycrystal())))
    payload, _ = _run_json(capsys, ["outer", "--polycrystal", str(path2)])
    assert payload["perp_points"] == []
    assert payload["perp_bound"]["trivial"] is True
    output_schema(payload)


def test_lambda_plot_command(capsys, output_schema, tmp_path):
    svg = tmp_path / "regions.svg"
    csv = tmp_path / "curves.csv"
    payload, _ = _run_json(capsys, [
        "lambda-plot", "--thetas", f"{PI / 10!r},{2 * PI / 10!r},{9 * PI / 10!r}",
        "--grid", "60", "--svg", str(svg), "--csv", str(csv)])
    # nested regions: the smaller angle's region strictly contains the larger's
    assert payload["cells_filled"][0] > payload["cells_filled"][1] > 0
    # the reflected obtuse-angle region matches its mirror in size (roughly)
    assert payload["cells_filled"][2] > 0
    header = csv.read_text().splitlines()[0]
    assert header == "theta,beta,gamma_minus,gamma_plus"
    assert svg.read_text().startswith("<svg")
    payload.pop("svg"), payload.pop("csv")
    output_schema(payload)


def test_lambda_plot_degenerate_point():
    svg_text, csv_text, summary = emit_lambda_plot([PI / 2], grid=40)
    assert summary["cells_filled"][0] <= 2
    with pytest.raises(DomainError):
        emit_lambda_plot([0.0], grid=10)


def test_lambda_plot_curve_extent():
    # the quarter-angle region spans stretches [sqrt(2)/2, 1] and its
    # full-stretch edge carries shears [-2, 0], the 0 exactly
    _, csv_text, _ = emit_lambda_plot([PI / 4], grid=100)
    rows = [line.split(",") for line in csv_text.splitlines()[1:]]
    betas = [float(r[1]) for r in rows]
    assert min(betas) == pytest.approx(math.sin(PI / 4))
    assert max(betas) == pytest.approx(1.0)
    last = rows[-1]
    assert float(last[2]) == pytest.approx(-2.0)
    assert float(last[1]) == 1.0
    assert float(last[3]) == 0.0  # exact at beta = 1


def test_shear_gamma_parsing_forms(capsys):
    for text in ("0.5", "1/2", "5e-1"):
        payload, _ = _run_json(capsys, ["shear", "--gamma", text])
        assert payload["exact"] is True
        assert payload["gamma"] == 0.5


def test_repeated_runs_byte_identical(capsys):
    _, out1 = _run_json(capsys, ["mc", "--k", "4", "--n", "5000", "--seed", "7"])
    _, out2 = _run_json(capsys, ["mc", "--k", "4", "--n", "5000", "--seed", "7"])
    assert out1 == out2
    _, s1 = _run_json(capsys, ["taylor", "--angles", "0.3,1.2,2.9"])
    _, s2 = _run_json(capsys, ["taylor", "--angles", "0.3,1.2,2.9"])
    assert s1 == s2


def test_exit_code_domain_error(capsys):
    assert run(["shear", "--gamma", "0.9"]) == 1
    err = capsys.readouterr().err
    assert "error" in err


def test_exit_code_parse_error(capsys):
    assert run(["member", "--angles", "0,1", "--matrix", "1,2,3"]) == 2
    assert run(["outer", "--polycrystal", "/nonexistent/file.json"]) == 2


def test_exit_code_bad_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["outer", "--polycrystal", str(bad)]) == 2


def test_exit_code_json_nested_too_deeply(capsys, tmp_path):
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 100000 + "]" * 100000)
    assert run(["outer", "--polycrystal", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("parse error: ")


def test_outer_full_member_is_exact(capsys, tmp_path):
    # passes at the 720 sampled normals that --samples used to set, fails between them
    heights, thetas, entries = FALSE_SAMPLED_MEMBERS[0]
    path = tmp_path / "chords.json"
    path.write_text(json.dumps(polycrystal_to_dict(chord_disk(heights, thetas))))
    argv = ["outer", "--polycrystal", str(path), "--matrix", ",".join(map(repr, entries))]
    for samples in ("720", "1000000"):
        payload, _ = _run_json(capsys, argv + ["--samples", samples])
        assert payload["member_full"] is False


# |F e1|^2 exceeds (1 + tol)^2 while |F e1| rounds to at most 1 + tol: F e1 is
# 1 + 1e-9 long to within a few ulps at the default tol, and 1 + 2^-52 squared at tol 0
STRETCH_EDGE = "-0.11291846531775036,-0.993604256352239,0.993604258339448,-0.11291846509191339"


@pytest.mark.parametrize("options", [[f"--matrix={STRETCH_EDGE}"],
                                     ["--matrix", "1,0,1.4901161193847656e-08,1", "--tol", "0"]],
                         ids=["default-tol", "tol-0"])
def test_outer_full_bound_lies_inside_the_perpendicular_bound(capsys, tmp_path, options):
    # the grains of texture 0 have perpendicular points, where compatibility is
    # membership in the relaxed set of e1; both bounds must reject F there
    path = tmp_path / "quadrant.json"
    path.write_text(json.dumps(polycrystal_to_dict(quadrant_disk())))
    payload, _ = _run_json(capsys, ["outer", "--polycrystal", str(path), *options])
    assert payload["member_perp"] is False
    assert payload["member_full"] is False


def test_single_crystal_taylor_bound_is_its_relaxed_set(capsys):
    member, _ = _run_json(capsys, ["member", "--angles", "0", f"--matrix={STRETCH_EDGE}"])
    compat, _ = _run_json(capsys, ["compat", f"--matrix={STRETCH_EDGE}",
                                   "--slip", "1,0", "--normal", "0,1"])
    assert compat["compatible"] is False  # the perpendicular case: relaxed-set membership
    assert member["member"] is False


@pytest.mark.parametrize("argv, key", [
    (["outer", "--polycrystal", "quadrant.json", "--matrix", "1,0,0,1"], "member_full"),
    (["compat", "--matrix", "1,0,0,1", "--slip", "1,0", "--normal", "0,1"], "compatible"),
], ids=["outer", "compat"])
def test_huge_tol_squares_to_inf_in_the_stretch_test(capsys, tmp_path, monkeypatch, argv, key):
    # (1 + 1e200)^2 leaves the float range; as a power it raised OverflowError.
    # With 1 - tol < 0 every normal clears the rank-one inequality.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "quadrant.json").write_text(json.dumps(polycrystal_to_dict(quadrant_disk())))
    payload, _ = _run_json(capsys, argv + ["--tol", "1e200"])
    assert payload[key] is True


def test_outer_on_a_sliver_keeps_the_contract(capsys, tmp_path):
    # a 1 x 1e-300 rectangle split in two: the squared length of its short
    # sides underflows to 0, which once divided the segment normal by zero
    def rect(x0, x1):
        pts = [(x0, 0.0), (x1, 0.0), (x1, 1e-300), (x0, 1e-300)]
        return [{"kind": "segment", "p": list(p), "q": list(q)}
                for p, q in zip(pts, pts[1:] + pts[:1])]

    path = tmp_path / "sliver.json"
    path.write_text(json.dumps({"domain": rect(0.0, 1.0), "grains": [
        {"id": 1, "boundary": rect(0.0, 0.5), "theta": 0.0},
        {"id": 2, "boundary": rect(0.5, 1.0), "theta": 1.0}]}))
    code = run(["outer", "--polycrystal", str(path), "--matrix", "1,0,0,1"])
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    if code == 0:
        payload = json.loads(captured.out, parse_constant=lambda c: pytest.fail(c))
        assert payload["member_full"] is True
    else:
        assert captured.out == ""


def test_exit_code_invalid_polycrystal(capsys, tmp_path):
    # well-formed JSON describing a structurally invalid polycrystal is a
    # domain error, not a parse error
    d = polycrystal_to_dict(quadrant_disk())
    d["grains"] = d["grains"][:2]  # grains no longer partition the disk
    bad = tmp_path / "invalid.json"
    bad.write_text(json.dumps(d))
    assert run(["outer", "--polycrystal", str(bad)]) == 1
    assert "error" in capsys.readouterr().err


def _triangle_polycrystal(*vertices):
    sides = [{"kind": "segment", "p": list(a), "q": list(b)}
             for a, b in zip(vertices, vertices[1:] + vertices[:1])]
    return {"domain": sides, "grains": [{"id": 1, "boundary": sides, "theta": 0.0}]}


def test_outer_skips_a_zero_length_boundary_segment(capsys, tmp_path):
    # the unit square with its corner (1, 0) repeated as a segment of length 0,
    # whose normal once divided by zero
    argv = ["outer", "--matrix", "1.2,0.1,0,0.8333333333333334"]
    outputs = []
    for name, corners in (("repeated", ((0, 0), (1, 0), (1, 0), (1, 1), (0, 1))),
                          ("plain", ((0, 0), (1, 0), (1, 1), (0, 1)))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(_triangle_polycrystal(*corners)))
        outputs.append(_run_json(capsys, argv + ["--polycrystal", str(path)])[1])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv", [
    ["mc", "--k", "0"],
    ["mc", "--k", "1001"],
    ["mc", "--k", "1000000000", "--n", "1"],
    ["mc", "--k", str(10 ** 400)],
    ["mc", "--k", "3", "--n", "0"],
    ["mc", "--k", "3", "--n", "1000001"],
    ["mc", "--k=2", f"--n={2 ** 63}"],
])
def test_mc_count_outside_its_range_is_domain_error(capsys, argv):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1


def test_mc_negative_seed_is_a_domain_error_naming_the_seed(capsys):
    # numpy rejects a negative seed with a ValueError that names no option (exit 2)
    assert run(["mc", "--k", "3", "--n", "10", "--seed", "-1"]) == 1
    assert capsys.readouterr() == ("", "error: seed = -1 must be >= 0\n")


@pytest.mark.parametrize("vertices", [
    ((0, 0), (1e308, 0), (0, 1e308)),  # area overflows to inf; inf - inf = nan in the sum
    ((0, 0), (1e308, 1e308), (1.5e308, 1.5e308), (0, 1e308)),  # a cross product is inf - inf
], ids=["inf-area", "nan-area"])
def test_overflowing_area_is_domain_error(capsys, tmp_path, vertices):
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(_triangle_polycrystal(*vertices)))
    assert run(["outer", "--polycrystal", str(bad), "--matrix", "1,0,0,1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def _polycrystal_faults():
    unit = ((0, 0), (1, 0), (0, 1))
    clockwise = _triangle_polycrystal(*unit[::-1])
    no_grains = dict(_triangle_polycrystal(*unit), grains=[])
    # the unit square as two triangles with one id
    halves = [_triangle_polycrystal((0, 0), (1, 0), (1, 1)),
              _triangle_polycrystal((0, 0), (1, 1), (0, 1))]
    repeated = dict(_triangle_polycrystal((0, 0), (1, 0), (1, 1), (0, 1)),
                    grains=[h["grains"][0] for h in halves])
    repeated["grains"][1]["theta"] = 1.0
    # a grain whose area overflows inside a finite domain
    inf_area = dict(_triangle_polycrystal(*unit),
                    grains=_triangle_polycrystal((0, 0), (1e308, 0), (0, 1e308))["grains"])
    theta = _triangle_polycrystal(*unit)
    theta["grains"][0]["theta"] = math.pi
    return [(clockwise, "domain loop must be counterclockwise"),
            (no_grains, "polycrystal needs at least one grain"),
            (repeated, "grain ids must be unique"),
            (inf_area, "grain 1: area inf is not finite"),
            (theta, "grain 1: theta outside [0, pi)")]


@pytest.mark.parametrize("poly, message", _polycrystal_faults(),
                         ids=["clockwise", "no-grains", "repeated-ids", "inf-area", "theta-pi"])
def test_outer_rejects_an_invalid_polycrystal(capsys, tmp_path, poly, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(poly))
    with pytest.raises(InvalidPolycrystal, match=f"^{re.escape(message)}$"):
        load_polycrystal(path)
    assert run(["outer", "--polycrystal", str(path)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("matrix", ["1e155,0,0,1e-155", "1e160,0,0,1e-160", "1e300,0,0,1e-300"])
def test_outer_huge_strain_fails_a_normal_along_the_slip(capsys, tmp_path, matrix):
    # one grain with theta = 0 and no perpendicular point; the side x = 1 has
    # normal e1 = s, incompatible for every beta > 1, also where |Fs|^2 overflows
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(_triangle_polycrystal((0, 0), (1, -1), (1, 1))))
    payload, _ = _run_json(capsys, ["outer", "--polycrystal", str(path), "--matrix", matrix])
    assert payload["J"] == []
    assert payload["member_full"] is False


def test_outer_keeps_a_boundary_segment_whose_square_overflows(capsys, tmp_path):
    # a single grain with texture pi/2 on a 1e160 x 1e-160 rectangle: the long
    # sides once had length inf and were dropped, and |F e|^2 and (s x e)^2 of
    # their edge vectors both overflowed; their normals +-e2 lie along the slip,
    # where |F e1| = 0.5 < 1 fails the rank-one test
    corners = ((0.0, 0.0), (1e160, 0.0), (1e160, 1e-160), (0.0, 1e-160))
    poly = _triangle_polycrystal(*corners)
    poly["grains"][0]["theta"] = math.pi / 2
    path = tmp_path / "rectangle.json"
    path.write_text(json.dumps(poly))
    payload, _ = _run_json(capsys, ["outer", "--polycrystal", str(path), "--matrix", "0.5,0,0,2"])
    assert payload["boundary_grains"] == [1]
    assert payload["member_full"] is False


def test_csv_format(capsys):
    code = run(["taylor", "--angles", "0,1.0", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "key,value"
    assert any(line.startswith("trivial,") for line in out.splitlines())


@pytest.mark.parametrize("argv", [
    ["compat", "--matrix", "1,0,0,1", "--slip", "0,0", "--normal", "1,0"],
    ["shear", "--gamma", "1/0"],
    ["lambda-plot", "--thetas", "0.5", "--grid", "0"],
    ["lambda-plot", "--thetas", "0.5", "--grid", "10001"],
    ["lambda-plot", "--thetas", "", "--grid", str(10 ** 400)],
])
def test_invalid_argument_is_parse_error(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error: ")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["laminate", "--matrix", "nan,0,0,1", "--slip", "1,0", "--slip2", "1,1"],
    ["member", "--angles", "nan", "--matrix", "1,0,0,1"],
    ["member", "--angles", "0,1", "--matrix", "1,inf,0,1"],
    ["compat", "--matrix", "1,0,0,1", "--slip", "1,0", "--normal", "inf,1"],
    ["lambda-plot", "--thetas", "0.5,nan"],
    ["taylor", "--angles", "0,1", "--tol", "nan"],
    ["taylor", "--angles", "0,1", "--tol", "inf"],
    ["member", "--angles", "0,1", "--matrix", "1,0,0,1", "--tol", "-1"],
    ["shear", "--gamma", "nan"],
    ["shear", "--gamma", "inf"],
    ["shear", "--gamma=-inf"],
])
def test_non_finite_input_is_parse_error(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error: ")


@pytest.mark.parametrize("gamma", [str(10 ** 400), f"{10 ** 400}/3", f"-{10 ** 400}"],
                         ids=["int", "fraction", "negative"])
def test_gamma_too_large_for_a_float_is_domain_error(capsys, gamma):
    assert run(["shear", f"--gamma={gamma}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: |gamma| = inf exceeds sqrt(3) - 1\n"


# (text, the Fraction Python 3.11 reads from it): PEP 515 underscores, one between two digits
_UNDERSCORED = [("0.5_0", Fraction(1, 2)), ("1/2_0", Fraction(1, 20)),
                ("-1_0/4_0", Fraction(-1, 4)), ("2_5e-0_2", Fraction(1, 4)),
                (" .2_5 ", Fraction(1, 4)), ("0.7_320_508", Fraction(1830127, 2500000)),
                ("\uff11_\uff10/\uff14", Fraction(5, 2))]
# texts every Fraction rejects: an underscore elsewhere, or no finite number
_NOT_FRACTIONS = ["_1/2", "1_/2", "1/_2", "1/2_", "0._5", "0_.5", "1__0/4", "5e_1", "5_e1", "1e-_1",
                  "1_0x", "nan", "inf", "-inf", "1/2.5", ""]


def _fraction_without_underscores(text):
    """``Fraction`` as Python 3.10 builds it from text, rejecting every PEP 515 underscore."""
    if "_" in text:
        raise ValueError(f"Invalid literal for Fraction: {text!r}")
    return Fraction(text)


@pytest.mark.parametrize("python_3_10", [False, True], ids=["this-python", "python-3.10"])
def test_gamma_reads_what_python_3_11_fraction_reads(capsys, monkeypatch, python_3_10):
    if sys.version_info >= (3, 11):  # the tables are Python's own reading
        assert [Fraction(text) for text, _ in _UNDERSCORED] == [want for _, want in _UNDERSCORED]
        for text in _NOT_FRACTIONS:
            with pytest.raises(ValueError):
                Fraction(text)
    _, half = _run_json(capsys, ["shear", "--gamma", "1/2"])  # imports the real Fraction first
    if python_3_10:  # the module that ``from fractions import Fraction`` reads
        monkeypatch.setitem(sys.modules, "fractions",
                            SimpleNamespace(Fraction=_fraction_without_underscores))
    for text, want in _UNDERSCORED:
        gamma = _parse_gamma(text)
        assert gamma == want and type(gamma) is Fraction, text
    for text in _NOT_FRACTIONS:
        with pytest.raises(ValueError, match=r"^gamma .* is not a finite number$"):
            _parse_gamma(text)
    assert _run_json(capsys, ["shear", "--gamma", "0.5_0"])[1] == half
    assert run(["shear", "--gamma", "nan"]) == 2
    assert capsys.readouterr().err == "parse error: gamma 'nan' is not a finite number\n"


def test_a_key_error_in_a_subcommand_is_not_bad_input(capsys, monkeypatch):
    # no subcommand raises KeyError on input; one that did has a bug, which run does not hide
    def broken(args):
        raise KeyError("angles")

    monkeypatch.setattr(cli, "_cmd_taylor", broken)
    with pytest.raises(KeyError, match="angles"):
        run(["taylor", "--angles", "0,1"])
    assert capsys.readouterr() == ("", "")


# float-degenerate inputs: each is a domain error, never a ZeroDivisionError
_UNDERFLOWS = ["--matrix", "1e-170,0,0,1e170", "--tol", "0"]  # |F e1|^2 underflows to 0


@pytest.mark.parametrize("argv", [
    ["laminate", "--matrix", "2,0,0,0.5", "--slip", "1,0", "--slip2", "1,1e-200", "--tol", "0"],
    ["compat", "--slip", "1,0", "--normal", "0.6,0.8", *_UNDERFLOWS],
    ["member", "--angles", "0,1e-200", "--matrix", "1,0,0,1", "--tol", "0"],
    # (c beta)^2 overflows in the compatibility inequality (was an OverflowError)
    ["compat", "--matrix", "1e150,0,0,1e-150", "--slip", "1,0", "--normal", "1e-5,1"],
    # |Fs|^2 overflows, so beta = inf (was exit 0 with NaN in the connection)
    ["compat", "--matrix", "1e160,0,0,1e-160", "--slip", "1,0", "--normal", "0.6,0.8"],
    # the laminate's endpoints overflow (was exit 0 with Infinity in F_plus and F_minus)
    ["laminate", "--matrix", "1e300,0,0,1e-300", "--slip", "1,0", "--slip2", "1,1e-8"],
], ids=["laminate-q2", "compat", "member-theta", "compat-inequality-overflows",
        "compat-stretch-overflows", "laminate-endpoints-overflow"])
def test_float_degenerate_input_is_domain_error(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "quadrant.json").write_text(json.dumps(polycrystal_to_dict(quadrant_disk())))
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1


_IDENTITY_AT_TOL_1_5 = ["--angles", "0,0.6", "--matrix", "1,0,0,1", "--tol", "1.5"]


@pytest.mark.parametrize("argv, member", [
    (["--angles", "0,1", *_UNDERFLOWS], False),
    (["--angles", "0,1", "--space", "M", *_UNDERFLOWS], False),
    (_IDENTITY_AT_TOL_1_5, True),
    ([*_IDENTITY_AT_TOL_1_5, "--space", "M"], True),
], ids=["member", "member-M", "tol-above-one", "tol-above-one-M"])
def test_member_decides_what_a_stretch_floor_refused(capsys, argv, member):
    # each once raised DegenerateBeta: |F e1|^2 underflowed at tol 0, or |F e1| = 1 < tol
    payload, _ = _run_json(capsys, ["member", *argv])
    assert payload["member"] is member


def test_member_single_crystal_at_a_zero_column(capsys):
    # F e1 = 0 has no frame: the single crystal reads |F e1|^2 = 0 alone, as its
    # relaxed set does, while a pair of angles still needs the frame and refuses
    zero_column = ["--matrix", "0,-1,0,0", "--tol", "1.5"]
    for space in ("N", "M"):  # |F e1| = 0 is 1 within tol 1.5, so M holds it too
        payload, _ = _run_json(capsys, ["member", "--angles", "0", "--space", space, *zero_column])
        assert payload["member"] is True
        assert run(["member", "--angles", "0,1.5708", "--space", space, *zero_column]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: Fs = 0 has no stretch to decompose\n")


@pytest.mark.parametrize("space", ["N", "M"])
def test_member_unrelaxed_answer_implies_relaxed(capsys, space):
    # |F e1| = 1 - 5e-10 lies in the band of M at tol 1e-9, and the shear sits on the beta = 1
    # interval's end; N refuses it at its own beta, so M, which is N plus the band, does too
    # (M once read the beta = 1 interval and printed true)
    matrix = "0.9999999995,0.05842395739988977,0,1.0000000005"
    payload, _ = _run_json(capsys, ["member", "--matrix", matrix, "--angles", "0,1.6",
                                    "--space", space])
    assert payload == {"member": False, "space": space, "reduced": [0.0, 1.6]}


def test_laminate_above_tol_one_splits_trivially(capsys):
    # |s x s'| = 1 <= tol once refused every slip pair; F lies in the relaxed set of s at 1.5
    payload, _ = _run_json(capsys, ["laminate", "--matrix", "2,0,0,0.5", "--slip", "1,0",
                                    "--slip2", "0,1", "--tol", "1.5"])
    assert payload == {"F_minus": [[2.0, 0.0], [0.0, 0.5]], "F_plus": [[2.0, 0.0], [0.0, 0.5]],
                       "lambda": 1.0, "t_minus": 0.0, "t_plus": 0.0}


def test_lambda_plot_of_a_tiny_angle(capsys):
    # theta = 1e-9 was refused by a floor of 1e-8; only an underflowing sin(theta)^2 is
    payload, _ = _run_json(capsys, ["lambda-plot", "--thetas", "1e-9", "--grid", "4"])
    assert payload["cells_filled"] == [16]
    assert run(["lambda-plot", "--thetas", "1e-200", "--grid", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: theta = 1e-200: sin(theta)^2 underflows\n"


def test_outer_decides_a_stretch_whose_square_underflows(capsys, tmp_path):
    # |F e1|^2 underflows to 0 and |F e2|^2 overflows; the texture pi/2 grains
    # have perpendicular points, where |F e2| > 1 fails both bounds
    path = tmp_path / "quadrant.json"
    path.write_text(json.dumps(polycrystal_to_dict(quadrant_disk())))
    payload, _ = _run_json(capsys, ["outer", "--polycrystal", str(path), *_UNDERFLOWS])
    assert payload["member_full"] is False
    assert payload["member_perp"] is False


@pytest.mark.parametrize("slip", ["0.6,0.8", "0.6000000000000001,0.8"])
def test_compat_huge_stretch_across_the_stretched_axis_is_incompatible(capsys, slip):
    # |F nu_perp|^2 = 1e-40 against (s.nu)^2 = 0.36: incompatible by a wide margin,
    # though the window of normal angles this once used was narrower than a float
    payload, _ = _run_json(capsys, ["compat", "--matrix", "1e20,0,0,1e-20",
                                    "--slip", slip, "--normal", "1,0"])
    assert payload == {"compatible": False, "connection": None}


@pytest.mark.parametrize("slip2", ["1,1e-6", "1,1e-8"])
def test_laminate_near_parallel_slips_split_in_closed_form(capsys, output_schema, slip2):
    payload, _ = _run_json(capsys, [
        "laminate", "--matrix", "2,0,0,0.5", "--slip", "1,0", "--slip2", slip2])
    assert 0.0 <= payload["lambda"] <= 1.0
    assert payload["t_minus"] < 0 < payload["t_plus"]
    output_schema(payload)
    s, sp = Vec2(1.0, 0.0), _parse_unit(slip2)
    for key in ("F_plus", "F_minus"):
        (g11, g12), (g21, g22) = payload[key]
        # endpoint entries reach 1/|s - s'|; a determinant holds to eps times its products
        assert abs(g11 * g22 - g12 * g21 - 1) <= 1e-12 * (abs(g11 * g22) + abs(g12 * g21))
        scale = max(abs(g11), abs(g12), abs(g21), abs(g22))
        norms = [math.hypot(g11 * v.x + g12 * v.y, g21 * v.x + g22 * v.y) for v in (s, sp)]
        assert min(norms) <= 1 + 1e-12 * scale


def test_nan_determinant_is_domain_error(capsys):
    # finite entries whose determinant overflows to inf - inf = nan
    argv = ["laminate", "--matrix", "1e200,1e200,1e200,1e200", "--slip", "1,0", "--slip2", "1,1"]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: det F = nan, expected 1\n"


def test_taylor_triviality_uses_tol(capsys):
    # 0.7 + pi/2 normalizes to 2e-16 past pi/2; the default tol absorbs it
    for angles in ("0.7,2.2707963267948966", "0.3,1.8707963267948966"):
        payload, _ = _run_json(capsys, ["taylor", "--angles", angles])
        assert payload["trivial"] is True
    payload, _ = _run_json(capsys, ["taylor", "--angles", "0.7,2.2707963267948966", "--tol", "0"])
    assert payload["trivial"] is False


def test_member_rotated_orthogonal_texture(capsys):
    for angles in ("0.7,2.2707963267948966", "0.3,1.8707963267948966"):
        payload, _ = _run_json(capsys, ["member", "--angles", angles,
                                        "--matrix", "1.0000000009,3e-5,0,0.9999999991"])
        assert payload["member"] is False


@pytest.mark.parametrize("argv", [
    ["--angles", "0,0.6,2.4"],
    ["--angles", "0,1.5707963267948966", "--space", "M"],
    ["--angles", "0,90", "--degrees", "--space", "M"],
], ids=["N", "M", "M-degrees"])
def test_identity_is_a_member_at_tol_zero(capsys, argv):
    # at beta = 1 one end of the shear interval is exactly 0; it once rounded
    # past 0 (N), and the angle fl(pi/2) once picked an empty interval (M)
    payload, _ = _run_json(capsys, ["member", "--matrix", "1,0,0,1", "--tol", "0", *argv])
    assert payload["member"] is True


def test_compat_connection_only_when_compatible(capsys):
    # |F e1| = 1 within tol (so F is in M), yet the inequality fails at tol
    payload, _ = _run_json(capsys, ["compat", "--matrix", "1.0000000009,0,0,0.9999999991",
                                    "--slip", "1,0", "--normal", "1,0"])
    assert payload == {"compatible": False, "connection": None}


@pytest.mark.parametrize("scaled, plain", [
    ("1e200,1e200", "1,1"),
    ("-1.7e308,1.7e308", "-1,1"),
    ("1e-200,0", "1,0"),
    ("0,-5e-324", "0,-1"),
    ("3e-170,-3e-170", "1,-1"),
])
def test_unit_vectors_rescale_instead_of_overflowing(capsys, scaled, plain):
    base = ["compat", "--matrix", "0.8,0.3,-0.2,1.175"]
    for option, other in (("--slip", "--normal=0,1"), ("--normal", "--slip=0.6,0.8")):
        _, out_scaled = _run_json(capsys, base + [f"{option}={scaled}", other])
        _, out_plain = _run_json(capsys, base + [f"{option}={plain}", other])
        assert out_scaled == out_plain


def test_unit_vectors_keep_their_bits():
    for x, y in ((0.6, 0.8), (1.0, 3.0), (-2.5e100, 1e99), (1e-100, -7e-101)):
        assert _parse_unit(f"{x!r},{y!r}") == Vec2(x, y).unit()


@pytest.mark.parametrize("option", [
    "--angular-tol=nan", "--angular-tol=inf", "--angular-tol=-1e-6",
    "--samples=0", "--samples=-5", "--samples=1000001",
    pytest.param(f"--samples={10 ** 400}", id="--samples=10**400"),
])
def test_outer_option_range_is_parse_error(capsys, tmp_path, option):
    path = tmp_path / "quadrant.json"
    path.write_text(json.dumps(polycrystal_to_dict(quadrant_disk())))
    assert run(["outer", "--polycrystal", str(path), "--matrix", "1,0,0,1", option]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error: ")
    assert len(captured.err.splitlines()) == 1


def _quadrant_with(edit):
    d = polycrystal_to_dict(quadrant_disk())
    edit(d)
    return d


def _curve(g, i, **changes):
    return lambda d: d["grains"][g]["boundary"][i].update(changes)


@pytest.mark.parametrize("content", [
    [],
    "disk",
    {"grains": []},
    {"domain": {}, "grains": []},
    _quadrant_with(_curve(0, 0, p=5)),
    _quadrant_with(_curve(0, 0, q=[1, 2, 3])),
    _quadrant_with(_curve(0, 0, kind="spline")),
    _quadrant_with(_curve(0, 1, radius="1")),
    _quadrant_with(lambda d: d["grains"][0]["boundary"][1].pop("to_angle")),
    _quadrant_with(lambda d: d["domain"][0].update(ccw="yes")),
    _quadrant_with(lambda d: d["domain"][0].update(radius=10**400)),
    _quadrant_with(lambda d: d["grains"][1].update(id="2")),
    _quadrant_with(lambda d: d["grains"][1].update(id=2.5)),
    _quadrant_with(lambda d: d["grains"][1].update(theta=None)),
    _quadrant_with(lambda d: d["grains"][1].update(theta=True)),
    _quadrant_with(lambda d: d["grains"][1].update(boundary={})),
    _quadrant_with(lambda d: d["grains"].__setitem__(2, [1])),
], ids=["top-list", "top-string", "no-domain", "domain-object", "p-number", "q-three",
        "kind-unknown", "radius-string", "to_angle-missing", "ccw-string", "radius-huge-int",
        "id-string", "id-fraction", "theta-null", "theta-bool", "boundary-object",
        "grain-list"])
def test_malformed_polycrystal_is_domain_error(capsys, tmp_path, content):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(content))
    assert run(["outer", "--polycrystal", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1


def test_lambda_plot_draws_one_polygon_per_angle():
    svg, csv, summary = emit_lambda_plot([0.6, 2.3], 400)
    assert summary["cells_filled"] == [23268, 7794]
    assert "<rect" not in svg
    assert svg.count("<polygon") == 2
    # each polygon runs up the gamma_- column of its CSV rows and back down gamma_+
    rows = [line.split(",") for line in csv.splitlines()[1:]]
    first = svg.split('<polygon points="')[1].split('"')[0].split()
    own_rows = rows[:401]
    expected = ([f"{float(r[2]):.6g},{float(r[1]):.6g}" for r in own_rows]
                + [f"{float(r[3]):.6g},{float(r[1]):.6g}" for r in reversed(own_rows)])
    assert first == expected


# Each subcommand's options in the order it lists them; the shared ones come last: --tol
# where the subcommand decides with it, --degrees where it reads angles, --format on all.
OPTIONS = {
    "taylor": ["--angles", "--tol", "--degrees", "--format"],
    "member": ["--angles", "--matrix", "--space", "--tol", "--degrees", "--format"],
    "compat": ["--matrix", "--slip", "--normal", "--tol", "--format"],
    "laminate": ["--matrix", "--slip", "--slip2", "--tol", "--format"],
    "outer": ["--polycrystal", "--matrix", "--samples", "--angular-tol", "--tol", "--format"],
    "mc": ["--k", "--n", "--seed", "--format"],
    "shear": ["--gamma", "--verify", "--svg", "--mesh", "--format"],
    "lambda-plot": ["--thetas", "--grid", "--svg", "--csv", "--degrees", "--format"],
}
# a valid argv of each subcommand; {tmp} is the quadrant disk's directory
BASE_ARGV = {
    "taylor": ["taylor", "--angles", "0,1"],
    "member": ["member", "--angles", "0,1", "--matrix", "1,0,0,1"],
    "compat": ["compat", "--matrix", "2,0,0,0.5", "--slip", "1,0", "--normal", "1,0"],
    "laminate": ["laminate", "--matrix", "2,0,0,0.5", "--slip", "1,0", "--slip2", "1,1"],
    "outer": ["outer", "--polycrystal", "{tmp}/quadrant.json", "--matrix", "1,0,0,1"],
    "mc": ["mc", "--k", "3", "--n", "100", "--seed", "1"],
    "shear": ["shear", "--gamma", "1/2", "--verify"],
    "lambda-plot": ["lambda-plot", "--thetas", "0.5", "--grid", "8"],
}
SHARED = {"--tol": "--tol=1e-9", "--degrees": "--degrees", "--format": "--format=json"}


def _base_argv(name, tmp_path):
    (tmp_path / "quadrant.json").write_text(json.dumps(polycrystal_to_dict(quadrant_disk())))
    return [a.format(tmp=tmp_path) for a in BASE_ARGV[name]]


def test_each_subcommand_takes_only_the_options_it_reads():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert {name: [s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")]
            for name, p in sub.choices.items()} == OPTIONS


@pytest.mark.parametrize("name, option", [(n, o) for n, opts in OPTIONS.items()
                                          for o in SHARED if o in opts])
def test_a_shared_option_is_accepted_where_it_is_read(capsys, tmp_path, name, option):
    argv = _base_argv(name, tmp_path)
    assert run(argv) == 0
    plain = capsys.readouterr().out
    assert run(argv + [SHARED[option]]) == 0
    if option != "--degrees":  # the default value prints the same bytes
        assert capsys.readouterr().out == plain


@pytest.mark.parametrize("name, option", [(n, o) for n, opts in OPTIONS.items()
                                          for o in SHARED if o not in opts])
def test_a_shared_option_is_a_usage_error_where_it_is_not_read(capsys, tmp_path, name, option):
    with pytest.raises(SystemExit) as exc:
        run(_base_argv(name, tmp_path) + [SHARED[option]])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {SHARED[option]}" in captured.err
