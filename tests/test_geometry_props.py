"""Property test over polycrystals: stock, chord and random disks, moved around.

Each draw is rotated by any finite angle, then translated and scaled
through its JSON dict.  Rotated copies must stay valid; wherever a copy is
valid, ``analyze_boundary`` must equal the all-pairs probe oracle of
``tests/helpers.py`` with its designed differences applied; and ``outer`` on
the written JSON must keep the CLI contract (exit 0, 1 or 2, no traceback,
strict JSON on success, nothing on stdout otherwise).  With their textures
redrawn from a few nearly equal values, the grains of each copy must give the
same adjacent equal-texture pairs as the pairwise scan.
"""

import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings, strategies as st  # noqa: E402

from helpers import (brute_force_boundary_analysis,  # noqa: E402
                     pairwise_adjacent_equal_textures)
from polyslip.cli import run  # noqa: E402
from polyslip.errors import InvalidPolycrystal  # noqa: E402
from polyslip.geometry import (Grain, _adjacent_equal_texture_pairs,  # noqa: E402
                               analyze_boundary, chord_disk, halfdisk_bicrystal,
                               polycrystal_from_dict, polycrystal_to_dict, quadrant_disk,
                               random_chord_disk, sheared_square_polycrystal)

PI = math.pi
STOCK = {"quadrant": quadrant_disk, "square": sheared_square_polycrystal,
         "bicrystal": lambda: halfdisk_bicrystal(PI / 2, PI / 6)}


@st.composite
def _chord_family(draw):
    heights = sorted(draw(st.lists(st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
                                   min_size=1, max_size=7, unique=True)))
    if draw(st.booleans()):
        thetas = [0.0 if k % 2 == 0 else PI / 2 for k in range(len(heights) + 1)]
    else:
        thetas = [draw(st.floats(0.0, PI, exclude_max=True))]
        for _ in heights:
            step = draw(st.floats(0.01, PI - 0.01))
            thetas.append(math.fmod(thetas[-1] + step, PI))
    return ("chord", heights, thetas)


FAMILY = st.one_of(
    st.sampled_from(sorted(STOCK)).map(lambda name: (name,)),
    _chord_family(),
    st.tuples(st.just("random"), st.integers(0, 2 ** 32 - 1), st.integers(2, 9)),
)


def _build(family):
    if family[0] == "chord":
        return chord_disk(family[1], family[2])
    if family[0] == "random":
        return random_chord_disk(np.random.default_rng(family[1]), family[2])
    return STOCK[family[0]]()


def _moved(d, scale, dx, dy):
    """The polycrystal dict scaled about the origin, then translated."""
    def point(p):
        return [p[0] * scale + dx, p[1] * scale + dy]

    def curve(c):
        if c["kind"] == "segment":
            return dict(c, p=point(c["p"]), q=point(c["q"]))
        return dict(c, center=point(c["center"]), radius=c["radius"] * scale)

    return {"domain": [curve(c) for c in d["domain"]],
            "grains": [dict(g, boundary=[curve(c) for c in g["boundary"]]) for g in d["grains"]]}


def _strict(token):
    raise ValueError(f"non-finite number {token} in stdout")


def _run_outer(path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(["outer", "--polycrystal", path,
                        "--matrix", "1.1,0.2,-0.1,0.8909090909090909"])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(family=FAMILY, phi=st.floats(allow_nan=False, allow_infinity=False),
       scale=st.floats(1e-3, 1e3), dx=st.floats(-1e3, 1e3), dy=st.floats(-1e3, 1e3))
# textures theta + phi that round up to pi
@example(family=("quadrant",), phi=-1e-20, scale=1.0, dx=0.0, dy=0.0)
@example(family=("chord", [0.0], [0.0, 1.0]), phi=-1e-17, scale=1.0, dx=0.0, dy=0.0)
# arc angles that a huge phi would swallow
@example(family=("bicrystal",), phi=1e300, scale=1.0, dx=0.0, dy=0.0)
# a band whose area is below rounding: rejected when built, as its rotated copy would be
@example(family=("chord", [0.0, 6.401789357369894e-116], [0.0, 1.0, 2.0]), phi=1.0, scale=1.0,
         dx=0.0, dy=0.0)
# the designed differences from the probe oracle: a chord whose sagitta is
# below POS_TOL, and curves no longer than POS_TOL (the last one is a draw)
@example(family=("chord", [0.9999999999], [0.0, 1.0]), phi=0.0, scale=1.0, dx=0.0, dy=0.0)
@example(family=("chord", [-0.5, 0.9999999999], [0.0, 1.0, 2.0]), phi=2.0, scale=1e3,
         dx=-5.0, dy=7.0)
@example(family=("chord", [-1e-10, 1e-10], [0.0, 1.0, 2.0]), phi=0.0, scale=1.0, dx=0.0, dy=0.0)
@example(family=("chord", [0.0, 1e-06], [0.0, PI / 2, 0.0]), phi=-0.6454112861510762,
         scale=0.001, dx=0.0, dy=0.0)
def test_moved_polycrystals_keep_analysis_and_contract(family, phi, scale, dx, dy):
    try:
        pc = _build(family)
    except InvalidPolycrystal:  # e.g. bands too thin for the area check
        return
    rotated = pc.rotated(phi)  # raises if a rotated copy is invalid
    assert all(0.0 <= t < PI for t in rotated.texture_angles())
    d = _moved(polycrystal_to_dict(rotated), scale, dx, dy)
    try:
        moved = polycrystal_from_dict(d)
    except InvalidPolycrystal:
        moved = None
    for p in (rotated, moved):
        if p is None:
            continue
        got = analyze_boundary(p)
        want = brute_force_boundary_analysis(p, designed=True)
        assert got == want
        assert got.outer_curves == want.outer_curves
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "pc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(d, fh)
        code, out, err = _run_outer(path)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 0:
        json.loads(out, parse_constant=_strict)
    else:
        assert out == ""


# values within tol of each other, across the wrap at pi, and apart
TEXTURES = [0.0, 1e-10, PI - 1e-10, PI - 2e-9, 1.0, PI / 2]


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(family=FAMILY, phi=st.floats(allow_nan=False, allow_infinity=False),
       scale=st.floats(1e-3, 1e3), dx=st.floats(-1e3, 1e3), dy=st.floats(-1e3, 1e3),
       picks=st.lists(st.integers(0, len(TEXTURES) - 1), min_size=10, max_size=10))
def test_box_sweep_finds_the_pairwise_adjacent_textures(family, phi, scale, dx, dy, picks):
    try:
        rotated = _build(family).rotated(phi)
        moved = polycrystal_from_dict(_moved(polycrystal_to_dict(rotated), scale, dx, dy))
    except InvalidPolycrystal:
        return
    for p in (rotated, moved):
        grains = tuple(Grain(g.id, g.boundary, TEXTURES[picks[k % len(picks)]])
                       for k, g in enumerate(p.grains))
        assert _adjacent_equal_texture_pairs(grains) == pairwise_adjacent_equal_textures(grains)
