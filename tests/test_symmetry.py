"""Symmetry laws of the strain sets, checked on every entry point that decides membership.

The relaxed set {det F = 1, |F s| <= 1} of a slip s is invariant under
F -> QF for every rotation Q (frame indifference), and the mirror P =
diag(1, -1) maps the set of s(theta) onto that of s(-theta) by F -> PFP.
The Taylor bounds, the outer bounds and rank-one compatibility are built
from these sets, so each inherits the laws: the answer for F and for its
image agree.  A draw whose answer changes between tol - BAND and tol + BAND
lies within rounding of an edge of the region, where the two answers may
part, and is skipped.
"""

import math

import numpy as np

from helpers import rand_sl2, rand_sl2_batch, rand_unit, rotations_batch
from polyslip.compat import nu_compatible
from polyslip.geometry import (chord_disk, halfdisk_bicrystal, outer_bound_full_member,
                               outer_bound_perp, quadrant_disk, sheared_square_polycrystal)
from polyslip.mat2 import Mat2, rotation
from polyslip.taylor import normalize, taylor_M_member, taylor_member, taylor_member_batch

PI = math.pi
TOL = 1e-6
BAND = 1e-7


def _textures(rng, n, hold_zero=False):
    """Random raw textures of 1 to 5 angles in [0, pi); with ``hold_zero`` each holds 0."""
    textures = [rng.uniform(0.0, PI, int(rng.integers(1, 6))).tolist() for _ in range(n)]
    return [[0.0, *raw] for raw in textures] if hold_zero else textures


def _matrices(rng, n):
    """Random SL(2) matrices, half of them near a rotation, so both answers occur."""
    return ([rand_sl2(rng, 0.5, 1.05, -1.5, 1.5) for _ in range(n // 2)]
            + [rand_sl2(rng, 1.0 - 1e-5, 1.0 + 1e-6, -1e-5, 1e-5) for _ in range(n - n // 2)])


def _law_answers(decide, pairs, decide_image=None):
    """Assert decide(F, tol) == decide_image(G, tol) (decide by default) for each pair (F, G)
    outside the ambiguity band of F, and return those answers."""
    decide_image = decide_image or decide
    answers = []
    for F, G in pairs:
        want = decide(F, TOL)
        if decide(F, TOL - BAND) != decide(F, TOL + BAND):
            continue
        assert decide_image(G, TOL) == want, (F, G)
        answers.append(want)
    return answers


def _assert_decided(answers, drawn):
    """Most draws lie outside the ambiguity band, and their answers hold both values."""
    assert len(answers) > 0.8 * drawn
    assert True in answers and False in answers


def _mirrored(F: Mat2) -> Mat2:
    """P F P with P = diag(1, -1)."""
    return Mat2(F.a11, -F.a12, -F.a21, F.a22)


def test_taylor_bounds_are_frame_indifferent():
    rng = np.random.default_rng(301)
    answers = {taylor_member: [], taylor_M_member: []}
    for raw in _textures(rng, 60):
        aset = normalize(raw)
        pairs = [(F, rotation(rng.uniform(0.0, 2.0 * PI)) @ F) for F in _matrices(rng, 40)]
        for decide, got in answers.items():
            got += _law_answers(lambda F, tol: decide(F, aset, tol), pairs)
    for got in answers.values():
        _assert_decided(got, 60 * 40)


def test_taylor_batch_is_frame_indifferent():
    rng = np.random.default_rng(302)
    n = 2000
    for raw in _textures(rng, 20):
        aset = normalize(raw)
        F = np.concatenate([rand_sl2_batch(rng, n // 2, 0.5, 1.05, -1.5, 1.5),
                            rand_sl2_batch(rng, n // 2, 1.0 - 1e-5, 1.0 + 1e-6, -1e-5, 1e-5)])
        G = rotations_batch(rng, n) @ F
        want = taylor_member_batch(F, aset, TOL)
        clear = taylor_member_batch(F, aset, TOL - BAND) == taylor_member_batch(F, aset, TOL + BAND)
        assert clear.mean() > 0.8
        assert (taylor_member_batch(G, aset, TOL)[clear] == want[clear]).all()
        assert want[clear].any() and not want[clear].all()


def test_taylor_bounds_are_mirror_symmetric():
    # each texture holds 0, so it and its mirror image keep shift 0 and
    # the bounds answer for the raw angles theta and -theta
    rng = np.random.default_rng(303)
    answers = {taylor_member: [], taylor_M_member: []}
    for raw in _textures(rng, 60, hold_zero=True):
        aset, mirror = normalize(raw), normalize([-t for t in raw])
        assert aset.shift == mirror.shift == 0.0
        pairs = [(F, _mirrored(F)) for F in _matrices(rng, 40)]
        for decide, got in answers.items():
            got += _law_answers(lambda F, tol: decide(F, aset, tol), pairs,
                                lambda G, tol: decide(G, mirror, tol))
    for got in answers.values():
        _assert_decided(got, 60 * 40)


def _stock():
    return [quadrant_disk(), halfdisk_bicrystal(0.3, 1.9), halfdisk_bicrystal(PI / 5, 5 * PI / 6),
            sheared_square_polycrystal(), chord_disk([-0.5, 0.5], [0.0, PI / 2, 0.0]),
            chord_disk([-0.3, 0.4], [0.2, 1.4, 2.6])]


def test_outer_bounds_are_frame_indifferent():
    rng = np.random.default_rng(304)
    for pc in _stock():
        perp = outer_bound_perp(pc)
        # near rotations, members of every bound, and strong strains, which the tilted
        # square's full bound refuses only far from the identity
        mats = (_matrices(rng, 60)
                + [rand_sl2(rng, 1.0 - 2e-7, 1.0, -2e-7, 2e-7) for _ in range(20)]
                + [rand_sl2(rng, 0.05, 20.0, -20.0, 20.0) for _ in range(60)])
        pairs = [(F, rotation(rng.uniform(0.0, 2.0 * PI)) @ F) for F in mats]
        _assert_decided(_law_answers(lambda F, tol: outer_bound_full_member(F, pc, tol), pairs),
                        len(pairs))
        if not perp.trivial_flag:
            _assert_decided(_law_answers(perp.member, pairs), len(pairs))


def test_compatibility_is_frame_indifferent():
    rng = np.random.default_rng(305)
    answers = []
    for _ in range(40):
        s, nu = rand_unit(rng), rand_unit(rng)
        pairs = [(F, rotation(rng.uniform(0.0, 2.0 * PI)) @ F)
                 for F in _matrices(rng, 20) + [rand_sl2(rng) for _ in range(20)]]
        answers += _law_answers(lambda F, tol: nu_compatible(F, s, nu, tol), pairs)
    _assert_decided(answers, 40 * 40)
