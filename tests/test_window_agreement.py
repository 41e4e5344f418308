"""The image-form decisions agree with the window of normal angles they replaced, to roundoff.

``_old_window`` and ``_old_meets`` copy the shear-frame test that once
decided compatibility: with (beta, gamma) the frame of F along s, the
normals at angle psi from s fail when tan(psi) lies in
((gamma - w)/beta, (gamma + w)/beta), w = sqrt(1 - tol - 1/beta^2).  Over
the stock polycrystals, rotated, and strains drawn onto the edge of the full
outer bound by bisection, ``outer_bound_full_member`` and ``nu_compatible``
may answer otherwise than the window only where ``exact_image_slack`` of a
boundary normal lies within roundoff of 0.
"""

import math

import numpy as np
import pytest

from helpers import exact_image_slack
from polyslip.compat import nu_compatible
from polyslip.geometry import (Segment, _wrap, analyze_boundary, chord_disk, halfdisk_bicrystal,
                               outer_bound_full_member, quadrant_disk, random_chord_disk,
                               sheared_square_polycrystal)
from polyslip.mat2 import DEFAULT_TOL, Mat2, Vec2, decompose, norm2_at_most_one
from polyslip.slip import image_norm2

PI = math.pi
#: |slack| / scale below which two float evaluations may disagree
ROUNDOFF = 1e-14


def _old_window(beta, gamma, tol):
    w2 = 1.0 - tol - 1.0 / (beta * beta)
    if not w2 > 0.0:
        return None
    w = math.sqrt(w2)
    lo, hi = math.atan((gamma - w) / beta), math.atan((gamma + w) / beta)
    if math.nextafter(lo, hi) >= hi:
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    return lo, hi


def _old_meets(lo, hi, start, end):
    return (start < hi and lo < end) or (start < hi + PI and lo + PI < end)


def _old_span(curve, theta):
    if isinstance(curve, Segment):
        n = curve.normal_at(0.5)
        start, sweep = math.atan2(float(n.y), float(n.x)), 0.0
    else:
        start, sweep = curve.ccw_span()
    return _wrap(start - theta + PI / 2, PI) - PI / 2, sweep


def _old_nu_compatible(F, s, nu, tol=DEFAULT_TOL):
    sn = s.dot(nu)
    if abs(sn) <= tol:
        return norm2_at_most_one(image_norm2(F, s), tol)
    frame = decompose(F, s, tol)
    window = _old_window(frame.beta, frame.gamma, tol)
    psi = math.atan(s.cross(nu) / sn)
    return window is None or not _old_meets(*window, psi, psi)


def _old_full_member(F, pc, tol=DEFAULT_TOL):
    analysis = analyze_boundary(pc)
    for gid in analysis.boundary_grains:
        theta = pc.grain_by_id(gid).theta
        s = Vec2(math.cos(theta), math.sin(theta))
        n2, frame = image_norm2(F, s), decompose(F, s, tol)
        beta, gamma = frame.beta, frame.gamma
        if gid in analysis.J and not norm2_at_most_one(n2, tol):
            return False
        window = _old_window(beta, gamma, tol)
        if window is not None and any(_old_meets(*window, start, start + sweep)
                                      for start, sweep in (_old_span(c, theta) for c in
                                                           analysis.outer_curves[gid])):
            return False
    return True


def _boundary_normals(F, pc):
    """(s, nu) pairs: every segment normal and arc end normal of each boundary grain,
    and the normal along F^T F s where an arc of the grain holds its line."""
    analysis = analyze_boundary(pc)
    pairs = []
    for gid in analysis.boundary_grains:
        s = pc.grain_by_id(gid).slip()
        d = F.transpose() @ (F @ s)
        t = math.atan2(float(d.y), float(d.x))
        for curve in analysis.outer_curves[gid]:
            if isinstance(curve, Segment):
                e = curve.q - curve.p
                pairs.append((s, Vec2(e.y, -e.x).unit()))
                continue
            pairs += [(s, curve.normal_at(u)) for u in (0.0, 1.0)]
            if curve.covers_angle(t, 0.0) or curve.covers_angle(t + PI, 0.0):
                pairs.append((s, d.unit()))
    return pairs


def _closest_slack(F, pairs):
    """The least |slack| / scale of ``exact_image_slack`` over the (s, nu) pairs."""
    return min(abs(slack) / scale for slack, scale in
               (exact_image_slack(F, s, nu) for s, nu in pairs))


def _polycrystals():
    rng = np.random.default_rng(70)
    stock = [quadrant_disk(), halfdisk_bicrystal(0.3, 1.9), sheared_square_polycrystal(),
             chord_disk([-0.5, 0.1, 0.6], [0.2, 1.4, 2.6, 0.9])]
    stock += [random_chord_disk(rng, int(rng.integers(2, 7))) for _ in range(3)]
    return [(f"{k}-{phi}", pc.rotated(phi) if phi else pc)
            for k, pc in enumerate(stock) for phi in (0.0, 0.37, 2.0)]


def _path(pc, rng):
    """A path of strains F(t), t in [0, t_hi], from the rotation F(0): ``(F, t_hi)``.

    Either a growing shear R(rho) (1 + t b, t g; 0, 1/(1 + t b)) up to t = 4,
    or a stretch along a boundary normal nu of slip s that compresses perp(nu)
    to |s.nu| / 2 at t = 1, where nu fails.
    """
    rho = rng.uniform(0.0, 2 * PI)
    R = Mat2(math.cos(rho), -math.sin(rho), math.sin(rho), math.cos(rho))
    if rng.integers(2):
        b, g = rng.uniform(-0.2, 0.5), rng.uniform(-1.0, 1.0)
        return (lambda t: R @ Mat2(1.0 + t * b, t * g, 0.0, 1.0 / (1.0 + t * b))), 4.0
    analysis = analyze_boundary(pc)
    gid = analysis.boundary_grains[int(rng.integers(len(analysis.boundary_grains)))]
    curves = analysis.outer_curves[gid]
    nu = curves[int(rng.integers(len(curves)))].normal_at(rng.uniform())
    k = max(abs(pc.grain_by_id(gid).slip().dot(nu)), 0.1) / 2
    p = nu.perp()
    return (lambda t: R @ (Mat2.outer(p, p) * k ** t + Mat2.outer(nu, nu) * k ** -t)), 1.0


@pytest.mark.parametrize("pc", [pc for _, pc in _polycrystals()],
                         ids=[name for name, _ in _polycrystals()])
def test_near_boundary_strains_agree_with_the_window(pc):
    # bisection puts lo and hi on either side of the edge, an ulp or so apart,
    # where the two tests may differ; a relative step of 1e-9 off the edge
    # leaves every slack far above roundoff, so there they must agree
    rng = np.random.default_rng(71)
    edges = 0
    for _ in range(30):
        F_at, hi = _path(pc, rng)
        if outer_bound_full_member(F_at(hi), pc):
            continue
        lo = 0.0
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if outer_bound_full_member(F_at(mid), pc) else (lo, mid)
        edges += 1
        for t in (lo, hi, lo * (1 - 1e-9), hi * (1 + 1e-9)):
            F = F_at(t)
            pairs = _boundary_normals(F, pc)
            if outer_bound_full_member(F, pc) != _old_full_member(F, pc):
                assert _closest_slack(F, pairs) <= ROUNDOFF, (F, t)
            for s, nu in pairs:
                if nu_compatible(F, s, nu) != _old_nu_compatible(F, s, nu):
                    assert _closest_slack(F, [(s, nu)]) <= ROUNDOFF, (F, s, nu)
    assert edges >= 10
