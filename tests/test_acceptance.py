"""Acceptance suite: one test per criterion, printed pass lines included.

Each test re-derives its expected values through an independent route
(definition-level intersections, derivative-free searches, closed-form
probabilities, exact rational arithmetic) and checks the library against
it at the stated tolerance.
"""

import math
import time
from fractions import Fraction

import numpy as np

from helpers import (brute_force_taylor, brute_force_taylor_batch, connector_search,
                     mat_of, rand_sl2, rand_sl2_batch, rand_unit, rotations_batch,
                     scan_trivial)
from polyslip.compat import find_connection, laminate_split, nu_compatible
from polyslip.geometry import (analyze_boundary, halfdisk_bicrystal, outer_bound_full_member,
                               outer_bound_perp, quadrant_disk,
                               random_chord_disk, sheared_square_polycrystal)
from polyslip.mat2 import E1, E2, Mat2, ShearFrame, is_SO2, rotation
from polyslip.shear_square import average_gradient, build, conclusion, verify
from polyslip.slip import in_M, in_N, slip_direction
from polyslip.taylor import (gamma_bounds, is_trivial, normalize, taylor_member,
                             taylor_member_batch)
from polyslip.random_textures import McConfig, estimate_trivial_probability, find_kl, trivial_probability

PI = math.pi
TOL = 1e-9


def _report(num: int, text: str) -> None:
    print(f"PASS criterion {num}: {text}")


def test_criterion_01_taylor_reduction_matches_brute_force():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    F = rand_sl2_batch(rng, 1000, 0.05, 1.5, -4.0, 4.0)
    mismatches = 0
    pairs = 0
    for _ in range(1000):
        n_extra = int(rng.integers(0, 8))
        aset = normalize([0.0] + list(rng.uniform(0.0, PI, n_extra)))
        reduced = taylor_member_batch(F, aset, TOL)
        brute = brute_force_taylor_batch(F, aset.thetas, TOL)
        mismatches += int(np.sum(reduced != brute))
        pairs += F.shape[0]
    # tie the vectorized path to the scalar public API on a subsample
    aset = normalize([0.0] + list(rng.uniform(0.0, PI, 5)))
    reduced = taylor_member_batch(F[:200], aset, TOL)
    for i in range(200):
        assert reduced[i] == taylor_member(mat_of(F[i]), aset, TOL)
        assert bool(reduced[i]) == brute_force_taylor(mat_of(F[i]), aset.thetas, TOL)
    elapsed = time.monotonic() - t0
    assert mismatches == 0
    assert pairs == 1_000_000
    assert elapsed < 30.0
    _report(1, f"reduction == all-angle intersection on 10^6 pairs in {elapsed:.1f}s")


def test_criterion_02_full_stretch_interval_closed_form():
    rng = np.random.default_rng(102)
    for theta in rng.uniform(1e-6, PI / 2 - 1e-9, 100):
        lo, hi = gamma_bounds(float(theta), 1.0)
        assert abs(lo - (-2.0 / math.tan(theta))) <= 1e-10 * max(1.0, abs(lo))
        assert abs(hi) <= 1e-10
    for theta in rng.uniform(PI / 2 + 1e-9, PI - 1e-6, 100):
        lo, hi = gamma_bounds(float(theta), 1.0)
        assert abs(lo) <= 1e-10
        assert abs(hi - (-2.0 / math.tan(theta))) <= 1e-10 * max(1.0, abs(hi))
    _report(2, "gamma interval at beta=1 equals the cotangent form within 1e-10")


def test_criterion_03_triviality_law():
    rng = np.random.default_rng(103)
    trivial_sets = []
    for _ in range(10_000):
        n_extra = int(rng.integers(0, 8))
        aset = normalize([0.0] + list(rng.uniform(0.0, PI, n_extra)))
        assert is_trivial(aset) == scan_trivial(aset.thetas)
        if is_trivial(aset) and len(trivial_sets) < 2000:
            trivial_sets.append(aset)
    assert len(trivial_sets) >= 1000
    rejected = 0
    for aset in trivial_sets:
        n = 1000
        beta = rng.uniform(0.2, 1.0, n)
        gamma = rng.uniform(-3.0, 3.0, n)
        # keep a margin from the rotation point (beta, gamma) = (1, 0)
        bad = (np.abs(beta - 1.0) < 1e-3) & (np.abs(gamma) < 1e-3)
        gamma[bad] += 0.5
        rho = rng.uniform(0, 2 * PI, n)
        c, s = np.cos(rho), np.sin(rho)
        F = np.empty((n, 2, 2))
        F[:, 0, 0] = c * beta
        F[:, 0, 1] = c * gamma - s / beta
        F[:, 1, 0] = s * beta
        F[:, 1, 1] = s * gamma + c / beta
        members = taylor_member_batch(F, aset, TOL)
        assert not members.any()
        rejected += n
    _report(3, f"scan-equivalence on 10^4 sets; {rejected} non-rotations rejected")


def test_criterion_04_compatibility_equals_connector_search():
    rng = np.random.default_rng(104)
    done = 0
    while done < 10_000:
        F = rand_sl2(rng, 0.3, 2.0, -3.0, 3.0)
        s = rand_unit(rng)
        nu = rand_unit(rng)
        if abs(s.dot(nu)) <= 1e-3:
            continue
        closed_form = nu_compatible(F, s, nu, TOL)
        searched = connector_search(F, s, nu, TOL)
        assert closed_form == (searched is not None)
        conn = find_connection(F, s, nu, TOL)
        assert closed_form == (conn is not None)
        if conn is not None:
            assert in_M(conn.target, s, TOL)
            assert (conn.target - (F + Mat2.outer(conn.a, nu))).max_abs() \
                <= 1e-13 * max(1.0, conn.target.max_abs())
        done += 1
    _report(4, "closed form == 1-D connector search on 10^4 triples")


def test_criterion_05_laminate_split_postconditions():
    rng = np.random.default_rng(105)
    done = 0
    while done < 10_000:
        F = rand_sl2(rng, 0.3, 2.5, -3.0, 3.0)
        s = rand_unit(rng)
        sp = rand_unit(rng)
        if abs(s.cross(sp)) <= 1e-3:
            continue
        if in_N(F, s, TOL) or in_N(F, sp, TOL):
            continue
        split = laminate_split(F, s, sp, TOL)
        assert 0.0 <= split.lam <= 1.0
        comb = split.lam * split.F_plus + (1.0 - split.lam) * split.F_minus
        assert (comb - F).max_abs() <= 1e-9 * max(1.0, F.max_abs())
        jump = split.F_plus - split.F_minus
        assert jump.max_abs() > 0.0
        assert abs(jump.det()) <= 1e-9 * max(1.0, jump.max_abs()) ** 2
        assert abs(split.F_plus.det() - 1.0) <= 1e-9
        assert abs(split.F_minus.det() - 1.0) <= 1e-9
        assert in_N(split.F_plus, s, TOL) or in_N(split.F_plus, sp, TOL)
        assert in_N(split.F_minus, s, TOL) or in_N(split.F_minus, sp, TOL)
        done += 1
    _report(5, "10^4 splits: convex weight, rank-one jump, exact volume, membership")


def test_criterion_06_monte_carlo_matches_closed_form():
    t0 = time.monotonic()
    lines = []
    for k in range(1, 9):
        res = estimate_trivial_probability(McConfig(k=k, n_samples=100_000, seed=42 + k))
        p = trivial_probability(k)
        bound = 3.0 * math.sqrt(p * (1.0 - p) / 100_000)
        assert abs(res.estimate - p) <= bound, (k, res.estimate, p, bound)
        lines.append(f"k={k}: {res.estimate:.5f} vs {p:.5f}")
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report(6, f"8 x 10^5 draws within 3 sigma in {elapsed:.2f}s ({'; '.join(lines)})")


def test_criterion_07_iterate_witness():
    rng = np.random.default_rng(107)
    for _ in range(1000):
        phi = float(rng.uniform(1e-6, PI - 1e-6))
        if phi == PI / 2:
            continue
        k, l, tk, tl = find_kl(phi)
        assert k >= 1 and l >= 1
        assert 0.0 <= tk < tl < PI
        assert tk <= PI / 2 <= tl
        assert tl - tk <= PI / 2
        assert is_trivial(normalize([0.0, tk, tl]))
    _report(7, "iterate indices certify triviality for 10^3 random angles")


def test_criterion_08_sheared_square_exact():
    half = Fraction(1, 2)
    b = build(half)
    report = verify(b, tol=0)
    assert report.all_passed, report.failures
    tenth = Fraction(1, 10)
    assert b.F_gamma == Mat2(11 * tenth, -2 * tenth, 6 * tenth, 8 * tenth)
    assert average_gradient(b) == b.F_gamma
    assert conclusion(half)["separates"] is True
    assert conclusion(0)["separates"] is False
    _report(8, "rational build verifies with zero error; boundary matrix exact")


def test_criterion_09_outer_bounds_on_stock_examples():
    rng = np.random.default_rng(109)
    # (i) quadrant disk: perpendicular bound membership == rotations
    disk = quadrant_disk()
    bound = outer_bound_perp(disk)
    checked = 0
    for R in rotations_batch(rng, 500):
        F = mat_of(R)
        assert bound.member(F, TOL)
        assert is_SO2(F, TOL)
        checked += 1
    while checked < 1000:
        beta = float(rng.uniform(0.3, 1.4))
        gamma = float(rng.uniform(-2.0, 2.0))
        if abs(beta - 1.0) < 1e-6 and abs(gamma) < 1e-6:
            continue
        F = ShearFrame(float(rng.uniform(0, 2 * PI)), beta, gamma, E1).reconstruct()
        assert not is_SO2(F, TOL)
        assert not bound.member(F, TOL)
        checked += 1

    # (ii) tilted square: no perpendicular points, bound degenerates to SL(2)
    square = sheared_square_polycrystal()
    an = analyze_boundary(square)
    assert an.perp_points == ()
    assert outer_bound_perp(square).trivial_flag

    # (iii) bicrystal: exact full bound == the two closed-form constraints
    bi = halfdisk_bicrystal(theta_top=PI / 2, theta_bottom=PI / 6)
    s_top = E2
    s_bottom = slip_direction(PI / 6)
    disagreements = 0
    compared = 0
    rot = rotations_batch(rng, 200)
    for i in range(200):
        F = mat_of(rot[i])
        closed = ((F @ s_top).norm() <= 1.0 + 1e-12
                  and (F @ s_bottom).norm() <= 1.0 + 1e-12)
        full = outer_bound_full_member(F, bi, TOL)
        assert full and closed
        compared += 1
    while compared < 1000:
        F = rand_sl2(rng, 0.7, 1.15, -1.2, 1.2)
        margin = max((F @ s_top).norm(), (F @ s_bottom).norm()) - 1.0
        if abs(margin) < 1e-6:
            continue  # undecidable at the stated boundary margin
        closed = margin < 0.0
        full = outer_bound_full_member(F, bi, TOL)
        if full != closed:
            disagreements += 1
        compared += 1
    assert disagreements == 0
    _report(9, "quadrant disk rigid; square bound trivial; bicrystal matches closed form")


def test_criterion_10_taylor_inside_sampled_outer_bound():
    rng = np.random.default_rng(110)
    positives = 0
    for _ in range(1000):
        pc = random_chord_disk(rng, int(rng.integers(2, 6)))
        aset = normalize(pc.texture_angles())
        shift = rotation(aset.shift)
        candidates = [mat_of(R) for R in rotations_batch(rng, 6)]
        candidates += [rand_sl2(rng, 0.6, 1.05, -1.0, 1.0) for _ in range(12)]
        for F in candidates:
            if taylor_member(F @ shift, aset, TOL):
                positives += 1
                assert outer_bound_full_member(F, pc, 1e-6)
    assert positives >= 6000  # rotations always qualify
    _report(10, f"{positives} constant-strain members all pass the boundary bound")
