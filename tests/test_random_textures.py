import math
import tracemalloc

import numpy as np
import pytest

from helpers import row_scan_trivial
from polyslip import random_textures
from polyslip.errors import DomainError
from polyslip.random_textures import (MAX_K, MAX_SAMPLES, McConfig, _trivial_rows,
                                      estimate_trivial_probability, find_kl,
                                      trivial_probability)
from polyslip.taylor import is_trivial, normalize

PI = math.pi


def test_closed_form_values():
    assert trivial_probability(1) == 0.0
    assert trivial_probability(3) == 0.5
    assert trivial_probability(5) == 0.8125
    assert trivial_probability(8) == pytest.approx(1 - 9 / 256)
    with pytest.raises(DomainError):
        trivial_probability(0)


def test_closed_form_without_overflow():
    # same bits as the direct formula where 2.0**k is finite, and no
    # OverflowError where it is not
    for k in range(1, 61):
        assert trivial_probability(k) == 1.0 - (k + 1) / 2.0**k
    assert trivial_probability(2000) == 1.0


def test_probability_increasing_from_two():
    probs = [trivial_probability(k) for k in range(2, 20)]
    assert all(a < b for a, b in zip(probs, probs[1:]))


def test_vectorized_triviality_matches_scalar():
    rng = np.random.default_rng(50)
    for k in (1, 2, 4, 7):
        thetas = rng.uniform(0, PI, size=(400, k))
        rows = _trivial_rows(thetas)
        for row, got in zip(thetas, rows):
            assert got == is_trivial(normalize([0.0] + list(row)))


#: pi/2 and its float neighbours, the prepended 0, the least subnormal and the
#: largest float below pi: pairs on the straddle edges, and ties where two
#: pairs of one row straddle (0, pi/2 and pi/2, nextafter(pi, 0))
_SALTS = np.array([PI / 2, np.nextafter(PI / 2, 0.0), np.nextafter(PI / 2, 4.0), 0.0, 5e-324,
                   np.nextafter(PI, 0.0)])


def test_flat_scan_marks_each_row_on_its_own():
    half, below, above, zero, tiny, near_pi = _SALTS
    one = np.array([[half], [near_pi], [tiny], [zero], [above], [below]])
    assert _trivial_rows(one).tolist() == [True, False, False, False, False, False]
    ties = np.array([[below, half, above], [half, near_pi, zero], [near_pi, 0.5, 1.0]])
    assert _trivial_rows(ties).tolist() == [True, True, False]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 8, 20, 100, 1000])
def test_flat_scan_matches_row_scan_on_salted_blocks(k):
    rng = np.random.default_rng(700 + k)
    n = max(400, 100_000 // k)
    # rows on (0, pi), below pi/2 or above it: trivial and nontrivial at any k
    lo = rng.choice([0.0, 0.0, PI / 2], size=(n, 1))
    hi = np.where(lo > 0, PI, rng.choice([PI, PI / 2], size=(n, 1)))
    thetas = lo + (hi - lo) * rng.random((n, k))
    salted = rng.random((n, k)) < min(0.5, 3.0 / k)
    thetas[salted] = rng.choice(_SALTS, size=int(salted.sum()))
    got = _trivial_rows(thetas)
    assert got.dtype == bool and got.shape == (n,)
    assert np.array_equal(got, row_scan_trivial(thetas))
    assert 0 < np.count_nonzero(got) < n


@pytest.mark.parametrize("k, n, seed, estimate, std_error", [
    (3, 200_000, 0, 0.50142, 0.0011180294799333333),
    (2, 300_001, 4, 0.24875250415831948, 0.0007892487417785522),
    (8, 100_000, 2, 0.9659, 0.0005739093133936756),
    (20, 100_000, 3, 0.99997, 1.732024826611169e-05),
])
def test_estimate_pinned(k, n, seed, estimate, std_error):
    # values of the single-draw implementation; drawing in blocks of rows
    # must reproduce them bit for bit
    res = estimate_trivial_probability(McConfig(k=k, n_samples=n, seed=seed))
    assert (res.estimate, res.std_error) == (estimate, std_error)


def _salted_block(rng, n, k):
    """(n, k) angles on (0, pi), each row below pi/2 or above it, some set to ``_SALTS``."""
    lo = rng.choice([0.0, 0.0, PI / 2], size=(n, 1))
    hi = np.where(lo > 0, PI, rng.choice([PI, PI / 2], size=(n, 1)))
    thetas = lo + (hi - lo) * rng.random((n, k))
    salted = rng.random((n, k)) < min(0.5, 3.0 / k)
    thetas[salted] = rng.choice(_SALTS, size=int(salted.sum()))
    return thetas


@pytest.mark.parametrize("k", [1, 3, 8, 1000])
def test_trivial_rows_matches_row_scan_on_both_layouts(k):
    # rows reduced over a transposed copy when they outnumber k, in place
    # otherwise: both layouts and the shapes where they switch
    rng = np.random.default_rng(900 + k)
    for n in {1, k - 1, k, k + 1} - {0}:
        for _ in range(max(1, 2000 // (n * k))):
            thetas = _salted_block(rng, n, k)
            kept = thetas.copy()
            got = _trivial_rows(thetas)
            assert got.dtype == bool and got.shape == (n,)
            assert np.array_equal(got, row_scan_trivial(thetas))
            assert np.array_equal(thetas, kept)


def test_trivial_rows_bracket_without_an_angle_above_half_pi():
    # U is then an angle lifted by pi, and U - L > pi/2 even from the largest
    # float below pi/2
    below = np.nextafter(PI / 2, 0.0)
    thetas = np.array([[below, 5e-324, 0.0], [below, below, below], [0.0, 0.0, 0.0]])
    assert _trivial_rows(thetas).tolist() == [False] * 3  # as many rows as k: in place
    assert _trivial_rows(np.tile(thetas, (2, 1))).tolist() == [False] * 6  # transposed


@pytest.mark.parametrize("k, n", [(3, 2 * 2730 + 2), (8, 1024 + 7), (20, 409 + 5),
                                  (100, 3 * 81 + 4)])
def test_estimate_with_a_last_block_shorter_than_k(k, n):
    # the last block has fewer rows than k, so it is reduced in the other layout
    seed = 11 + k
    thetas = np.random.default_rng(seed).uniform(0.0, PI, size=(n, k))
    res = estimate_trivial_probability(McConfig(k=k, n_samples=n, seed=seed))
    assert res.estimate == np.count_nonzero(row_scan_trivial(thetas)) / n


@pytest.mark.parametrize("k, n, seed, estimate, std_error", [
    (100, 10_000, 5, 1.0, 0.0),
    (1000, 3_000, 6, 1.0, 0.0),
    (9, 1000, 10, 0.984, 0.00396787096564392),
])
def test_estimate_pinned_more_k(k, n, seed, estimate, std_error):
    # values of the sort-and-scan kernel, which the bracket kernel must repeat
    res = estimate_trivial_probability(McConfig(k=k, n_samples=n, seed=seed))
    assert (res.estimate, res.std_error) == (estimate, std_error)


@pytest.mark.parametrize("k, n", [(3, 3 * 2730 + 17), (1000, 20), (7, 1)])
def test_estimate_draws_the_angles_of_uniform(k, n, monkeypatch):
    # each block is pi * random(): the bits of uniform(0.0, pi) in the same order
    blocks = []

    def keep(block):
        blocks.append(block.copy())
        return _trivial_rows(block)

    monkeypatch.setattr(random_textures, "_trivial_rows", keep)
    estimate_trivial_probability(McConfig(k=k, n_samples=n, seed=31))
    drawn = np.random.default_rng(31).uniform(0.0, PI, size=(n, k))
    assert np.concatenate(blocks).tobytes() == drawn.tobytes()


def test_estimate_memory_bounded():
    # 2e6 angles: 16 MB per array if drawn at once
    tracemalloc.start()
    try:
        estimate_trivial_probability(McConfig(k=500, n_samples=4000, seed=3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_estimate_deterministic():
    cfg = McConfig(k=3, n_samples=2000, seed=99)
    a = estimate_trivial_probability(cfg)
    b = estimate_trivial_probability(cfg)
    assert a == b


def test_estimate_measure_zero_for_single_angle():
    res = estimate_trivial_probability(McConfig(k=1, n_samples=10_000, seed=1))
    assert res.estimate <= 1e-3
    assert res.analytic == 0.0


def test_estimate_matches_analytic_k3():
    res = estimate_trivial_probability(McConfig(k=3, n_samples=100_000, seed=42))
    assert abs(res.estimate - 0.5) <= 3 * math.sqrt(0.25 / 100_000)


def test_invalid_config():
    with pytest.raises(DomainError):
        McConfig(k=0, n_samples=10, seed=0)
    with pytest.raises(DomainError):
        McConfig(k=1, n_samples=0, seed=0)
    with pytest.raises(DomainError):
        McConfig(k=MAX_K + 1, n_samples=10, seed=0)
    with pytest.raises(DomainError):
        McConfig(k=1, n_samples=MAX_SAMPLES + 1, seed=0)
    McConfig(k=MAX_K, n_samples=MAX_SAMPLES, seed=0)  # the caps themselves are accepted


def test_config_reads_integers_of_any_type():
    cfg = McConfig(k=np.int64(3), n_samples=np.int32(100), seed=np.uint8(1))
    assert cfg == McConfig(k=3, n_samples=100, seed=1)
    assert all(type(getattr(cfg, name)) is int for name in ("k", "n_samples", "seed"))
    assert estimate_trivial_probability(cfg) == estimate_trivial_probability(McConfig(3, 100, 1))


@pytest.mark.parametrize("k, n, seed", [(3.5, 100, 1), (3.0, 100, 1), (3, 100.0, 1),
                                        (3, 100, 1.5), (3, 100, None), (3, "100", 1)])
def test_config_rejects_a_number_that_is_not_an_integer(k, n, seed):
    with pytest.raises(DomainError, match="is not an integer"):
        McConfig(k=k, n_samples=n, seed=seed)


@pytest.mark.parametrize("seed", [-1, np.int64(-5), -(2 ** 70)], ids=repr)
def test_config_rejects_a_negative_seed(seed):
    with pytest.raises(DomainError, match=f"^seed = {int(seed)} must be >= 0$"):
        McConfig(k=3, n_samples=10, seed=seed)
    McConfig(k=3, n_samples=10, seed=0)  # zero is a seed


# ---------------------------------------------------------------------------
# iterate witness
# ---------------------------------------------------------------------------

def test_find_kl_small_angle():
    k, l, tk, tl = find_kl(PI / 3)
    assert (k, l) == (1, 2)
    assert tk == pytest.approx(PI / 3)
    assert tl == pytest.approx(2 * PI / 3)


def test_find_kl_quarter_angle():
    k, l, tk, tl = find_kl(PI / 4)
    assert (k, l) == (2, 3)
    assert tk == pytest.approx(PI / 2)
    assert tl == pytest.approx(3 * PI / 4)


def test_find_kl_obtuse_angle():
    k, l, tk, tl = find_kl(0.8 * PI)
    assert (k, l) == (4, 2)
    assert tk == pytest.approx(0.2 * PI)
    assert tl == pytest.approx(0.6 * PI)


def test_find_kl_float_guard_lowers_k():
    # pi / (2 phi) is 65.0, but 65 phi rounds above pi/2
    phi = 0.024166097335306103
    assert 65 * phi > PI / 2
    assert find_kl(phi) == (64, 65, 64 * phi, 65 * phi)


def test_find_kl_right_angle_degenerate():
    assert find_kl(PI / 2) == (1, 1, PI / 2, PI / 2)


def test_find_kl_domain():
    for bad in (0.0, PI, -0.3, 4.0):
        with pytest.raises(DomainError):
            find_kl(bad)


def test_find_kl_certificate_random():
    rng = np.random.default_rng(51)
    # the floats (1 - 2^-m) pi, ends of the intervals of m: m = 4, 9, 19 were once
    # answered by the pair of m + 1 with theta_k rounded up to pi, others a few ulps off
    boundary = [2.945243112740431, 3.1354567304382504, 3.1415866614773402]
    boundary += [(1.0 - 2.0**-m) * PI for m in range(2, 53)]
    for phi in boundary + [float(x) for x in rng.uniform(1e-4, PI - 1e-4, 1000)]:
        if phi == PI / 2:
            continue
        k, l, tk, tl = find_kl(phi)
        assert 0.0 <= tk < tl < PI
        assert tk <= PI / 2 <= tl
        assert tl - tk <= PI / 2
        assert is_trivial(normalize([0.0, tk, tl]))
