"""Randomized textures: triviality probability and explicit angle witnesses.

For k orientation angles drawn uniformly on (0, pi), joined with the fixed
orientation 0, the probability that the Taylor bound is trivial equals
1 - (k+1)/2^k.  ``estimate_trivial_probability`` checks this by Monte
Carlo; ``find_kl`` produces, for powers of a single rotation angle phi,
two iterate indices whose reduced angles straddle pi/2 within a gap of
pi/2, certifying triviality of the generated texture.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import DomainError
from .mat2 import FrozenValue, mod_pi
from .taylor import HALF_PI, _straddles

#: Angles per Monte Carlo block: bounded memory, 64 KiB arrays that stay in cache
#: (one drawn block, reused, and at most one transposed copy).
_BLOCK_ANGLES = 1 << 13

#: Largest accepted k and n_samples: memory stays flat (blocks), and the largest
#: run, k * n_samples = 10^9 angles, takes about 8 s on a 2-vCPU VM.
MAX_K = 1000
MAX_SAMPLES = 10 ** 6


class McConfig(FrozenValue):
    """Monte Carlo setup: k random angles per draw, sample count, RNG seed."""

    __slots__ = _fields = ("k", "n_samples", "seed")

    def __init__(self, k: int, n_samples: int, seed: int):
        # operator.index: any integer type becomes an int, so numpy ints do not wrap
        for name, value in (("k", k), ("n_samples", n_samples), ("seed", seed)):
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise DomainError(f"{name} = {value!r} is not an integer") from None
        if not 1 <= self.k <= MAX_K:
            raise DomainError(f"k = {self.k!r} outside [1, {MAX_K}]")
        if not 1 <= self.n_samples <= MAX_SAMPLES:
            raise DomainError(f"n_samples = {self.n_samples!r} outside [1, {MAX_SAMPLES}]")
        if self.seed < 0:  # numpy's generators take no negative seed
            raise DomainError(f"seed = {self.seed!r} must be >= 0")


class McResult(FrozenValue):
    __slots__ = _fields = ("estimate", "std_error", "analytic")

    def __init__(self, estimate: float, std_error: float, analytic: float):
        object.__setattr__(self, "estimate", estimate)
        object.__setattr__(self, "std_error", std_error)
        object.__setattr__(self, "analytic", analytic)


def trivial_probability(k: int) -> float:
    """Closed-form probability 1 - (k+1)/2^k of a trivial Taylor bound."""
    if k < 1:
        raise DomainError(f"k = {k!r} must be >= 1")
    # ldexp underflows to 0 for large k where 2.0**k would overflow
    return 1.0 - math.ldexp(k + 1, -k)


def _trivial_rows(thetas: np.ndarray) -> np.ndarray:
    """Row-wise triviality of angle tuples in [0, pi), 0 prepended.

    Only the pair bracketing pi/2 can straddle it (``taylor.reduce_angles``):
    L = max({0} and the angles below pi/2) and U = min(the angles >= pi/2),
    both from one mask, with ``taylor._straddles(L, U, 0.0)`` deciding (drawn
    angles carry no roundoff).  Angles below pi/2 are lifted by pi past every
    candidate for U; a row without one has U >= pi, so U - L > pi/2 and it is
    not trivial.  The reductions run along the axis that is long in memory:
    over a transposed copy when the rows outnumber k.
    """
    n, k = thetas.shape
    t, axis = (np.ascontiguousarray(thetas.T), 0) if k < n else (thetas, 1)
    below = t < HALF_PI
    return _straddles((t * below).max(axis), (t + math.pi * below).min(axis), 0.0)


def estimate_trivial_probability(cfg: McConfig) -> McResult:
    """Monte Carlo frequency of trivial textures against the closed form.

    Draws ``n_samples`` i.i.d. tuples of ``k`` angles uniform on (0, pi),
    prepends the orientation 0, and counts trivial Taylor bounds.  The
    generator is seeded PCG64, so identical configs give identical
    results; the standard error is the binomial one.  PCG64 fills rows
    in order, so drawing in blocks of rows gives the same angles; each block
    is pi times ``random`` in one reused buffer, the bits of
    ``uniform(0.0, pi)``, which is 0.0 + pi * the same double.
    """
    rng = np.random.default_rng(cfg.seed)
    rows = max(1, _BLOCK_ANGLES // cfg.k)
    buf = np.empty((min(rows, cfg.n_samples), cfg.k))
    hits = 0
    for start in range(0, cfg.n_samples, rows):
        block = buf[:cfg.n_samples - start]  # all of buf but in a short last block
        rng.random(out=block)
        block *= math.pi
        hits += int(np.count_nonzero(_trivial_rows(block)))
    est = hits / cfg.n_samples
    se = math.sqrt(est * (1.0 - est) / cfg.n_samples)
    return McResult(estimate=est, std_error=se, analytic=trivial_probability(cfg.k))


def find_kl(phi: float) -> tuple[int, int, float, float]:
    """Iterate indices (k, l) whose reduced angles certify triviality.

    For phi in (0, pi) returns indices and reduced angles theta_k <
    theta_l with pi/2 in [theta_k, theta_l] and theta_l - theta_k <=
    pi/2.  For phi < pi/2 the indices are floor(pi/(2 phi)) and its
    successor; for phi in ((1 - 2^(1-m)) pi, (1 - 2^-m) pi] they are
    2^(m-1) and 2^(m-2).  There pi - phi, each power-of-two multiple of phi
    and its reduction ``mod_pi`` are exact, so the certificate holds with
    pi the float ``math.pi``, also where phi is an end of its interval.
    The single orientation pi/2 is already orthogonal to 0, so phi = pi/2
    returns the degenerate witness (1, 1, pi/2, pi/2).
    """
    if not 0.0 < phi < math.pi:
        raise DomainError(f"phi = {phi!r} outside (0, pi)")
    if phi == HALF_PI:
        return (1, 1, HALF_PI, HALF_PI)
    if phi < HALF_PI:
        k = math.floor(math.pi / (2.0 * phi))
        # float guard: insist on theta_k <= pi/2 < theta_{k+1}
        while k > 1 and mod_pi(k * phi) > HALF_PI:
            k -= 1
        while mod_pi((k + 1) * phi) < HALF_PI:
            k += 1
        return (k, k + 1, mod_pi(k * phi), mod_pi((k + 1) * phi))
    eps = math.pi - phi  # exact, as phi > pi/2
    m = math.floor(-math.log2(eps / math.pi)) + 1
    while eps >= 2.0 ** (1 - m) * math.pi:
        m -= 1
    while eps < 2.0**-m * math.pi:
        m += 1
    k, l = 2 ** (m - 1), 2 ** (m - 2)
    return (k, l, mod_pi(k * phi), mod_pi(l * phi))
