"""The in-process workloads: inner_scan, outer_scan and exact_verify.

Every workload is a closed loop with one client.  A workload fixes a deck
of request shapes (kind and size); the seed draws the deck order and
every input value, so the mix of sizes per second is the same for every
seed and only the numbers inside the requests change.  Requests are
timed one at a time; building inputs and checking outputs happen outside
the timed region.
"""

from __future__ import annotations

import contextlib
import math
import time
from fractions import Fraction

import numpy as np

import oracles as orc
import polyslip.cli as cli
import polyslip.compat as compat
import polyslip.geometry as geometry
import polyslip.random_textures as random_textures
import polyslip.shear_square as shear_square
import polyslip.taylor as taylor
from polyslip.errors import GammaOutOfRange
from polyslip.mat2 import Mat2, Vec2


def interleave(deck: list, rng) -> list:
    """Spread each request shape evenly over the deck, seeded offsets.

    The j-th of n copies of a shape gets the key (j + u) / n with one
    offset u per shape, so any prefix of the deck holds every shape in
    about its share of the whole.
    """
    groups: dict = {}
    for spec in deck:
        groups.setdefault(spec, []).append(spec)
    keyed = []
    for spec, copies in groups.items():
        u = rng.uniform()
        keyed += [((j + u) / len(copies), rng.uniform(), spec) for j in range(len(copies))]
    keyed.sort(key=lambda item: item[:2])
    return [spec for _, _, spec in keyed]


def mats_of(batch: np.ndarray) -> list[Mat2]:
    return [Mat2(float(r[0, 0]), float(r[0, 1]), float(r[1, 0]), float(r[1, 1]))
            for r in batch]


def rows_of(F: Mat2) -> list[list[float]]:
    return [[F.a11, F.a12], [F.a21, F.a22]]


class Workload:
    """Deck of request shapes plus make/execute/check for each request."""

    name = ""
    #: Requests per tail window; None takes the tail over the whole run.
    tail_window = None

    def __init__(self, seed: int, tmpdir: str):
        self.rng = np.random.default_rng(seed)
        self.check_rng = np.random.default_rng([seed, 1])
        self.tmpdir = tmpdir

    def deck(self) -> list:
        raise NotImplementedError

    def make(self, spec):
        """Inputs of one request; untimed."""
        raise NotImplementedError

    def execute(self, inputs, tracer=None):
        """The timed request."""
        raise NotImplementedError

    def check(self, inputs, output):
        """Error string, or None when the output is right; untimed."""
        raise NotImplementedError

    def warmup_spec(self):
        return self.deck()[0]

    def stream(self):
        """Endless (spec, inputs) pairs, deck after deck."""
        deck = interleave(self.deck(), self.rng)
        while True:
            for spec in deck:
                yield spec, self.make(spec)

    def deck_length(self) -> int:
        return len(self.deck())

    def trace_request(self, inputs, tracer, traced_first: bool):
        """Run once untraced and once traced: (untraced s, traced s, outputs)."""
        times, outputs = {}, []
        for traced in (traced_first, not traced_first):
            with tracer.active() if traced else contextlib.nullcontext():
                t0 = time.perf_counter()
                outputs.append(self.execute(inputs, tracer if traced else None))
                times[traced] = time.perf_counter() - t0
        return times[False], times[True], outputs

    def cli_layer_metrics(self, passes: int) -> dict:
        """``cli.startup_ms``, ``cli.run_ms`` and ``cli.stdout_bytes``; 0 off the CLI."""
        return {"cli.startup_ms": 0.0, "cli.run_ms": 0.0, "cli.stdout_bytes": 0.0}


# ---------------------------------------------------------------------------
# inner_scan: Taylor membership, Monte Carlo, lambda-plot raster
# ---------------------------------------------------------------------------

_PLOT_CENTERS = {2: (0.6, 2.3), 3: (0.4, 1.3, 2.6)}


class InnerScan(Workload):
    name = "inner_scan"

    def deck(self):
        # three in five scalar requests test 64 matrices, so the median
        # falls inside that class rather than on a boundary between sizes
        scalar = [("scalar", k, m) for k in (1, 2, 3, 8, 100, 10_000)
                  for m in (1, 8, 64, 64, 64)]
        batch = [("batch", 3, 4096), ("batch", 100, 4096), ("batch", 8, 65536),
                 ("batch", 10_000, 65536), ("batch", 3, 1_000_000),
                 ("batch", 100, 1_000_000)]
        mc = [("mc", 3, 1_000_000), ("mc", 8, 100_000), ("mc", 20, 100_000),
              ("mc", 3, 10_000)]
        plot = [("plot", 3, 50), ("plot", 2, 100), ("plot", 3, 200),
                ("plot", 2, 400), ("plot", 2, 400)]
        return scalar + batch + mc + plot

    def warmup_spec(self):
        return ("scalar", 3, 8)

    def make(self, spec):
        kind, k, size = spec
        rng = self.rng
        if kind in ("scalar", "batch"):
            angles = rng.uniform(0.0, 2.0 * math.pi, k).tolist()
            F = orc.mixed_batch(rng, size)
            mats = mats_of(F) if kind == "scalar" else None
            return kind, angles, F, mats
        if kind == "mc":
            return kind, k, size, int(rng.integers(2**31))
        # jitter around fixed angles: the raster's cost grows with the
        # region's area, so free angles would make the tail follow the seed
        centers = _PLOT_CENTERS[k]
        return kind, [c + float(rng.uniform(-0.03, 0.03)) for c in centers], size

    def execute(self, inputs, tracer=None):
        kind = inputs[0]
        if kind == "scalar":
            _, angles, _, mats = inputs
            aset = taylor.normalize(angles)
            return aset, taylor.is_trivial(aset), [taylor.taylor_member(F, aset) for F in mats]
        if kind == "batch":
            _, angles, F, _ = inputs
            aset = taylor.normalize(angles)
            return aset, taylor.is_trivial(aset), taylor.taylor_member_batch(F, aset)
        if kind == "mc":
            _, k, n, seed = inputs
            return random_textures.estimate_trivial_probability(
                random_textures.McConfig(k=k, n_samples=n, seed=seed))
        _, thetas, grid = inputs
        return cli.emit_lambda_plot(thetas, grid)

    def check(self, inputs, output):
        kind = inputs[0]
        if kind in ("scalar", "batch"):
            _, angles, F, _ = inputs
            aset, trivial, member = output
            thetas = orc.normalized_thetas(angles)
            if trivial != orc.trivial_scan(thetas):
                return f"is_trivial = {trivial} for {len(angles)} angles"
            member = np.asarray(member, dtype=bool)
            if member.shape != (F.shape[0],):
                return f"membership shape {member.shape}"
            if F.shape[0] > 4096:
                # spot check: a seeded sample of rows against all angles
                n = 1024 if len(thetas) > 1000 else 4096
                idx = self.check_rng.choice(F.shape[0], n, replace=False)
                F, member = F[idx], member[idx]
            return orc.check_taylor(member, F, thetas)
        if kind == "mc":
            _, k, n, _ = inputs
            return orc.check_mc(k, n, output.estimate)
        _, thetas, grid = inputs
        svg, csv, summary = output
        if not (svg.startswith("<svg") and svg.endswith("</svg>\n")):
            return "lambda-plot: malformed SVG"
        if csv.count("\n") != 1 + len(thetas) * (grid + 1):
            return "lambda-plot: wrong CSV row count"
        return orc.check_lambda_plot(thetas, grid, summary["cells_filled"],
                                     orc.lambda_gmax(thetas))


# ---------------------------------------------------------------------------
# outer_scan: polycrystal construction, boundary analysis, outer bounds
# ---------------------------------------------------------------------------

def _chord_inputs(rng, bands: int):
    """Stratified chord heights and adjacent-distinct texture angles."""
    n = bands - 1
    u = rng.uniform(0.1, 0.9, n)
    heights = (-0.98 + 1.96 * (np.arange(n) + u) / n).tolist()
    thetas = [float(rng.uniform(0.0, math.pi))]
    for step in rng.uniform(0.1, math.pi - 0.1, bands - 1):
        thetas.append(float((thetas[-1] + step) % math.pi))
    return heights, thetas


class OuterScan(Workload):
    name = "outer_scan"
    COMPAT_PROBES = 3

    def deck(self):
        small = ([("quadrant", 1, 256, 360), ("quadrant", 1, 64, 90),
                  ("quadrant", 1, 128, 720)]
                 + [("halfdisk", 2, m, s) for m, s in ((256, 180), (64, 720), (128, 360))]
                 + [("sheared", 3, m, s) for m, s in ((256, 90), (128, 180), (64, 360))]
                 + [("chord", b, m, s) for b, m, s in ((2, 256, 720), (3, 128, 360),
                                                       (5, 256, 180), (6, 64, 90),
                                                       (8, 128, 720), (10, 256, 360))]
                 + [("random", g, m, s) for g, m, s in ((2, 256, 360), (3, 128, 720),
                                                        (4, 64, 180))])
        # twelve identical queries whose cost sits mid-deck, so the median
        # falls inside one class instead of between two
        queries = [("quadrant", 1, 160, 360)] * 12
        medium = [("chord", 20, 32, 1440), ("chord", 50, 16, 1440), ("random", 6, 16, 1440)]
        large = [("chord", 100, 8, 2880), ("chord", 100, 4, 2880),
                 ("chord", 200, 2, 2880), ("random", 8, 1, 2880)]
        return small + queries + medium + large

    def warmup_spec(self):
        return ("quadrant", 1, 16, 90)

    def make(self, spec):
        kind, size, m, n_samples = spec
        rng = self.rng
        if kind == "halfdisk":
            args = _chord_inputs(rng, 2)[1]
        elif kind == "chord":
            args = _chord_inputs(rng, size)
        elif kind == "random":
            args = int(rng.integers(2**31))
        else:
            args = None
        mats = mats_of(np.concatenate([orc.rotation_batch(rng, 1), orc.mixed_batch(rng, m - 1)]))
        probes = [(mats_of(orc.sl2_batch(rng, 1))[0], rng.uniform(), rng.uniform())
                  for _ in range(self.COMPAT_PROBES)]
        lam_F = mats_of(orc.sl2_batch(rng, 1))[0]
        return spec, args, mats, probes, lam_F

    def execute(self, inputs, tracer=None):
        (kind, size, _, n_samples), args, mats, probes, lam_F = inputs
        if kind == "quadrant":
            pc = geometry.quadrant_disk()
        elif kind == "halfdisk":
            pc = geometry.halfdisk_bicrystal(args[1], args[0])
        elif kind == "sheared":
            pc = geometry.sheared_square_polycrystal()
        elif kind == "chord":
            pc = geometry.chord_disk(*args)
        else:
            rng = np.random.default_rng(args)
            if tracer is not None:
                rng = tracer.counting_rng(rng, size)
            pc = geometry.random_chord_disk(rng, size)
        analysis = geometry.analyze_boundary(pc)
        perp = geometry.outer_bound_perp(pc)
        samples = geometry.boundary_samples(pc, n_samples, analysis)
        full = [geometry.outer_bound_full_member(F, pc, samples=samples) for F in mats]
        in_perp = [perp.member(F) for F in mats]
        gids = sorted(samples.normals)
        conns = []
        for F, u1, u2 in probes:
            gid = gids[int(u1 * len(gids))]
            rows = samples.normals[gid]
            nu = Vec2(*map(float, rows[int(u2 * len(rows))]))
            s = pc.grain_by_id(gid).slip()
            conns.append((F, s, nu, compat.nu_compatible(F, s, nu),
                          compat.find_connection(F, s, nu)))
        g0 = pc.grains[0]
        other = next(g for g in pc.grains[1:]
                     if min(abs(g.theta - g0.theta), math.pi - abs(g.theta - g0.theta)) > 0.05)
        split = compat.laminate_split(lam_F, g0.slip(), other.slip())
        return pc, full, in_perp, conns, (g0.slip(), other.slip(), split)

    def check(self, inputs, output):
        _, _, mats, _, lam_F = inputs
        pc, full, in_perp, conns, (s1, s2, split) = output
        F = np.array([rows_of(M) for M in mats])
        margin = orc.taylor_margin(F, pc.texture_angles())
        for i, (f, p) in enumerate(zip(full, in_perp)):
            if margin[i] > orc.AMBIGUOUS and not f:
                return f"outer: Taylor member {i} (margin {margin[i]:.3g}) not a full member"
            if f and not p:
                return f"outer: full member {i} outside the perpendicular bound"
        for Fc, s, nu, ok, conn in conns:
            witness = None if conn is None else (list(conn.a.to_floats()), conn.target.to_rows())
            err = orc.check_connection(rows_of(Fc), s.to_floats(), nu.to_floats(), ok, witness)
            if err:
                return err
        return orc.check_laminate(rows_of(lam_F), s1.to_floats(), s2.to_floats(), split.lam,
                                  split.F_plus.to_rows(), split.F_minus.to_rows())


# ---------------------------------------------------------------------------
# exact_verify: the tilted-square construction in rational arithmetic
# ---------------------------------------------------------------------------

_ROTATIONS = {
    "none": None,
    "r345": orc.pythagorean(3, 4, 5),
    "r2": orc.matmul(orc.pythagorean(5, 12, 13), orc.pythagorean(8, 15, 17, inverse=True)),
}

_OUT_OF_RANGE = (Fraction(3, 4), Fraction(-4, 5), Fraction(1), 0.9, Fraction(-3, 2))

_CORNERS = ((0, 0), (3, -1), (4, 2), (1, 3))


class ExactVerify(Workload):
    name = "exact_verify"
    # every request costs about the same, so the tail of a whole run is
    # set by a few rare pauses whose count varies from run to run; in
    # windows of ten deck passes (190 requests) the p94.7 is set by the
    # costliest request shapes
    tail_window = 190

    def deck(self):
        exact = [("exact", d, r) for d in (2, 10**3, 10**6, 10**9, 10**12)
                 for r in _ROTATIONS]
        return exact + [("float", 0, "none"), ("float", 0, "r345"), ("float", 0, "none"),
                        ("out_of_range", 0, "none")]

    def make(self, spec):
        kind, denom, rot = spec
        rng = self.rng
        if kind == "out_of_range":
            return spec, _OUT_OF_RANGE[int(rng.integers(len(_OUT_OF_RANGE)))]
        if kind == "float":
            return spec, float(rng.uniform(-0.73, 0.73))
        q = denom + int(rng.integers(denom if denom > 2 else 8))
        while True:
            g = Fraction(int(rng.integers(-(73 * q) // 100, (73 * q) // 100 + 1)), q)
            if (1 + abs(g)) ** 2 <= 3:
                return spec, g

    def execute(self, inputs, tracer=None):
        (kind, _, rot), gamma = inputs
        R = _ROTATIONS[rot]
        pre = None
        if R is not None:
            pre = Mat2(R[0][0], R[0][1], R[1][0], R[1][1])
            if kind == "float":
                pre = Mat2(*(float(x) for x in (R[0][0], R[0][1], R[1][0], R[1][1])))
        try:
            build = shear_square.build(gamma, pre)
        except GammaOutOfRange as exc:
            return exc
        report = shear_square.verify(build, tol=0 if kind == "exact" else None)
        return (build, report, shear_square.average_gradient(build),
                shear_square.conclusion(gamma), shear_square.mesh_dict(build))

    def check(self, inputs, output):
        (kind, _, rot), gamma = inputs
        if kind == "out_of_range":
            if isinstance(output, GammaOutOfRange):
                return None
            return f"gamma {gamma} out of range was accepted"
        if isinstance(output, Exception):
            return f"gamma {gamma}: {type(output).__name__}: {output}"
        build, report, avg, concl, mesh = output
        if not report.all_passed:
            return f"gamma {gamma}: verification failed {report.failures[:3]}"
        R = _ROTATIONS[rot]
        if kind == "float" and R is not None:
            R = [[float(x) for x in row] for row in R]
        want = orc.boundary_strain(gamma, R)
        got_f, got_avg = rows_of(build.F_gamma), rows_of(avg)
        if kind == "exact":
            if got_f != want or got_avg != want:
                return f"gamma {gamma}: F_gamma or average gradient differs from the formula"
        elif any(abs(got_avg[i][j] - want[i][j]) > 1e-12 or abs(got_f[i][j] - want[i][j]) > 1e-12
                 for i in range(2) for j in range(2)):
            return f"gamma {gamma}: average gradient off by more than 1e-12"
        if concl != {"taylor_trivial": True, "F_in_SO2": gamma == 0, "separates": gamma != 0}:
            return f"gamma {gamma}: conclusion {concl}"
        if len(mesh["cells"]) != 9:
            return "mesh: expected 9 cells"
        ref = [tuple(v) for v in mesh["vertices_reference"]]
        for x, y in _CORNERS:
            dx, dy = mesh["vertices_deformed"][ref.index((float(x), float(y)))]
            ex = float(want[0][0] * x + want[0][1] * y)
            ey = float(want[1][0] * x + want[1][1] * y)
            if abs(dx - ex) > 1e-9 or abs(dy - ey) > 1e-9:
                return f"mesh: corner ({x}, {y}) maps to ({dx}, {dy}), not ({ex}, {ey})"
        return None


WORKLOADS = {w.name: w for w in (InnerScan, OuterScan, ExactVerify)}
