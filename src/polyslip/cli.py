"""Command-line front end.

Every subcommand prints a single JSON object (or a key,value CSV with
``--format csv``) to stdout and diagnostics to stderr.  Exit codes:
0 success, 1 domain errors (invalid matrices, angles out of range, bad
polycrystals), 2 usage, parse or I/O errors.  Angles are radians unless
``--degrees`` is given; outputs are always radians.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from bisect import bisect_left, bisect_right

from .errors import PolyslipError
from .mat2 import ANGULAR_TOL, Mat2, Vec2
from .taylor import (gamma_bounds, is_trivial, normalize, shear_interval, taylor_M_member,
                     taylor_member)

_PALETTE = ("#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee", "#aa3377")

# Largest accepted --grid: the work and memory grow linearly in it, and a
# count too large for a float would overflow mid-run.  --samples is only
# range-checked, so scripts that pass it keep working; nothing reads it.
_MAX_SAMPLES = 10 ** 6
_MAX_GRID = 10 ** 4


def _parse_floats(text: str) -> list[float]:
    vals = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    if not all(map(math.isfinite, vals)):
        raise ValueError(f"{text!r} contains a non-finite number")
    return vals


def _parse_matrix(text: str) -> Mat2:
    vals = _parse_floats(text)
    if len(vals) != 4:
        raise ValueError("matrix needs 4 comma-separated entries, row-major")
    return Mat2(*vals)


def _parse_unit(text: str) -> Vec2:
    vals = _parse_floats(text)
    if len(vals) != 2:
        raise ValueError("vector needs 2 comma-separated entries")
    if vals[0] == vals[1] == 0.0:
        raise ValueError(f"vector {text!r} has zero length")
    return Vec2(*vals).unit()


def _parse_gamma(text: str):
    from fractions import Fraction  # import on use: only shear parses a gamma

    # "1/2" or "0.5" parse exactly; exact gamma keeps the build rational
    try:
        return Fraction(text)
    except ValueError:
        return float(text)
    except ZeroDivisionError:
        raise ValueError(f"gamma {text!r} has a zero denominator") from None


def _angles_arg(text: str, degrees: bool) -> list[float]:
    vals = _parse_floats(text)
    if degrees:
        vals = [math.radians(v) for v in vals]
    return vals


def emit_lambda_plot(thetas, grid: int):
    """Draw the shear-frame regions and list their boundary curves.

    Returns ``(svg_text, csv_text, summary)``.  Each angle's region is one
    filled polygon whose vertices are the CSV rows of its exact boundary
    curves (columns ``theta,beta,gamma_minus,gamma_plus``); ``cells_filled``
    counts the cells of a grid x grid raster whose centers lie in it.
    """
    from .svg import SvgCanvas

    gmax = 0.0
    for t in thetas:
        lo, hi = gamma_bounds(t, 1.0)
        gmax = max(gmax, abs(lo), abs(hi))
    gmax = min(max(gmax * 1.1, 0.5), 8.0)
    bmin, bmax = 0.0, 1.05

    canvas = SvgCanvas(-gmax, bmin, gmax, bmax, width=720)
    csv_lines = ["theta,beta,gamma_minus,gamma_plus"]
    filled = []
    db = (bmax - bmin) / grid
    dg = 2.0 * gmax / grid
    # cell-center shears increase with j, so each row's filled cells are
    # the contiguous run that bisection finds inside the row's interval
    gammas = [-gmax + (j + 0.5) * dg for j in range(grid)]
    for k, theta in enumerate(thetas):
        count = 0
        for i in range(grid):
            lo, hi = shear_interval(theta, bmin + (i + 0.5) * db)
            count += max(0, bisect_right(gammas, hi) - bisect_left(gammas, lo))
        filled.append(count)
        st = math.sin(theta)
        # gamma_pm grow like sqrt(beta - sin(theta)): quadratic steps trace the tip evenly
        betas = [st + (1.0 - st) * (i / grid) ** 2 for i in range(grid + 1)]
        rows = [(b, *gamma_bounds(theta, min(b, 1.0))) for b in betas]
        csv_lines += [f"{theta!r},{b!r},{lo!r},{hi!r}" for b, lo, hi in rows]
        # up the gamma_- curve, back down the gamma_+ curve
        canvas.polygon([(lo, b) for b, lo, _ in rows] + [(hi, b) for b, _, hi in rows[::-1]],
                       fill=_PALETTE[k % len(_PALETTE)], stroke="none", opacity=0.45)
    canvas.polyline([(-gmax, 0), (gmax, 0)], stroke="#888888", stroke_width=0.004)
    canvas.polyline([(0, bmin), (0, bmax)], stroke="#888888", stroke_width=0.004)
    summary = {"thetas": list(thetas), "grid": grid, "cells_filled": filled}
    return canvas.render(), "\n".join(csv_lines) + "\n", summary


def _cmd_taylor(args) -> dict:
    aset = normalize(_angles_arg(args.angles, args.degrees), args.tol)
    bound = aset._bound
    return {
        "angles": list(aset.thetas),
        "shift": aset.shift,
        "kind": bound.kind,
        "reduced": list(bound.angles),
        "trivial": is_trivial(aset, args.tol),
    }


def _cmd_member(args) -> dict:
    aset = normalize(_angles_arg(args.angles, args.degrees), args.tol)
    F = _parse_matrix(args.matrix)
    if args.space == "M":
        member = taylor_M_member(F, aset, args.tol)
    else:
        member = taylor_member(F, aset, args.tol)
    return {"member": member, "space": args.space, "reduced": list(aset._bound.angles)}


def _cmd_compat(args) -> dict:
    from .compat import find_connection

    F = _parse_matrix(args.matrix)
    s = _parse_unit(args.slip)
    nu = _parse_unit(args.normal)
    conn = find_connection(F, s, nu, args.tol)  # None exactly when not nu_compatible
    payload = {"compatible": conn is not None, "connection": None}
    if conn is not None:
        payload["connection"] = {"a": list(conn.a.to_floats()),
                                 "target": conn.target.to_rows()}
    return payload


def _cmd_laminate(args) -> dict:
    from .compat import laminate_split

    F = _parse_matrix(args.matrix)
    s = _parse_unit(args.slip)
    s2 = _parse_unit(args.slip2)
    split = laminate_split(F, s, s2, args.tol)
    return {
        "lambda": split.lam,
        "t_plus": split.t_plus,
        "t_minus": split.t_minus,
        "F_plus": split.F_plus.to_rows(),
        "F_minus": split.F_minus.to_rows(),
    }


def _cmd_outer(args) -> dict:
    from . import geometry  # import on use: each subcommand loads only what it calls

    if not 0.0 <= args.angular_tol < math.inf:
        raise ValueError(f"--angular-tol must be finite and >= 0, got {args.angular_tol!r}")
    if not 1 <= args.samples <= _MAX_SAMPLES:
        raise ValueError(f"--samples must be in [1, {_MAX_SAMPLES}], got {args.samples}")
    pc = geometry.load_polycrystal(args.polycrystal)
    analysis = geometry.analyze_boundary(pc, args.angular_tol)
    bound = geometry.outer_bound_perp(pc, args.angular_tol)
    payload = {
        "boundary_grains": list(analysis.boundary_grains),
        "dual_points": [list(p.to_floats()) for p in analysis.dual_points],
        "perp_points": [{"point": list(p.to_floats()), "grain": g}
                        for p, g in analysis.perp_points],
        "J": sorted(analysis.J),
        "J_prime": sorted(analysis.J_prime),
        "perp_bound": {"directions": [list(s.to_floats()) for s in bound.slip_directions],
                       "trivial": bound.trivial_flag},
        "equal_perp_full": geometry.equal_perp_full(pc, args.angular_tol),
    }
    if args.matrix is not None:
        F = _parse_matrix(args.matrix)
        payload["member_perp"] = bound.member(F, args.tol)
        payload["member_full"] = geometry.outer_bound_full_member(
            F, pc, args.tol, args.angular_tol)
    return payload


def _cmd_mc(args) -> dict:
    from . import random_textures

    cfg = random_textures.McConfig(k=args.k, n_samples=args.n, seed=args.seed)
    res = random_textures.estimate_trivial_probability(cfg)
    return {"k": args.k, "n": args.n, "seed": args.seed,
            "estimate": res.estimate, "stderr": res.std_error,
            "analytic": res.analytic}


def _cmd_shear(args) -> dict:
    from . import shear_square

    gamma = _parse_gamma(args.gamma)
    build = shear_square.build(gamma)
    payload = {
        "gamma": float(build.gamma),
        "exact": build.exact,
        "F": build.F_gamma.to_rows(),
        "conclusion": shear_square.conclusion(gamma),
        "checks": None,
    }
    if args.verify:
        payload["checks"] = shear_square.verify(build).as_dict()
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(shear_square.render_svg(build))
        payload["svg"] = args.svg
    if args.mesh:
        with open(args.mesh, "w", encoding="utf-8") as fh:
            json.dump(shear_square.mesh_dict(build), fh, indent=2, sort_keys=True)
            fh.write("\n")
        payload["mesh"] = args.mesh
    return payload


def _cmd_lambda_plot(args) -> dict:
    if not 1 <= args.grid <= _MAX_GRID:
        raise ValueError(f"--grid must be in [1, {_MAX_GRID}], got {args.grid}")
    thetas = _angles_arg(args.thetas, args.degrees)
    svg_text, csv_text, summary = emit_lambda_plot(thetas, args.grid)
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(svg_text)
        summary["svg"] = args.svg
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
        summary["csv"] = args.csv
    return summary


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyslip",
        description="Strain bounds for planar single-slip polycrystals.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    p = command("taylor", _cmd_taylor, "reduce a texture and test triviality")
    p.add_argument("--angles", required=True, help="comma-separated orientation angles")

    p = command("member", _cmd_member, "constant-strain membership of a matrix")
    p.add_argument("--angles", required=True)
    p.add_argument("--matrix", required=True, help="a11,a12,a21,a22 row-major")
    p.add_argument("--space", choices=("N", "M"), default="N",
                   help="relaxed (N) or unrelaxed (M) strain sets")

    p = command("compat", _cmd_compat, "rank-one interface compatibility")
    p.add_argument("--matrix", required=True)
    p.add_argument("--slip", required=True, help="slip direction sx,sy (normalized)")
    p.add_argument("--normal", required=True, help="interface normal nx,ny (normalized)")

    p = command("laminate", _cmd_laminate, "split a strain into two slip-set strains")
    p.add_argument("--matrix", required=True)
    p.add_argument("--slip", required=True)
    p.add_argument("--slip2", required=True)

    p = command("outer", _cmd_outer, "boundary analysis and outer bounds")
    p.add_argument("--polycrystal", required=True, help="polycrystal JSON file")
    p.add_argument("--matrix", help="optional matrix to test for membership")
    p.add_argument("--samples", type=int, default=720,
                   help="range-checked but unused: the full bound is decided exactly")
    p.add_argument("--angular-tol", type=float, default=ANGULAR_TOL)

    p = command("mc", _cmd_mc, "Monte Carlo triviality probability")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)

    p = command("shear", _cmd_shear, "tilted-square two-slip construction")
    p.add_argument("--gamma", required=True,
                   help="shear parameter; fractions like 1/2 stay exact")
    p.add_argument("--verify", action="store_true", help="run the five checks")
    p.add_argument("--svg", help="write reference/deformed figure")
    p.add_argument("--mesh", help="write mesh JSON")

    p = command("lambda-plot", _cmd_lambda_plot,
                "draw the shear-frame regions, one filled polygon per angle")
    p.add_argument("--thetas", required=True, help="comma-separated angles in (0, pi)")
    p.add_argument("--grid", type=int, default=200)
    p.add_argument("--svg", help="output SVG path")
    p.add_argument("--csv", help="output CSV path for boundary curves")

    for p in sub.choices.values():  # options every subcommand takes, listed last
        p.add_argument("--tol", type=float, default=1e-9,
                       help="floating-point tolerance (default 1e-9)")
        p.add_argument("--degrees", action="store_true",
                       help="interpret input angles as degrees")
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="stdout payload format")
    return parser


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "csv":
        lines = ["key,value"]
        for key in sorted(payload):
            lines.append(f"{key},{json.dumps(payload[key], sort_keys=True)}")
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not 0.0 <= args.tol < math.inf:
            raise ValueError(f"--tol must be finite and >= 0, got {args.tol!r}")
        payload = args.func(args)
    except PolyslipError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    _emit(payload, args.format)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
