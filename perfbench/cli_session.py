"""cli_session: one fresh ``python -m polyslip.cli`` process per request.

The deck cycles through all eight subcommands at small inputs; two of its
sixteen requests take a documented error path.  Every request is judged
by the CLI contract (exit code 0, 1 or 2, no traceback, strict JSON on
stdout) and its stdout must equal, byte for byte, what ``cli.run`` prints
in this process for the same argv.  Successful payloads must also
validate against ``cli_output.schema.json`` and pass the content oracles.

``KNOWN_DEFECTS`` lists requests that break the contract at the time this
benchmark was written.  They run after the timed loop, are reported by
name, and do not count as failed requests of the workload.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time

import jsonschema
import numpy as np

import oracles as orc
import polyslip.cli as cli
import polyslip.geometry as geometry
from workloads import Workload

#: The README example; det = 0.99999, so it exits 1 at the default tol.
README_MEMBER = ["member", "--angles", "0,1.5708", "--matrix", "0.9,-0.1,0,1.1111",
                 "--space", "N"]

# (argv, expected exit code) of error-path requests inside the deck.
_ERROR_PATHS = (
    (["shear", "--gamma", "0.9"], 1),
    (["compat", "--matrix", "2,0,0,1", "--slip", "1,0", "--normal", "0,1"], 1),
    (["outer", "--polycrystal", "{tmp}/missing.json"], 2),
    (["taylor", "--angles", "0,abc"], 2),
    (["mc", "--k", "0"], 1),
    (["member", "--angles", "0,1", "--matrix", "1,2,3"], 2),
)

KNOWN_DEFECTS = (
    ["compat", "--matrix", "1,0,0,1", "--slip", "0,0", "--normal", "1,0"],
    ["lambda-plot", "--thetas", "0.5", "--grid", "0"],
    ["mc", "--k", "2000"],
    ["shear", "--gamma", "1/0"],
    ["laminate", "--matrix", "nan,0,0,1", "--slip", "1,0", "--slip2", "1,1"],
    ["member", "--angles", "nan", "--matrix", "1,0,0,1"],
    ["outer", "--polycrystal", "{tmp}/bad_p.json"],
)

def _fmt(values) -> str:
    return ",".join(repr(float(v)) for v in values)


class CliSession(Workload):
    name = "cli_session"

    def __init__(self, seed: int, tmpdir: str):
        super().__init__(seed, tmpdir)
        root = os.path.dirname(os.path.abspath(cli.__file__))
        with open(os.path.join(root, "schemas", "cli_output.schema.json"), encoding="utf-8") as fh:
            self.validator = jsonschema.Draft202012Validator(json.load(fh))
        self.env = dict(os.environ, PYTHONPATH=os.path.dirname(root))
        self.polycrystals = {}
        self._write_polycrystals()
        self.startup_ms: list[float] = []
        self.run_ms: list[float] = []
        self.stdout_bytes = 0

    def _write_polycrystals(self) -> None:
        stock = {
            "quadrant": geometry.quadrant_disk(),
            "halfdisk": geometry.halfdisk_bicrystal(1.9, 0.3),
            "sheared": geometry.sheared_square_polycrystal(),
            "chord": geometry.chord_disk([-0.4, 0.1, 0.5], [0.2, 1.4, 2.5, 0.9]),
        }
        for name, pc in stock.items():
            path = os.path.join(self.tmpdir, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(geometry.polycrystal_to_dict(pc), fh)
            self.polycrystals[name] = (path, pc.texture_angles())
        bad = geometry.polycrystal_to_dict(stock["quadrant"])
        bad["domain"][0]["p"] = 5
        bad["grains"][0]["boundary"][0]["p"] = 5
        with open(os.path.join(self.tmpdir, "bad_p.json"), "w", encoding="utf-8") as fh:
            json.dump(bad, fh)

    # -- deck -------------------------------------------------------------

    def deck(self):
        return ["taylor", "member", "compat", "laminate", "outer", "mc", "shear", "lambda-plot",
                "readme-member", "taylor-deg", "member-M", "compat", "outer", "shear-decimal",
                "lambda-plot", "error"]

    def stream(self):
        # the order of the deck is fixed: it already alternates the subcommands
        k = 0
        while True:
            for spec in self.deck():
                yield spec, self.make(spec, k)
                k += 1

    def make(self, spec, k: int = 0):
        rng, tmp = self.rng, self.tmpdir
        F = orc.mixed_batch(rng, 4)[int(rng.integers(4))]
        mat = _fmt(F.reshape(-1))
        # options take the --name=value form: values may start with "-"
        if spec == "taylor":
            argv = ["taylor", "--angles=" + _fmt(rng.uniform(0, 2 * math.pi, 3))]
        elif spec == "taylor-deg":
            argv = ["taylor", "--angles=" + _fmt(rng.uniform(0, 360, 4)), "--degrees"]
        elif spec == "member":
            argv = ["member", "--angles=" + _fmt(rng.uniform(0, math.pi, int(rng.integers(2, 5)))),
                    "--matrix=" + mat]
        elif spec == "member-M":
            R = orc.rotation_batch(rng, 1)[0]
            argv = ["member", "--angles=" + _fmt(rng.uniform(0, math.pi, 3)),
                    "--matrix=" + _fmt(R.reshape(-1)), "--space=M"]
        elif spec == "compat":
            t = rng.uniform(0, 2 * math.pi, 2)
            argv = ["compat", "--matrix=" + mat,
                    "--slip=" + _fmt((math.cos(t[0]), math.sin(t[0]))),
                    "--normal=" + _fmt((math.cos(t[1]), math.sin(t[1])))]
        elif spec == "laminate":
            t = rng.uniform(0, math.pi)
            argv = ["laminate", "--matrix=" + _fmt(orc.sl2_batch(rng, 1)[0].reshape(-1)),
                    "--slip=1,0", "--slip2=" + _fmt((math.cos(t + 0.3), math.sin(t + 0.3)))]
        elif spec == "outer":
            name = list(self.polycrystals)[(k // 8) % len(self.polycrystals)]
            M = orc.rotation_batch(rng, 1)[0] if rng.uniform() < 0.5 else F
            argv = ["outer", "--polycrystal=" + self.polycrystals[name][0],
                    "--matrix=" + _fmt(M.reshape(-1)), "--samples=360"]
        elif spec == "mc":
            argv = ["mc", f"--k={int(rng.integers(3, 9))}", "--n=20000",
                    f"--seed={int(rng.integers(2**31))}"]
        elif spec in ("shear", "shear-decimal"):
            q = int(rng.integers(2, 10**6))
            p = int(rng.integers(-(73 * q) // 100, (73 * q) // 100 + 1))
            gamma = f"{p}/{q}" if spec == "shear" else repr(round(p / q, 6))
            argv = ["shear", "--gamma=" + gamma, "--verify", f"--svg={tmp}/shear.svg",
                    f"--mesh={tmp}/mesh.json"]
        elif spec == "lambda-plot":
            thetas = np.sort(rng.uniform(0.05, math.pi - 0.05, int(rng.integers(1, 4))))
            argv = ["lambda-plot", "--thetas=" + _fmt(thetas),
                    f"--grid={int(rng.integers(50, 101))}",
                    f"--svg={tmp}/lambda.svg", f"--csv={tmp}/lambda.csv"]
        elif spec == "readme-member":
            return README_MEMBER, 1
        else:
            argv, code = _ERROR_PATHS[(k // 16) % len(_ERROR_PATHS)]
            return [a.format(tmp=tmp) for a in argv], code
        return argv, 0

    # -- execution --------------------------------------------------------

    def execute(self, inputs, tracer=None):
        argv, _ = inputs
        proc = subprocess.run([sys.executable, "-m", "polyslip.cli", *argv], env=self.env,
                              cwd=self.tmpdir, capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def in_process(self, argv):
        """``cli.run`` on argv here: (exit code, stdout, seconds)."""
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code
        return code, out.getvalue(), time.perf_counter() - t0

    def trace_request(self, inputs, tracer, traced_first: bool):
        """Fresh process, then ``cli.run`` here untraced and traced.

        The fresh process is not traced; its wall time minus the untraced
        in-process run is the start-up cost of one CLI call.
        """
        argv, _ = inputs
        t0 = time.perf_counter()
        fresh = self.execute(inputs)
        wall = time.perf_counter() - t0
        times = {}
        for traced in (traced_first, not traced_first):
            with tracer.active() if traced else contextlib.nullcontext():
                times[traced] = self.in_process(argv)[2]
        untraced, traced = times[False], times[True]
        self.startup_ms.append((wall - untraced) * 1e3)
        self.run_ms.append(untraced * 1e3)
        self.stdout_bytes += len(fresh[1].encode())
        return untraced, traced, [fresh]

    def cli_layer_metrics(self, passes: int) -> dict:
        return {"cli.startup_ms": statistics.median(self.startup_ms),
                "cli.run_ms": statistics.median(self.run_ms),
                "cli.stdout_bytes": self.stdout_bytes / passes}

    def check(self, inputs, output):
        argv, want = inputs
        code, stdout, stderr = output
        err = contract_violation(code, stdout, stderr)
        if err:
            return f"{argv[0]}: {err}"
        if code != want:
            return f"{' '.join(argv)}: exit {code}, expected {want}"
        here = self.in_process(argv)
        if (here[0], here[1]) != (code, stdout):
            return f"{argv[0]}: fresh-process output differs from cli.run in process"
        if code != 0:
            return None
        payload = orc.strict_json(stdout)
        errors = list(self.validator.iter_errors(payload))
        if errors:
            return f"{argv[0]}: schema: {errors[0].message[:120]}"
        return self._content(argv, payload)

    def _content(self, argv, payload):
        opts = dict(a[2:].split("=", 1) for a in argv[1:] if "=" in a)
        if argv[0] == "taylor":
            raw = [float(x) for x in opts["angles"].split(",")]
            if "--degrees" in argv:
                raw = [math.radians(x) for x in raw]
            if payload["trivial"] != orc.trivial_scan(orc.normalized_thetas(raw)):
                return "taylor: trivial flag disagrees with the scan"
        elif argv[0] == "member":
            F = np.array([float(x) for x in opts["matrix"].split(",")]).reshape(1, 2, 2)
            thetas = orc.normalized_thetas(float(x) for x in opts["angles"].split(","))
            if opts.get("space") == "M":
                m = orc.taylor_margin(F, thetas)
                if abs(m[0]) < orc.AMBIGUOUS and not payload["member"]:
                    return "member M: rotation rejected"
                if m[0] < -orc.AMBIGUOUS and payload["member"]:
                    return "member M: matrix outside the relaxed bound accepted"
                return None
            return orc.check_taylor([payload["member"]], F, thetas)
        elif argv[0] == "compat":
            F = _rows(opts["matrix"])
            s, nu = _unit(opts["slip"]), _unit(opts["normal"])
            conn = payload["connection"]
            witness = None if conn is None else (conn["a"], conn["target"])
            return orc.check_connection(F, s, nu, payload["compatible"], witness)
        elif argv[0] == "laminate":
            return orc.check_laminate(_rows(opts["matrix"]), _unit(opts["slip"]),
                                      _unit(opts["slip2"]), payload["lambda"],
                                      payload["F_plus"], payload["F_minus"])
        elif argv[0] == "outer":
            thetas = next(t for p, t in self.polycrystals.values() if p == opts["polycrystal"])
            F = np.array(_rows(opts["matrix"])).reshape(1, 2, 2)
            if orc.taylor_margin(F, thetas)[0] > orc.AMBIGUOUS and not payload["member_full"]:
                return "outer: Taylor member is not a full member"
            if payload["member_full"] and not payload["member_perp"]:
                return "outer: full member outside the perpendicular bound"
        elif argv[0] == "mc":
            return orc.check_mc(payload["k"], payload["n"], payload["estimate"])
        elif argv[0] == "shear":
            if not payload["checks"]["all_passed"]:
                return f"shear {opts['gamma']}: checks failed"
        elif argv[0] == "lambda-plot":
            thetas = [float(x) for x in opts["thetas"].split(",")]
            return orc.check_lambda_plot(thetas, payload["grid"], payload["cells_filled"],
                                         orc.lambda_gmax(thetas))
        return None

    def probe_known_defects(self) -> list[dict]:
        """Run each known-defect request in a fresh process; judge the contract."""
        out = []
        for argv in KNOWN_DEFECTS:
            argv = [a.format(tmp=self.tmpdir) for a in argv]
            code, stdout, stderr = self.execute((argv, None))
            err = contract_violation(code, stdout, stderr)
            if err is None and code == 0:
                err = "non-finite or invalid input accepted with exit 0"
            out.append({"argv": " ".join(argv).replace(self.tmpdir, "<tmp>"),
                        "exit": code, "violation": err})
        return out


def contract_violation(code, stdout: str, stderr: str):
    """The documented CLI contract: exit 0, 1 or 2, no traceback, strict JSON."""
    if code not in (0, 1, 2):
        return f"exit code {code}"
    if "Traceback (most recent call last)" in stderr:
        return "traceback on stderr: " + stderr.strip().splitlines()[-1][:120]
    if code != 0:
        return None if stdout == "" else "output on stdout after an error"
    try:
        orc.strict_json(stdout)
    except ValueError as exc:
        return f"stdout is not strict JSON ({exc})"
    return None


def _rows(text: str):
    v = [float(x) for x in text.split(",")]
    return [[v[0], v[1]], [v[2], v[3]]]


def _unit(text: str):
    x, y = (float(t) for t in text.split(","))
    n = math.hypot(x, y)
    return (x / n, y / n)
