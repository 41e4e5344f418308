"""polyslip benchmark: the command that runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload inner_scan --seed 1 --seconds 20 --trace 0

Each workload runs in its own fresh interpreter (perfbench/worker.py)
against the package under ``src/``.  With ``--trace 0`` the last line of
stdout is a JSON object with the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics of a separate traced run.  The lines before
it give the same numbers for people, with the environment, the tail's
percentile and sample count, and, on cli_session, the known contract
defects.  The full record is written to
``.perfbench_out/BENCH_<workload>_seed<seed>_trace<t>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import queue
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
from tracing import PER_LAYER  # noqa: E402

WORKLOADS = ("cli_session", "inner_scan", "outer_scan", "exact_verify")

#: Interpreter launches per untraced run; setup_s is their median.
SETUP_LAUNCHES = 5

#: Every run must end within this many seconds of starting.
RUN_LIMIT_S = 170.0

END_TO_END = (("setup_s", "s"), ("req_p50_ms", "ms"), ("req_tail_ms", "ms"),
              ("throughput_rps", "1/s"), ("peak_rss_mb", "MB"))


def environment(root: str, seed: int) -> dict:
    """Versions, machine and source identity of this run."""
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "polyslip")
    for dirpath, dirnames, filenames in sorted(os.walk(pkg)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, pkg).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "jsonschema": version("jsonschema"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "platform": platform.platform(),
    }


class Worker:
    """A worker interpreter whose stdout lines are read with arrival times."""

    def __init__(self, argv: list[str]):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
        self.lines: queue.Queue = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put((time.perf_counter(), line.rstrip("\n")))
        self.lines.put((time.perf_counter(), None))

    def expect(self, tag: str, deadline: float):
        """(arrival time, payload) of the next ``tag`` line, or raise."""
        while True:
            try:
                when, line = self.lines.get(timeout=max(0.0, deadline - time.perf_counter()))
            except queue.Empty:
                raise RuntimeError(f"worker sent no {tag} line in time") from None
            if line is None:
                raise RuntimeError(f"worker exited (code {self.proc.wait()}) before {tag}")
            if line.startswith(tag + " "):
                return when, json.loads(line[len(tag) + 1:])

    def close(self, deadline: float) -> int:
        """Wait for the worker until ``deadline``, then kill it."""
        try:
            code = self.proc.wait(timeout=max(0.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.reader.join(timeout=10)
        self.proc.stdout.close()
        return code


def run_workload(args, root: str, tmpdir: str) -> tuple[dict, list[float], list[float]]:
    deadline = time.perf_counter() + RUN_LIMIT_S
    base = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--src", os.path.join(root, "src"), "--tmpdir", tmpdir]
    setups, raw_setups = [], []
    for probe in [True] * (0 if args.trace else SETUP_LAUNCHES - 1) + [False]:
        before = hostspeed.calibrate()
        w = Worker(base + ["--probe"] if probe else base)
        try:
            when, ready = w.expect("READY", deadline)
            raw_setups.append(when - w.started)
            setups.append(hostspeed.scale(when - w.started, before, ready["calibration_ms"]))
            if not probe:
                _, result = w.expect("RESULT", deadline)
        finally:
            code = w.close(deadline)
        if code != 0:
            raise RuntimeError("set-up probe failed" if probe
                               else f"worker exited with code {code}")
    return result, setups, raw_setups


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "polyslip", "__init__.py")):
        print("run.py: no src/polyslip here; run from the root of a polyslip checkout",
              file=sys.stderr)
        return 2
    env = environment(root, args.seed)
    env["cpu_pinned"] = hostspeed.pin_to_one_cpu()
    out_dir = os.path.join(root, ".perfbench_out")
    tmpdir = os.path.join(out_dir, f"tmp_{os.getpid()}")
    os.makedirs(tmpdir, exist_ok=True)
    try:
        result, setups, raw_setups = run_workload(args, root, tmpdir)
    except RuntimeError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    metrics = result["metrics"]
    if args.trace:
        units = {name: unit for name, unit, _, _ in PER_LAYER}
        moves = {name: why for name, _, _, why in PER_LAYER}
        missing = set(units) - set(metrics)
        if missing:
            print(f"run.py: traced run lacks {sorted(missing)}", file=sys.stderr)
            return 1
    else:
        metrics["setup_s"] = statistics.median(setups)
        units, moves = dict(END_TO_END), {}
    attempted, failed = result["requests"], len(result["failures"])
    correct = failed == 0 and result["warmup_error"] is None

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"requests {attempted}  failed {failed}")
    for name in units:
        extra = ""
        if name == "req_tail_ms":
            window, measured = result["tail_window"], result["measured_requests"]
            extra = (f"  (p{result['tail_percentile']:.2f}: 10 of {window} requests beyond it"
                     if window > 10 else f"  (maximum of {window} requests")
            extra += ")" if window == measured else f", median over windows of {window})"
        if name == "req_p50_ms":
            extra = f"  (over {result['measured_requests']} requests)"
        if name == "setup_s":
            extra = f"  (median of {len(setups)} launches)"
        if name in moves:
            extra = f"  -> {moves[name]}"
        print(f"  {name:<56} {metrics[name]:>14.6g} {units[name]}{extra}")
    print(f"  {'fail_ratio':<56} {failed / attempted:>14.6g}  ({failed}/{attempted})")
    for failure in result["failures"][:10]:
        print(f"  FAILED: {failure}")
    if result["warmup_error"]:
        print(f"  FAILED warm-up: {result['warmup_error']}")
    for probe in result.get("known_defects", []):
        state = probe["violation"] or "contract holds"
        print(f"  known defect: {probe['argv']}  ->  exit {probe['exit']}: {state}")
    if not args.trace:
        print(f"  host calibration: median {result['calibration_ms']:.4g} ms, times scaled to "
              f"{hostspeed.REFERENCE_MS} ms; unscaled req_p50_ms {result['raw_req_p50_ms']:.6g}, "
              f"setup_s {statistics.median(raw_setups):.6g}")
    print("env " + json.dumps(env, sort_keys=True))

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "correct": correct, "attempted": attempted,
        "failed": failed, "fail_ratio": failed / attempted,
        "metrics": {name: {"value": metrics[name], "unit": units[name],
                           **({"moves": moves[name]} if name in moves else {})}
                    for name in units},
        **{k: v for k, v in result.items() if k not in ("metrics", "requests")},
        "setup_launches_s": setups,
        "setup_launches_unscaled_s": raw_setups,
        "calibration_reference_ms": hostspeed.REFERENCE_MS,
    }
    path = os.path.join(out_dir, f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": metrics[name], "unit": units[name]}
                                  for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
