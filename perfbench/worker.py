"""One workload in a fresh interpreter; started by run.py.

Protocol on stdout: a ``READY <json>`` line once ``import polyslip`` and
one warm-up request have finished, then, unless ``--probe`` is given, a
``RESULT <json>`` line when the run is over.  Nothing else is printed.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

_parser = argparse.ArgumentParser()
_parser.add_argument("--workload", required=True)
_parser.add_argument("--seed", type=int, required=True)
_parser.add_argument("--seconds", type=float, required=True)
_parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
_parser.add_argument("--src", required=True, help="directory holding the polyslip package")
_parser.add_argument("--tmpdir", required=True)
_parser.add_argument("--probe", action="store_true", help="exit after the warm-up request")
ARGS = _parser.parse_args()

# import polyslip before anything else third-party, so the import metrics
# see every module it pulls in
sys.path.insert(0, ARGS.src)
_before = set(sys.modules)
_t0 = time.perf_counter()
import polyslip  # noqa: E402

IMPORT = {
    "import.polyslip_s": time.perf_counter() - _t0,
    "import.modules": len(set(sys.modules) - _before),
    "import.scipy_loaded": int("scipy" in sys.modules),
}

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

import hostspeed  # noqa: E402
from cli_session import CliSession  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKLOADS = dict(WORKLOADS, cli_session=CliSession)


def tail(latencies: list[float], window) -> tuple[float, float, int]:
    """Latency at the highest percentile with ten samples beyond it.

    Of n sorted samples that is the (n - 10)-th, at percentile
    100 * (n - 10) / n.  With a ``window`` of w requests it is taken in
    each run of w consecutive requests and the median over the complete
    windows is reported, so the percentile is fixed by w and not by the
    machine's speed.  Windows of ten or fewer samples report their maximum.
    Returns (latency, percentile, samples per window).
    """
    if window is None or len(latencies) < window:
        window = len(latencies)
    values = []
    for start in range(0, len(latencies) - window + 1, window):
        xs = sorted(latencies[start:start + window])
        values.append(xs[window - 11] if window > 10 else xs[-1])
    pct = 100.0 * (window - 10) / window if window > 10 else 100.0
    return statistics.median(values), pct, window


def safe_check(wl, spec, inputs, output):
    try:
        return wl.check(inputs, output)
    except Exception as exc:  # an oracle that cannot read the output is a failure
        return f"{spec}: output unreadable by the oracle: {type(exc).__name__}: {exc}"


def timed_loop(wl, seconds: float) -> dict:
    """Closed loop until ``seconds`` of wall time have passed.

    Latency statistics use the whole deck passes of the run once there are
    two, so every run measures the same mix of request shapes; the requests
    of the last, partial pass are still checked and counted as attempted.
    Each request is scaled by the host-speed calibrations taken right
    before it and right before the next one (see hostspeed.py).
    """
    raw, calibrations, failures = [], [], []
    deadline = time.perf_counter() + seconds
    for spec, inputs in wl.stream():
        calibrations.append(hostspeed.calibrate())
        t0 = time.perf_counter()
        try:
            output, err = wl.execute(inputs), None
        except Exception as exc:
            output, err = None, f"{spec}: {type(exc).__name__}: {exc}"
        raw.append((time.perf_counter() - t0) * 1e3)
        err = err or safe_check(wl, spec, inputs, output)
        if err:
            failures.append(err)
        # free this request before the next one is built, so the peak RSS
        # is that of one request and not of the pair the deck order makes
        del inputs, output
        if time.perf_counter() >= deadline:
            break
    calibrations.append(hostspeed.calibrate())
    latencies = [hostspeed.scale(ms, before, after)
                 for ms, before, after in zip(raw, calibrations, calibrations[1:])]
    deck = wl.deck_length()
    whole = len(latencies) // deck * deck
    measured = latencies[:whole] if whole >= 2 * deck else latencies
    tail_ms, pct, window = tail(measured, wl.tail_window)
    return {
        "requests": len(latencies),
        "measured_requests": len(measured),
        "failures": failures,
        "metrics": {
            "req_p50_ms": statistics.median(measured),
            "req_tail_ms": tail_ms,
            "throughput_rps": len(measured) / (sum(measured) / 1e3),
        },
        "tail_percentile": pct,
        "tail_window": window,
        "raw_req_p50_ms": statistics.median(raw[:len(measured)]),
        "calibration_ms": statistics.median(calibrations),
    }


def traced_loop(wl, seconds: float) -> dict:
    """Whole decks, each request untraced and traced, until ``seconds`` pass.

    Per-layer numbers are means per deck pass; which of the two runs of a
    request goes first alternates.
    """
    tracer = Tracer()
    tracer.prepare()
    failures = []
    untraced = traced = 0.0
    passes = requests = 0
    stream = wl.stream()
    deadline = time.perf_counter() + seconds
    while passes == 0 or time.perf_counter() < deadline:
        for _ in range(wl.deck_length()):
            spec, inputs = next(stream)
            tracer.request = requests
            try:
                u, t, outputs = wl.trace_request(inputs, tracer, requests % 2 == 0)
            except Exception as exc:
                failures.append(f"{spec}: {type(exc).__name__}: {exc}")
                outputs = []
            else:
                untraced += u
                traced += t
            for output in outputs:
                err = safe_check(wl, spec, inputs, output)
                if err:
                    failures.append(err)
            del inputs, outputs
            requests += 1
        passes += 1
    layer = dict(IMPORT)
    layer.update(wl.cli_layer_metrics(passes))
    layer.update(tracer.layer_metrics(passes))
    layer["trace.overhead_ratio"] = traced / untraced if untraced else 0.0
    spans = os.path.join(os.path.dirname(ARGS.tmpdir),
                         f"spans_{ARGS.workload}_seed{ARGS.seed}.json")
    tracer.write_spans(spans)
    return {"requests": requests, "failures": failures, "metrics": layer, "passes": passes,
            "spans_file": os.path.basename(spans), "spans_kept": len(tracer.span_name),
            "spans_dropped": tracer.spans_dropped}


def main() -> int:
    src = os.path.realpath(ARGS.src)
    if not os.path.realpath(polyslip.__file__).startswith(src + os.sep):
        print(f"polyslip imported from {polyslip.__file__}, not from {src}", file=sys.stderr)
        return 2
    wl = WORKLOADS[ARGS.workload](ARGS.seed, ARGS.tmpdir)
    spec = wl.warmup_spec()
    inputs = wl.make(spec)
    err = safe_check(wl, spec, inputs, wl.execute(inputs))
    print("READY " + json.dumps({"warmup_error": err, "calibration_ms": hostspeed.calibrate()}),
          flush=True)
    if ARGS.probe:
        return 0
    if ARGS.trace:
        result = traced_loop(wl, ARGS.seconds)
    else:
        result = timed_loop(wl, ARGS.seconds)
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["metrics"]["peak_rss_mb"] = (own + children) / 1024.0
    if isinstance(wl, CliSession):
        result["known_defects"] = wl.probe_known_defects()
    result["warmup_error"] = err
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
