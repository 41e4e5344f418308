"""Out-of-program tracing of polyslip's public functions.

``Tracer.active`` replaces each listed function with a timing wrapper in
every loaded ``polyslip`` module namespace that binds it, and each listed
method on its class, so calls made inside the library (``taylor_member ->
decompose``, ``outer_bound_perp -> analyze_boundary``) pass through the
wrappers too.  Self time is a span's duration minus the time covered by
its child spans, accumulated on a stack as calls return.  Spans are kept
in memory up to ``SPAN_CAP`` and written out once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from array import array

#: Spans beyond this many are counted in the totals but not stored.
SPAN_CAP = 200_000

# (layer, target, metric name).  ``target`` is a module-level function
# name or ``Class.method``; the metric name is ``<layer>.<name>``.
TRACED = (
    ("cli", "run", "run"),
    ("cli", "emit_lambda_plot", "emit_lambda_plot"),
    ("mat2", "decompose", "decompose"),
    ("mat2", "Mat2.__matmul__", "Mat2.matmul"),
    ("slip", "in_N", "in_N"),
    ("taylor", "taylor_member", "taylor_member"),
    ("taylor", "taylor_member_batch", "taylor_member_batch"),
    ("taylor", "normalize", "normalize"),
    ("taylor", "is_trivial", "is_trivial"),
    ("taylor", "in_lambda", "in_lambda"),
    ("random_textures", "estimate_trivial_probability", "estimate_trivial_probability"),
    ("svg", "SvgCanvas.render", "SvgCanvas.render"),
    ("compat", "nu_compatible", "nu_compatible"),
    ("compat", "find_connection", "find_connection"),
    ("compat", "laminate_split", "laminate_split"),
    ("geometry", "Polycrystal.__post_init__", "Polycrystal.init"),
    ("geometry", "analyze_boundary", "analyze_boundary"),
    ("geometry", "random_chord_disk", "random_chord_disk"),
    ("geometry", "boundary_samples", "boundary_samples"),
    ("geometry", "outer_bound_full_member", "outer_bound_full_member"),
    ("geometry", "compatible_with_normals", "compatible_with_normals"),
    ("shear_square", "build", "build"),
    ("shear_square", "verify", "verify"),
    ("shear_square", "mesh_dict", "mesh_dict"),
)

LAYERS = ("cli", "mat2", "slip", "taylor", "random_textures", "svg",
          "compat", "geometry", "shear_square")

# Work counts taken from a call's arguments or result: metric -> extractor.
_COUNTS = {
    "taylor.taylor_member_batch": ("taylor.taylor_member_batch.rows",
                                   lambda args, res: len(args[0])),
    "random_textures.estimate_trivial_probability": (
        "random_textures.estimate_trivial_probability.samples",
        lambda args, res: args[0].n_samples),
    "svg.SvgCanvas.render": ("svg.bytes", lambda args, res: len(res)),
    "geometry.boundary_samples": (
        "geometry.boundary_samples.normals",
        lambda args, res: sum(len(v) for v in res.normals.values())),
}

_E2E = {
    "import": "setup_s on every workload; req_p50_ms on cli_session",
    "cli_p50": "req_p50_ms on cli_session",
    "tail_inner": "req_tail_ms on inner_scan",
    "p50_inner": "req_p50_ms on inner_scan",
    "rps_inner": "throughput_rps on inner_scan",
    "p50_both": "req_p50_ms on inner_scan and outer_scan",
    "p50_outer": "req_p50_ms on outer_scan",
    "tail_outer": "req_tail_ms on outer_scan",
    "p50_exact": "req_p50_ms on exact_verify",
}

# (name, unit, better, which end-to-end metric it should move).
PER_LAYER = [
    ("import.polyslip_s", "s", "lower", _E2E["import"]),
    ("import.modules", "count", "lower", _E2E["import"]),
    ("import.scipy_loaded", "count", "lower", _E2E["import"]),
    ("cli.startup_ms", "ms", "lower", _E2E["cli_p50"]),
    ("cli.run_ms", "ms", "lower", _E2E["cli_p50"]),
    ("cli.stdout_bytes", "bytes", "lower",
     "guard: none; stdout is fixed by the CLI contract (cli_session)"),
    ("cli.emit_lambda_plot.calls", "count", "lower", _E2E["tail_inner"]),
    ("cli.emit_lambda_plot.self_s", "s", "lower", _E2E["tail_inner"]),
]


def _pair(metric: str, moves: str) -> list:
    return [(f"{metric}.calls", "count", "lower", moves),
            (f"{metric}.self_s", "s", "lower", moves)]


PER_LAYER += _pair("taylor.taylor_member", _E2E["p50_inner"])
PER_LAYER += _pair("taylor.taylor_member_batch", _E2E["rps_inner"])
PER_LAYER += [("taylor.taylor_member_batch.rows", "count", "lower", _E2E["rps_inner"])]
for _fn in ("normalize", "is_trivial", "in_lambda"):
    PER_LAYER += _pair(f"taylor.{_fn}", _E2E["tail_inner"])
PER_LAYER += _pair("random_textures.estimate_trivial_probability", _E2E["rps_inner"])
PER_LAYER += [("random_textures.estimate_trivial_probability.samples", "count", "lower",
               _E2E["rps_inner"])]
PER_LAYER += _pair("svg.SvgCanvas.render", _E2E["tail_inner"] + " and peak_rss_mb")
PER_LAYER += [("svg.bytes", "bytes", "lower", _E2E["tail_inner"] + " and peak_rss_mb")]
PER_LAYER += _pair("mat2.decompose", _E2E["p50_both"])
PER_LAYER += _pair("mat2.Mat2.matmul", _E2E["p50_exact"] + " and its throughput_rps")
PER_LAYER += _pair("slip.in_N", _E2E["p50_both"])
for _fn in ("nu_compatible", "find_connection", "laminate_split"):
    PER_LAYER += _pair(f"compat.{_fn}", _E2E["p50_outer"])
for _fn in ("Polycrystal.init", "analyze_boundary", "random_chord_disk"):
    PER_LAYER += _pair(f"geometry.{_fn}", _E2E["tail_outer"])
PER_LAYER += [
    ("geometry.random_chord_disk.draws", "count", "lower", _E2E["tail_outer"]),
    ("geometry.random_chord_disk.accept_ratio", "ratio", "higher", _E2E["tail_outer"]),
]
PER_LAYER += _pair("geometry.boundary_samples", _E2E["p50_outer"])
PER_LAYER += [("geometry.boundary_samples.normals", "count", "lower", _E2E["p50_outer"])]
for _fn in ("outer_bound_full_member", "compatible_with_normals"):
    PER_LAYER += _pair(f"geometry.{_fn}", _E2E["p50_outer"])
for _fn in ("build", "verify", "mesh_dict"):
    PER_LAYER += _pair(f"shear_square.{_fn}", _E2E["p50_exact"])
PER_LAYER += [(f"{layer}.errors", "count", "lower",
               "fail count of every workload that calls the layer") for layer in LAYERS]
PER_LAYER += [("trace.overhead_ratio", "ratio", "lower",
               "none; traced over untraced wall time of the same requests")]


class CountingGenerator:
    """Delegates to a ``numpy.random.Generator`` and counts ``uniform`` calls.

    ``random_chord_disk`` draws all chord heights in one ``uniform`` call
    per attempt and each texture angle in one scalar call per attempt, so
    the useful calls of one construction are ``1 + n_grains``.
    """

    def __init__(self, rng, tracer: "Tracer"):
        self._rng = rng
        self._tracer = tracer

    def uniform(self, *args, **kwargs):
        self._tracer.counts["geometry.random_chord_disk.draws"] += 1
        return self._rng.uniform(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class Tracer:
    """Span recorder for the wrapped functions of one process."""

    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.counts = {metric: 0 for metric, _ in _COUNTS.values()}
        self.counts["geometry.random_chord_disk.draws"] = 0
        self.counts["geometry.random_chord_disk.useful"] = 0
        self.errors = {layer: 0 for layer in LAYERS}
        self.request = 0
        self._stack: list[list[int]] = []  # [span index, start ns, child ns]
        # span columns: name id, parent span (-1 at top), start, end, request
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_request = array("q")
        self.spans_dropped = 0
        self._patches: list[tuple[object, str, object, object]] = []

    # -- installation -----------------------------------------------------

    def prepare(self) -> None:
        """Build one wrapper per function of ``TRACED``; call after import."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "polyslip" or name.startswith("polyslip."))]
        for layer, target, short in TRACED:
            home = sys.modules[f"polyslip.{layer}"]
            metric = f"{layer}.{short}"
            if "." in target:
                cls_name, attr = target.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                self._patches.append((cls, attr, original, self._wrap(original, metric, layer)))
                continue
            original = getattr(home, target)
            wrapper = self._wrap(original, metric, layer)
            for mod in modules:
                if mod.__dict__.get(target) is original:
                    self._patches.append((mod, target, original, wrapper))

    @contextlib.contextmanager
    def active(self):
        """Route calls through the wrappers in every namespace that binds them."""
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    def counting_rng(self, rng, n_grains: int) -> CountingGenerator:
        """Generator for one ``random_chord_disk(rng, n_grains)`` call."""
        self.counts["geometry.random_chord_disk.useful"] += 1 + n_grains
        return CountingGenerator(rng, self)

    def _wrap(self, fn, metric: str, layer: str):
        name_id = len(self.names)
        self.names.append(metric)
        self.calls.append(0)
        self.self_ns.append(0)
        count_spec = _COUNTS.get(metric)
        tracer = self
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = tracer._stack
            idx = tracer._open(name_id)
            frame = [idx, clock(), 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.errors[layer] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                tracer.self_ns[name_id] += dur - frame[2]
                tracer.calls[name_id] += 1
                if stack:
                    stack[-1][2] += dur
                if idx >= 0:
                    tracer.span_start[idx] = frame[1]
                    tracer.span_end[idx] = end
            if count_spec is not None:
                tracer.counts[count_spec[0]] += count_spec[1](args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", metric)
        return traced

    def _open(self, name_id: int) -> int:
        if len(self.span_name) >= SPAN_CAP:
            self.spans_dropped += 1
            return -1
        parent = self._stack[-1][0] if self._stack else -1
        self.span_name.append(name_id)
        self.span_parent.append(parent)
        self.span_start.append(0)
        self.span_end.append(0)
        self.span_request.append(self.request)
        return len(self.span_name) - 1

    # -- results ----------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict:
        """Per-pass means of the span totals and counters."""
        out = {}
        for i, metric in enumerate(self.names):
            if metric == "cli.run":
                continue
            out[f"{metric}.calls"] = self.calls[i] / passes
            out[f"{metric}.self_s"] = self.self_ns[i] / 1e9 / passes
        for metric, value in self.counts.items():
            if metric != "geometry.random_chord_disk.useful":
                out[metric] = value / passes
        draws = self.counts["geometry.random_chord_disk.draws"]
        out["geometry.random_chord_disk.accept_ratio"] = (
            self.counts["geometry.random_chord_disk.useful"] / draws if draws else 0.0)
        for layer, n in self.errors.items():
            out[f"{layer}.errors"] = n / passes
        return out

    def write_spans(self, path) -> None:
        """Write the kept spans as one JSON document."""
        doc = {
            "names": self.names,
            "columns": ["name", "parent", "start_ns", "end_ns", "request"],
            "dropped": self.spans_dropped,
            "spans": [list(row) for row in zip(self.span_name, self.span_parent,
                                               self.span_start, self.span_end,
                                               self.span_request)],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
