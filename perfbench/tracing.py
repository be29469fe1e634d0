"""Out-of-program tracer for the library's public functions.

``Tracer.install`` wraps each function in TARGETS where it is defined and
under every name another ``retroflux`` module imported it by (for example
``retroflux.cli.load_timeseries_csv`` and ``retroflux.fitting.eval_solution``),
so a call from one layer into another nests as a child span.  Spans are
kept in memory as (name, start, end, parent, op id, counts); a layer's self
time is its span minus its child spans.  Only calls made while ``op`` is set
are recorded, so gate and set-up work never appears.  Per-value helpers
such as ``format_number`` are not wrapped.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import gates


def _points(result, params, t, *rest):
    return {"points": int(np.size(t))}


def _integrate(result, *args):
    return {"steps": (len(result) - 1) // 2, "bytes": int(result.values.nbytes)}


def _forcing(result, forcing, t):
    # bytes computed from array sizes: the time array read, the values written
    return {"bytes": 2 * int(np.asarray(t, dtype=float).nbytes)}


def _fit(result, series, *args, **kwargs):
    return {"series": series, "result": result}


def _forecast(result, *args):
    return {"points": len(result[0])}


def _correlate(result, x, y):
    return {"pairs": result.n}


def _summary(result, series, window):
    return {"points": len(series), "windows": len(result)}


def _parse(result, data):
    return {"rows": len(result), "bytes": len(data)}


def _emit(result, series):
    return {"rows": len(series), "bytes": len(result)}


def _render(result, spec):
    return {"points": sum(len(s.data) for s in spec.series), "bytes": len(result.encode("utf-8"))}


_READ_FLAGS = ("--model", "--data", "--seed", "--x", "--y")


def _cli(result, argv):
    read = written = 0
    for flag, value in zip(argv, argv[1:]):
        if flag in _READ_FLAGS and os.path.exists(value):
            read += os.path.getsize(value)
        elif flag == "--out" and os.path.exists(value):
            written += os.path.getsize(value)
    return {"exit": result, "read": read, "written": written}


# module -> function -> (span name, counter called as counter(result, *args))
TARGETS = {
    "retroflux.model": {
        "eval_solution": ("model", _points),
        "eval_solution_derivative": ("model", _points),
    },
    "retroflux.integrator": {
        "integrate": ("integrator", _integrate),
        "eval_forcing": ("integrator.forcing", _forcing),
    },
    "retroflux.fitting": {
        "fit": ("fitting", _fit),
        "forecast": ("fitting.forecast", _forecast),
    },
    "retroflux.analysis": {
        "correlate": ("analysis.correlate", _correlate),
        "yearly_summary": ("analysis.summary", _summary),
        "classify_regime": ("analysis.classify", None),
    },
    "retroflux.dataio": {
        "load_timeseries_csv": ("dataio.parse", _parse),
        "write_timeseries_csv": ("dataio.emit", _emit),
        "decode_model_document": ("dataio.doc", None),
        "encode_model_document": ("dataio.doc", None),
    },
    "retroflux.svgplot": {
        "render_lineplot": ("svgplot.render", _render),
    },
    "retroflux.cli": {
        "main": ("cli", _cli),
    },
}


@dataclass
class Span:
    name: str
    parent: int
    op: int
    start: int = 0
    end: int = 0
    error: bool = False
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans around the wrapped functions while ``op`` is not None."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = Span(name, self._stack[-1] if self._stack else -1, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter_ns()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(result, *args, **kwargs)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "retroflux" or n.startswith("retroflux.")]
        for module_name, functions in TARGETS.items():
            module = sys.modules[module_name]
            for function_name, (span_name, counter) in functions.items():
                original = getattr(module, function_name)
                wrapper = self._wrap(span_name, original, counter)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, original))

    def write(self, path: str) -> None:
        """Write the spans as JSON lines, with their self time and numeric counts."""
        with open(path, "w") as handle:
            for span, own in zip(self.spans, self_times(self.spans)):
                record = {
                    "name": span.name, "op": span.op, "parent": span.parent,
                    "start_ns": span.start, "end_ns": span.end, "self_ns": own,
                    "error": span.error,
                    **{k: v for k, v in span.counts.items() if isinstance(v, (int, float))},
                }
                handle.write(json.dumps(record) + "\n")

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def self_times(spans: list[Span]) -> list[int]:
    """Span duration minus the time its direct children cover, in ns.

    The run is single-threaded, so children of one span never overlap."""
    child = [0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.end - span.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


# (name, unit) of every per-layer metric, in report order
LAYER_METRICS = [
    ("model.calls", "count"), ("model.points", "count"), ("model.self_ms", "ms"),
    ("model.ns_per_point", "ns"),
    ("integrator.calls", "count"), ("integrator.steps", "count"), ("integrator.self_ms", "ms"),
    ("integrator.ns_per_step", "ns"), ("integrator.forcing_self_ms", "ms"),
    ("integrator.bytes_computed", "B"),
    ("fitting.fits", "count"), ("fitting.self_ms", "ms"), ("fitting.ms_per_fit", "ms"),
    ("fitting.clean.ms_per_fit", "ms"), ("fitting.noisy.ms_per_fit", "ms"),
    ("fitting.iterations", "count"), ("fitting.accepted_steps", "count"),
    ("fitting.converged_ratio", "ratio"), ("fitting.seed_miss_ratio", "ratio"),
    ("fitting.above_truth_ratio", "ratio"),
    ("fitting.errors", "count"), ("fitting.forecast.self_ms", "ms"),
    ("analysis.correlate.self_ms", "ms"), ("analysis.correlate.pairs", "count"),
    ("analysis.summary.self_ms", "ms"), ("analysis.summary.points", "count"),
    ("analysis.summary.windows", "count"), ("analysis.classify.calls", "count"),
    ("dataio.parse.rows", "count"), ("dataio.parse.bytes", "B"), ("dataio.parse.self_ms", "ms"),
    ("dataio.parse.ns_per_row", "ns"), ("dataio.emit.rows", "count"), ("dataio.emit.bytes", "B"),
    ("dataio.emit.self_ms", "ms"), ("dataio.emit.ns_per_row", "ns"),
    ("dataio.doc.calls", "count"), ("dataio.doc.self_ms", "ms"),
    ("svgplot.render.calls", "count"), ("svgplot.render.points", "count"),
    ("svgplot.render.bytes", "B"), ("svgplot.render.self_ms", "ms"),
    ("cli.commands", "count"), ("cli.self_ms", "ms"), ("cli.nonzero_exits", "count"),
    ("cli.file_bytes_read", "B"), ("cli.file_bytes_written", "B"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: list[Span], ops: int, is_noisy, seed_parameters, truth_rss=lambda series: None
) -> dict[str, float]:
    """Per-layer metrics, each a mean per op over ``ops`` traced ops.

    ``is_noisy(series)`` labels a fit input; ``seed_parameters`` is the
    library's heuristic seed, called here, after timing, to find the fits
    whose returned seed is not the heuristic one.  ``truth_rss(series)`` is
    the rss of the parameters that made a fit input, or None if unknown.
    """
    own = self_times(spans)
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    sums: dict[str, float] = {}
    for span, ns in zip(spans, own):
        calls[span.name] = calls.get(span.name, 0) + 1
        self_ns[span.name] = self_ns.get(span.name, 0) + ns
        for key, value in span.counts.items():
            if isinstance(value, (int, float)):
                k = f"{span.name}:{key}"
                sums[k] = sums.get(k, 0) + value

    def per_op(value: float) -> float:
        return value / ops

    def ms(name: str) -> float:
        return per_op(self_ns.get(name, 0) / 1e6)

    def total(name: str, key: str) -> float:
        return sums.get(f"{name}:{key}", 0)

    fits = [s for s in spans if s.name == "fitting"]
    done = [s.counts["result"] for s in fits if not s.error]
    fit_ms = {"clean": [], "noisy": []}
    for s in fits:
        fit_ms["noisy" if is_noisy(s.counts.get("series")) else "clean"].append((s.end - s.start) / 1e6)
    misses = sum(
        1 for s in fits if not s.error and s.counts["result"].seed != seed_parameters(s.counts["series"])
    )
    judged = [
        (s.counts["series"], s.counts["result"], truth_rss(s.counts["series"]))
        for s in fits if not s.error
    ]
    judged = [(series, r, rss) for series, r, rss in judged if rss is not None]
    above = sum(
        1 for series, r, rss in judged
        if gates.rss_excess(r.params, series.times, series.values, rss) > 0.0
    )
    nonzero = sum(1 for s in spans if s.name == "cli" and (s.error or s.counts.get("exit") != 0))

    values = {
        "model.calls": per_op(calls.get("model", 0)),
        "model.points": per_op(total("model", "points")),
        "model.self_ms": ms("model"),
        "model.ns_per_point": _ratio(self_ns.get("model", 0), total("model", "points")),
        "integrator.calls": per_op(calls.get("integrator", 0)),
        "integrator.steps": per_op(total("integrator", "steps")),
        "integrator.self_ms": ms("integrator"),
        "integrator.ns_per_step": _ratio(self_ns.get("integrator", 0), total("integrator", "steps")),
        "integrator.forcing_self_ms": ms("integrator.forcing"),
        "integrator.bytes_computed": per_op(
            total("integrator", "bytes") + total("integrator.forcing", "bytes")
        ),
        "fitting.fits": per_op(len(fits)),
        "fitting.self_ms": ms("fitting"),
        "fitting.ms_per_fit": _ratio(sum(fit_ms["clean"]) + sum(fit_ms["noisy"]), len(fits)),
        "fitting.clean.ms_per_fit": _ratio(sum(fit_ms["clean"]), len(fit_ms["clean"])),
        "fitting.noisy.ms_per_fit": _ratio(sum(fit_ms["noisy"]), len(fit_ms["noisy"])),
        "fitting.iterations": per_op(sum(r.iterations for r in done)),
        "fitting.accepted_steps": per_op(sum(len(r.rss_history) - 1 for r in done)),
        "fitting.converged_ratio": _ratio(sum(1 for r in done if r.converged), len(done)),
        "fitting.seed_miss_ratio": _ratio(misses, len(done)),
        "fitting.above_truth_ratio": _ratio(above, len(judged)),
        "fitting.errors": per_op(len(fits) - len(done)),
        "fitting.forecast.self_ms": ms("fitting.forecast"),
        "analysis.correlate.self_ms": ms("analysis.correlate"),
        "analysis.correlate.pairs": per_op(total("analysis.correlate", "pairs")),
        "analysis.summary.self_ms": ms("analysis.summary"),
        "analysis.summary.points": per_op(total("analysis.summary", "points")),
        "analysis.summary.windows": per_op(total("analysis.summary", "windows")),
        "analysis.classify.calls": per_op(calls.get("analysis.classify", 0)),
        "dataio.parse.rows": per_op(total("dataio.parse", "rows")),
        "dataio.parse.bytes": per_op(total("dataio.parse", "bytes")),
        "dataio.parse.self_ms": ms("dataio.parse"),
        "dataio.parse.ns_per_row": _ratio(self_ns.get("dataio.parse", 0), total("dataio.parse", "rows")),
        "dataio.emit.rows": per_op(total("dataio.emit", "rows")),
        "dataio.emit.bytes": per_op(total("dataio.emit", "bytes")),
        "dataio.emit.self_ms": ms("dataio.emit"),
        "dataio.emit.ns_per_row": _ratio(self_ns.get("dataio.emit", 0), total("dataio.emit", "rows")),
        "dataio.doc.calls": per_op(calls.get("dataio.doc", 0)),
        "dataio.doc.self_ms": ms("dataio.doc"),
        "svgplot.render.calls": per_op(calls.get("svgplot.render", 0)),
        "svgplot.render.points": per_op(total("svgplot.render", "points")),
        "svgplot.render.bytes": per_op(total("svgplot.render", "bytes")),
        "svgplot.render.self_ms": ms("svgplot.render"),
        "cli.commands": per_op(calls.get("cli", 0)),
        "cli.self_ms": ms("cli"),
        "cli.nonzero_exits": per_op(nonzero),
        "cli.file_bytes_read": per_op(total("cli", "read")),
        "cli.file_bytes_written": per_op(total("cli", "written")),
    }
    return values
