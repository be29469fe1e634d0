"""Command-line front-end: simulate, fit, forecast, classify, correlate, plot.

Exit codes: 0 on success, 1 on domain errors (the stderr line names the
library error class), 2 on usage errors, including argument values that
the library rejects (e.g. a negative forecast horizon).  Output files are
written to a temporary name and renamed, so a failing run never leaves a
partial file.
Data outputs carry no timestamps; `fit --timestamp` opts into a created-at
metadata entry.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .analysis import classify_regime, correlate
from .dataio import (
    ModelDocument,
    decode_model_document,
    encode_model_document,
    format_number,
    load_timeseries_csv,
    write_forecast_csv,
    write_timeseries_csv,
)
from .errors import RetrofluxError
from .fitting import FitOptions, fit, forecast
from .integrator import integrate
from .model import discriminant, eval_solution
from .series import TimeSeries
from .svgplot import PlotSeries, PlotSpec, render_lineplot

_DEFAULTS = FitOptions()


def _write_atomic(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".retroflux-tmp-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_document(path: str) -> ModelDocument:
    with open(path, "rb") as handle:
        return decode_model_document(handle.read())


def _read_series(path: str) -> TimeSeries:
    with open(path, "rb") as handle:
        return load_timeseries_csv(handle.read())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="retroflux",
        description="Time-reversed influence growth model tools.",
    )
    parser.add_argument("--version", action="version", version=f"retroflux {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate the model on [-T, T] to a CSV")
    p.add_argument("--model", required=True, help="model document (JSON)")
    p.add_argument("--T", type=float, required=True, help="horizon, integrates [-T, T]")
    p.add_argument("--h", type=float, required=True, help="integration step")
    p.add_argument("--out", required=True, help="output trajectory CSV")

    p = sub.add_parser("fit", help="fit (a, b, c) to an observed series")
    p.add_argument("--data", required=True, help="input t,value CSV")
    p.add_argument("--out", required=True, help="output model document (JSON)")
    p.add_argument("--seed", help="optional model document used as the starting point")
    p.add_argument(
        "--max-iterations", type=int, default=_DEFAULTS.max_iterations,
        help=f"iteration cap (default {_DEFAULTS.max_iterations})",
    )
    p.add_argument(
        "--gradient-tolerance", type=float, default=_DEFAULTS.gradient_tolerance,
        help=f"gradient stop (default {_DEFAULTS.gradient_tolerance})",
    )
    p.add_argument(
        "--step-tolerance", type=float, default=_DEFAULTS.step_tolerance,
        help="stop when the undamped Gauss-Newton step in s is below this, "
        "relative to 1+|s|, or cuts the rss by less than this, relative "
        f"(default {_DEFAULTS.step_tolerance})",
    )
    p.add_argument(
        "--initial-damping", type=float, default=_DEFAULTS.initial_damping,
        help=f"initial damping (default {_DEFAULTS.initial_damping})",
    )
    p.add_argument(
        "--timestamp", action="store_true",
        help="record a created-at entry in the document metadata",
    )

    p = sub.add_parser(
        "forecast", help="project influence and its rate to a t,value,rate CSV"
    )
    p.add_argument("--model", required=True)
    p.add_argument("--from", dest="from_t", type=float, required=True,
                   help="forecast anchor time")
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("classify", help="print the growth regime and discriminant")
    p.add_argument("--model", required=True)

    p = sub.add_parser("correlate", help="least-squares line between two series")
    p.add_argument("--x", required=True, help="regressor CSV (e.g. editor citations)")
    p.add_argument("--y", required=True, help="response CSV (e.g. influence)")

    p = sub.add_parser("plot", help="render a series (optionally with a model overlay)")
    p.add_argument("--data", required=True)
    p.add_argument("--model", help="overlay this model's closed-form curve")
    p.add_argument("--out", required=True, help="output SVG path")
    p.add_argument("--title", default="influence over time")
    return parser


def _cmd_simulate(args) -> int:
    document = _read_document(args.model)
    trajectory = integrate(document.params, document.forcing, args.T, args.h)
    series = TimeSeries(trajectory.times(), trajectory.values)
    _write_atomic(args.out, write_timeseries_csv(series))
    print(
        f"wrote {len(series)} samples on [{format_number(-args.T)}, "
        f"{format_number(args.T)}] to {args.out}"
    )
    return 0


def _cmd_fit(args) -> int:
    series = _read_series(args.data)
    seed = _read_document(args.seed).params if args.seed else None
    options = FitOptions(
        max_iterations=args.max_iterations,
        gradient_tolerance=args.gradient_tolerance,
        step_tolerance=args.step_tolerance,
        initial_damping=args.initial_damping,
    )
    result = fit(series, seed=seed, options=options)
    regime = classify_regime(result.params)
    metadata = {
        "rss": format_number(result.rss),
        "iterations": str(result.iterations),
        "converged": "true" if result.converged else "false",
        "regime": regime.value,
        "seed": "a={} b={} c={}".format(
            format_number(result.seed.a),
            format_number(result.seed.b),
            format_number(result.seed.c),
        ),
    }
    if result.message:
        metadata["note"] = result.message
    if args.timestamp:
        metadata["created-at"] = datetime.now(timezone.utc).isoformat()
    if not result.converged:
        print(
            f"NotConverged: no tolerance met within {result.iterations} "
            f"iterations (best rss={result.rss:.6g})",
            file=sys.stderr,
        )
        return 1
    _write_atomic(
        args.out,
        encode_model_document(
            ModelDocument(params=result.params, metadata=metadata)
        ).encode("utf-8"),
    )
    for key in ("a", "b", "c"):
        print(f"{key}={format_number(getattr(result.params, key))}")
    print(f"rss={format_number(result.rss)}")
    print(f"iterations={result.iterations}")
    print(f"converged={metadata['converged']}")
    print(f"regime={regime.value}")
    return 0


def _cmd_forecast(args) -> int:
    document = _read_document(args.model)
    influence, rate = forecast(document.params, args.from_t, args.horizon, args.step)
    _write_atomic(args.out, write_forecast_csv(influence, rate))
    print(f"wrote {len(influence)} forecast rows to {args.out}")
    return 0


def _cmd_classify(args) -> int:
    document = _read_document(args.model)
    d = discriminant(document.params)
    regime = classify_regime(document.params)
    print(f"{regime.value} s={d.s:.12g} rate={d.rate:.12g}")
    return 0


def _cmd_correlate(args) -> int:
    result = correlate(_read_series(args.x), _read_series(args.y))
    print(
        f"slope={result.slope:.12g} intercept={result.intercept:.12g} "
        f"pearson={result.pearson:.12g} n={result.n}"
    )
    return 0


def _cmd_plot(args) -> int:
    series = _read_series(args.data)
    entries: list[PlotSeries] = []
    if args.model:
        document = _read_document(args.model)
        lo, hi = float(series.times[0]), float(series.times[-1])
        grid = np.linspace(lo, hi, 201 if hi > lo else 1)
        entries.append(PlotSeries(label="observed", data=series, style="scatter"))
        entries.append(
            PlotSeries(
                label="model",
                data=TimeSeries(grid, eval_solution(document.params, grid)),
                style="line",
            )
        )
    else:
        entries.append(PlotSeries(label="observed", data=series, style="line"))
    spec = PlotSpec(
        title=args.title,
        x_label="time",
        y_label="influence",
        series=tuple(entries),
    )
    _write_atomic(args.out, render_lineplot(spec).encode("utf-8"))
    print(f"wrote figure to {args.out}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "forecast": _cmd_forecast,
    "classify": _cmd_classify,
    "correlate": _cmd_correlate,
    "plot": _cmd_plot,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (RetrofluxError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # an argument value the library rejects
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
