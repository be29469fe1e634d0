"""Dependency-free SVG line and scatter plots.

Documents are built by direct string construction against a fixed template,
so identical inputs yield byte-identical output and golden tests stay stable.
The root element carries the axis transform as ``data-*`` attributes
(padded data bounds plus the plot rectangle in pixels), which lets tests
inverse-map any rendered coordinate back to its data value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .errors import (
    EmptyGridError,
    EmptySeriesError,
    NotExponentialError,
    SolutionOverflowError,
)
from .integrator import Trajectory, sample_grid
from .model import ModelParams, discriminant, eval_solution, solution_coefficients
from .series import TimeSeries

__all__ = ["PlotSeries", "PlotSpec", "render_lineplot", "render_sweep"]

_PALETTE = [
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#ff7f0e",
    "#9467bd",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
]

_MARGIN_LEFT = 62
_MARGIN_RIGHT = 16
_MARGIN_TOP = 34
_MARGIN_BOTTOM = 46
_TICKS = 5


@dataclass(frozen=True)
class PlotSeries:
    """One plotted series: a label, its data, and a draw style."""

    label: str
    data: TimeSeries | Trajectory
    style: Literal["line", "scatter"] = "line"


@dataclass(frozen=True)
class PlotSpec:
    """Declarative description of a figure."""

    title: str
    x_label: str
    y_label: str
    series: tuple[PlotSeries, ...]
    width: int = 720
    height: int = 480

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("width and height must be positive pixel counts")
        object.__setattr__(self, "series", tuple(self.series))


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _xy(data: TimeSeries | Trajectory) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(data, Trajectory):
        return data.times(), data.values
    return data.times, data.values


def _padded(lo: float, hi: float) -> tuple[float, float]:
    span = hi - lo
    if span <= 0.0:
        pad = 0.5 * max(1.0, abs(lo))
        return lo - pad, hi + pad
    return lo - 0.05 * span, hi + 0.05 * span


def render_lineplot(spec: PlotSpec) -> str:
    """Render the spec to a standalone SVG 1.1 document (UTF-8 text).

    Raises SolutionOverflowError when the padded data bounds or their pixel
    coordinates are not finite doubles.
    """
    if not spec.series:
        raise EmptySeriesError("plot spec contains no series")
    data = [_xy(entry.data) for entry in spec.series]

    x_lo, x_hi = _padded(
        min(float(t.min()) for t, _ in data), max(float(t.max()) for t, _ in data)
    )
    y_lo, y_hi = _padded(
        min(float(v.min()) for _, v in data), max(float(v.max()) for _, v in data)
    )
    left, right = _MARGIN_LEFT, spec.width - _MARGIN_RIGHT
    top, bottom = _MARGIN_TOP, spec.height - _MARGIN_BOTTOM

    def px(x):
        return left + (x - x_lo) * (right - left) / (x_hi - x_lo)

    def py(y):
        return bottom - (y - y_lo) * (bottom - top) / (y_hi - y_lo)

    # px and py are monotone, so every data and tick pixel lies between
    # those of the padded bounds: px(x_lo) = left, py(y_lo) = bottom
    if not all(map(math.isfinite, (x_lo, x_hi, y_lo, y_hi, px(x_hi), py(y_hi)))):
        raise SolutionOverflowError(
            f"plot bounds x [{x_lo!r}, {x_hi!r}], y [{y_lo!r}, {y_hi!r}] "
            "do not map to finite pixels"
        )

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{spec.width}" height="{spec.height}" '
        f'viewBox="0 0 {spec.width} {spec.height}" '
        f'data-x-min="{x_lo!r}" data-x-max="{x_hi!r}" '
        f'data-y-min="{y_lo!r}" data-y-max="{y_hi!r}" '
        f'data-plot-left="{left}" data-plot-right="{right}" '
        f'data-plot-top="{top}" data-plot-bottom="{bottom}">',
        f'<rect x="0" y="0" width="{spec.width}" height="{spec.height}" fill="#ffffff"/>',
        f'<text x="{spec.width / 2:.2f}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{_escape(spec.title)}</text>',
    ]

    # frame and ticks
    out.append(
        f'<rect x="{left}" y="{top}" width="{right - left}" '
        f'height="{bottom - top}" fill="none" stroke="#000000" stroke-width="1"/>'
    )
    for i in range(_TICKS):
        frac = i / (_TICKS - 1)
        xv = x_lo + frac * (x_hi - x_lo)
        xp = px(xv)
        out.append(
            f'<line x1="{xp:.2f}" y1="{bottom}" x2="{xp:.2f}" y2="{bottom + 5}" '
            f'stroke="#000000" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{xp:.2f}" y="{bottom + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{xv:.6g}</text>'
        )
        yv = y_lo + frac * (y_hi - y_lo)
        yp = py(yv)
        out.append(
            f'<line x1="{left - 5}" y1="{yp:.2f}" x2="{left}" y2="{yp:.2f}" '
            f'stroke="#000000" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{left - 8}" y="{yp + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{yv:.6g}</text>'
        )
    out.append(
        f'<text x="{(left + right) / 2:.2f}" y="{spec.height - 10}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12">'
        f"{_escape(spec.x_label)}</text>"
    )
    mid_y = (top + bottom) / 2
    out.append(
        f'<text x="14" y="{mid_y:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 14 {mid_y:.2f})">{_escape(spec.y_label)}</text>'
    )

    for index, (entry, (t, v)) in enumerate(zip(spec.series, data)):
        color = _PALETTE[index % len(_PALETTE)]
        xs, ys = px(t).tolist(), py(v).tolist()
        if entry.style == "scatter":
            circle = '<circle cx="{:.2f}" cy="{:.2f}" r="2.5"/>'.format
            dots = "".join(map(circle, xs, ys))
            out.append(f'<g class="series" fill="{color}">{dots}</g>')
        else:
            points = " ".join(map("{:.2f},{:.2f}".format, xs, ys))
            out.append(
                f'<polyline class="series" fill="none" stroke="{color}" '
                f'stroke-width="1.5" points="{points}"/>'
            )

    legend_x = left + 10
    for index, entry in enumerate(spec.series):
        color = _PALETTE[index % len(_PALETTE)]
        ly = top + 14 + 16 * index
        out.append(
            f'<g class="legend"><line x1="{legend_x}" y1="{ly}" '
            f'x2="{legend_x + 18}" y2="{ly}" stroke="{color}" stroke-width="2"/>'
            f'<text x="{legend_x + 24}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="11">{_escape(entry.label)}</text></g>'
        )
    out.append("</svg>")
    return "\n".join(out)


def _sweep_label(params: ModelParams, vary: str) -> str:
    if vary == "rate":
        return f"rate={discriminant(params).rate:.3g}"
    try:
        coeffs = solution_coefficients(params)
        return f"w1={coeffs.w1:.3g}, w2={coeffs.w2:.3g}"
    except NotExponentialError:
        return f"a={params.a:.3g}, b={params.b:.3g}"


def render_sweep(
    base: ModelParams,
    vary: Literal["w1_w2_signs", "rate"],
    grid: Sequence[ModelParams],
    T: float,
    step: float,
) -> str:
    """One closed-form curve per grid entry, sampled on [0, T] at `step`
    (T/step above MAX_STEPS raises InvalidStepError).

    `base` only anchors the title; the curves come from the grid entries and
    are labeled by their (w1, w2) pair (falling back to (a, b) outside the
    exponential regime) or by their rate, depending on `vary`.
    """
    if vary not in ("w1_w2_signs", "rate"):
        raise ValueError(f"unknown vary mode {vary!r}")
    if not grid:
        raise EmptyGridError("sweep grid is empty")
    if not (math.isfinite(T) and T > 0 and math.isfinite(step) and step > 0):
        raise ValueError("T and step must be positive")
    times = sample_grid(0.0, T, step)
    series = tuple(
        PlotSeries(
            label=_sweep_label(params, vary),
            data=TimeSeries(times, eval_solution(params, times)),
        )
        for params in grid
    )
    spec = PlotSpec(
        title=f"influence sweep around a={base.a:.3g}, b={base.b:.3g}, c={base.c:.3g}",
        x_label="time",
        y_label="influence",
        series=series,
    )
    return render_lineplot(spec)
