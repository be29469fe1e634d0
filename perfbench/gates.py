"""Oracle gates: each takes a program output and raises GateError if it is wrong.

The oracles are independent of the code path under test: the closed form
and the influence identity for trajectories and forecasts, the truth's
residual for fits, and a separate parser and formatter for CSV files.  The
library functions used here are bound when this module is imported, before
any tracing wrapper is installed, so gate work never shows up in a trace.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET

import numpy as np

from retroflux.integrator import eval_forcing
from retroflux.model import eval_solution, fde_residual

# Measured at the seed commit on the benchmark's inputs, relative to the
# trajectory scale: closed-form error <= 3e-13, unforced defects <= 2e-11,
# forced defects <= 2e-9 (the tabulated eta's kinks).  The bounds leave at
# least 50x headroom and still reject one sample perturbed by 1e-6 of its
# value.
CLOSED_FORM_TOL = 1e-10
DEFECT_TOL = 1e-7
RATE_TOL = 1e-9
SUMMARY_TOL = 1e-9


class GateError(Exception):
    """An output failed its oracle."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise GateError(message)


def check_grid(trajectory, T: float, samples: int) -> None:
    _require(len(trajectory) == samples, f"expected {samples} samples, got {len(trajectory)}")
    _require(trajectory.t0 == -T, f"grid starts at {trajectory.t0!r}, not {-T!r}")
    _require(abs(trajectory.h * (samples - 1) - 2 * T) <= 1e-12 * T, "grid does not end at T")


def check_closed_form(params, trajectory) -> None:
    """Unforced trajectory against p(t) = c V + (a+b) c U and the equation."""
    exact = eval_solution(params, trajectory.times())
    scale = 1.0 + float(np.max(np.abs(exact)))
    err = float(np.max(np.abs(trajectory.values - exact))) / scale
    _require(err <= CLOSED_FORM_TOL, f"closed-form error {err:.3g} > {CLOSED_FORM_TOL}")
    defect = fde_residual(params, trajectory) / scale
    _require(defect <= DEFECT_TOL, f"fde_residual {defect:.3g} > {DEFECT_TOL}")


def check_forced_defect(params, forcing, trajectory) -> None:
    """Central-difference defect against a p(t) + b p(-t) + eval_forcing(t)."""
    v = trajectory.values
    t = trajectory.times()
    scale = 1.0 + float(np.max(np.abs(v)))
    centered = (v[2:] - v[:-2]) / (2.0 * trajectory.h)
    rhs = params.a * v[1:-1] + params.b * v[::-1][1:-1] + eval_forcing(forcing, t[1:-1])
    defect = float(np.max(np.abs(centered - rhs))) / scale
    _require(defect <= DEFECT_TOL, f"forced defect {defect:.3g} > {DEFECT_TOL}")


def rss_slack(values: np.ndarray) -> float:
    """Rounding slack for comparing two residual sums on the same data."""
    return 1e-12 * (1.0 + float(values @ values))


def check_fit_rss(fit_rss: float, truth_rss: float, values: np.ndarray) -> None:
    """The fit must do at least as well as the true parameters."""
    limit = truth_rss + rss_slack(values)
    _require(math.isfinite(fit_rss), f"fit rss is {fit_rss!r}")
    _require(fit_rss <= limit, f"fit rss {fit_rss:.6g} > truth rss {truth_rss:.6g} + slack")


def rss_excess(params, times: np.ndarray, values: np.ndarray, truth_rss: float) -> float:
    """A fit's rss minus the truth's rss and the rounding slack: > 0 when the
    fit does worse than the true parameters on the same data."""
    r = values - eval_solution(params, times)
    return float(r @ r) - truth_rss - rss_slack(values)


def check_noisy_fits(excess: list[float]) -> None:
    """The median noisy fit does at least as well as the true parameters.

    This is the library's own criterion for noisy data, a median over an
    ensemble (tests/test_fitting.py, test_noisy_recovery_median): a single
    noisy fit of a steeply growing curve is ill-conditioned and may miss
    the optimum, so one miss is counted, not failed, while a fitter that
    misses on most of its noisy inputs fails the op."""
    _require(all(math.isfinite(x) for x in excess), "a noisy fit has a non-finite rss")
    median = float(np.median(excess))
    _require(median <= 0.0, f"median noisy fit rss exceeds the truth's by {median:.6g}")


def check_forecast(params, times, influence, rate) -> None:
    """Forecast values match the closed form and rates satisfy the equation."""
    times = np.asarray(times, dtype=float)
    p = eval_solution(params, times)
    p_mirror = eval_solution(params, -times)
    scale = 1.0 + np.abs(p)
    err = float(np.max(np.abs(np.asarray(influence) - p) / scale))
    _require(err <= RATE_TOL, f"forecast value error {err:.3g} > {RATE_TOL}")
    expected = params.a * p + params.b * p_mirror
    scale = 1.0 + np.abs(params.a * p) + np.abs(params.b * p_mirror)
    err = float(np.max(np.abs(np.asarray(rate) - expected) / scale))
    _require(err <= RATE_TOL, f"forecast rate defect {err:.3g} > {RATE_TOL}")


def format_number(value: float) -> str:
    """Shortest round-trip decimal, written from the CSV contract, not the library."""
    if value == 0.0:
        return "-0" if math.copysign(1.0, value) < 0 else "0"
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def parse_csv(data: bytes, header: str, rows: int) -> np.ndarray:
    """Parse a CSV with an exact round trip: every token is the canonical
    rendering of the double it parses to.  Returns a (rows, columns) array."""
    lines = data.decode("utf-8").split("\n")
    _require(lines[0] == header, f"header {lines[0]!r} != {header!r}")
    _require(lines[-1] == "", "CSV does not end with a newline")
    body = lines[1:-1]
    _require(len(body) == rows, f"expected {rows} rows, got {len(body)}")
    columns = header.count(",") + 1
    tokens = [line.split(",") for line in body]
    _require(all(len(row) == columns for row in tokens), "row with a wrong field count")
    flat = [token for row in tokens for token in row]
    try:
        values = list(map(float, flat))
    except ValueError as exc:
        raise GateError(f"non-numeric field: {exc}") from None
    _require(
        all(format_number(x) == token for x, token in zip(values, flat)),
        "a field is not the shortest round-trip rendering of its value",
    )
    return np.array(values).reshape(rows, columns)


def check_series_csv(data: bytes, trajectory) -> None:
    """A written trajectory CSV holds exactly the trajectory's doubles."""
    table = parse_csv(data, "t,value", len(trajectory))
    _require(np.array_equal(table[:, 0], trajectory.times()), "CSV times differ")
    _require(np.array_equal(table[:, 1], trajectory.values), "CSV values differ")


def check_exit_codes(codes: dict[str, int]) -> None:
    bad = {name: code for name, code in codes.items() if code != 0}
    _require(not bad, f"non-zero exit codes {bad}")


def key_values(stdout: str) -> dict[str, str]:
    """Parse a `key=value key=value` line, as `correlate` prints it."""
    return dict(item.split("=", 1) for item in stdout.split())


def check_svg(data: bytes, times: np.ndarray, values: np.ndarray, markers: int) -> None:
    """The figure parses, carries data-* bounds around the data, and draws
    one marker per observation."""
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise GateError(f"SVG does not parse: {exc}") from None
    _require(root.tag.endswith("svg"), f"root element is {root.tag!r}")
    try:
        bounds = {k: float(root.attrib[f"data-{k}"]) for k in ("x-min", "x-max", "y-min", "y-max")}
    except (KeyError, ValueError) as exc:
        raise GateError(f"missing or non-numeric data-* bound: {exc}") from None
    _require(bounds["x-min"] < times.min() and times.max() < bounds["x-max"], "x bounds miss the data")
    _require(bounds["y-min"] < values.min() and values.max() < bounds["y-max"], "y bounds miss the data")
    circles = sum(1 for el in root.iter() if el.tag.endswith("circle"))
    _require(circles == markers, f"expected {markers} markers, got {circles}")


def check_summary(rows, times: np.ndarray, values: np.ndarray, window: float, windows: int) -> None:
    """Window means and stddevs against a bincount group-by."""
    _require(len(rows) == windows, f"expected {windows} windows, got {len(rows)}")
    index = np.floor((times - times[0]) / window).astype(np.int64)
    counts = np.bincount(index)
    keep = counts > 0
    mean = np.bincount(index, values)[keep] / counts[keep]
    var = np.bincount(index, values * values)[keep] / counts[keep] - mean * mean
    got_mean = np.array([row.mean for row in rows])
    got_std = np.array([row.stddev for row in rows])
    scale = 1.0 + np.abs(values).max()
    _require(
        float(np.max(np.abs(got_mean - mean))) <= SUMMARY_TOL * scale, "window means differ"
    )
    _require(
        float(np.max(np.abs(got_std ** 2 - np.maximum(var, 0.0)))) <= SUMMARY_TOL * scale * scale,
        "window variances differ",
    )
