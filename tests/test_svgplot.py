"""SVG rendering: structure, determinism, and coordinate fidelity."""

import re
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import retroflux as rf

SVG_NS = "{http://www.w3.org/2000/svg}"


def spec_of(series, title="test figure"):
    return rf.PlotSpec(
        title=title, x_label="time", y_label="influence", series=tuple(series)
    )


def parse(svg_text):
    return ET.fromstring(svg_text)


def axis_transform(root):
    """Inverse of the emitted pixel mapping, read from the data attributes."""
    x_lo = float(root.get("data-x-min"))
    x_hi = float(root.get("data-x-max"))
    y_lo = float(root.get("data-y-min"))
    y_hi = float(root.get("data-y-max"))
    left = float(root.get("data-plot-left"))
    right = float(root.get("data-plot-right"))
    top = float(root.get("data-plot-top"))
    bottom = float(root.get("data-plot-bottom"))

    def invert(px, py):
        x = x_lo + (px - left) * (x_hi - x_lo) / (right - left)
        y = y_lo + (bottom - py) * (y_hi - y_lo) / (bottom - top)
        return x, y

    def forward(x, y):
        px = left + (x - x_lo) * (right - left) / (x_hi - x_lo)
        py = bottom - (y - y_lo) * (bottom - top) / (y_hi - y_lo)
        return px, py

    return invert, forward


def _reference_series_lines(spec, svg):
    """The series elements as the per-point renderer wrote them."""
    _, forward = axis_transform(parse(svg))
    lines = []
    for index, entry in enumerate(spec.series):
        color = rf.svgplot._PALETTE[index % len(rf.svgplot._PALETTE)]
        data = entry.data
        t = data.times() if isinstance(data, rf.Trajectory) else data.times
        pixels = [forward(ti, vi) for ti, vi in zip(t.tolist(), data.values.tolist())]
        if entry.style == "scatter":
            dots = "".join(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.5"/>' for x, y in pixels)
            lines.append(f'<g class="series" fill="{color}">{dots}</g>')
        else:
            points = " ".join(f"{x:.2f},{y:.2f}" for x, y in pixels)
            lines.append(
                f'<polyline class="series" fill="none" stroke="{color}" '
                f'stroke-width="1.5" points="{points}"/>'
            )
    return lines


class TestLineplot:
    def test_single_series_single_polyline(self):
        svg = rf.render_lineplot(
            spec_of([rf.PlotSeries("s", rf.TimeSeries([0.0, 1.0], [0.0, 1.0]))])
        )
        root = parse(svg)
        polylines = root.findall(f"{SVG_NS}polyline")
        assert len(polylines) == 1
        assert len(polylines[0].get("points").split()) == 2

    def test_two_series_distinct_colors_and_legend(self):
        svg = rf.render_lineplot(
            spec_of(
                [
                    rf.PlotSeries("first", rf.TimeSeries([0.0, 1.0], [0.0, 1.0])),
                    rf.PlotSeries("second", rf.TimeSeries([0.0, 1.0], [1.0, 0.0])),
                ]
            )
        )
        root = parse(svg)
        strokes = [p.get("stroke") for p in root.findall(f"{SVG_NS}polyline")]
        assert len(strokes) == 2 and strokes[0] != strokes[1]
        legend = [g for g in root.findall(f"{SVG_NS}g") if g.get("class") == "legend"]
        assert len(legend) == 2
        labels = [g.find(f"{SVG_NS}text").text for g in legend]
        assert labels == ["first", "second"]

    def test_empty_spec_rejected(self):
        with pytest.raises(rf.EmptySeriesError):
            rf.render_lineplot(spec_of([]))

    def test_deterministic(self):
        series = [
            rf.PlotSeries("data", rf.TimeSeries([0.0, 0.5, 1.0], [1.0, 3.0, 2.0]))
        ]
        assert rf.render_lineplot(spec_of(series)) == rf.render_lineplot(
            spec_of(series)
        )

    def test_well_formed_svg_11(self):
        svg = rf.render_lineplot(
            spec_of([rf.PlotSeries("s", rf.TimeSeries([0.0, 1.0], [2.0, 3.0]))])
        )
        root = parse(svg)  # raises on malformed XML
        assert root.tag == f"{SVG_NS}svg"
        assert root.get("version") == "1.1"

    def test_label_escaping(self):
        svg = rf.render_lineplot(
            spec_of(
                [rf.PlotSeries("a<b&\"c\"", rf.TimeSeries([0.0, 1.0], [0.0, 1.0]))],
                title="x < y & z",
            )
        )
        parse(svg)
        assert "x &lt; y &amp; z" in svg

    def test_line_coordinate_fidelity(self):
        rng = np.random.default_rng(20260809)
        t = np.sort(rng.uniform(-3, 7, size=25))
        t = np.unique(t)
        v = rng.normal(2.0, 5.0, size=t.size)
        svg = rf.render_lineplot(
            spec_of([rf.PlotSeries("data", rf.TimeSeries(t, v))])
        )
        root = parse(svg)
        invert, forward = axis_transform(root)
        points = root.find(f"{SVG_NS}polyline").get("points").split()
        assert len(points) == t.size
        for raw, ti, vi in zip(points, t.tolist(), v.tolist()):
            px, py = (float(part) for part in raw.split(","))
            ex, ey = forward(ti, vi)
            assert abs(px - ex) <= 0.5 and abs(py - ey) <= 0.5
            x, y = invert(px, py)
            rex, rey = forward(x, y)
            assert abs(rex - ex) <= 0.5 and abs(rey - ey) <= 0.5

    def test_scatter_coordinate_fidelity(self):
        t = np.array([0.0, 1.0, 2.0, 3.0])
        v = np.array([5.0, -1.0, 0.5, 2.0])
        svg = rf.render_lineplot(
            spec_of([rf.PlotSeries("pts", rf.TimeSeries(t, v), style="scatter")])
        )
        root = parse(svg)
        invert, forward = axis_transform(root)
        group = [g for g in root.findall(f"{SVG_NS}g") if g.get("class") == "series"]
        assert len(group) == 1
        circles = group[0].findall(f"{SVG_NS}circle")
        assert len(circles) == 4
        for circle, ti, vi in zip(circles, t.tolist(), v.tolist()):
            ex, ey = forward(ti, vi)
            assert abs(float(circle.get("cx")) - ex) <= 0.5
            assert abs(float(circle.get("cy")) - ey) <= 0.5

    def test_series_match_per_point_renderer(self):
        rng = np.random.default_rng(20260810)
        for case in range(40):
            entries = []
            for k in range(1 + case % 3):
                t = np.unique(rng.normal(0, 10.0 ** rng.integers(-3, 4), size=200))
                v = rng.normal(size=t.size) * 10.0 ** rng.integers(-300, 300)
                style = "scatter" if (case + k) % 2 else "line"
                entries.append(rf.PlotSeries(f"s{k}", rf.TimeSeries(t, v), style))
            if case % 5 == 0:
                traj = rf.integrate(rf.ModelParams(0.5, 0.2, 1.0), None, 1.0, 0.1)
                entries.append(rf.PlotSeries("traj", traj))
            spec = spec_of(entries)
            svg = rf.render_lineplot(spec)
            series = [line for line in svg.split("\n") if 'class="series"' in line]
            assert series == _reference_series_lines(spec, svg)

    def test_unrepresentable_pixels_are_named_error(self):
        for values in ([-1e308, 0.0, 1e308], [1.7e308, 1.7e308], [0.0, 4.2e305]):
            # the last spans finite pixels for the data, but not for the top tick
            series = rf.TimeSeries(np.arange(len(values), dtype=float), values)
            with pytest.raises(rf.SolutionOverflowError, match="finite pixels"):
                rf.render_lineplot(spec_of([rf.PlotSeries("big", series)]))
        wide = rf.TimeSeries([-1e308, 0.0, 1e308], [0.0, 1.0, 2.0])
        with pytest.raises(rf.SolutionOverflowError):
            rf.render_lineplot(spec_of([rf.PlotSeries("wide", wide, "scatter")]))

    def test_trajectory_input(self):
        traj = rf.integrate(rf.ModelParams(0.5, 0.2, 1.0), None, 1.0, 0.1)
        svg = rf.render_lineplot(spec_of([rf.PlotSeries("traj", traj)]))
        root = parse(svg)
        points = root.find(f"{SVG_NS}polyline").get("points").split()
        assert len(points) == len(traj)


class TestSweep:
    def test_two_exponential_curves(self):
        base = rf.ModelParams(2, -1, 1)
        grid = [rf.ModelParams(2, -1, 1), rf.ModelParams(-2, 1, 1)]
        svg = rf.render_sweep(base, "w1_w2_signs", grid, T=2.0, step=0.01)
        root = parse(svg)
        polylines = root.findall(f"{SVG_NS}polyline")
        assert len(polylines) == 2
        labels = " ".join(
            g.find(f"{SVG_NS}text").text
            for g in root.findall(f"{SVG_NS}g")
            if g.get("class") == "legend"
        )
        assert "w1=" in labels and "w2=" in labels

    def test_rate_labels(self):
        grid = [rf.ModelParams(2, 1, 1)]
        svg = rf.render_sweep(rf.ModelParams(2, 1, 1), "rate", grid, 1.0, 0.1)
        assert "rate=" in svg

    def test_linear_regime_label_falls_back(self):
        grid = [rf.ModelParams(1, 1, 1)]
        svg = rf.render_sweep(rf.ModelParams(1, 1, 1), "w1_w2_signs", grid, 1.0, 0.1)
        assert re.search(r"a=1, b=1", svg)

    def test_empty_grid(self):
        with pytest.raises(rf.EmptyGridError):
            rf.render_sweep(rf.ModelParams(1, 0, 1), "rate", [], 1.0, 0.1)

    def test_deterministic(self):
        grid = [rf.ModelParams(2, -1, 1)]
        one = rf.render_sweep(rf.ModelParams(2, -1, 1), "rate", grid, 2.0, 0.05)
        two = rf.render_sweep(rf.ModelParams(2, -1, 1), "rate", grid, 2.0, 0.05)
        assert one == two

    def test_overflow_propagates(self):
        grid = [rf.ModelParams(5, 3, 2)]
        with pytest.raises(rf.SolutionOverflowError):
            rf.render_sweep(rf.ModelParams(5, 3, 2), "rate", grid, 400.0, 1.0)

    def test_point_count_capped_before_allocation(self):
        base = rf.ModelParams(0.3, 0.8, 1)
        with pytest.raises(rf.InvalidStepError, match="exceeds the limit"):
            rf.render_sweep(base, "rate", [base], 1e308, 1e-308)
        tracemalloc.start()
        try:
            with pytest.raises(rf.InvalidStepError, match="exceeds the limit"):
                rf.render_sweep(base, "rate", [base], 1e8, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_value_beyond_the_doubles_is_named(self):
        base = rf.ModelParams(1, 0, 1e10)
        with pytest.raises(rf.SolutionOverflowError, match="p\\(t\\)"):
            rf.render_sweep(base, "rate", [base], 700.0, 100.0)
