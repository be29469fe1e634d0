"""Command-line behavior: round trips, exit codes, determinism, atomic writes."""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import retroflux as rf
from retroflux.cli import main


def write_doc(path, a, b, c, extra=""):
    path.write_text('{"a": %r, "b": %r, "c": %r%s}\n' % (a, b, c, extra))


class TestClassify:
    def test_linear_prints_regime(self, tmp_path, capsys):
        doc = tmp_path / "m.doc"
        write_doc(doc, 1.0, 1.0, 1.0)
        assert main(["classify", "--model", str(doc)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Linear")
        assert "s=0" in out

    def test_oscillatory(self, tmp_path, capsys):
        doc = tmp_path / "m.doc"
        write_doc(doc, 0.0, 2.0, 1.0)
        assert main(["classify", "--model", str(doc)]) == 0
        assert "Oscillatory" in capsys.readouterr().out

    def test_missing_file_is_domain_error(self, tmp_path, capsys):
        assert main(["classify", "--model", str(tmp_path / "nope.doc")]) == 1
        assert "FileNotFoundError" in capsys.readouterr().err


class TestFitErrors:
    def test_too_few_points_maps_to_exit_1(self, tmp_path, capsys):
        data = tmp_path / "tiny.csv"
        data.write_bytes(b"t,value\n0,1\n1,2\n2,3\n")
        out = tmp_path / "fit.doc"
        assert main(["fit", "--data", str(data), "--out", str(out)]) == 1
        assert "TooFewPoints" in capsys.readouterr().err
        assert not out.exists()  # no partial writes

    def test_parse_error_maps_to_exit_1(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_bytes(b"t,value\n0,abc\n")
        out = tmp_path / "fit.doc"
        assert main(["fit", "--data", str(data), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "NonNumericFieldError" in err and "line 2" in err
        assert not out.exists()

    def test_usage_error_exit_2(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["fit", "--data", "x.csv"])  # --out missing
        assert info.value.code == 2
        with pytest.raises(SystemExit) as info:
            main(["fit", "--data", "x.csv", "--out", "y", "--bogus"])
        assert info.value.code == 2
        with pytest.raises(SystemExit) as info:
            main(["unknown-command"])
        assert info.value.code == 2


class TestArgumentValues:
    def test_rejected_values_are_usage_errors(self, tmp_path, capsys):
        doc = tmp_path / "m.doc"
        write_doc(doc, 0.8, 0.3, 1.0)
        data = tmp_path / "d.csv"
        data.write_bytes(b"t,value\n0,1\n1,2\n2,4\n3,8\n")
        out = tmp_path / "out"
        for argv, message in (
            (["forecast", "--model", str(doc), "--from", "0", "--horizon", "-1",
              "--step", "1", "--out", str(out)], "horizon must be positive"),
            (["fit", "--data", str(data), "--out", str(out), "--max-iterations", "0"],
             "max_iterations must be positive"),
        ):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2
            assert f"error: {message}" in capsys.readouterr().err
            assert not out.exists()

    def test_grid_cap_is_domain_error(self, tmp_path, capsys):
        doc = tmp_path / "m.doc"
        write_doc(doc, 0.8, 0.3, 1.0)
        argv = ["forecast", "--model", str(doc), "--from", "0", "--horizon", "1e308",
                "--step", "1e-308", "--out", str(tmp_path / "fc.csv")]
        assert main(argv) == 1
        assert "InvalidStepError" in capsys.readouterr().err


class TestUndecodableInput:
    def test_named_errors_exit_1(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_bytes(b"t,value\n0,1\n1,\xff\n")
        assert main(["correlate", "--x", str(data), "--y", str(data)]) == 1
        assert "NonNumericFieldError: line 3" in capsys.readouterr().err
        doc = tmp_path / "m.doc"
        for text in ('{"a": %s, "b": 0.1, "c": 1}' % ("9" * 400),
                     '{"a": 0.8, "a": 0.1, "b": 0.1, "c": 1}'):
            doc.write_text(text)
            assert main(["classify", "--model", str(doc)]) == 1
            assert "TypeMismatchError" in capsys.readouterr().err


# Argument values: valid, invalid and extreme.  Any two of them give at most
# 2,000 steps or rows, or exceed MAX_STEPS, so no example allocates much.
_VALUES = st.sampled_from(
    ["0", "1", "2", "0.5", "1e3", "-1", "1e-308", "1e308", "nan", "inf", "-inf", "x"]
)
_JSON_NUMBER = st.one_of(
    st.integers(min_value=-(10**400), max_value=10**400),
    st.floats(),
    st.sampled_from([0.8, 0.3, -0.5, 1.0, 0.0]),
)
_DOCUMENT = st.one_of(
    st.binary(max_size=48),
    st.fixed_dictionaries(
        {"a": _JSON_NUMBER, "b": _JSON_NUMBER, "c": _JSON_NUMBER},
        optional={
            "forcing": st.fixed_dictionaries(
                {},
                optional={
                    "kappa": _JSON_NUMBER,
                    "alpha": _JSON_NUMBER,
                    "eta": st.one_of(
                        _JSON_NUMBER,
                        st.lists(st.tuples(_JSON_NUMBER, _JSON_NUMBER), max_size=4),
                    ),
                },
            ),
            "metadata": st.dictionaries(st.text(max_size=3), st.text(max_size=3), max_size=2),
        },
    ).map(lambda doc: json.dumps(doc).encode()),
)
_SERIES = st.one_of(
    st.binary(max_size=48),
    st.tuples(
        st.lists(st.floats(-10, 10), min_size=1, max_size=12, unique=True),
        st.lists(st.floats(), min_size=12, max_size=12),
    ).map(
        lambda tv: b"t,value\n"
        + "".join(f"{t!r},{v!r}\n" for t, v in zip(sorted(tv[0]), tv[1])).encode()
    ),
)


def _as_float(text):
    try:
        return float(text)
    except ValueError:
        return math.nan


@settings(max_examples=100, deadline=None)
@given(
    command=st.sampled_from(["simulate", "fit", "forecast", "classify", "correlate", "plot"]),
    document=_DOCUMENT,
    series=_SERIES,
    x=_VALUES,
    y=_VALUES,
    start=_VALUES,
    iterations=st.sampled_from(["-1", "0", "1", "20"]),
)
def test_main_exits_0_1_or_2(command, document, series, x, y, start, iterations):
    """Generated files and argument values end in exit 0, 1 or 2, never a
    traceback; exit 2 leaves main as argparse's SystemExit(2).  A forecast
    whose --from parses and whose finite --step is in (0, --horizon] is never
    a usage error: whatever else fails is the model's or the grid's, exit 1."""
    with tempfile.TemporaryDirectory() as tmp:
        doc, data, out = (os.path.join(tmp, name) for name in ("m.doc", "d.csv", "out"))
        with open(doc, "wb") as handle:
            handle.write(document)
        with open(data, "wb") as handle:
            handle.write(series)
        argv = {
            "simulate": ["simulate", "--model", doc, "--T", x, "--h", y, "--out", out],
            "fit": ["fit", "--data", data, "--out", out, "--max-iterations", iterations,
                    "--gradient-tolerance", x, "--seed", doc],
            "forecast": ["forecast", "--model", doc, "--from", start, "--horizon", x,
                         "--step", y, "--out", out],
            "classify": ["classify", "--model", doc],
            "correlate": ["correlate", "--x", data, "--y", data],
            "plot": ["plot", "--data", data, "--model", doc, "--out", out],
        }[command]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2)
    horizon, step = _as_float(x), _as_float(y)
    # argparse refuses "x", and takes "-inf" for an option
    if command == "forecast" and start not in ("x", "-inf") and math.isfinite(horizon):
        assert code != 2 or not 0 < step <= horizon


class TestRoundTrip:
    def test_simulate_fit_classify(self, tmp_path, capsys):
        doc = tmp_path / "m.doc"
        write_doc(doc, 0.8, 0.3, 1.0)
        traj_csv = tmp_path / "traj.csv"
        assert (
            main(
                [
                    "simulate", "--model", str(doc),
                    "--T", "5", "--h", "0.001",
                    "--out", str(traj_csv),
                ]
            )
            == 0
        )
        fit_doc = tmp_path / "fit.doc"
        assert main(["fit", "--data", str(traj_csv), "--out", str(fit_doc)]) == 0
        fitted = rf.decode_model_document(fit_doc.read_text()).params
        assert fitted.a == pytest.approx(0.8, rel=1e-3)
        assert fitted.b == pytest.approx(0.3, rel=1e-3)
        assert fitted.c == pytest.approx(1.0, rel=1e-3)
        capsys.readouterr()
        assert main(["classify", "--model", str(fit_doc)]) == 0
        assert "Exponential" in capsys.readouterr().out

    def test_outputs_byte_deterministic(self, tmp_path):
        doc = tmp_path / "m.doc"
        write_doc(doc, 0.8, 0.3, 1.0)
        outputs = []
        for tag in ("one", "two"):
            traj_csv = tmp_path / f"traj-{tag}.csv"
            fit_doc = tmp_path / f"fit-{tag}.doc"
            main(["simulate", "--model", str(doc), "--T", "2", "--h", "0.01",
                  "--out", str(traj_csv)])
            main(["fit", "--data", str(traj_csv), "--out", str(fit_doc)])
            outputs.append((traj_csv.read_bytes(), fit_doc.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_simulate_with_forcing(self, tmp_path):
        doc = tmp_path / "forced.doc"
        write_doc(
            doc, 0.0, 0.0, 0.0,
            extra=', "forcing": {"kappa": 1.0, "alpha": 0.0}',
        )
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--model", str(doc), "--T", "1", "--h", "0.001",
                     "--out", str(out)]) == 0
        series = rf.load_timeseries_csv(out.read_bytes())
        k = int(np.argmin(np.abs(series.times - 1.0)))
        assert series.values[k] == pytest.approx(1 - np.exp(-1), abs=1e-6)


class TestForecast:
    def test_three_column_output(self, tmp_path):
        doc = tmp_path / "m.doc"
        write_doc(doc, 0.0, 0.0, 5.0)
        out = tmp_path / "fc.csv"
        assert main(["forecast", "--model", str(doc), "--from", "5",
                     "--horizon", "2", "--step", "1", "--out", str(out)]) == 0
        assert out.read_bytes() == b"t,value,rate\n6,5,0\n7,5,0\n"

    def test_matches_closed_form(self, tmp_path):
        doc = tmp_path / "m.doc"
        write_doc(doc, 5.0, 3.0, 2.0)
        out = tmp_path / "fc.csv"
        main(["forecast", "--model", str(doc), "--from", "0",
              "--horizon", "1", "--step", "0.5", "--out", str(out)])
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "t,value,rate"
        t, v, r = (float(x) for x in rows[1].split(","))
        assert (t, v) == (0.5, pytest.approx(3 * np.exp(2) - np.exp(-2)))
        assert r == pytest.approx(12 * np.exp(2) + 4 * np.exp(-2))


class TestCorrelate:
    def test_prints_line(self, tmp_path, capsys):
        x = tmp_path / "x.csv"
        y = tmp_path / "y.csv"
        x.write_bytes(b"t,value\n0,1\n1,2\n2,3\n")
        y.write_bytes(b"t,value\n0,3\n1,5\n2,7\n")
        assert main(["correlate", "--x", str(x), "--y", str(y)]) == 0
        out = capsys.readouterr().out
        assert "slope=2" in out and "intercept=1" in out and "pearson=1" in out

    def test_zero_variance_exit_1(self, tmp_path, capsys):
        x = tmp_path / "x.csv"
        y = tmp_path / "y.csv"
        x.write_bytes(b"t,value\n0,4\n1,4\n2,4\n")
        y.write_bytes(b"t,value\n0,3\n1,5\n2,7\n")
        assert main(["correlate", "--x", str(x), "--y", str(y)]) == 1
        assert "ZeroVariance" in capsys.readouterr().err

    def test_times_beyond_alignment_grid_exit_1(self, tmp_path, capsys):
        x = tmp_path / "x.csv"
        x.write_bytes(b"t,value\n1e300,1\n2e300,2\n3e300,4\n")
        assert main(["correlate", "--x", str(x), "--y", str(x)]) == 1
        assert "SolutionOverflowError: time 1e+300" in capsys.readouterr().err


class TestPlot:
    def test_line_plot(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_bytes(b"t,value\n0,1\n1,2\n2,4\n")
        out = tmp_path / "fig.svg"
        assert main(["plot", "--data", str(data), "--out", str(out)]) == 0
        root = ET.fromstring(out.read_text())
        assert root.tag.endswith("svg")

    def test_model_overlay(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_bytes(b"t,value\n0,1\n1,2\n2,4\n3,8\n")
        doc = tmp_path / "m.doc"
        write_doc(doc, 0.8, 0.3, 1.0)
        out = tmp_path / "fig.svg"
        assert main(["plot", "--data", str(data), "--model", str(doc),
                     "--out", str(out)]) == 0
        svg = out.read_text()
        ns = "{http://www.w3.org/2000/svg}"
        root = ET.fromstring(svg)
        assert len(root.findall(f"{ns}polyline")) == 1  # model curve
        scatter = [g for g in root.findall(f"{ns}g") if g.get("class") == "series"]
        assert len(scatter) == 1  # observed points


    def test_model_overlay_on_one_row(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_bytes(b"t,value\n2,4\n")
        doc = tmp_path / "m.doc"
        write_doc(doc, 0.8, 0.3, 1.0)
        out = tmp_path / "fig.svg"
        assert main(["plot", "--data", str(data), "--model", str(doc),
                     "--out", str(out)]) == 0
        ns = "{http://www.w3.org/2000/svg}"
        root = ET.fromstring(out.read_text())
        points = root.find(f"{ns}polyline").get("points").split()
        assert len(points) == 1  # a one-point model curve at t = 2

    def test_unrepresentable_pixels_exit_1(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_bytes(b"t,value\n0,-1e308\n1,0\n2,1e308\n")
        out = tmp_path / "fig.svg"
        assert main(["plot", "--data", str(data), "--out", str(out)]) == 1
        assert "SolutionOverflowError" in capsys.readouterr().err
        assert not out.exists()


class TestOverflowingInputs:
    """Inputs near the double range end in a named error or a result, and
    numpy warns about none of them."""

    def run(self, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return main(argv)

    def test_fit_whose_rss_overflows(self, tmp_path, capsys):
        t = np.linspace(-2.0, 2.0, 51)
        noise = 1.0 + 1e-3 * np.random.default_rng(5).standard_normal(t.size)
        v = 1e200 * rf.eval_solution(rf.ModelParams(0.8, 0.3, 1.0), t) * noise
        data = tmp_path / "d.csv"
        data.write_bytes(rf.write_timeseries_csv(rf.TimeSeries(t, v)))
        out = tmp_path / "fit.doc"
        assert self.run(["fit", "--data", str(data), "--out", str(out)]) == 0
        assert "rss=inf\n" in capsys.readouterr().out
        assert rf.decode_model_document(out.read_text()).metadata["rss"] == "inf"

    def test_classify_overflowing_discriminant(self, tmp_path, capsys):
        doc = tmp_path / "m.doc"
        write_doc(doc, 1e200, 1e200, 1.0)
        assert self.run(["classify", "--model", str(doc)]) == 1
        assert "SolutionOverflowError" in capsys.readouterr().err

    def test_plot_model_with_overflowing_discriminant(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_bytes(b"t,value\n0,1\n1,2\n")
        doc = tmp_path / "m.doc"
        write_doc(doc, 0.3, 1e200, 1.0)
        out = tmp_path / "fig.svg"
        argv = ["plot", "--data", str(data), "--model", str(doc), "--out", str(out)]
        assert self.run(argv) == 1
        assert "SolutionOverflowError" in capsys.readouterr().err
        assert not out.exists()

    def test_forecast_grid_wider_than_doubles(self, tmp_path, capsys):
        doc = tmp_path / "m.doc"
        write_doc(doc, 0.3, 0.1, 1.0)
        out = tmp_path / "fc.csv"
        argv = ["forecast", "--model", str(doc), "--from", "1.7e308", "--horizon",
                "1e308", "--step", "1e307", "--out", str(out)]
        assert self.run(argv) == 1
        assert "InvalidStepError" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("t, v", [
        ([-1e154, -1e100, 1e-300, 1, 7, 1e5], [1e100, -1.7e308, 1, 1e200, -0.3, 1e-300]),
        ([0, 1e-300, 2e-300, 3e-300], [1, 2, 3, 4]),
    ])
    def test_fit_whose_seed_leaves_the_doubles(self, tmp_path, t, v):
        data = tmp_path / "d.csv"
        data.write_bytes(rf.write_timeseries_csv(rf.TimeSeries(t, v)))
        argv = ["fit", "--data", str(data), "--out", str(tmp_path / "fit.doc")]
        assert self.run(argv) in (0, 1)

    def test_simulate_grid_wider_than_doubles(self, tmp_path, capsys):
        doc = tmp_path / "m.doc"
        write_doc(doc, 0.3, 0.1, 0.0)
        out = tmp_path / "s.csv"
        argv = ["simulate", "--model", str(doc), "--T", "1e308", "--h", "1e308",
                "--out", str(out)]
        assert self.run(argv) == 1
        assert "InvalidStepError" in capsys.readouterr().err
        assert not out.exists()

    def test_model_value_beyond_the_doubles(self, tmp_path, capsys):
        # p = 1e10 * e^t overflows at t = 700: a domain error, not a usage error
        doc = tmp_path / "m.doc"
        write_doc(doc, 1.0, 0.0, 1e10)
        data = tmp_path / "d.csv"
        data.write_bytes(b"t,value\n0,1\n700,2\n")
        for argv in (
            ["plot", "--data", str(data), "--model", str(doc), "--out", str(tmp_path / "f.svg")],
            ["forecast", "--model", str(doc), "--from", "0", "--horizon", "700", "--step",
             "100", "--out", str(tmp_path / "fc.csv")],
        ):
            assert self.run(argv) == 1
            assert "SolutionOverflowError" in capsys.readouterr().err
        assert not (tmp_path / "f.svg").exists() and not (tmp_path / "fc.csv").exists()

    def test_forecast_step_below_the_grid_spacing(self, tmp_path, capsys):
        doc = tmp_path / "m.doc"
        write_doc(doc, 0.0, 0.0, 1.0)
        out = tmp_path / "fc.csv"
        argv = ["forecast", "--model", str(doc), "--from", "1e100", "--horizon", "1",
                "--step", "0.25", "--out", str(out)]
        assert self.run(argv) == 1
        assert "InvalidStepError" in capsys.readouterr().err
        assert not out.exists()


class TestFitMetadata:
    def test_report_and_metadata(self, tmp_path, capsys):
        doc = tmp_path / "m.doc"
        write_doc(doc, 0.8, 0.3, 1.0)
        traj = tmp_path / "t.csv"
        main(["simulate", "--model", str(doc), "--T", "3", "--h", "0.01",
              "--out", str(traj)])
        fit_doc = tmp_path / "fit.doc"
        capsys.readouterr()
        assert main(["fit", "--data", str(traj), "--out", str(fit_doc)]) == 0
        out = capsys.readouterr().out
        for key in ("a=", "b=", "c=", "rss=", "iterations=", "converged=true",
                    "regime=Exponential"):
            assert key in out
        decoded = rf.decode_model_document(fit_doc.read_text())
        assert decoded.metadata["regime"] == "Exponential"
        assert "created-at" not in decoded.metadata

    def test_timestamp_only_behind_flag(self, tmp_path):
        doc = tmp_path / "m.doc"
        write_doc(doc, 0.8, 0.3, 1.0)
        traj = tmp_path / "t.csv"
        main(["simulate", "--model", str(doc), "--T", "3", "--h", "0.01",
              "--out", str(traj)])
        fit_doc = tmp_path / "fit.doc"
        assert main(["fit", "--data", str(traj), "--out", str(fit_doc),
                     "--timestamp"]) == 0
        decoded = rf.decode_model_document(fit_doc.read_text())
        assert "created-at" in decoded.metadata

    def test_seed_document_used(self, tmp_path):
        doc = tmp_path / "m.doc"
        write_doc(doc, 0.8, 0.3, 1.0)
        traj = tmp_path / "t.csv"
        main(["simulate", "--model", str(doc), "--T", "3", "--h", "0.01",
              "--out", str(traj)])
        seed_doc = tmp_path / "seed.doc"
        write_doc(seed_doc, 0.7, 0.2, 0.9)
        fit_doc = tmp_path / "fit.doc"
        assert main(["fit", "--data", str(traj), "--out", str(fit_doc),
                     "--seed", str(seed_doc)]) == 0
        decoded = rf.decode_model_document(fit_doc.read_text())
        assert decoded.metadata["seed"] == "a=0.7 b=0.2 c=0.9"
