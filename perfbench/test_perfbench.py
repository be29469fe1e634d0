"""Self-tests of the benchmark: gates reject corrupted outputs, the generator
is deterministic, the tracer nests and restores, and metric names are valid.

Run from the repository root:  PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import tempfile

import numpy as np
import pytest

import gates
import run
import workloads
from gates import GateError
from retroflux import cli
from retroflux.dataio import write_timeseries_csv
from retroflux.fitting import fit, forecast, seed_parameters
from retroflux.integrator import ForcingSpec, GoodwillSpec, Trajectory, integrate
from retroflux.model import ModelParams, eval_solution
from retroflux.series import TimeSeries
from tracing import LAYER_METRICS, Tracer, layer_metrics, self_times

EXP = ModelParams(0.8, 0.3, 1.0)
FORCING = ForcingSpec(theta=GoodwillSpec(kappa=1.0, alpha=0.25), eta=0.5)


def perturbed(trajectory: Trajectory, k: int, rel: float) -> Trajectory:
    values = trajectory.values.copy()
    values[k] *= 1.0 + rel
    return Trajectory(trajectory.t0, trajectory.h, values)


def test_closed_form_gate_rejects_perturbed_trajectory():
    traj = integrate(EXP, None, 1.0, 1e-3)
    gates.check_closed_form(EXP, traj)
    with pytest.raises(GateError):
        gates.check_closed_form(EXP, perturbed(traj, 1500, 1e-6))


def test_forced_defect_gate_rejects_perturbed_trajectory():
    traj = integrate(EXP, FORCING, 1.0, 1e-3)
    gates.check_forced_defect(EXP, FORCING, traj)
    with pytest.raises(GateError):
        gates.check_forced_defect(EXP, FORCING, perturbed(traj, 700, 1e-6))
    with pytest.raises(GateError):
        gates.check_forced_defect(EXP, ForcingSpec(eta=0.6), traj)


def test_grid_gate_rejects_short_trajectory():
    traj = integrate(EXP, None, 1.0, 1e-3)
    gates.check_grid(traj, 1.0, 2001)
    with pytest.raises(GateError):
        gates.check_grid(Trajectory(traj.t0, traj.h, traj.values[:-1]), 1.0, 2001)


def test_forecast_gate_rejects_wrong_rate_and_value():
    influence, rate = forecast(EXP, 5.0, 3.0, 0.01)
    gates.check_forecast(EXP, influence.times, influence.values, rate.values)
    with pytest.raises(GateError):
        gates.check_forecast(EXP, influence.times, influence.values, rate.values * (1 + 1e-6))
    with pytest.raises(GateError):
        gates.check_forecast(EXP, influence.times, influence.values * (1 + 1e-6), rate.values)


def test_fit_rss_gate_rejects_rss_above_truth():
    t = np.linspace(0.0, 5.0, 51)
    v = eval_solution(EXP, t) + np.random.default_rng(0).normal(0.0, 0.05, t.size)
    truth_rss = float(np.sum((v - eval_solution(EXP, t)) ** 2))
    result = fit(TimeSeries(t, v))
    fit_rss = float(np.sum((v - eval_solution(result.params, t)) ** 2))
    gates.check_fit_rss(fit_rss, truth_rss, v)
    with pytest.raises(GateError):
        gates.check_fit_rss(truth_rss * 1.001, truth_rss, v)
    with pytest.raises(GateError):
        gates.check_fit_rss(float("nan"), truth_rss, v)


def _worse(batch, result):
    """The fit with a shifted by 0.05, and its forecast: an rss above the truth's."""
    worse = dataclasses.replace(result, params=ModelParams(result.params.a + 0.05, result.params.b, result.params.c))
    return worse, forecast(worse.params, *batch.FORECAST)


def test_fit_batch_gate_rejects_converged_clean_fit_worse_than_truth():
    batch = workloads.FitBatch(5)
    out = batch.op(0)
    batch.check(0, out)
    result, _ = out[0]  # exponential, 51 points, clean
    assert result.converged
    with pytest.raises(GateError, match="exponential/51/clean"):
        batch.check(0, [_worse(batch, result)] + out[1:])
    with pytest.raises(GateError, match="RuntimeError"):
        batch.check(0, [RuntimeError("boom")] + out[1:])


def test_fit_batch_gate_counts_one_noisy_miss_and_rejects_a_median_miss():
    batch = workloads.FitBatch(5)
    out = batch.op(0)
    noisy = [k for k, case in enumerate(batch.batches[0]) if case.noisy]
    one = list(out)
    one[noisy[0]] = _worse(batch, out[noisy[0]][0])
    before = batch.notes["fits_above_truth_rss"]
    batch.check(0, one)
    assert batch.notes["fits_above_truth_rss"] == before + 1
    most = list(out)
    for k in noisy[:4]:
        most[k] = _worse(batch, out[k][0])
    with pytest.raises(GateError, match="median noisy fit"):
        batch.check(0, most)


def test_noisy_fits_gate_is_a_median():
    gates.check_noisy_fits([-1.0, -1.0, 5.0])
    with pytest.raises(GateError):
        gates.check_noisy_fits([-1.0, 5.0, 5.0])
    with pytest.raises(GateError):
        gates.check_noisy_fits([-1.0, -1.0, float("nan")])


def test_fit_batch_counts_a_single_noisy_miss_without_failing():
    # seed 1942324526, batch 23: the fitter returns c ~ 0, converged=True
    # and rss 2.3e5 for the exponential 401-point noisy input, whose truth
    # has rss 0.91; the op passes and the miss is counted
    batch = workloads.FitBatch(1942324526)
    batch.check(23, batch.op(23))
    assert batch.notes["fits_above_truth_rss"] <= 1


def test_csv_gate_rejects_truncated_and_non_canonical_files():
    traj = integrate(EXP, None, 1.0, 1e-2)
    data = write_timeseries_csv(TimeSeries(traj.times(), traj.values))
    gates.check_series_csv(data, traj)
    truncated = data[: data.rstrip(b"\n").rfind(b"\n") + 1]
    with pytest.raises(GateError):
        gates.check_series_csv(truncated, traj)
    with pytest.raises(GateError):
        gates.check_series_csv(data[:-1], traj)
    with pytest.raises(GateError):
        gates.check_series_csv(data.replace(b"\n1,", b"\n1.0,"), traj)


def test_exit_code_gate_rejects_nonzero_exit():
    gates.check_exit_codes({"simulate": 0, "fit": 0})
    with pytest.raises(GateError):
        gates.check_exit_codes({"simulate": 0, "fit": 1})


def test_svg_gate_rejects_broken_figure():
    t = np.linspace(0.0, 1.0, 5)
    v = eval_solution(EXP, t)
    with tempfile.TemporaryDirectory() as tmp:
        data_path, svg_path = os.path.join(tmp, "d.csv"), os.path.join(tmp, "f.svg")
        with open(data_path, "wb") as handle:
            handle.write(write_timeseries_csv(TimeSeries(t, v)))
        doc = os.path.join(tmp, "m.json")
        with open(doc, "w") as handle:
            json.dump({"a": EXP.a, "b": EXP.b, "c": EXP.c}, handle)
        assert cli.main(["plot", "--data", data_path, "--model", doc, "--out", svg_path]) == 0
        with open(svg_path, "rb") as handle:
            svg = handle.read()
    gates.check_svg(svg, t, v, 5)
    with pytest.raises(GateError):
        gates.check_svg(svg[:-10], t, v, 5)
    with pytest.raises(GateError):
        gates.check_svg(re.sub(rb' data-y-max="[^"]*"', b"", svg), t, v, 5)
    with pytest.raises(GateError):
        gates.check_svg(svg, t, v, 6)


def test_summary_gate_rejects_wrong_window_mean():
    from retroflux.analysis import yearly_summary

    t = np.linspace(0.0, 1.0, 101)
    v = np.sin(7 * t)
    rows = yearly_summary(TimeSeries(t, v), 0.1)
    gates.check_summary(rows, t, v, 0.1, len(rows))
    bad = list(rows)
    bad[3] = dataclasses.replace(bad[3], mean=bad[3].mean + 1e-6)
    with pytest.raises(GateError):
        gates.check_summary(bad, t, v, 0.1, len(rows))


def test_cli_pipeline_gate_rejects_changed_output_and_failed_command(tmp_path):
    pipeline = workloads.CliPipeline(1, str(tmp_path))
    out = pipeline.op(0)
    first = pipeline.check(0, out)
    assert pipeline.check(1, pipeline.op(1)) == first
    with open(tmp_path / "forecast.csv", "ab") as handle:
        handle.write(b"16,1,1\n")
    with pytest.raises(GateError, match="differ"):
        pipeline.check(1, out)
    with pytest.raises(GateError, match="exit"):
        pipeline.check(1, dataclasses.replace(out, codes={**out.codes, "plot": 1}))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_byte_deterministic(name, tmp_path):
    digest = [workloads.build(name, seed, str(tmp_path)).inputs_digest() for seed in (7, 7, 8)]
    assert digest[0] == digest[1] != digest[2]


def test_metric_names_are_valid_and_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = [m["name"] for group in ("end_to_end", "per_layer") for m in spec[group]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in names)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)


def test_tracer_nests_cross_layer_calls_and_restores_functions(tmp_path):
    import retroflux.fitting

    original = retroflux.fitting.eval_solution
    doc = tmp_path / "m.json"
    doc.write_text(json.dumps({"a": EXP.a, "b": EXP.b, "c": EXP.c}))
    tracer = Tracer()
    tracer.install()
    try:
        assert retroflux.fitting.eval_solution is not original
        tracer.op = 0
        code = cli.main(["simulate", "--model", str(doc), "--T", "1", "--h", "0.01",
                         "--out", str(tmp_path / "t.csv")])
        code += cli.main(["fit", "--data", str(tmp_path / "t.csv"), "--out", str(tmp_path / "f.json")])
        tracer.op = None
    finally:
        tracer.uninstall()
    assert code == 0
    assert retroflux.fitting.eval_solution is original
    names = {s.name: s for s in tracer.spans}
    for name in ("dataio.doc", "integrator", "dataio.emit", "dataio.parse", "fitting", "model"):
        assert tracer.spans[names[name].parent].name in ("cli", "fitting"), name
    own = self_times(tracer.spans)
    assert all(0 <= ns <= s.end - s.start for s, ns in zip(tracer.spans, own))
    layers = layer_metrics(tracer.spans, 1, lambda s: False, seed_parameters)
    assert layers["cli.commands"] == 2
    assert layers["integrator.steps"] == 100
    assert layers["fitting.fits"] == 1
    assert layers["dataio.parse.rows"] == 201
    assert layers["cli.file_bytes_written"] > 0


def test_tail_has_ten_samples_beyond():
    value, pct = run.tail([float(x) for x in range(1, 41)])
    assert value == 30.0 and pct == 75.0
