"""The three seeded workloads: input generator, one timed op, and its gate.

A workload object builds every input from its seed in the constructor,
before any timing.  ``op(i)`` is the timed unit of work and calls the
library only through module attributes (``integrator.integrate``, not a
name bound at import), so a tracer installed later sees the calls.
``check(i, out)`` runs outside the timed interval: it raises GateError when
an output is wrong and otherwise returns a digest of the op's data outputs,
which the session uses to show that traced and untraced runs agree.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

import gates
import retroflux.analysis as analysis
import retroflux.cli as cli
import retroflux.dataio as dataio
import retroflux.fitting as fitting
import retroflux.integrator as integrator
from gates import GateError
from retroflux.integrator import ForcingSpec, GoodwillSpec
from retroflux.model import ModelParams, eval_solution
from retroflux.series import TimeSeries


def _sha(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def _floats(*values: float) -> bytes:
    return np.array(values, dtype=float).tobytes()


def _draw(rng, regime: str) -> ModelParams:
    """Truth parameters from regime-specific ranges."""
    c = float(rng.uniform(0.5, 2.0))
    if regime == "exponential":
        return ModelParams(float(rng.uniform(0.6, 1.0)), float(rng.uniform(0.1, 0.4)), c)
    if regime == "oscillatory":
        # contains (0.3, 0.8, 1), whose heuristic seed misses its basin
        return ModelParams(float(rng.uniform(0.2, 0.4)), float(rng.uniform(0.7, 0.9)), c)
    a = float(rng.uniform(0.3, 0.7))
    return ModelParams(a, a * (1.0 + float(rng.uniform(-1e-6, 1e-6))), c)


class SimulateDense:
    """One `integrate` on [-5, 5] at h = 1e-5 per op, cycling five cases."""

    name = "simulate_dense"
    notes: dict = {}
    T = 5.0
    H = 1e-5
    SAMPLES = 1_000_001
    KNOTS = 1001

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        # smooth tabulated eta: kinks at the knots stay far below the gate
        knots = np.linspace(-self.T, self.T, self.KNOTS)
        amp = rng.uniform(0.05, 0.2, 3)
        freq = rng.uniform(0.5, 2.0, 3)
        phase = rng.uniform(0.0, 2.0 * math.pi, 3)
        eta = 0.5 + np.sin(np.outer(knots, freq) + phase) @ amp
        self.cases = [
            ("exponential", ModelParams(0.8, 0.3, 1.0), None),
            ("oscillatory", ModelParams(0.3, 0.8, 1.0), None),
            ("near_linear", ModelParams(0.5, 0.5 * (1 + 1e-9), 1.0), None),
            (
                "exponential_goodwill_eta",
                ModelParams(0.8, 0.3, 1.0),
                ForcingSpec(theta=GoodwillSpec(kappa=1.0, alpha=0.25), eta=0.5),
            ),
            ("oscillatory_tabulated_eta", ModelParams(0.3, 0.8, 1.0), ForcingSpec(eta=TimeSeries(knots, eta))),
        ]
        self.cycle = len(self.cases)

    def inputs_digest(self) -> str:
        eta = self.cases[-1][2].eta
        return _sha(eta.times.tobytes(), eta.values.tobytes())

    def op(self, i: int):
        _, params, forcing = self.cases[i % self.cycle]
        return integrator.integrate(params, forcing, self.T, self.H)

    def check(self, i: int, trajectory) -> str:
        _, params, forcing = self.cases[i % self.cycle]
        gates.check_grid(trajectory, self.T, self.SAMPLES)
        if forcing is None:
            gates.check_closed_form(params, trajectory)
        else:
            gates.check_forced_defect(params, forcing, trajectory)
        return _sha(_floats(trajectory.t0, trajectory.h), trajectory.values.tobytes())


@dataclass(frozen=True)
class FitCase:
    regime: str
    noisy: bool
    series: TimeSeries
    truth_rss: float


class FitBatch:
    """Per op: 12 fits (3 truths x {51, 401} points x {clean, noisy}), each
    followed by a forecast.  Every op draws fresh truths from the seed, so
    the per-seed luck of a basin miss averages out over a run."""

    name = "fit_batch"
    cycle = 1
    POOL = 128
    SIZES = (51, 401)
    SIGMA = 0.05
    T = 5.0
    FORECAST = (5.0, 3.0, 0.01)
    FORECAST_POINTS = 300

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.batches = [self._batch(rng) for _ in range(self.POOL)]
        self.noisy_ids = {id(case.series) for batch in self.batches for case in batch if case.noisy}
        self.truth_rss = {id(case.series): case.truth_rss for batch in self.batches for case in batch}
        self.notes = {"gated_fits": 0, "unconverged_fits": 0, "fits_above_truth_rss": 0}

    def _batch(self, rng) -> list[FitCase]:
        cases = []
        for regime in ("exponential", "oscillatory", "near_linear"):
            truth = _draw(rng, regime)
            for n in self.SIZES:
                t = np.linspace(0.0, self.T, n)
                clean = eval_solution(truth, t)
                for noisy in (False, True):
                    v = clean + rng.normal(0.0, self.SIGMA, n) if noisy else clean
                    r = v - clean
                    cases.append(FitCase(regime, noisy, TimeSeries(t, v), float(r @ r)))
        return cases

    def inputs_digest(self) -> str:
        return _sha(*(c.series.values.tobytes() for batch in self.batches for c in batch))

    def op(self, i: int):
        out = []
        for case in self.batches[i % self.POOL]:
            try:
                result = fitting.fit(case.series)
                out.append((result, fitting.forecast(result.params, *self.FORECAST)))
            except Exception as exc:  # a raising fit fails the op at its gate
                out.append(exc)
        return out

    def check(self, i: int, out) -> str:
        """A clean fit that reports convergence must reach the truth's rss;
        the op's noisy fits must do so in the median (gates.check_noisy_fits).
        Unconverged clean fits and single noisy misses are counted in notes."""
        chunks = []
        noisy_excess = []
        for case, item in zip(self.batches[i % self.POOL], out):
            label = f"{case.regime}/{len(case.series)}/{'noisy' if case.noisy else 'clean'}"
            self.notes["gated_fits"] += 1
            if isinstance(item, Exception):
                raise GateError(f"{label}: {type(item).__name__}: {item}")
            result, (influence, rate) = item
            t, v = case.series.times, case.series.values
            excess = gates.rss_excess(result.params, t, v, case.truth_rss)
            self.notes["unconverged_fits"] += not result.converged
            self.notes["fits_above_truth_rss"] += excess > 0.0
            try:
                if case.noisy:
                    noisy_excess.append(excess)
                elif result.converged:
                    r = v - eval_solution(result.params, t)
                    gates.check_fit_rss(float(r @ r), case.truth_rss, v)
                if len(influence) != self.FORECAST_POINTS:
                    raise GateError(f"forecast has {len(influence)} points")
                gates.check_forecast(result.params, influence.times, influence.values, rate.values)
            except GateError as exc:
                raise GateError(f"{label}: {exc}") from None
            p = result.params
            chunks.append(_floats(p.a, p.b, p.c, result.rss, result.iterations, result.converged))
            chunks.append(influence.values.tobytes() + rate.values.tobytes())
        try:
            gates.check_noisy_fits(noisy_excess)
        except GateError as exc:
            raise GateError(f"noisy fits: {exc}") from None
        return _sha(*chunks)


@dataclass(frozen=True)
class CliRun:
    codes: dict
    stdout: dict
    summary: list


class CliPipeline:
    """In-process `retroflux.cli.main` over files: simulate x2, fit,
    forecast, correlate, plot, then load + yearly_summary."""

    name = "cli_pipeline"
    notes: dict = {}
    cycle = 1
    T = 5.0
    H = 1e-4
    SAMPLES = 100_001
    FORECAST_ROWS = 100_000
    WINDOW = 0.01
    WINDOWS = 1001
    OUTPUTS = ("traj_u.csv", "traj_f.csv", "fitted.json", "forecast.csv", "figure.svg")

    def __init__(self, seed: int, workdir: str) -> None:
        rng = np.random.default_rng(seed)
        self.unforced = _draw(rng, "exponential")
        self.forced = _draw(rng, "exponential")
        self.forcing = ForcingSpec(
            theta=GoodwillSpec(kappa=float(rng.uniform(0.5, 2.0)), alpha=float(rng.uniform(0.0, 0.5))),
            eta=float(rng.uniform(0.0, 1.0)),
        )
        p, q, f = self.unforced, self.forced, self.forcing
        self.documents = {
            "unforced.json": json.dumps({"a": p.a, "b": p.b, "c": p.c}, indent=2).encode(),
            "forced.json": json.dumps(
                {"a": q.a, "b": q.b, "c": q.c,
                 "forcing": {"kappa": f.theta.kappa, "alpha": f.theta.alpha, "eta": f.eta}},
                indent=2,
            ).encode(),
        }
        self.dir = workdir
        for name, data in self.documents.items():
            with open(self._path(name), "wb") as handle:
                handle.write(data)
        path = self._path
        grid = ["--T", repr(self.T), "--h", repr(self.H)]
        self.commands = [
            ("simulate_unforced", ["simulate", "--model", path("unforced.json"), *grid, "--out", path("traj_u.csv")]),
            ("simulate_forced", ["simulate", "--model", path("forced.json"), *grid, "--out", path("traj_f.csv")]),
            ("fit", ["fit", "--data", path("traj_u.csv"), "--out", path("fitted.json")]),
            ("forecast", ["forecast", "--model", path("fitted.json"), "--from", "5",
                          "--horizon", "10", "--step", "0.0001", "--out", path("forecast.csv")]),
            ("correlate", ["correlate", "--x", path("traj_u.csv"), "--y", path("traj_f.csv")]),
            ("plot", ["plot", "--data", path("traj_u.csv"), "--model", path("fitted.json"),
                      "--out", path("figure.svg")]),
        ]
        self.reference = None

    def _path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def inputs_digest(self) -> str:
        return _sha(*self.documents.values())

    def op(self, i: int) -> CliRun:
        codes, stdout = {}, {}
        for name, argv in self.commands:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
                try:
                    codes[name] = cli.main(argv)
                except SystemExit as exc:
                    codes[name] = exc.code
            stdout[name] = buffer.getvalue()
        with open(self._path("traj_f.csv"), "rb") as handle:
            series = dataio.load_timeseries_csv(handle.read())
        return CliRun(codes, stdout, analysis.yearly_summary(series, self.WINDOW))

    def _read(self, name: str) -> bytes:
        with open(self._path(name), "rb") as handle:
            return handle.read()

    def check(self, i: int, out: CliRun) -> str:
        gates.check_exit_codes(out.codes)
        n = int(gates.key_values(out.stdout["correlate"])["n"])
        if n != self.SAMPLES:
            raise GateError(f"correlate reported n={n}, expected {self.SAMPLES}")
        files = {name: self._read(name) for name in self.OUTPUTS}
        summary = [(r.window_start, r.mean, r.stddev, r.outliers) for r in out.summary]
        digest = _sha(*files.values(), repr(summary).encode(), repr(sorted(out.stdout.items())).encode())
        if self.reference is None:
            self._verify(files, out)
            self.reference = digest
        elif digest != self.reference:
            raise GateError("outputs differ from the verified first op")
        return digest

    def _verify(self, files: dict, out: CliRun) -> None:
        """Full oracle check of one op; later ops must match it byte for byte."""
        traj_u = integrator.integrate(self.unforced, None, self.T, self.H)
        traj_f = integrator.integrate(self.forced, self.forcing, self.T, self.H)
        gates.check_closed_form(self.unforced, traj_u)
        gates.check_forced_defect(self.forced, self.forcing, traj_f)
        gates.check_series_csv(files["traj_u.csv"], traj_u)
        gates.check_series_csv(files["traj_f.csv"], traj_f)

        doc = json.loads(files["fitted.json"])
        if doc.get("metadata", {}).get("converged") != "true":
            raise GateError("fit did not report convergence")
        fitted = ModelParams(doc["a"], doc["b"], doc["c"])
        t, v = traj_u.times(), traj_u.values
        r_fit = v - eval_solution(fitted, t)
        r_true = v - eval_solution(self.unforced, t)
        gates.check_fit_rss(float(r_fit @ r_fit), float(r_true @ r_true), v)

        table = gates.parse_csv(files["forecast.csv"], "t,value,rate", self.FORECAST_ROWS)
        gates.check_forecast(fitted, table[:, 0], table[:, 1], table[:, 2])

        x, y = traj_u.values, traj_f.values
        dx, dy = x - x.mean(), y - y.mean()
        slope = float(gates.key_values(out.stdout["correlate"])["slope"])
        expected = float(dx @ dy) / float(dx @ dx)
        if abs(slope - expected) > 1e-9 * (1.0 + abs(expected)):
            raise GateError(f"correlate slope {slope!r} != {expected!r}")

        gates.check_svg(files["figure.svg"], t, v, self.SAMPLES)
        gates.check_summary(out.summary, traj_f.times(), traj_f.values, self.WINDOW, self.WINDOWS)


WORKLOADS = ("simulate_dense", "fit_batch", "cli_pipeline")


def build(name: str, seed: int, workdir: str):
    if name == "simulate_dense":
        return SimulateDense(seed)
    if name == "fit_batch":
        return FitBatch(seed)
    if name == "cli_pipeline":
        return CliPipeline(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
