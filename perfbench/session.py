"""One workload run in a fresh interpreter: generate, warm up, time, gate.

Closed loop, one client: the next op starts only after the previous op and
its gate have finished.  Gates run outside the timed interval.  A run stops
at the first cycle boundary after the summed op time reaches --seconds and
at least MIN_OPS ops have run, so every case of a cycle is equally
represented.  With --trace 1 each op runs untraced and then traced; the
two runs' output digests must agree, and the difference of their median
latencies is the tracing overhead.  Prints one JSON object with raw
latencies and counts; run.py turns it into metrics.

Usage: python3 session.py --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

import workloads
from retroflux.fitting import seed_parameters
from tracing import LAYER_METRICS, Tracer, layer_metrics

MIN_OPS = 12
MAX_WALL_S = 130.0


def run_op(workload, i: int, tracer: Tracer | None = None):
    """Time op i, then gate it.  Returns (seconds, digest or None, error or None)."""
    if tracer is not None:
        tracer.op = i
    t0 = time.perf_counter()
    try:
        out, error = workload.op(i), None
    except Exception as exc:  # counted as a failed op, never a crash
        out, error = None, exc
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.op = None
    digest = None
    if error is None:
        try:
            digest = workload.check(i, out)
        except Exception as exc:  # a gate that cannot read the output fails the op
            error = exc
    return elapsed, digest, error


def run_ops(workload, seconds: float, start: float, tracer: Tracer | None = None):
    """Run ops until `seconds` of op time, MIN_OPS ops and a whole cycle.

    With a tracer, each op runs twice in a row, first untraced and then
    traced, so slow drifts of the machine cancel out of the tracing
    overhead, and half of MIN_OPS suffices: the traced run reports no tail."""
    min_ops = MIN_OPS if tracer is None else MIN_OPS // 2
    runs = {"plain": [], "traced": []}
    failures = []
    timed = 0.0
    i = 0
    while True:
        for _ in range(workload.cycle):
            modes = ("plain",) if tracer is None else ("plain", "traced")
            for mode in modes:
                if mode == "traced":
                    tracer.install()
                try:
                    elapsed, digest, error = run_op(workload, i, tracer if mode == "traced" else None)
                finally:
                    if mode == "traced":
                        tracer.uninstall()
                if error is not None:
                    failures.append(f"op {i} ({mode}): {type(error).__name__}: {error}")
                runs[mode].append((elapsed, digest))
                timed += elapsed
            i += 1
        if timed >= seconds and i >= min_ops:
            break
        if time.monotonic() - start > MAX_WALL_S:
            break
    return runs, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    start = time.monotonic()
    workload = workloads.build(args.workload, args.seed, args.workdir)

    # warm-up: one gated op, untimed, so lazy set-up is not in the timings
    # (for cli_pipeline this is the op whose outputs the oracles verify)
    failures = []
    try:
        workload.check(0, workload.op(0))
    except Exception as exc:  # counted as a failed op, never a crash
        failures.append(f"warm-up: {type(exc).__name__}: {exc}")

    # the input pools live for the whole run; keep them out of the cyclic
    # collector so its cost reflects the objects an op creates
    gc.collect()
    gc.freeze()

    tracer = Tracer() if args.trace else None
    runs, timed_failures = run_ops(workload, args.seconds, start, tracer)
    failures += timed_failures
    result = {"latencies": [elapsed for elapsed, _ in runs["plain"]]}
    if tracer is not None:
        mismatch = [i for i, (a, b) in enumerate(zip(runs["plain"], runs["traced"])) if a[1] != b[1]]
        failures += [f"op {i}: traced output differs from untraced" for i in mismatch]
        noisy = getattr(workload, "noisy_ids", set())
        truths = getattr(workload, "truth_rss", {})
        layers = layer_metrics(
            tracer.spans, len(runs["traced"]), lambda s: id(s) in noisy, seed_parameters,
            lambda s: truths.get(id(s)),
        )
        spans_path = os.path.join(os.path.dirname(args.workdir), f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.write(spans_path)
        result.update(
            spans_file=os.path.relpath(spans_path),
            traced_latencies=[elapsed for elapsed, _ in runs["traced"]],
            traced_outputs_identical=not mismatch,
            per_layer={name: {"value": layers[name], "unit": unit} for name, unit in LAYER_METRICS},
        )
    result.update(
        timed_failed=len(timed_failures),
        attempted=1 + len(runs["plain"]) + len(runs["traced"]),
        failed=len(failures),
        failures=failures[:10],
        inputs_digest=workload.inputs_digest(),
        notes=workload.notes,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
