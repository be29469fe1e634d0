"""retroflux benchmark: one seeded workload, end-to-end or per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload {simulate_dense,fit_batch,cli_pipeline}
                             --seed N --seconds S --trace {0,1}

The workload runs in a child interpreter (session.py) with PYTHONPATH set
to this checkout's src/, so its peak resident memory can be read with
getrusage(RUSAGE_CHILDREN) after it exits.  setup_s is the median over
SETUP_SAMPLES child interpreters of the wall time from process start until
`import retroflux` returns.  Nothing here changes a machine setting: no
cache drops, no CPU pinning.

Output: a JSON report line (environment, sample counts, quartiles, tail
percentile, fail ratio, tracing overhead), then, as the last line, the
result object {"correct", "attempted", "failed", "metrics"}.  --trace 0
reports the end-to-end metrics, --trace 1 the per-layer metrics of a traced
run.  Exits non-zero without a result when src/retroflux is missing or a
child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
WORKLOADS = ("simulate_dense", "fit_batch", "cli_pipeline")
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150
TAIL_BEYOND = 10

_IMPORT_PROBE = (
    "import time, retroflux; t = time.monotonic(); import numpy; "
    "print(t, retroflux.__file__, numpy.__version__)"
)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def _probe_import() -> tuple[float, str]:
    """Seconds from spawning an interpreter until `import retroflux` returns."""
    start = time.monotonic()
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], env=_env(), cwd=ROOT,
        capture_output=True, text=True, timeout=60, check=True,
    ).stdout.split()
    if not os.path.abspath(out[1]).startswith(SRC + os.sep):
        raise RuntimeError(f"imported retroflux from {out[1]}, not from {SRC}")
    return float(out[0]) - start, out[2]


def measure_setup(samples: int) -> tuple[list[float], str]:
    _, numpy_version = _probe_import()  # untimed: fills the bytecode cache
    return [_probe_import()[0] for _ in range(samples)], numpy_version


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it,
    and that percentile (nearest rank); None without such a percentile."""
    ordered = sorted(latencies)
    rank = len(ordered) - TAIL_BEYOND
    if rank < 1:
        return None, None
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def _read(path: str) -> str:
    try:
        with open(path) as handle:
            return handle.read().strip()
    except OSError:
        return ""


def environment(numpy_version: str) -> dict:
    """Read-only record of the machine and software the run used."""
    model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(os.path.join(base, index, "level"))
        kind = _read(os.path.join(base, index, "type"))
        if kind != "Instruction" and level in ("2", "3"):
            caches[f"L{level}"] = _read(os.path.join(base, index, "size"))
    commit = None
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head.startswith("ref: "):
        commit = _read(os.path.join(ROOT, ".git", head[5:])) or None
    elif head:
        commit = head
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches_per_cpu0": caches,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "note": "the largest array is 8 MB, far below 4x the last-level cache, so bytes "
        "are reported as computed from array sizes with no bandwidth ratio",
    }


def run_session(args) -> dict:
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "session.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", workdir],
            env=_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S, check=True,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="retroflux benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "retroflux", "__init__.py")):
        print(f"no retroflux sources under {SRC}", file=sys.stderr)
        return 2

    session = run_session(args)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    setup, numpy_version = measure_setup(SETUP_SAMPLES)

    lat_ms = [x * 1e3 for x in session["latencies"]]
    p50 = statistics.median(lat_ms)
    tail_ms, tail_pct = tail(lat_ms)
    q1, _, q3 = statistics.quantiles(lat_ms, n=4)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, 1 client, 1 process",
        "ops_timed": len(lat_ms),
        "op_ms_quartiles": [q1, p50, q3],
        "op_tail": {"ms": tail_ms, "percentile": tail_pct, "samples_beyond": TAIL_BEYOND},
        "fail_ratio": session["failed"] / session["attempted"],
        "failures": session["failures"],
        "notes": session["notes"],
        "setup_s_samples": setup,
        "inputs_digest": session["inputs_digest"],
        "environment": environment(numpy_version),
    }
    if args.trace:
        traced_ms = statistics.median(session["traced_latencies"]) * 1e3
        report["tracing"] = {
            "untraced_op_p50_ms": p50,
            "traced_op_p50_ms": traced_ms,
            "overhead_ms": traced_ms - p50,
            "outputs_identical": session["traced_outputs_identical"],
            "compared_ops": len(session["traced_latencies"]),
            "spans_file": session["spans_file"],
        }
        metrics = session["per_layer"]
    else:
        metrics = {
            "throughput_ops_s": metric(
                (len(lat_ms) - session["timed_failed"]) / sum(session["latencies"]), "1/s"
            ),
            "op_p50_ms": metric(p50, "ms"),
            "op_tail_ms": metric(tail_ms, "ms"),
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    print(json.dumps(report))
    print(json.dumps({
        "correct": session["failed"] == 0,
        "attempted": session["attempted"],
        "failed": session["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
