"""The lineargames benchmark.

    python3 bench/run.py --workload census --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  `--seed` draws a workload's input
set: a fixed number of game texts (`workloads.py`).  A run makes passes
over that set, each in a fresh interpreter (`worker.py`), so the library's
result caches start empty in every pass, as they do for every CLI call.
Within a pass one caller runs the queries in a closed loop: the next query
starts when the previous one returns, with no threads.

Times are reported at reference host speed.  On a shared host the same
work runs up to 2x slower for seconds to minutes at a time, so raw query
rates of identical runs spread by 4 to 14% (IQR over median).  Each pass
therefore times a fixed unit of exact rational arithmetic that shares no
code with lineargames (`calibrate.py`) every 25 ms of wall time, also in
the middle of a query, plus three units before the first query and three
after the last; query latencies leave the units' time out.  A query's
latency is scaled by CALIBRATION_REF_S over the mean time of the units
timed while it ran and the three nearest on each side.  A change to
lineargames moves the adjusted times exactly as it moves the raw ones; a
slower host moves both the queries and the units.  The raw figures and
each pass's host factor go to standard error.

--trace 0 makes at least three passes, and more while another pass brings
the query time spent closer to `--seconds`.  A query's latency is the
median of its adjusted latencies over the passes, which drops the pass in
which the host stalled it; every pass is checked.  The end-to-end metrics
are

  queries_per_s  queries per second of adjusted latency
  query_p50_ms   median latency (Harrell-Davis estimate, `quantile.py`)
  query_tail_ms  latency at the highest percentile with ten queries above
                 it, read from the sorted latencies; the percentile and
                 query count go to standard error
  peak_rss_mb    peak resident memory of a timed process, read before
                 the output checks run
  setup_s        median over seven fresh interpreters of import plus input
                 generation, the time before the first query, adjusted by
                 the same process's calibration

--trace 1 makes pairs of an untraced and a traced pass, the same way.  A
traced pass records spans around every layer call (`tracer.py`); the
per-layer metrics come from one traced pass, raw, and the tracing overhead
compares the adjusted query time of the traced and the untraced passes.

A human-readable report goes to standard error; the last line of standard
output is the result as one JSON object.  The exit code is 0 when the
benchmark ran, whether or not every output checked; it is 2 when the
source tree is missing and 1 when a pass could not run.
"""

from __future__ import annotations

import argparse
import bisect
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from quantile import harrell_davis
from tracer import layer_metrics
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKER = BENCH / "worker.py"

SETUP_SAMPLES = 7  # set-up is short and noisy; report the median of these
REPEATS = 3  # every query runs in at least this many fresh passes
WINDOW = 3  # calibration units on each side of a query that also scale it
RUN_LIMIT_S = 170  # every worker is stopped before this much wall time
TAIL_BEYOND = 10  # the tail percentile keeps this many queries above it
# The scale of adjusted times: a calibration unit's time on a 2-vCPU Xeon VM
# with CPython 3.11 when its shared host is quiet (the fastest units seen
# there take 1.5 to 1.6 ms).  Adjusted times read as on that host.
CALIBRATION_REF_S = 1.5e-3


class BenchError(RuntimeError):
    pass


def run_worker(spec: dict, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the next pass")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), json.dumps(spec)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass {spec['pass_no']} ran past the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"pass {spec['pass_no']} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pass(base: dict, deadline: float, pass_no: int, trace: bool = False) -> dict:
    spec = dict(
        base,
        pass_no=pass_no,
        mode="measure",
        trace_path=str(OUT / f"trace-{base['workload']}.json") if trace else None,
    )
    return run_worker(spec, deadline)


def host_factor(result: dict) -> float:
    """How much slower the host ran during a pass (or set-up) than the
    reference host, from the calibration units timed in it."""
    return statistics.fmean(result["calibration"]) / CALIBRATION_REF_S


def query_factors(result: dict) -> list[float]:
    """How much slower the host ran than the reference host during each
    query of a pass: the mean of the calibration units timed while the
    query ran and the WINDOW timed last before it and first after it."""
    at, units = result["calibrated_at"], result["calibration"]
    factors = []
    for start, latency in zip(result["starts"], result["latencies"]):
        first = bisect.bisect_left(at, start)
        last = bisect.bisect_right(at, start + latency)
        window = units[max(0, first - WINDOW) : last + WINDOW]
        factors.append(statistics.fmean(window) / CALIBRATION_REF_S)
    return factors


def adjusted(passes: list[dict]) -> list[float]:
    """Each query's latency at reference host speed: the median over
    passes of the same input set."""
    per_pass = [
        [x / f for x, f in zip(p["latencies"], query_factors(p))] for p in passes
    ]
    return [statistics.median(times) for times in zip(*per_pass)]


def measure(base: dict, seconds: float, deadline: float) -> list[dict]:
    """At least REPEATS passes, and more while another pass brings the
    query time spent closer to `seconds`."""
    passes: list[dict] = []
    spent = 0.0
    while len(passes) < REPEATS or spent + spent / len(passes) / 2 < seconds:
        passes.append(run_pass(base, deadline, len(passes)))
        spent += sum(passes[-1]["latencies"])
    return passes


def measure_traced(base: dict, seconds: float, deadline: float):
    """Pairs of an untraced and a traced pass: at least one, and more while
    another pair brings the query time spent closer to `seconds`; returns
    (untraced passes, traced passes)."""
    untraced: list[dict] = []
    traced: list[dict] = []
    spent = 0.0
    while not traced or spent + spent / len(traced) / 2 < seconds:
        for passes, trace in ((untraced, False), (traced, True)):
            passes.append(run_pass(base, deadline, len(untraced) + len(traced), trace))
            spent += sum(passes[-1]["latencies"])
    return untraced, traced


def end_to_end(passes: list[dict], setups: list[dict]) -> tuple[dict, dict]:
    latencies = sorted(adjusted(passes))
    count = len(latencies)
    beyond = min(TAIL_BEYOND, count - 1)
    metrics = {
        "queries_per_s": (count / sum(latencies), "1/s"),
        "query_p50_ms": (1000 * harrell_davis(latencies, 0.5), "ms"),
        "query_tail_ms": (1000 * latencies[count - 1 - beyond], "ms"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
        "setup_s": (statistics.median(s["setup_s"] / host_factor(s) for s in setups), "s"),
    }
    raw = [x for p in passes for x in p["latencies"]]
    notes = {
        "tail_percentile": 100 * (count - beyond) / count,
        "queries": count,
        "passes": len(passes),
        "setup_samples": len(setups),
        "raw_queries_per_s": len(raw) / sum(raw),
        "raw_query_p50_ms": 1000 * statistics.median(raw),
        "raw_setup_s": statistics.median(s["setup_s"] for s in setups),
        "host_factor_min": min(host_factor(p) for p in passes),
        "host_factor_max": max(host_factor(p) for p in passes),
    }
    return metrics, notes


def report(args, metrics, notes, passes) -> dict:
    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit}", file=sys.stderr)
    for name, value in notes.items():
        print(f"  ({name} = {value:.6g})", file=sys.stderr)
    print(f"  (fail_ratio = {failed}/{attempted} = {failed / attempted:.6g})", file=sys.stderr)
    for p in passes:
        for message in p["failures"]:
            print(f"  FAILED {message}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "lineargames" / "__init__.py").is_file():
        print(f"error: no lineargames source tree at {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    compileall.compile_dir(str(SRC), quiet=1)  # every pass imports from bytecode
    base = {"workload": args.workload, "seed": args.seed, "src": str(SRC)}
    try:
        if args.trace:
            OUT.mkdir(exist_ok=True)
            untraced, traced = measure_traced(base, args.seconds, deadline)
            with open(OUT / f"trace-{args.workload}.json") as fh:
                dump = json.load(fh)
            overhead = sum(adjusted(traced)) / sum(adjusted(untraced)) - 1.0
            metrics = layer_metrics([dump], overhead)
            notes = {"passes": len(untraced) + len(traced)}
            passes = untraced + traced
        else:
            passes = measure(base, args.seconds, deadline)
            setups = list(passes)
            while len(setups) < SETUP_SAMPLES:
                spec = dict(base, pass_no=len(setups), mode="setup")
                setups.append(run_worker(spec, deadline))
            metrics, notes = end_to_end(passes, setups)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(args, metrics, notes, passes)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
