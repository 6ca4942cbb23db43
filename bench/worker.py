"""One pass of a workload, timed in a fresh interpreter.

`run.py` starts this script once per pass, with the source tree on
PYTHONPATH, so the library's result caches (`_weighted_cache`, each game's
`_winning` bitmap) start empty in every timed process, as they do for
every CLI call.  The single argument is a JSON object:

  workload, seed           which inputs to generate (every pass of a run
                           gets the same queries in the same order)
  pass_no                  the pass's number within the run
  src                      the source tree lineargames must be imported from
  mode                     "setup": import and generate, then stop;
                           "measure": also run the timed loop and the checks
  trace_path               write spans here (or null: no tracing)

The last line of standard output is a JSON object with the results: each
query's start and latency, and each calibration unit's start and duration,
on a clock that stops while a unit runs (`calibrate.Sampler`).
"""

from __future__ import annotations

import json
import os
import resource
import sys
from time import perf_counter

import calibrate
from tracer import Tracer, install
from workloads import WORKLOADS

CALIBRATE_EVERY_S = 0.025  # wall time between two calibration units
EDGE_CALIBRATION_UNITS = 3  # units before the first and after the last query
SETUP_CALIBRATION_UNITS = 10


def main() -> None:
    spec = json.loads(sys.argv[1])
    start = perf_counter()
    import lineargames as lg
    import lineargames.appendix  # noqa: F401  (reference table)
    import lineargames.verify  # noqa: F401  (enumeration-formula suite)

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(lg.__file__).startswith(src + os.sep):
        raise RuntimeError(f"lineargames imported from {lg.__file__}, not {src}")

    workload = WORKLOADS[spec["workload"]]
    queries = workload.generate(lg, spec["seed"])
    setup_s = perf_counter() - start
    if spec["mode"] == "setup":
        calibration = [calibrate.unit() for _ in range(SETUP_CALIBRATION_UNITS)]
        print(json.dumps({"setup_s": setup_s, "calibration": calibration}))
        return

    # Query times are read from the sampler's clock, which leaves out the
    # calibration units that interrupt a query.
    sampler = calibrate.Sampler(CALIBRATE_EVERY_S)
    tracer = None
    if spec["trace_path"]:
        tracer = Tracer(sampler.clock)
        install(tracer)

    starts: list[float] = []
    latencies: list[float] = []
    results = []
    errors: dict[int, str] = {}
    state: dict = {}
    for _ in range(EDGE_CALIBRATION_UNITS):
        sampler.sample()
    with sampler:
        for i, query in enumerate(queries):
            if tracer is not None:
                tracer.open_query(i, query[0])
            t0 = sampler.clock()
            try:
                result = workload.run(lg, query, state)
            except Exception as exc:  # a failed query is counted, not fatal
                result = None
                errors[i] = f"{query}: {type(exc).__name__}: {exc}"
            t1 = sampler.clock()
            if tracer is not None:
                tracer.close_query(t0, t1)
            starts.append(t0)
            latencies.append(t1 - t0)
            results.append(result)
    for _ in range(EDGE_CALIBRATION_UNITS):
        sampler.sample()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    completed = [
        (i, queries[i], r) for i, r in enumerate(results) if i not in errors
    ]
    failures = dict(errors)
    for i, message in workload.check(lg, completed):
        failures.setdefault(i, message)

    if tracer is not None:
        tracer.dump(spec["trace_path"])
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "latencies": latencies,
                "failed": len(failures),
                "failures": sorted(failures.values())[:10],
                "peak_rss_mb": peak_rss_mb,
                "starts": starts,
                "calibration": [duration for _, duration in sampler.units],
                "calibrated_at": [at for at, _ in sampler.units],
            }
        )
    )


if __name__ == "__main__":
    main()
