"""Self-tests of the benchmark itself (not of lineargames).

    python3 bench/selftest.py

They check that inputs follow the seed, that the traced runs count LP
solves where no cache can hide them, that the checker counts wrong answers
as failures, that the host adjustment cancels a slower host and drops a
stalled pass, and that the tracer refuses to run with a function unbound.
The two traced runs take about half a minute together: each makes one
untraced and one traced pass.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import unittest
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import lineargames as lg  # noqa: E402
import lineargames.appendix  # noqa: E402,F401

from workloads import (  # noqa: E402
    TRADE_RANKS,
    WORKLOADS,
    Census,
    Trade,
    unweighted_6,
)


def bench_run(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    if proc.returncode != 0:
        raise AssertionError(f"run.py {args} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class InputsFollowSeed(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for name, workload in WORKLOADS.items():
            with self.subTest(workload=name):
                first = workload.generate(lg, 7)
                self.assertEqual(first, workload.generate(lg, 7))
                self.assertNotEqual(first, workload.generate(lg, 8))

    def test_inputs_are_texts_of_the_stated_samples(self):
        census = [text for _, text in WORKLOADS["census"].generate(lg, 3)]
        self.assertTrue(all(isinstance(t, str) for t in census))
        self.assertEqual(len(set(census)), 168)
        ranks = {lg.parse_game(text, 6).rank() for text in census}
        self.assertGreater(len(ranks), 50)  # spread over the ranks 0 to 64
        top, bottom = unweighted_6(lg)
        self.assertEqual(len(set(census) & (top | bottom)), 9)  # LPs of both outcomes
        polytope = [text for _, text in WORKLOADS["polytope"].generate(lg, 3)]
        self.assertEqual(len(polytope), 39)
        self.assertEqual(len(set(polytope)), 13)
        trade = [text for _, text in WORKLOADS["trade"].generate(lg, 3)]
        self.assertEqual(len(set(trade)), 39)
        ranks = {lg.parse_game(text, 6).rank() for text in trade}
        self.assertLessEqual(ranks, set(TRADE_RANKS))
        self.assertEqual(len(set(trade) & unweighted_6(lg)[0]), 7)


class TracedRuns(unittest.TestCase):
    def test_census_solves_one_lp_per_query(self):
        result = bench_run("--workload", "census", "--seed", "5", "--seconds", "2", "--trace", "1")
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        self.assertTrue(result["correct"])
        self.assertGreater(metrics["trace.queries"], 0)
        # Fewer solves than queries would mean a result cache leaked in.
        self.assertEqual(metrics["exactlp.solve.calls"], metrics["trace.queries"])
        self.assertEqual(metrics["weightedness.is_weighted.calls"], metrics["trace.queries"])
        self.assertGreaterEqual(metrics["trace.span_coverage"], 0.9)

    def test_enumerate_solves_no_lp(self):
        result = bench_run("--workload", "enumerate", "--seed", "5", "--seconds", "1", "--trace", "1")
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        self.assertTrue(result["correct"])
        self.assertGreater(metrics["trace.queries"], 4000)
        self.assertEqual(metrics["exactlp.solve.calls"], 0)
        self.assertGreater(metrics["posets.build_poset.nodes"], 1171)


class CheckerCountsWrongAnswers(unittest.TestCase):
    def setUp(self):
        self.top, self.bottom = unweighted_6(lg)
        self.unweighted = self.top | self.bottom
        self.weighted_text = "<654>"
        self.unweighted_text = sorted(self.top)[0]

    def test_reference_has_the_published_counts(self):
        self.assertEqual(len(self.top), 40)
        self.assertEqual(len(self.unweighted), 60)

    def test_flipped_verdict_is_a_failure(self):
        census = Census()
        v = lg.parse_game(self.weighted_text, 6)
        realization = lg.is_weighted(v)
        good = [(0, ("is_weighted", self.weighted_text), realization)]
        self.assertEqual(list(census.check(lg, good)), [])
        flipped = [
            (0, ("is_weighted", self.weighted_text), None),
            (1, ("is_weighted", self.unweighted_text), realization),
        ]
        self.assertEqual([i for i, _ in census.check(lg, flipped)], [0, 1])

    def test_perturbed_weight_is_a_failure(self):
        v = lg.parse_game(self.weighted_text, 6)
        r = lg.is_weighted(v)
        raw = list(reversed(r.weights))  # strongest voter first
        raw[0] += 1  # voter 6 alone now reaches the quota; {6} loses in v
        perturbed = lg.normalized_realization(r.q, raw)
        message = Census().check_one(lg, self.weighted_text, perturbed, self.unweighted)
        self.assertIn("does not realize", message)

    def test_missing_certificate_is_a_failure(self):
        trade = Trade()
        v = lg.parse_game(self.unweighted_text, 6)
        certificate = lg.find_trade_failure(v, 2)
        self.assertIsNone(trade.check_one(lg, self.unweighted_text, (certificate, None), self.top))
        self.assertIsNotNone(trade.check_one(lg, self.unweighted_text, (None, None), self.top))
        weighted = (None, lg.normalized_realization(Fraction(1), [1] * 6))
        self.assertIsNotNone(trade.check_one(lg, self.weighted_text, weighted, self.top))


class Estimators(unittest.TestCase):
    def test_harrell_davis_is_a_quantile(self):
        from quantile import betainc, harrell_davis

        self.assertAlmostEqual(betainc(2.0, 3.0, 0.4), 0.5248, places=12)
        self.assertAlmostEqual(harrell_davis([1.0, 2.0, 3.0], 0.5), 2.0, places=12)
        xs = [float(i) for i in range(1, 1001)]
        self.assertAlmostEqual(harrell_davis(xs, 0.5), 500.5, places=6)

    def test_adjustment_cancels_a_slower_host(self):
        import run

        ref = run.CALIBRATION_REF_S

        def pass_(latencies, units, at=(0.5, 0.5, 0.5, 1.5, 3.0, 3.0, 3.0)):
            return {
                "starts": [1.0, 2.0][: len(latencies)],
                "latencies": latencies,
                "calibration": [u * ref for u in units],
                "calibrated_at": list(at),
            }

        quiet = pass_([0.01, 0.03], [1] * 7)
        slow = pass_([0.02, 0.06], [2] * 7)
        stalled = pass_([0.5, 0.03], [1] * 7)
        for got, want in zip(run.adjusted([quiet, slow, stalled]), [0.01, 0.03]):
            self.assertAlmostEqual(got, want, places=12)
        # The host slows down between the two queries: each query is scaled
        # by the three units on either side of it.
        shift = pass_([0.01, 0.09], [1, 1, 1, 2, 3, 3, 3])
        for got, want in zip(run.query_factors(shift), [11 / 6, 13 / 6]):
            self.assertAlmostEqual(got, want, places=12)
        # Units timed during a long query scale it too.
        long = pass_([1.0], [1, 1, 1, 4, 4, 1, 1, 1], at=[0.5] * 3 + [1.5] * 2 + [3.0] * 3)
        self.assertAlmostEqual(run.query_factors(long)[0], 14 / 8, places=12)


class TracerBinding(unittest.TestCase):
    def test_unbound_function_fails_the_traced_run(self):
        code = (
            "import time, lineargames, lineargames.verify, tracer\n"
            "tracer.FUNCTIONS += (('lineargames.games', 'no_such_function', 'x', None),)\n"
            "try:\n"
            "    tracer.install(tracer.Tracer(time.perf_counter))\n"
            "except tracer.BindError as exc:\n"
            "    print('BindError', exc)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        self.assertIn("BindError", proc.stdout, proc.stderr)

    def test_wrappers_reach_names_imported_by_value(self):
        code = (
            "import time, lineargames, lineargames.verify, tracer\n"
            "from lineargames import geometry, posets, weightedness, exactlp\n"
            "originals = (exactlp.solve, weightedness.is_weighted)\n"
            "bound = tracer.install(tracer.Tracer(time.perf_counter))\n"
            "print(bound['exactlp.solve'] >= 2, bound['weightedness.is_weighted'] >= 4,\n"
            "      geometry.is_weighted is weightedness.is_weighted,\n"
            "      posets.is_weighted is not originals[1])\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        self.assertEqual(proc.stdout.split(), ["True"] * 4, proc.stderr)


if __name__ == "__main__":
    unittest.main()
