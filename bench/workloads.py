"""The benchmark's workloads: seeded inputs, the timed queries, the checks.

Inputs are game texts (plus node indices for `enumerate`), so the timed
process parses and builds every `LinearGame` itself.  Reference answers
come from the library's bundled 6-voter table and from published counts,
never from the call being timed.  Checks run after the timed loop, call
`verify_realization` and `check_certificate` explicitly (the library's own
self-checks are `assert`s that `python -O` strips), and return
`(query index, message)` for every failure among the completed queries,
given as `(query index, query, result)` triples.
"""

from __future__ import annotations

import random
from fractions import Fraction

# Published counts for 6 voters (the `counts` suite of `verify-paper`).
J6_GAMES = 1171
J6_RANK32 = 41
J6_RANK32_SELF_DUAL = 21
J6_IMPROPER_TOP_HALF = 40
J6_UNWEIGHTED = 60
J6_UNWEIGHTED_TOP_HALF = 40  # the bundled table lists these

TRADE_BOUND = 3  # the `trade-search` CLI default
TRADE_RANKS = range(32, 38)  # the ranks of the bundled table's games
FORMULA_MAX_N = 10

# Input-set sizes: one pass over a set takes 5 to 8 s on a 2-vCPU host.
CENSUS_STEP = 7  # every 7th of the 1,171 games of J_6: 168 games
POLYTOPE_STEP = 9  # every 9th of the 117 games of J_5: 13 games, 39 queries
TRADE_STEP = 6  # every 6th of the 231 games at TRADE_RANKS: 39 games


class ReferenceMismatch(RuntimeError):
    """The reference answers themselves are inconsistent."""


def _games(lg, n: int, kind: str, key) -> list[tuple[str, tuple]]:
    """(text, key) for every node of the n-voter poset of this kind."""
    return [(lg.format_game(v), key(v)) for v in lg.build_poset(n, kind).nodes]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def systematic_sample(games, step: int) -> list[str]:
    """Every `step`-th text of (text, key) pairs sorted by key then text.

    Spread evenly over the key, which drives the cost, the sample's cost
    is within a few per cent of the population's mean.  The sample is the
    same for every seed: a seeded sample of a few dozen games moves the
    median and tail latency by 5 to 30% between seeds, which would hide
    the changes the benchmark is for.  Seeds order the sample.
    """
    return [text for text, _ in sorted(games, key=lambda g: (g[1], g[0]))[::step]]


def unweighted_6(lg) -> tuple[set[str], set[str]]:
    """Texts of the unweighted 6-voter games, as (top half, bottom half).

    The top half is the bundled table, its rank-32 and higher-rank entries;
    the bottom half is the duals of the higher-rank entries.
    """
    golden = lg.appendix.load_golden(6)
    top = {lg.format_game(v) for v in golden.rank32}
    top |= {lg.format_game(v) for v, _rank in golden.higher}
    bottom = {lg.format_game(v.dual()) for v, _rank in golden.higher}
    if len(top) != J6_UNWEIGHTED_TOP_HALF or len(top) + len(bottom) != J6_UNWEIGHTED:
        raise ReferenceMismatch(
            f"bundled table gives {len(top)} + {len(bottom)} unweighted games"
        )
    return top, bottom


def strictly_interior(v, q: Fraction, ws) -> bool:
    """Is (q, ws) strictly inside the realization polytope of v?"""
    weight = lambda c: sum((ws[i - 1] for i in c.members()), Fraction(0))
    return (
        sum(ws) == 1
        and 0 < q < 1
        and ws[0] > 0
        and all(a < b for a, b in zip(ws, ws[1:]))
        and all(weight(g) > q for g in v.generators)
        and all(weight(b) < q for b in v.shift_maximal_losing())
    )


def poset_degree(lg, v) -> int:
    """Degree in the weighted games poset, counting the boundary facets of
    the consensus game (q = 1) and the weakest-voter game (q = 0)."""
    d = len(lg.weighted_covers(v)) + len(lg.weighted_covered(v))
    d += v == lg.consensus_game(v.n)
    d += v == lg.weakest_voter_game(v.n)
    return d


class Census:
    """parse_game + is_weighted over a fixed sample of J_6, spread over the
    ranks, in seeded order."""

    name = "census"
    n = 6

    def generate(self, lg, seed):
        games = _games(lg, self.n, "J", lambda v: v.rank())
        order = systematic_sample(games, CENSUS_STEP)
        _rng(self.name, seed).shuffle(order)
        return [("is_weighted", text) for text in order]

    def run(self, lg, query, state):
        return lg.is_weighted(lg.parse_game(query[1], self.n))

    def check(self, lg, completed):
        top, bottom = unweighted_6(lg)
        for i, (_, text), r in completed:
            msg = self.check_one(lg, text, r, top | bottom)
            if msg:
                yield i, msg

    def check_one(self, lg, text, realization, unweighted):
        if (realization is None) != (text in unweighted):
            return f"{text}: verdict {'unweighted' if realization is None else 'weighted'} is wrong"
        if realization is not None and not lg.verify_realization(
            lg.parse_game(text, self.n), realization
        ):
            return f"{text}: realization {realization} does not realize the game"
        return None


class Polytope:
    """classify_facets, footprint_hierarchy and interior_point over a fixed
    sample of J_5, in seeded order.

    The three queries of a game differ in cost by 30x, so the median and
    tail move by 10 to 30% with the sample drawn; a fixed sample keeps them
    steady.
    """

    name = "polytope"
    n = 5

    def generate(self, lg, seed):
        # Footprint cost follows the number of desirability classes.
        games = _games(lg, self.n, "J", lambda v: (v.hierarchy().k, v.rank()))
        order = systematic_sample(games, POLYTOPE_STEP)
        _rng(self.name, seed).shuffle(order)
        return [
            (kind, text)
            for text in order
            for kind in ("classify_facets", "footprint_hierarchy", "interior_point")
        ]

    def run(self, lg, query, state):
        kind, text = query
        return getattr(lg, kind)(lg.parse_game(text, self.n))

    def check(self, lg, completed):
        for i, (kind, text), r in completed:
            msg = self.check_one(lg, kind, text, r)
            if msg:
                yield i, msg

    def check_one(self, lg, kind, text, result):
        v = lg.parse_game(text, self.n)
        if kind == "classify_facets":
            k, d = v.hierarchy().k, poset_degree(lg, v)
            if result.facet_count != self.n - k + d or result.degree_d != d:
                return (
                    f"{text}: {result.facet_count} facets, degree {result.degree_d};"
                    f" facet law wants n - k + d = {self.n} - {k} + {d}"
                )
        elif kind == "footprint_hierarchy":
            if result != v.hierarchy():
                return f"{text}: footprint hierarchy {result} differs from {v.hierarchy()}"
        elif not strictly_interior(v, *result):
            return f"{text}: interior point {result} is not strictly inside"
        return None


class Enumerate:
    """Poset builds and per-node combinatorics of J_6; no LP is solved."""

    name = "enumerate"
    n = 6

    def generate(self, lg, seed):
        nodes = list(range(J6_GAMES))
        _rng(self.name, seed).shuffle(nodes)
        queries = [("build_poset", kind) for kind in ("J", "J_plus", "Pi")]
        for i in nodes:
            queries += [(op, i) for op in ("dual", "classify", "hierarchy", "j_covers")]
        queries.append(("suite_enumeration_formula", FORMULA_MAX_N))
        return queries

    def run(self, lg, query, state):
        op, arg = query
        if op == "build_poset":
            poset = lg.build_poset(self.n, arg)
            state[arg] = poset
            return poset
        if op == "suite_enumeration_formula":
            return lg.verify.suite_enumeration_formula(arg)
        v = state["J"].nodes[arg]
        if op == "j_covers":
            return lg.j_covers(v)
        return getattr(v, op)()

    def check(self, lg, completed):
        first = {}
        done = {}
        for i, q, r in completed:
            first.setdefault(q[0], i)
            done[q] = r
        poset = done.get(("build_poset", "J"))
        if poset is None:
            return
        nodes = poset.nodes
        at = first["build_poset"]
        if len(nodes) != J6_GAMES:
            yield at, f"|J_6| = {len(nodes)}, published {J6_GAMES}"
        mid = [i for i, v in enumerate(nodes) if v.rank() == 32]
        if len(mid) != J6_RANK32:
            yield at, f"{len(mid)} games at rank 32, published {J6_RANK32}"
        top_half = sum(1 for v in nodes if v.rank() >= 32)
        expected = {"J_plus": top_half}
        if all(("classify", i) in done for i in range(len(nodes))):
            verdicts = [done[("classify", i)] for i in range(len(nodes))]
            expected["Pi"] = sum(1 for c in verdicts if c["proper"])
            sd = sum(1 for i in mid if verdicts[i]["self_dual"])
            improper = sum(
                1 for i, v in enumerate(nodes)
                if v.rank() >= 32 and not verdicts[i]["proper"]
            )
            at = first["classify"]
            if sd != J6_RANK32_SELF_DUAL:
                yield at, f"{sd} self-dual games at rank 32, published {J6_RANK32_SELF_DUAL}"
            if improper != J6_IMPROPER_TOP_HALF:
                yield at, f"{improper} improper top-half games, published {J6_IMPROPER_TOP_HALF}"
        if all(("j_covers", i) in done for i in range(len(nodes))):
            covers = sum(len(done[("j_covers", i)]) for i in range(len(nodes)))
            if covers != len(poset.cover_edges):
                yield first["j_covers"], (
                    f"j_covers gives {covers} cover pairs, the poset {len(poset.cover_edges)}"
                )
        for i, (op, arg), r in completed:
            if op == "build_poset" and arg in expected and len(r.nodes) != expected[arg]:
                yield i, f"|{arg}| = {len(r.nodes)}, expected {expected[arg]}"
            elif op == "dual" and r.dual() != nodes[arg]:
                yield i, f"dual of dual of {nodes[arg]} is {r.dual()}"
            elif op == "hierarchy" and sum(len(c) for c in r.classes) != self.n:
                yield i, f"hierarchy {r} of {nodes[arg]} does not partition the voters"
            elif op == "suite_enumeration_formula":
                for name, ok, detail in r:
                    if not ok:
                        yield i, f"{name}: {detail}"


class Trade:
    """trade-search semantics over a fixed sample of the J_6 games at the
    bundled table's ranks, in seeded order: bounded trade search, then the
    LP when no certificate is found.

    Ranks 32 to 37 hold 231 games: the table's 40 unweighted games, each
    settled by a certificate, and 191 weighted games, each searched
    exhaustively.  The search time of those is spread narrowly; over all
    of J_6 it runs from 1 ms to 1.3 s with a sparse middle, and the median
    moved by ~20% between seeds.  Every sixth game, sorted by (in the
    table, rank), gives 7 certificates and 32 searches.
    """

    name = "trade"
    n = 6

    def generate(self, lg, seed):
        # A certificate is found in about 1 ms, an exhaustive search takes
        # 0.1 to 0.5 s and grows with the number of winning coalitions.
        table, _bottom = unweighted_6(lg)
        key = lambda v: (lg.format_game(v) in table, v.rank())
        games = [
            g for g in _games(lg, self.n, "J_plus", key) if g[1][1] in TRADE_RANKS
        ]
        order = systematic_sample(games, TRADE_STEP)
        _rng(self.name, seed).shuffle(order)
        return [("trade_search", text) for text in order]

    def run(self, lg, query, state):
        v = lg.parse_game(query[1], self.n)
        certificate = lg.find_trade_failure(v, TRADE_BOUND)
        realization = lg.is_weighted(v) if certificate is None else None
        return certificate, realization

    def check(self, lg, completed):
        unweighted, _bottom = unweighted_6(lg)
        for text in unweighted:
            if lg.parse_game(text, self.n).rank() not in TRADE_RANKS:
                raise ReferenceMismatch(f"table game {text} lies outside the trade ranks")
        for i, (_, text), r in completed:
            msg = self.check_one(lg, text, r, unweighted)
            if msg:
                yield i, msg

    def check_one(self, lg, text, result, unweighted):
        certificate, realization = result
        v = lg.parse_game(text, self.n)
        if (certificate is not None) != (text in unweighted):
            return f"{text}: certificate {'found' if certificate else 'missing'}"
        if certificate is not None:
            if not lg.check_certificate(v, certificate):
                return f"{text}: certificate {certificate} does not check"
        elif realization is None or not lg.verify_realization(v, realization):
            return f"{text}: no certificate and no valid realization"
        return None


WORKLOADS = {w.name: w for w in (Census(), Polytope(), Enumerate(), Trade())}
