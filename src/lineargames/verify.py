"""Reproduction suites for the published values this library recomputes.

Each suite returns a list of (check-name, ok, detail) triples so the CLI
can print one line per check and fail loudly on any mismatch.
"""

from __future__ import annotations

from fractions import Fraction

from .appendix import verify_appendix
from .coalitions import Coalition
from .games import (
    LinearGame,
    consensus_game,
    format_game,
    parse_game,
    weakest_voter_game,
)
from .geometry import (
    classify_facets,
    facets_containing_point,
    symmetric_games_above_corner,
)
from .posets import (
    build_poset,
    chain_consistency,
    enumerate_maximal_chains,
    one_generator_proper_count,
    one_generator_proper_list,
    symmetric_game_counts,
    symmetric_games,
    weighted_covered,
    weighted_covers,
)
from .weightedness import is_weighted

Check = tuple[str, bool, str]


def suite_appendix_a() -> list[Check]:
    report = verify_appendix(6)
    detail = "full match" if report.ok else "; ".join(report.mismatches)
    return [("appendix-a table reproduction", report.ok, detail)]


def suite_counts() -> list[Check]:
    checks: list[Check] = []
    j5 = build_poset(5, "J")
    checks.append(("|J_5| = 117", len(j5.nodes) == 117, str(len(j5.nodes))))
    w5 = sum(1 for v in j5.nodes if is_weighted(v) is not None)
    checks.append(("all 5-voter games weighted", w5 == 117, f"{w5} weighted"))

    j6 = build_poset(6, "J")
    checks.append(("|J_6| = 1171", len(j6.nodes) == 1171, str(len(j6.nodes))))
    unweighted = [v for v in j6.nodes if is_weighted(v) is None]
    checks.append(
        ("60 unweighted 6-voter games", len(unweighted) == 60, str(len(unweighted)))
    )
    mid = [v for v in j6.nodes if v.rank() == 32]
    sd = [v for v in mid if v.classify()["self_dual"]]
    checks.append(("41 games at rank 32", len(mid) == 41, str(len(mid))))
    checks.append(("21 self-dual at rank 32", len(sd) == 21, str(len(sd))))
    improper_top = [
        v for v in j6.nodes if v.rank() >= 32 and not v.classify()["proper"]
    ]
    checks.append(
        ("40 improper games in the top half", len(improper_top) == 40,
         str(len(improper_top)))
    )
    top = max(improper_top, key=lambda v: (v.rank(), format_game(v)))
    ok = top == parse_game("<65;4321>", 6) and top.rank() == 37
    checks.append(
        ("highest-rank improper is <65;4321> at 37", ok,
         f"{format_game(top)} at {top.rank()}")
    )
    pi4 = build_poset(4, "Pi")
    checks.append(("|Pi_4| = 14", len(pi4.nodes) == 14, str(len(pi4.nodes))))
    return checks


def suite_enumeration_formula(max_n: int = 10) -> list[Check]:
    checks: list[Check] = []
    for n in range(1, max_n + 1):
        formula = one_generator_proper_count(n)
        brute = sum(
            1
            for m in range(1, 1 << n)
            if LinearGame(n, [Coalition(n, m)]).classify()["proper"]
        )
        checks.append(
            (f"one-generator proper count n={n}", formula == brute,
             f"formula {formula}, brute force {brute}")
        )
        if n <= 10:
            listed = one_generator_proper_list(n)
            ok = len(listed) == formula and all(
                LinearGame(n, [c]).classify()["proper"] for c in listed
            )
            checks.append(
                (f"characterization list n={n}", ok, f"{len(listed)} coalitions")
            )
    return checks


# The 8 non-self-dual proper games at n = 5 whose polytopes exceed 6 facets
# (their duals are also non-simplex), plus the 4 self-dual proper games
# with the same property.  The self-dual four are absent from the
# previously published census; the facet-count law (verified here against
# independently computed poset degrees) forces their counts above 6.
NON_SIMPLEX_5 = [
    "<541;5321>",
    "<541;4321>",
    "<541;532;4321>",
    "<531;4321>",
    "<54;531;4321>",
    "<521;4321>",
    "<54;521;4321>",
    "<53;521;4321>",
]

NON_SIMPLEX_5_SELF_DUAL = [
    "<421;54>",
    "<431;521;53>",
    "<51;4321>",
    "<52;432>",
]


def _poset_degree(v: LinearGame) -> int:
    """Degree in the weighted games poset, counting the boundary facets
    {q=1} of the consensus game and {q=0} of the weakest-voter game (the
    excluded trivial games would be their missing poset neighbors)."""
    d = len(weighted_covers(v)) + len(weighted_covered(v))
    if v == consensus_game(v.n):
        d += 1
    if v == weakest_voter_game(v.n):
        d += 1
    return d


def suite_facet_law(max_n: int = 5) -> list[Check]:
    checks: list[Check] = []
    failures = []
    non_simplex = []
    for n in range(1, max_n + 1):
        for v in build_poset(n, "J").nodes:
            if is_weighted(v) is None:
                continue
            report = classify_facets(v)
            d = _poset_degree(v)
            k = v.hierarchy().k
            if (
                report.facet_count != n - k + d
                or report.degree_d != d
                or report.classes_k != k
            ):
                failures.append(format_game(v))
            if n == 5 and report.facet_count > 6:
                non_simplex.append(v)
    checks.append(
        (f"facet count = n - k + poset degree d for all weighted games"
         f" n <= {max_n}",
         not failures, "all match" if not failures else ", ".join(failures))
    )
    if max_n >= 5:
        expected = set()
        for text in NON_SIMPLEX_5:
            g = parse_game(text, 5)
            expected.add(g)
            expected.add(g.dual())
        self_dual = [parse_game(text, 5) for text in NON_SIMPLEX_5_SELF_DUAL]
        expected.update(self_dual)
        wrong = [format_game(g) for g in self_dual if g.dual() != g]
        got = set(non_simplex)
        checks.append(
            ("non-simplex 5-voter census: the 8 listed proper games and "
             "duals, plus 4 self-dual games",
             got == expected and not wrong,
             f"{len(got)} non-simplex polytopes"
             + "".join(f"; {text} is not self-dual" for text in wrong))
        )
    v = parse_game("<521;4321>", 5)
    report = classify_facets(v)
    shape = (
        len(report.top_facets),
        len(report.bottom_facets),
        len(report.vertical_facets),
    )
    checks.append(
        ("<521;4321> has (2 top, 2 bottom, 3 vertical) facets",
         shape == (2, 2, 3), str(shape))
    )
    q = Fraction(3, 5)
    ws = (Fraction(0), Fraction(1, 5), Fraction(1, 5), Fraction(1, 5), Fraction(2, 5))
    incident = facets_containing_point(report, q, ws)
    checks.append(
        ("vertex (3/5: 2/5,1/5,1/5,1/5,0) lies on 6 of its 7 facets",
         len(incident) == 6, f"{len(incident)} incident facets")
    )
    return checks


def suite_symmetric_games(max_n: int = 6) -> list[Check]:
    checks: list[Check] = []
    for n in range(1, max_n + 1):
        counts = symmetric_game_counts(n)
        games = symmetric_games(n)
        proper = sum(1 for g in games if g.classify()["proper"])
        weighted = sum(1 for g in games if is_weighted(g) is not None)
        ok = (
            len(games) == counts["total"]
            and proper == counts["proper"]
            and weighted == counts["total"]
        )
        checks.append(
            (f"symmetric game counts n={n}", ok,
             f"total {len(games)}, proper {proper}, all weighted")
        )
    corner_3 = symmetric_games_above_corner(3, 3)
    expected = [
        (parse_game("<1>", 3), (Fraction(0), Fraction(1, 3))),
        (parse_game("<21>", 3), (Fraction(1, 3), Fraction(2, 3))),
        (parse_game("<321>", 3), (Fraction(2, 3), Fraction(1))),
    ]
    checks.append(
        ("corner p_3 of the 3-voter simplex: <1>, <21>, <321> in thirds",
         corner_3 == expected, str([(format_game(g), i) for g, i in corner_3]))
    )
    return checks


def suite_chain_examples() -> list[Check]:
    checks: list[Check] = []
    chain = [
        parse_game(t, 5)
        for t in (
            "<54;531>",
            "<54;532>",
            "<541;532>",
            "<532>",
            "<542;5321>",
            "<543;5321>",
        )
    ]
    report = chain_consistency(chain)
    ok = not report.consistent and report.cause is not None
    checks.append(
        ("the six-game 5-voter chain is inconsistent", ok, report.cause or "")
    )
    ok = bool(report.cause) and "31" in report.cause and "4" in report.cause
    checks.append(("its report names the 31-versus-4 contradiction", ok,
                   report.cause or ""))

    pi4 = build_poset(4, "Pi")
    enum = enumerate_maximal_chains(pi4)
    ok = len(enum.chains) == 14 and not enum.truncated
    checks.append(("Pi_4 has 14 maximal saturated chains", ok,
                   str(len(enum.chains))))
    all_consistent = all(
        chain_consistency(c).consistent for c in enum.chains
    )
    checks.append(("all 14 chains consistent", all_consistent, ""))
    return checks


SUITES = {
    "appendix-a": suite_appendix_a,
    "counts": suite_counts,
    "enumeration-formula": suite_enumeration_formula,
    "facet-law": suite_facet_law,
    "symmetric-games": suite_symmetric_games,
    "chain-examples": suite_chain_examples,
}


def run_suites(names) -> tuple[list[Check], bool]:
    checks: list[Check] = []
    for name in names:
        checks.extend(SUITES[name]())
    return checks, all(ok for _, ok, _ in checks)
