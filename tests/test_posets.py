from fractions import Fraction
from math import comb

import pytest

from lineargames import (
    GameError,
    PosetError,
    build_poset,
    chain_consistency,
    consensus_game,
    enumerate_maximal_chains,
    is_weighted,
    j_covers,
    one_generator_proper_count,
    one_generator_proper_list,
    parse_game,
    probe_induced_conjecture,
    symmetric_game_counts,
    symmetric_games,
    vertical_chain,
    weakest_voter_game,
    weighted_covered,
    weighted_covers,
)

from test_games import all_games


class TestBuild:
    def test_full_poset_sizes(self):
        assert len(build_poset(4, "J").nodes) == 25
        assert len(build_poset(5, "J").nodes) == 117
        assert len(build_poset(6, "J").nodes) == 1171

    @pytest.mark.frontier
    def test_seven_voter_count(self):
        # |J_7| = 44,313 (Kurz & Tautenhahn, IJGT 42, 2013)
        with pytest.warns(UserWarning):
            p = build_poset(7, "J", force=True)
        assert len(p.nodes) == 44313
        assert len(p.cover_edges) == 190160

    def test_restricted_kinds_match_filters(self):
        for n in (3, 4, 5):
            games = all_games(n)
            half = 1 << (n - 1)
            assert len(build_poset(n, "J").nodes) == len(games)
            assert len(build_poset(n, "J_plus").nodes) == sum(
                v.rank() >= half for v in games
            )
            assert len(build_poset(n, "Pi").nodes) == sum(
                v.classify()["proper"] for v in games
            )
            assert len(build_poset(n, "W").nodes) == sum(
                is_weighted(v) is not None for v in games
            )
            assert len(build_poset(n, "W_plus").nodes) == sum(
                is_weighted(v) is not None and v.rank() >= half for v in games
            )

    def test_proper_four_voter_count(self):
        assert len(build_poset(4, "Pi").nodes) == 14

    def test_extremes(self):
        for n in (3, 4, 5):
            p = build_poset(n, "J")
            assert p.minimal_nodes() == [weakest_voter_game(n)]
            assert p.nodes[-1] == consensus_game(n)

    def test_caps(self):
        with pytest.raises(PosetError):
            build_poset(7, "J")
        with pytest.raises(PosetError):
            build_poset(8, "W")
        with pytest.raises(PosetError):
            build_poset(4, "bogus")


class TestStructure:
    def test_cover_count_equals_generator_count(self):
        for n in (3, 4, 5):
            p = build_poset(n, "J")
            for v in p.nodes:
                if v == consensus_game(n):
                    assert p.covers_of(v) == []
                else:
                    assert len(p.covers_of(v)) == len(v.generators)
                assert sorted(
                    p.covers_of(v), key=lambda g: g.winning_bitmap()
                ) == sorted(j_covers(v), key=lambda g: g.winning_bitmap())

    def test_neighbor_lists_follow_edge_order(self):
        for n in (3, 4, 5):
            for kind in ("J", "Pi"):
                p = build_poset(n, kind)
                for i, v in enumerate(p.nodes):
                    edges = p.cover_edges
                    assert p.covers_of(v) == [p.nodes[hi] for lo, hi in edges if lo == i]
                    assert p.covered_by(v) == [p.nodes[lo] for lo, hi in edges if hi == i]
                uppers = {hi for _, hi in p.cover_edges}
                assert p.minimal_nodes() == [
                    v for i, v in enumerate(p.nodes) if i not in uppers
                ]

    def test_dual_reverses_edges(self):
        for n in (3, 4, 5):
            p = build_poset(n, "J")
            edges = set(p.cover_edges)
            for lo, hi in edges:
                dl = p.dual_of(p.nodes[lo])
                dh = p.dual_of(p.nodes[hi])
                assert dl is not None and dh is not None
                assert (p.index_of(dh), p.index_of(dl)) in edges

    def test_rank_histogram_palindromic(self):
        for n in (3, 4, 5):
            hist = build_poset(n, "J").rank_histogram()
            assert set(hist) == set(range(1, 1 << n))
            counts = [hist[r] for r in sorted(hist)]
            assert counts == counts[::-1]

    def test_dual_of_outside_subposet(self):
        p = build_poset(4, "J_plus")
        v = parse_game("<4321>", 4)  # rank 15, dual has rank 1
        assert p.dual_of(v) is None
        with pytest.raises(PosetError):
            p.index_of(parse_game("<1>", 4))

    def test_local_weighted_neighbors(self):
        for n in (3, 4):
            p = build_poset(n, "W")
            for v in p.nodes:
                assert sorted(
                    weighted_covers(v), key=lambda g: g.winning_bitmap()
                ) == sorted(p.covers_of(v), key=lambda g: g.winning_bitmap())
                assert sorted(
                    weighted_covered(v), key=lambda g: g.winning_bitmap()
                ) == sorted(p.covered_by(v), key=lambda g: g.winning_bitmap())


class TestEnumerationFormulas:
    def test_one_generator_count_formula(self):
        for n in range(1, 11):
            assert one_generator_proper_count(n) == (1 << n) - comb(n, n // 2)

    def test_list_matches_count_and_classification(self):
        for n in range(1, 7):
            lst = one_generator_proper_list(n)
            assert len(lst) == one_generator_proper_count(n)
            from lineargames import Coalition, LinearGame

            for m in range(1, 1 << n):
                proper = LinearGame(n, [Coalition(n, m)]).classify()["proper"]
                assert (Coalition(n, m) in lst) == proper

    def test_symmetric_counts(self):
        for n in range(1, 7):
            counts = symmetric_game_counts(n)
            games = symmetric_games(n)
            assert counts["total"] == comb(n + 1, 2) == len(games)
            assert counts["proper"] == sum(
                v.classify()["proper"] for v in games
            )


class TestChainConsistency:
    INCONSISTENT_5 = (
        "<54;531>",
        "<54;532>",
        "<541;532>",
        "<532>",
        "<542;5321>",
        "<543;5321>",
    )

    def test_inconsistent_example(self):
        chain = [parse_game(t, 5) for t in self.INCONSISTENT_5]
        report = chain_consistency(chain)
        assert report.saturated
        assert not report.maximal
        assert not report.consistent
        assert report.witness is None
        assert "31" in report.cause and "4" in report.cause

    def test_vertical_chain_consistent(self):
        chain = vertical_chain(
            [Fraction(11, 20), Fraction(6, 20), Fraction(3, 20)], 3
        )
        report = chain_consistency(chain)
        assert report.maximal and report.self_dual and report.consistent
        ws = report.witness
        assert sum(ws) == 1
        # witness weights realize the same generator order: re-run the chain
        assert vertical_chain(tuple(reversed(ws)), 3) == list(chain)

    def test_unsaturated_rejected(self):
        with pytest.raises(GameError):
            chain_consistency([parse_game("<1>", 3), parse_game("<3>", 3)])
        with pytest.raises(GameError):
            chain_consistency([])
        with pytest.raises(GameError):
            chain_consistency([parse_game("<1>", 3), parse_game("<21>", 4)])

    def test_single_game_chain(self):
        report = chain_consistency([parse_game("<321>", 3)])
        assert report.consistent


class TestChainEnumeration:
    def test_proper_four_voter_chains(self):
        p = build_poset(4, "Pi")
        enum = enumerate_maximal_chains(p)
        assert len(enum.chains) == 14
        assert not enum.truncated
        assert all(chain_consistency(c).consistent for c in enum.chains)

    def test_weighted_three_voter_chains(self):
        p = build_poset(3, "W")
        enum = enumerate_maximal_chains(p)
        assert not enum.truncated
        for c in enum.chains:
            assert len(c) == 7
            assert c[0] == weakest_voter_game(3)
            assert c[-1] == consensus_game(3)
            report = chain_consistency(c)
            assert report.maximal

    def test_singleton_poset(self):
        p = build_poset(1, "J")
        enum = enumerate_maximal_chains(p)
        assert enum.chains == ((p.nodes[0],),)

    def test_limit_truncates(self):
        p = build_poset(4, "J")
        enum = enumerate_maximal_chains(p, limit=3)
        assert len(enum.chains) == 3
        assert enum.truncated


class TestConjectureProbe:
    def test_small_probe_holds(self):
        for n in (3, 4, 5):
            probe = probe_induced_conjecture(n)
            assert probe.holds
            assert probe.counterexample is None
