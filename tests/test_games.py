import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lineargames import (
    Coalition,
    GameError,
    LinearGame,
    consensus_game,
    format_game,
    game_from_json,
    game_from_winning_bitmap,
    game_to_json,
    j_covered,
    j_covers,
    parse_game,
    weakest_voter_game,
)

from oracles import (
    brute_at_least_as_desirable,
    brute_up_set,
    brute_winning_masks,
    random_linear_game,
)


def all_games(n):
    """Every linear game on n voters, by downward filter growth."""
    seen = {consensus_game(n)}
    frontier = [consensus_game(n)]
    while frontier:
        nxt = []
        for v in frontier:
            for u in j_covered(v):
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return sorted(seen, key=lambda v: (v.rank(), format_game(v)))


class TestConstruction:
    def test_reduces_to_antichain(self):
        v = LinearGame(
            4,
            [
                Coalition.from_members(4, [3, 2, 1]),
                Coalition.from_members(4, [4, 3, 1]),  # dominated by 321
            ],
        )
        assert [g.members() for g in v.generators] == [(3, 2, 1)]

    def test_rejects_empty(self):
        with pytest.raises(GameError):
            LinearGame(3, [])
        with pytest.raises(GameError):
            LinearGame(3, [Coalition(3, 0)])

    def test_canonical_generator_order(self):
        v = parse_game("<4321;65>", 6)
        w = parse_game("<65;4321>", 6)
        assert v == w
        assert format_game(v) == format_game(w)


class TestWinning:
    def test_winning_matches_brute_force(self):
        rnd = random.Random(5)
        for n in range(1, 7):
            for _ in range(15):
                gens = [
                    Coalition(n, rnd.randint(1, (1 << n) - 1))
                    for _ in range(rnd.randint(1, 4))
                ]
                v = LinearGame(n, gens)
                bits = v.winning_bitmap()
                got = {m for m in range(1 << n) if bits >> m & 1}
                assert got == brute_up_set(n, [g.members() for g in gens])
                assert got == brute_winning_masks(v)

    def test_spec_example(self):
        v = parse_game("<321;43>", 4)
        assert not v.is_winning(Coalition.from_members(4, [3, 2]))
        assert v.winning_bitmap().bit_count() == 6
        assert v.rank() == 10

    def test_rank_examples(self):
        assert parse_game("<653;5432>", 6).rank() == 48
        for n in range(1, 8):
            assert consensus_game(n).rank() == (1 << n) - 1
            assert weakest_voter_game(n).rank() == 1


class TestDuality:
    def test_involution_exhaustive_small(self):
        for n in range(1, 5):
            for v in all_games(n):
                assert v.dual().dual() == v

    @settings(max_examples=40)
    @given(st.integers(1, 6), st.randoms(use_true_random=False))
    def test_involution_and_rank_sum(self, n, rnd):
        v = random_linear_game(rnd, n)
        d = v.dual()
        assert d.dual() == v
        assert v.rank() + d.rank() == 1 << n

    def test_dual_swaps_proper_strong(self):
        for n in range(1, 5):
            for v in all_games(n):
                cv, cd = v.classify(), v.dual().classify()
                assert cv["proper"] == cd["strong"]
                assert cv["strong"] == cd["proper"]

    def test_self_dual_rank(self):
        for n in range(1, 6):
            for v in all_games(n):
                if v.classify()["self_dual"]:
                    assert v.rank() == 1 << (n - 1)

    def test_known_dual(self):
        v = parse_game("<31>", 3)
        assert v.dual() == parse_game("<3;21>", 3)


class TestClassification:
    def test_brute_force_proper_strong(self):
        rnd = random.Random(11)
        for n in range(1, 7):
            for _ in range(10):
                v = random_linear_game(rnd, n)
                win = brute_winning_masks(v)
                full = (1 << n) - 1
                proper = all(
                    not (m in win and (full ^ m) in win) for m in range(1 << n)
                )
                strong = all(
                    m in win or (full ^ m) in win for m in range(1 << n)
                )
                c = v.classify()
                assert c["proper"] == proper
                assert c["strong"] == strong
                assert c["self_dual"] == (proper and strong)


class TestDesirability:
    def test_matches_definition(self):
        rnd = random.Random(13)
        for n in range(2, 6):
            for _ in range(10):
                v = random_linear_game(rnd, n)
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        if i == j:
                            continue
                        igj = brute_at_least_as_desirable(v, i, j)
                        jgi = brute_at_least_as_desirable(v, j, i)
                        verdict = v.desirability(i, j)
                        if igj and jgi:
                            assert verdict == "equal"
                        elif igj:
                            assert verdict == "more"
                        else:
                            assert verdict == "less"

    def test_totality_small_n(self):
        # desirability never raises for games built from shift antichains
        for n in range(2, 6):
            for v in all_games(n):
                for i in range(1, n + 1):
                    for j in range(i + 1, n + 1):
                        assert v.desirability(j, i) in {"more", "equal"}

    def test_known_example(self):
        v = parse_game("<31>", 3)
        assert v.desirability(2, 1) == "equal"
        assert v.hierarchy().power_composition == (1, 2)


class TestHierarchy:
    def test_classes_are_contiguous_runs(self):
        for n in range(1, 6):
            for v in all_games(n):
                h = v.hierarchy()
                flat = [i for cls in h.classes for i in cls]
                assert flat == list(range(n, 0, -1))

    def test_seven_voter_composition(self):
        # weights 10,5,5,3,1,1,1 with quota 14 give 7 > 6 ~ 5 > 4 > 3 ~ 2 ~ 1
        weights = {7: 10, 6: 5, 5: 5, 4: 3, 3: 1, 2: 1, 1: 1}
        bits = 0
        for m in range(1 << 7):
            total = sum(w for i, w in weights.items() if m >> (i - 1) & 1)
            if total >= 14:
                bits |= 1 << m
        v = game_from_winning_bitmap(bits, 7)
        h = v.hierarchy()
        assert h.classes == ((7,), (6, 5), (4,), (3, 2, 1))
        assert h.power_composition == (1, 2, 1, 3)
        assert h.dummies == ()

    def test_composition_with_dummies(self):
        v = parse_game("<321;42>", 4)
        h = v.hierarchy()
        assert h.power_composition == (1, 2, 1)
        ind = v.induce(6)
        hi = ind.hierarchy()
        assert hi.power_composition == (1, 2, 1)
        assert hi.dummies == (2, 1)
        assert hi.extended_composition == (1, 2, 1, 2)


class TestInduced:
    def test_example(self):
        v = parse_game("<321;42>", 4)
        assert v.induce(6) == parse_game("<543;64>", 6)

    def test_identity(self):
        v = parse_game("<321;43>", 4)
        assert v.induce(4) == v

    def test_rank_doubles(self):
        for v in all_games(4):
            ind = v.induce(5)
            assert ind.rank() == 2 * v.rank()
            assert ind.classify() == v.classify()

    def test_rejects_shrinking(self):
        with pytest.raises(GameError):
            parse_game("<321>", 3).induce(2)


class TestCovers:
    def test_cover_count_equals_generator_count(self):
        for n in range(1, 6):
            for v in all_games(n):
                if v == consensus_game(n):
                    assert j_covers(v) == []
                else:
                    assert len(j_covers(v)) == len(v.generators)

    def test_covers_differ_by_one_coalition(self):
        for v in all_games(4):
            for u in j_covers(v):
                diff = v.winning_bitmap() & ~u.winning_bitmap()
                assert diff.bit_count() == 1
                assert u.winning_bitmap() & ~v.winning_bitmap() == 0
                assert game_from_winning_bitmap(u.winning_bitmap(), 4) == u
            for u in j_covered(v):
                diff = u.winning_bitmap() & ~v.winning_bitmap()
                assert diff.bit_count() == 1
                assert game_from_winning_bitmap(u.winning_bitmap(), 4) == u

    def test_covers_inverse_of_covered(self):
        for v in all_games(4):
            for u in j_covered(v):
                assert v in j_covers(u)


class TestTextAndJson:
    def test_round_trip_all_small_games(self):
        for n in range(1, 6):
            for v in all_games(n):
                assert parse_game(format_game(v), n) == v
                assert game_from_json(game_to_json(v)) == v

    def test_comma_shorthand(self):
        assert parse_game("<65, 4321>", 6) == parse_game("<65;4321>", 6)

    def test_braced_generators(self):
        v = parse_game("<{11,2};{10,3,1}>", 11)
        assert [g.members() for g in v.generators] == [(11, 2), (10, 3, 1)]

    def test_rejects_bad_text(self):
        with pytest.raises(GameError):
            parse_game("321;43", 4)
        with pytest.raises(GameError):
            parse_game("<>", 4)
        with pytest.raises(GameError):
            parse_game("<99>", 4)


class TestWinningBitmapRoundTrip:
    def test_rebuild(self):
        rnd = random.Random(3)
        for n in range(1, 7):
            for _ in range(10):
                v = random_linear_game(rnd, n)
                assert game_from_winning_bitmap(v.winning_bitmap(), n) == v

    def test_rejects_non_games(self):
        with pytest.raises(GameError):
            game_from_winning_bitmap(1, 3)  # empty coalition winning
        with pytest.raises(GameError):
            game_from_winning_bitmap(2, 3)  # grand coalition losing
        with pytest.raises(GameError):  # {3, 321}: 32 and 31 lose, not a filter
            game_from_winning_bitmap(1 << 0b100 | 1 << 0b111, 3)
