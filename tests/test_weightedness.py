import random
from fractions import Fraction

import pytest

from lineargames import (
    Coalition,
    GameError,
    LPError,
    Realization,
    TradeCertificate,
    check_certificate,
    find_trade_failure,
    footprint_weighted_cover,
    footprint_weighted_covered,
    format_realization,
    is_weighted,
    j_covers,
    normalized_realization,
    parse_game,
    parse_realization,
    strictly_feasible,
    verify_realization,
)
from lineargames import weightedness
from lineargames.weightedness import polytope_system

from oracles import brute_realizes
from test_games import all_games


def coal(n, text_members):
    return Coalition.from_members(n, text_members)


class TestRealizationType:
    def test_validation(self):
        with pytest.raises(GameError):
            Realization(Fraction(0), (Fraction(1),))  # quota must be positive
        with pytest.raises(GameError):
            Realization(Fraction(1, 2), (Fraction(1, 2), Fraction(1, 4)))
        with pytest.raises(GameError):  # descending in voter index
            Realization(Fraction(1, 2), (Fraction(3, 4), Fraction(1, 4)))

    def test_text_round_trip(self):
        r = Realization(
            Fraction(3, 5),
            (Fraction(0), Fraction(1, 5), Fraction(1, 5), Fraction(1, 5),
             Fraction(2, 5)),
        )
        text = format_realization(r)
        assert text == "(3/5: 2/5,1/5,1/5,1/5,0)"
        assert parse_realization(text) == r

    def test_normalization(self):
        r = normalized_realization(22, [9, 9, 9, 3, 3, 3, 1, 1, 1])
        assert sum(r.weights) == 1
        assert r.q == Fraction(22, 39)
        assert r.weights[-1] == Fraction(9, 39)  # strongest voter

    def test_scale_invariance(self):
        v = parse_game("<321;43>", 4)
        base = normalized_realization(Fraction(6, 10), [
            Fraction(35, 100), Fraction(25, 100), Fraction(2, 10),
            Fraction(2, 10),
        ])
        assert verify_realization(v, base)
        for scale in (2, Fraction(1, 3), 7):
            scaled = normalized_realization(
                Fraction(6, 10) * scale,
                [Fraction(35, 100) * scale, Fraction(25, 100) * scale,
                 Fraction(2, 10) * scale, Fraction(2, 10) * scale],
            )
            assert scaled == base
            assert verify_realization(v, scaled)


class TestVerifyRealization:
    def test_paper_style_examples(self):
        v = parse_game("<321;43>", 4)
        good = parse_realization("(3/5: 7/20,1/4,1/5,1/5)")
        assert verify_realization(v, good)
        lowered = parse_realization("(11/20: 7/20,1/4,1/5,1/5)")
        assert not verify_realization(v, lowered)  # {4,2} becomes winning

    def test_matches_fraction_oracle(self):
        # LP realizations put coalitions exactly at the quota; moving one
        # voter's weight (then renormalizing) breaks those ties both ways.
        verdicts, ties = set(), 0
        for n in range(1, 6):
            for v in all_games(n):
                r = is_weighted(v)
                ties += any(
                    sum(w for i, w in enumerate(r.weights) if m >> i & 1)
                    == r.q
                    for m in range(1 << n)
                )
                raw = list(reversed(r.weights))  # strongest first
                candidates = [r]
                for i in range(n):
                    for delta in (Fraction(1, 97), Fraction(-1, 97)):
                        moved = raw[:]
                        moved[i] += delta
                        try:
                            candidates.append(
                                normalized_realization(r.q, moved)
                            )
                        except GameError:  # order or quota range broken
                            pass
                for c in candidates:
                    got = verify_realization(v, c)
                    assert got == brute_realizes(v, c), (v, c)
                    verdicts.add(got)
        assert verdicts == {True, False}
        assert ties > 100

    def test_dictator(self):
        n = 5
        v = parse_game("<5>", n)
        weights = tuple([Fraction(0)] * (n - 1) + [Fraction(1)])
        assert verify_realization(v, Realization(Fraction(1), weights))

    def test_big_certificate(self):
        v = parse_game("<987;8741>", 9)
        r = normalized_realization(22, [9, 9, 9, 3, 3, 3, 1, 1, 1])
        assert verify_realization(v, r)


class TestIsWeighted:
    def test_unweighted_example(self):
        assert is_weighted(parse_game("<8741>", 9)) is None

    def test_weighted_example(self):
        v = parse_game("<987;8741>", 9)
        r = is_weighted(v)
        assert r is not None
        assert verify_realization(v, r)

    def test_all_small_games_weighted(self):
        for n in range(1, 6):
            for v in all_games(n):
                r = is_weighted(v)
                assert r is not None
                assert verify_realization(v, r)

    def test_seven_voter_unweighted(self):
        v = parse_game("<6531>", 7)
        assert v.classify()["proper"]
        assert is_weighted(v) is None

    def test_failed_self_check_raises(self, monkeypatch):
        # The check must hold under python -O, where asserts are stripped.
        monkeypatch.setattr(weightedness, "_weighted_cache", {})
        monkeypatch.setattr(weightedness, "verify_realization", lambda v, r: False)
        with pytest.raises(LPError):
            is_weighted(parse_game("<321;43>", 4))


class TestTradeRobustness:
    def test_certificate_found_and_checkable(self):
        v = parse_game("<8741>", 9)
        cert = find_trade_failure(v, max_coalitions=2)
        assert cert is not None
        assert len(cert.winning_list) == 2
        assert check_certificate(v, cert)

    def test_published_certificate_checks(self):
        v = parse_game("<8741>", 9)
        cert = TradeCertificate(
            (coal(9, [9, 7, 4, 1]), coal(9, [8, 7, 5, 2])),
            (coal(9, [9, 8, 7]), coal(9, [7, 5, 4, 2, 1])),
        )
        assert check_certificate(v, cert)

    def test_conservation_violation_rejected(self):
        v = parse_game("<8741>", 9)
        bad = TradeCertificate(
            (coal(9, [9, 7, 4, 1]), coal(9, [8, 7, 5, 2])),
            (coal(9, [9, 8, 7]), coal(9, [7, 5, 4, 3, 1])),
        )
        assert not check_certificate(v, bad)

    def test_grand_coalition_cannot_lose(self):
        v = parse_game("<321>", 3)
        n_all = coal(3, [3, 2, 1])
        assert not check_certificate(v, TradeCertificate((n_all,), (n_all,)))

    def test_weighted_games_trade_robust(self):
        rnd = random.Random(17)
        games = [v for n in (3, 4) for v in all_games(n)]
        for v in rnd.sample(games, 12):
            assert find_trade_failure(v, max_coalitions=3) is None

    def test_two_trade_on_proper_unweighted(self):
        v = parse_game("<6531>", 7)
        cert = find_trade_failure(v, max_coalitions=2)
        assert cert is not None
        assert check_certificate(v, cert)

    def test_sound_on_all_unweighted_six(self):
        # soundness: whenever a certificate exists, the LP says unweighted
        rnd = random.Random(23)
        games = [v for v in all_games(5)]
        for v in rnd.sample(games, 15):
            cert = find_trade_failure(v, max_coalitions=2)
            assert cert is None  # all 5-voter games are weighted

    def test_bound_validation(self):
        with pytest.raises(GameError):
            find_trade_failure(parse_game("<21>", 2), max_coalitions=1)


class TestFootprintMethod:
    def test_published_cover_example(self):
        v = parse_game("<987;8741>", 9)
        a = coal(9, [9, 8, 7])
        ok, realization = footprint_weighted_cover(v, a)
        assert not ok and realization is None  # the cover is <8741>

    def test_cover_weighted_example(self):
        # removing the generator 321 leaves <421;43> winning above it
        v = parse_game("<321;43>", 4)
        ok, realization = footprint_weighted_cover(v, coal(4, [3, 2, 1]))
        assert ok
        assert verify_realization(parse_game("<421;43>", 4), realization)

    def test_covered_weighted_example(self):
        u = parse_game("<43>", 4)
        ok, realization = footprint_weighted_covered(u, coal(4, [4, 2, 1]))
        assert ok
        assert verify_realization(parse_game("<421;43>", 4), realization)

    def test_dictator_covered(self):
        for n in (3, 4, 5):
            u = parse_game(f"<{n}>", n)
            b = Coalition.from_members(n, range(1, n))
            if b not in u.shift_maximal_losing():
                continue
            ok, realization = footprint_weighted_covered(u, b)
            target = u.winning_bitmap() | 1 << b.mask
            from lineargames import game_from_winning_bitmap

            w = game_from_winning_bitmap(target, n)
            assert ok == (is_weighted(w) is not None)
            if ok:
                assert verify_realization(w, realization)

    def test_agreement_sweep_small(self):
        # full agreement with the direct LP on every cover/covered pair n <= 4
        for n in range(1, 5):
            for v in all_games(n):
                for a in v.generators:
                    if v.winning_bitmap().bit_count() == 1:
                        continue
                    ok, realization = footprint_weighted_cover(v, a)
                    u = [g for g in j_covers(v)
                         if v.winning_bitmap() & ~g.winning_bitmap()
                         == 1 << a.mask][0]
                    assert ok == (is_weighted(u) is not None)
                    if ok:
                        assert verify_realization(u, realization)
                for b in v.shift_maximal_losing():
                    ok, realization = footprint_weighted_covered(v, b)
                    from lineargames import game_from_winning_bitmap

                    w = game_from_winning_bitmap(
                        v.winning_bitmap() | 1 << b.mask, n
                    )
                    assert ok == (is_weighted(w) is not None)
                    if ok:
                        assert verify_realization(w, realization)

    def test_validation(self):
        v = parse_game("<321;43>", 4)
        with pytest.raises(GameError):
            footprint_weighted_cover(v, coal(4, [4, 3, 2]))  # not a generator
        with pytest.raises(GameError):
            footprint_weighted_covered(v, coal(4, [3, 2, 1]))  # not losing


class TestFootprintGeometryExample:
    def test_subspace_misses_footprint(self):
        # The plane w9 = w4 + w1 misses the footprint of <987;8741>.
        v = parse_game("<987;8741>", 9)
        sys = polytope_system(v)
        sys.eq({"w9": Fraction(1), "w4": Fraction(-1), "w1": Fraction(-1)}, 0)
        assert strictly_feasible(sys) is None


class TestDualAgreement:
    def test_weightedness_matches_dual(self):
        for n in range(1, 6):
            for v in all_games(n):
                assert (is_weighted(v) is None) == (
                    is_weighted(v.dual()) is None
                )
