"""Differential tests: the trade search by a table of losing sums against
the depth-first reference in `dfs_trade_search.py`.

Both search the winning multisets in the same order and return, for the
first one that has a losing rearrangement, the first such rearrangement,
so their certificates must print identically, and both must find none on
the same games.
"""

import pytest

from lineargames import build_poset, find_trade_failure, is_weighted

import dfs_trade_search as reference


def assert_same(games, bound):
    for v in games:
        want = reference.find_trade_failure(v, bound)
        assert str(find_trade_failure(v, bound)) == str(want), v


@pytest.mark.parametrize("n", range(3, 6))
def test_every_game_up_to_five_voters_at_bound_three(n):
    assert_same(build_poset(n).nodes, 3)


def test_every_six_voter_game_at_bound_two():
    assert_same(build_poset(6).nodes, 2)


def test_unweighted_six_voter_games_at_bound_three():
    unweighted = [v for v in build_poset(6).nodes if is_weighted(v) is None]
    assert len(unweighted) == 60
    assert_same(unweighted, 3)
