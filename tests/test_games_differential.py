"""Differential tests: the bitmap game construction against the
generator-based reference in `generator_games.py`.

The reference drops dominated generators pairwise and tests every
coalition against every generator; the library closes the given masks
upward and reads the generators and the shift-maximal losers off the
bitmap with whole-bitmap shifts.  Both must agree on the generators, the
shift-maximal losers, the winning set, the rank, the dual and both cover
moves.
"""

import pytest
from hypothesis import given, settings, strategies as st

from lineargames import GameError, LinearGame, build_poset, j_covered, j_covers
from lineargames.coalitions import cover_successors_mask

import generator_games as reference
from oracles import brute_shift_maximal_losing


def assert_same(v: LinearGame, ref: reference.LinearGame) -> None:
    assert v.generators == ref.generators
    assert v.shift_maximal_losing() == ref.shift_maximal_losing()
    assert v.winning_bitmap() == ref.winning_bitmap()
    assert v.rank() == ref.rank()
    assert v.dual().generators == ref.dual().generators
    assert v.dual().winning_bitmap() == ref.dual().winning_bitmap()
    moves = ((j_covers, reference.j_covers), (j_covered, reference.j_covered))
    for mine, theirs in moves:
        got, want = mine(v), theirs(ref)
        assert [u.generators for u in got] == [u.generators for u in want]
        assert [u.winning_bitmap() for u in got] == [u.winning_bitmap() for u in want]


def reference_games(n: int) -> list[reference.LinearGame]:
    """Every game on n voters, grown downward by the reference cover move."""
    top = reference.LinearGame(n, [(1 << n) - 1])
    seen, frontier = {top}, [top]
    while frontier:
        frontier = {u for v in frontier for u in reference.j_covered(v)} - seen
        seen |= frontier
    return sorted(seen, key=lambda r: [g.mask for g in r.generators])


@pytest.mark.parametrize("n", range(1, 7))
def test_every_game_up_to_six_voters(n):
    refs = reference_games(n)
    assert {v.generators for v in build_poset(n).nodes} == {r.generators for r in refs}
    for ref in refs:
        assert_same(LinearGame(n, ref.generators), ref)


@pytest.mark.parametrize("n", range(1, 7))
def test_shift_maximal_losing_matches_oracle(n):
    for v in build_poset(n).nodes:
        losers = [b.mask for b in v.shift_maximal_losing()]
        assert len(losers) == len(set(losers))
        assert set(losers) == brute_shift_maximal_losing(v)


@pytest.mark.frontier
def test_seven_voter_moves_match_per_mask_loops():
    """Generators and shift-maximal losers of every game of J_7 against
    the per-mask loops over cover predecessors and successors."""
    n = 7
    with pytest.warns(UserWarning):
        nodes = build_poset(n, force=True).nodes
    for v in nodes:
        bits = v.winning_bitmap()
        assert {g.mask for g in v.generators} == {
            g.mask for g in reference._minimal_of_bitmap(bits, n)
        }
        assert {b.mask for b in v.shift_maximal_losing()} == {
            m
            for m in range(1, 1 << n)
            if not bits >> m & 1
            and all(bits >> up & 1 for up in cover_successors_mask(m, n))
        }


@st.composite
def generator_lists(draw):
    """A voter count and a mask list with dominated and duplicate masks:
    each added mask is a superset, so shift-above, of a drawn one, and
    equal to it when the extra members are already in it."""
    n = draw(st.integers(1, 9))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=6))
    if masks:
        for m in draw(st.lists(st.sampled_from(masks), max_size=4)):
            masks.append(m | draw(st.integers(0, (1 << n) - 1)))
    return n, draw(st.permutations(masks))


@settings(max_examples=300, deadline=None)
@given(generator_lists())
def test_generator_lists(case):
    n, masks = case
    try:
        ref = reference.LinearGame(n, masks)
    except GameError:
        with pytest.raises(GameError):
            LinearGame(n, masks)
        return
    assert_same(LinearGame(n, masks), ref)
