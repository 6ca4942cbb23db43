"""Exact LP-derived output, pinned byte for byte.

The realizations, facet witnesses and chain witnesses below are whatever
vertex the simplex reaches, so they depend on the row and column order of
every LP the library builds.  They are not unique answers; they are pinned
so that a change to how the LPs are built or solved shows up here when it
moves any printed point.  Recompute them only for a change that means to
move the points, and say so where the change is recorded.

The trade-search and `classify --certify` cases pin trade certificates,
which are unique: the first trade failure in the search order.
"""

import pytest

from lineargames import (
    format_coalition,
    footprint_weighted_cover,
    footprint_weighted_covered,
    interior_point,
    parse_game,
)
from lineargames.cli import run

CLI_CASES = [
    (
        ["realize", "<321;43>", "-n", "4"],
        0,
        "(2/3: 1/3,1/3,1/6,1/6)\n",
    ),
    (
        ["realize", "<321;43>", "-n", "4", "--json"],
        0,
        '{"q": [2, 3], "w": [[1, 3], [1, 3], [1, 6], [1, 6]]}\n',
    ),
    (
        ["realize", "<531;54;4321>", "-n", "5"],
        0,
        "(7/11: 4/11,3/11,2/11,1/11,1/11)\n",
    ),
    (
        ["realize", "<531;54;4321>", "-n", "5", "--json"],
        0,
        '{"q": [7, 11], "w": [[4, 11], [3, 11], [2, 11], [1, 11], [1, 11]]}\n',
    ),
    (
        ["realize", "<62;54;4321>", "-n", "6"],
        0,
        "(10/23: 8/23,5/23,5/23,2/23,2/23,1/23)\n",
    ),
    (
        ["realize", "<62;54;4321>", "-n", "6", "--json"],
        0,
        '{"q": [10, 23], "w": [[8, 23], [5, 23], [5, 23], [2, 23], [2, 23], [1, 23]]}\n',
    ),
    (
        ["realize", "<63;5421>", "-n", "6"],
        1,
        "<63;5421> is unweighted\n",
    ),
    (
        ["realize", "<63;5421>", "-n", "6", "--json"],
        1,
        "<63;5421> is unweighted\n",
    ),
    (
        ["realize", "<7531;654>", "-n", "7"],
        0,
        "(19/32: 9/32,7/32,7/32,5/32,1/16,1/32,1/32)\n",
    ),
    (
        ["realize", "<7531;654>", "-n", "7", "--json"],
        0,
        '{"q": [19, 32], "w": [[9, 32], [7, 32], [7, 32], [5, 32], [1, 16], [1, 32], [1, 32]]}\n',
    ),
    (
        ["realize", "<8621;753;84>", "-n", "8"],
        0,
        "(10/23: 8/23,6/23,3/23,3/23,2/23,1/23,0,0)\n",
    ),
    (
        ["realize", "<8621;753;84>", "-n", "8", "--json"],
        0,
        '{"q": [10, 23], "w": [[8, 23], [6, 23], [3, 23], [3, 23], [2, 23], [1, 23], [0, 1], [0, 1]]}\n',
    ),
    (
        ["realize", "<987;8741>", "-n", "9"],
        0,
        "(22/39: 3/13,3/13,3/13,1/13,1/13,1/13,1/39,1/39,1/39)\n",
    ),
    (
        ["realize", "<987;8741>", "-n", "9", "--json"],
        0,
        '{"q": [22, 39], "w": [[3, 13], [3, 13], [3, 13], [1, 13], [1, 13], [1, 13], [1, 39], [1, 39], [1, 39]]}\n',
    ),
    (
        ["facets", "<521;4321>", "-n", "5"],
        0,
        (
            "<521;4321>: 7 facets: top 2, bottom 2, vertical 3\n"
            "n = 5, hierarchy classes k = 2, degree d = 4; n - k + d = 7\n"
            "  top q = w_521  witness (16/27: 1/3,2/9,5/27,4/27,1/9)\n"
            "  top q = w_4321  witness (11/18: 7/18,7/36,1/6,5/36,1/9)\n"
            "  bottom q = w_432  witness (9/16: 5/16,7/32,3/16,5/32,1/8)\n"
            "  bottom q = w_54  witness (4/7: 5/14,3/14,5/28,1/7,3/28)\n"
            "  vertical w_2 = w_1  witness (4/7: 9/28,3/14,5/28,1/7,1/7)\n"
            "  vertical w_3 = w_2  witness (7/12: 1/3,5/24,1/6,1/6,1/8)\n"
            "  vertical w_4 = w_3  witness (15/26: 9/26,5/26,5/26,2/13,3/26)\n"
        ),
    ),
    (
        ["facets", "<531;54;4321>", "-n", "5"],
        0,
        (
            "<531;54;4321>: 7 facets: top 3, bottom 3, vertical 1\n"
            "n = 5, hierarchy classes k = 4, degree d = 6; n - k + d = 7\n"
            "  top q = w_531  witness (3/5: 9/25,7/25,4/25,3/25,2/25)\n"
            "  top q = w_54  witness (3/5: 9/25,6/25,1/5,3/25,2/25)\n"
            "  top q = w_4321  witness (17/28: 11/28,1/4,5/28,3/28,1/14)\n"
            "  bottom q = w_521  witness (7/12: 3/8,1/4,1/6,1/8,1/12)\n"
            "  bottom q = w_53  witness (17/29: 11/29,7/29,6/29,3/29,2/29)\n"
            "  bottom q = w_432  witness (15/26: 9/26,7/26,5/26,3/26,1/13)\n"
            "  vertical w_2 = w_1  witness (13/22: 4/11,3/11,2/11,1/11,1/11)\n"
        ),
    ),
    (
        ["facets", "<52;432>", "-n", "5"],
        0,
        (
            "<52;432>: 7 facets: top 2, bottom 2, vertical 3\n"
            "n = 5, hierarchy classes k = 2, degree d = 4; n - k + d = 7\n"
            "  top q = w_52  witness (11/21: 8/21,5/21,4/21,1/7,1/21)\n"
            "  top q = w_432  witness (12/23: 10/23,5/23,4/23,3/23,1/23)\n"
            "  bottom q = w_51  witness (11/23: 10/23,5/23,4/23,3/23,1/23)\n"
            "  bottom q = w_431  witness (10/21: 8/21,5/21,4/21,1/7,1/21)\n"
            "  vertical w_3 = w_2  witness (1/2: 7/18,2/9,1/6,1/6,1/18)\n"
            "  vertical w_4 = w_3  witness (1/2: 2/5,1/5,1/5,3/20,1/20)\n"
            "  vertical w_1 = 0  witness (1/2: 7/16,1/4,3/16,1/8,0)\n"
        ),
    ),
    (
        ["chain", "--weights", "11/20,6/20,3/20", "-n", "3"],
        0,
        (
            "saturated chain of 7 games (maximal, self-dual)\n"
            "  <1>  rank 1\n"
            "  <2>  rank 2\n"
            "  <21;3>  rank 3\n"
            "  <3>  rank 4\n"
            "  <31>  rank 5\n"
            "  <32>  rank 6\n"
            "  <321>  rank 7\n"
            "removal order: 1 < 2 < 21 < 3 < 31 < 32\n"
            "consistent; witness weights (4/7,2/7,1/7)\n"
        ),
    ),
    (
        ["chain", "--weights", "35/114,31/114,25/114,16/114,7/114", "-n", "5"],
        0,
        (
            "saturated chain of 31 games (maximal, self-dual)\n"
            "  <1>  rank 1\n"
            "  <2>  rank 2\n"
            "  <21;3>  rank 3\n"
            "  <3>  rank 4\n"
            "  <31;4>  rank 5\n"
            "  <31;5>  rank 6\n"
            "  <32;41;5>  rank 7\n"
            "  <32;41>  rank 8\n"
            "  <32;51>  rank 9\n"
            "  <321;42;51>  rank 10\n"
            "  <321;42>  rank 11\n"
            "  <321;43;52>  rank 12\n"
            "  <421;43;52>  rank 13\n"
            "  <421;43>  rank 14\n"
            "  <43;521>  rank 15\n"
            "  <431;521;53>  rank 16\n"
            "  <431;53>  rank 17\n"
            "  <431;54>  rank 18\n"
            "  <432;531;54>  rank 19\n"
            "  <432;531>  rank 20\n"
            "  <432;541>  rank 21\n"
            "  <4321;532;541>  rank 22\n"
            "  <4321;532>  rank 23\n"
            "  <4321;542>  rank 24\n"
            "  <5321;542>  rank 25\n"
            "  <5321;543>  rank 26\n"
            "  <5421;543>  rank 27\n"
            "  <543>  rank 28\n"
            "  <5431>  rank 29\n"
            "  <5432>  rank 30\n"
            "  <54321>  rank 31\n"
            "removal order: 1 < 2 < 21 < 3 < 4 < 31 < 5 < 41 < 32 < 51 < 42 < 321 < 52 < 421 < 43 < 521 < 53 < 431 < 54 < 531 < 432 < 541 < 532 < 4321 < 542 < 5321 < 5421 < 543 < 5431 < 5432\n"
            "consistent; witness weights (14/45,4/15,2/9,2/15,1/15)\n"
        ),
    ),
    (
        ["trade-search", "<6531>", "-n", "7"],
        0,
        "trade failure: X = {6531, 7542} -> Y = {54321, 765}\n",
    ),
    (
        ["trade-search", "<8741>", "-n", "9", "--bound", "2"],
        0,
        "trade failure: X = {8741, 9752} -> Y = {75421, 987}\n",
    ),
    (
        ["trade-search", "<63;5421>", "-n", "6"],
        0,
        "trade failure: X = {63, 5421} -> Y = {621, 543}\n",
    ),
    (
        ["trade-search", "<62;54;4321>", "-n", "6"],
        0,
        "no trade failure with at most 3 coalitions; LP verdict: weighted\n",
    ),
    (
        ["classify", "<6531>", "-n", "7", "--certify"],
        0,
        (
            "<6531>: linear, proper, unweighted\n"
            "rank 83 of 128\n"
            "dual <4321;65;543>\n"
            "power composition (3, 2, 2), dummies []\n"
            "trade failure: X = {6531, 7542} -> Y = {54321, 765}\n"
        ),
    ),
]

LIBRARY_CASES = {
    "<521;4321>": {
        "cover 4321": "True (17/26: 5/13,2/13,2/13,2/13,2/13)",
        "cover 521": "True (19/30: 1/3,1/5,1/5,2/15,2/15)",
        "covered 432": "True (17/32: 5/16,3/16,3/16,3/16,1/8)",
        "covered 54": "True (15/28: 5/14,3/14,1/7,1/7,1/7)",
        "interior": "(19/33: 1/3,7/33,2/11,5/33,4/33)",
    },
    "<52;432>": {
        "cover 432": "True (19/34: 7/17,3/17,3/17,3/17,1/17)",
        "cover 52": "True (21/38: 7/19,4/19,4/19,3/19,1/19)",
        "covered 431": "True (17/38: 7/19,4/19,4/19,3/19,1/19)",
        "covered 51": "True (15/34: 7/17,3/17,3/17,3/17,1/17)",
        "interior": "(1/2: 9/22,5/22,2/11,3/22,1/22)",
    },
    "<531;54;4321>": {
        "cover 4321": "True (29/46: 9/23,6/23,4/23,2/23,2/23)",
        "cover 531": "True (31/50: 9/25,7/25,4/25,3/25,2/25)",
        "cover 54": "True (5/8: 7/20,1/4,1/5,1/10,1/10)",
        "covered 432": "True (29/52: 9/26,7/26,5/26,3/26,1/13)",
        "covered 521": "True (21/38: 7/19,5/19,3/19,2/19,2/19)",
        "covered 53": "True (9/16: 3/8,1/4,5/24,1/12,1/12)",
        "interior": "(16/27: 10/27,7/27,5/27,1/9,2/27)",
    },
    "<5;321;43>": {
        "cover 321": "True (17/44: 9/22,5/22,2/11,1/11,1/11)",
        "cover 43": "True (13/34: 7/17,3/17,3/17,2/17,2/17)",
        "cover 5": "True (15/38: 7/19,4/19,4/19,2/19,2/19)",
        "covered 42": "True (15/46: 9/23,5/23,4/23,3/23,2/23)",
        "interior": "(4/11: 13/33,7/33,2/11,4/33,1/11)",
    },
}


@pytest.mark.parametrize(
    "argv, code, stdout", CLI_CASES, ids=[" ".join(c[0]) for c in CLI_CASES]
)
def test_cli_output(capsys, argv, code, stdout):
    assert run(argv) == code
    assert capsys.readouterr().out == stdout


@pytest.mark.parametrize("text", sorted(LIBRARY_CASES))
def test_library_points(text):
    v = parse_game(text, 5)
    q, ws = interior_point(v)
    got = {"interior": f"({q}: {','.join(str(w) for w in reversed(ws))})"}
    for a in v.generators:
        ok, r = footprint_weighted_cover(v, a)
        got[f"cover {format_coalition(a)}"] = f"{ok} {r}"
    for b in v.shift_maximal_losing():
        ok, r = footprint_weighted_covered(v, b)
        got[f"covered {format_coalition(b)}"] = f"{ok} {r}"
    assert got == LIBRARY_CASES[text]
