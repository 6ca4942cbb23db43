"""Reference copy of the trade search that `lineargames.weightedness` ran
before it looked multisets up in a table of losing sums.

`find_trade_failure` and `_losing_rearrangement` below are kept verbatim:
for each winning multiset X, in `combinations_with_replacement` order over
the winning masks, a depth-first search builds the first nondecreasing
sequence of losing masks with X's per-voter counts.  The differential tests
in `test_trade_differential.py` require the library to print the same
certificate as this code on every game they try.
"""

import itertools
from typing import Optional

from lineargames.coalitions import Coalition, canonical_order
from lineargames.exactlp import LPError
from lineargames.games import GameError, LinearGame
from lineargames.weightedness import TradeCertificate, check_certificate


def find_trade_failure(
    v: LinearGame, max_coalitions: int = 3
) -> Optional[TradeCertificate]:
    """Search for a trade failure with |X| = |Y| <= max_coalitions.

    Complete at the given bound; None proves nothing (is_weighted does).
    Search order: increasing |X|, then coalition rank order, so results
    are deterministic.
    """
    if max_coalitions < 2:
        raise GameError("trade search needs a bound of at least 2")
    n = v.n
    bits = v.winning_bitmap()
    winning = [m for m in canonical_order(n) if bits >> m & 1]
    losing = [m for m in canonical_order(n) if not bits >> m & 1]
    for j in range(2, max_coalitions + 1):
        for xs in itertools.combinations_with_replacement(winning, j):
            counts = [0] * n
            for m in xs:
                for i in range(n):
                    counts[i] += m >> i & 1
            ys = _losing_rearrangement(counts, j, losing, bits, n)
            if ys is not None:
                cert = TradeCertificate(
                    tuple(Coalition(n, m) for m in xs),
                    tuple(Coalition(n, m) for m in ys),
                )
                if not check_certificate(v, cert):
                    raise LPError(f"trade search produced a bad certificate {cert}")
                return cert
    return None


def _losing_rearrangement(counts, j, losing, bits, n):
    """DFS for j losing coalitions with the given per-voter counts."""

    def rec(remaining, slots, start):
        if slots == 0:
            return [] if all(c == 0 for c in remaining) else None
        if any(c > slots for c in remaining):
            return None
        support = 0
        for i in range(n):
            if remaining[i] > 0:
                support |= 1 << i
        must = 0  # voters that must appear in every remaining coalition
        for i in range(n):
            if remaining[i] == slots:
                must |= 1 << i
        for idx in range(start, len(losing)):
            m = losing[idx]
            if m & ~support or must & ~m:
                continue
            nxt = remaining[:]
            for i in range(n):
                if m >> i & 1:
                    nxt[i] -= 1
            sub = rec(nxt, slots - 1, idx)
            if sub is not None:
                return [m] + sub
        return None

    return rec(list(counts), j, 0)
