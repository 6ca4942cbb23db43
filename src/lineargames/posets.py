"""Game posets: construction, interrogation, chains, and paper probes.

Linear games on n voters are the filters of the coalitions poset; the
poset of all of them is enumerated by growing filters downward from the
consensus game, adding one shift-maximal losing coalition per step (each
step is a cover edge in reverse).  Restricted kinds keep only proper,
weighted, or top-half nodes, with the cover edges induced among them.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Optional

from .coalitions import Coalition, canonical_order, format_coalition
from .exactlp import strictly_feasible
from .games import (
    GameError,
    LinearGame,
    consensus_game,
    format_game,
    j_covered,
    j_covers,
    weakest_voter_game,
)
from .weightedness import (
    add_halfspace,
    difference_terms,
    is_weighted,
    point_weights,
    simplex_halfspaces,
    weight_system,
)

KINDS = ("J", "J_plus", "Pi", "W", "W_plus")

FULL_BUILD_CAP = 6  # full J_n beyond this is tens of thousands of nodes
W_BUILD_CAP = 7


class PosetError(ValueError):
    pass


def _node_key(v: LinearGame):
    return (v.rank(), format_game(v))


@dataclass(frozen=True)
class GamePoset:
    n: int
    kind: str
    nodes: tuple[LinearGame, ...]  # canonical order: rank, then text
    cover_edges: tuple[tuple[int, int], ...]  # (lower, upper) node indices

    def index_of(self, v: LinearGame) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise PosetError(f"{v} is not a node of this poset") from None

    @property
    def _index(self) -> dict:
        if not hasattr(self, "_index_cache"):
            object.__setattr__(
                self, "_index_cache", {v: i for i, v in enumerate(self.nodes)}
            )
        return self._index_cache

    def rank_of(self, v: LinearGame) -> int:
        self.index_of(v)
        return v.rank()

    def dual_of(self, v: LinearGame) -> Optional[LinearGame]:
        """The dual node, or None when it lies outside this (sub)poset."""
        self.index_of(v)
        d = v.dual()
        return d if d in self._index else None

    def covers_of(self, v: LinearGame) -> list[LinearGame]:
        i = self.index_of(v)
        return [self.nodes[hi] for lo, hi in self.cover_edges if lo == i]

    def covered_by(self, v: LinearGame) -> list[LinearGame]:
        i = self.index_of(v)
        return [self.nodes[lo] for lo, hi in self.cover_edges if hi == i]

    def minimal_nodes(self) -> list[LinearGame]:
        uppers = {hi for _, hi in self.cover_edges}
        return [v for i, v in enumerate(self.nodes) if i not in uppers]

    def rank_histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for v in self.nodes:
            hist[v.rank()] = hist.get(v.rank(), 0) + 1
        return dict(sorted(hist.items()))


def build_poset(n: int, kind: str = "J", force: bool = False) -> GamePoset:
    """Enumerate the linear games poset (or a restricted kind) for n voters."""
    if kind not in KINDS:
        raise PosetError(f"unknown poset kind {kind!r}; expected one of {KINDS}")
    cap = W_BUILD_CAP if kind.startswith("W") else FULL_BUILD_CAP
    if n > cap and not force:
        raise PosetError(
            f"kind {kind} capped at n <= {cap} (pass force=True to override)"
        )
    if n > FULL_BUILD_CAP:
        warnings.warn(
            f"building the full {n}-voter games poset; this may take a while",
            stacklevel=2,
        )

    # Grow filters downward from consensus; each added shift-maximal losing
    # coalition is one reversed cover edge.
    top = consensus_game(n)
    all_nodes = [top]
    index = {top: 0}
    edges: list[tuple[int, int]] = []  # (lower, upper)
    frontier = [top]
    while frontier:
        nxt = []
        for v in frontier:
            vi = index[v]
            for u in j_covered(v):
                if u not in index:
                    index[u] = len(all_nodes)
                    all_nodes.append(u)
                    nxt.append(u)
                edges.append((index[u], vi))
        frontier = nxt

    keep = [i for i, v in enumerate(all_nodes) if _kind_filter(v, kind)]
    keep_set = set(keep)
    ordered = sorted(keep, key=lambda i: _node_key(all_nodes[i]))
    renum = {old: new for new, old in enumerate(ordered)}
    nodes = tuple(all_nodes[i] for i in ordered)
    kept_edges = tuple(
        sorted(
            (renum[lo], renum[hi])
            for lo, hi in edges
            if lo in keep_set and hi in keep_set
        )
    )
    return GamePoset(n, kind, nodes, kept_edges)


def _kind_filter(v: LinearGame, kind: str) -> bool:
    if kind == "J":
        return True
    if kind == "J_plus":
        return v.rank() >= 1 << (v.n - 1)
    if kind == "Pi":
        return v.classify()["proper"]
    if kind == "W":
        return is_weighted(v) is not None
    return is_weighted(v) is not None and v.rank() >= 1 << (v.n - 1)


def weighted_covers(v: LinearGame) -> list[LinearGame]:
    """Local query: weighted games covering v, no global poset build."""
    return [u for u in j_covers(v) if is_weighted(u) is not None]


def weighted_covered(v: LinearGame) -> list[LinearGame]:
    return [u for u in j_covered(v) if is_weighted(u) is not None]


# -- enumeration formulas ------------------------------------------------------


def one_generator_proper_count(n: int) -> int:
    """Number of one-generator proper games: 2^n - C(n, floor(n/2))."""
    return (1 << n) - comb(n, n // 2)


def _majority_prefix(mask: int, n: int) -> bool:
    # Does the coalition contain k of the largest 2k-1 voters for some k?
    inside = 0
    for offset in range(n):
        i = n - offset  # voter index, strongest first
        if mask >> (i - 1) & 1:
            inside += 1
        if 2 * inside > offset + 1:
            return True
    return False


def one_generator_proper_list(n: int) -> list[Coalition]:
    """Coalitions whose one-generator game is proper, by the k-of-the-
    largest-(2k-1) characterization."""
    if n > 12:
        raise PosetError("one-generator listing capped at n <= 12")
    return [Coalition(n, m) for m in canonical_order(n) if _majority_prefix(m, n)]


def symmetric_game_counts(n: int) -> dict[str, int]:
    """Counts of symmetric games: C(n+1, 2) total, closed-form proper count."""
    total = comb(n + 1, 2)
    if n % 2 == 0:
        proper = (n * n + 2 * n) // 4
    else:
        proper = (n * n + 2 * n + 1) // 4
    return {"total": total, "proper": proper}


def symmetric_games(n: int) -> list[LinearGame]:
    """All games generated by one run {j+1, ..., j+t} of consecutive voters
    ending at a corner: t winners among the strongest n - j voters."""
    out = []
    for j in range(n):  # j dummies
        for t in range(1, n - j + 1):
            gen = Coalition.from_members(n, range(j + 1, j + t + 1))
            out.append(LinearGame(n, [gen]))
    return out


# -- chains ---------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorOrder:
    """The ordering a saturated chain induces on the coalitions it removes:
    a strictly increasing sequence, then the top game's generators, each
    above the whole sequence but mutually incomparable."""

    sequence: tuple[Coalition, ...]
    top_generators: tuple[Coalition, ...]

    def ordered_pairs(self) -> list[tuple[Coalition, Coalition]]:
        pairs = []
        for a, b in itertools.combinations(self.sequence, 2):
            pairs.append((a, b))
        for a in self.sequence:
            for g in self.top_generators:
                pairs.append((a, g))
        return pairs


@dataclass(frozen=True)
class ChainReport:
    chain: tuple[LinearGame, ...]
    saturated: bool
    maximal: bool
    self_dual: bool
    generator_order: GeneratorOrder
    consistent: bool
    witness: Optional[tuple[Fraction, ...]] = None  # weights, voter 1 first
    cause: Optional[str] = None


def chain_consistency(chain) -> ChainReport:
    """Decide whether a saturated chain's generator ordering is weight-
    realizable; the LP verdict is authoritative, an embedded-copy scan
    supplies the human-readable contradiction when one exists."""
    chain = tuple(chain)
    if not chain:
        raise GameError("empty chain")
    n = chain[0].n
    removed: list[Coalition] = []
    for lo, hi in zip(chain, chain[1:]):
        if hi.n != n:
            raise GameError("chain mixes voter counts")
        diff = lo.winning_bitmap() & ~hi.winning_bitmap()
        if (
            hi.winning_bitmap() & ~lo.winning_bitmap()
            or diff.bit_count() != 1
        ):
            raise GameError(
                f"chain not saturated: {hi} does not cover {lo}"
            )
        removed.append(Coalition(n, diff.bit_length() - 1))
    order = GeneratorOrder(tuple(removed), chain[-1].generators)

    m = len(chain)
    maximal = chain[0] == weakest_voter_game(n) and chain[-1] == consensus_game(n)
    self_dual = all(chain[t].dual() == chain[m - 1 - t] for t in range(m))

    cause = _embedded_copy_contradiction(order, n)
    witness = None
    consistent = False
    if cause is None:
        witness = _order_witness(order, n)
        consistent = witness is not None
        if not consistent:
            cause = "generator order admits no weight vector (LP infeasible)"
    return ChainReport(
        chain=chain,
        saturated=True,
        maximal=maximal,
        self_dual=self_dual,
        generator_order=order,
        consistent=consistent,
        witness=witness,
        cause=cause,
    )


def _embedded_copy_contradiction(order: GeneratorOrder, n: int) -> Optional[str]:
    """Necessary condition: removing a common subset from an ordered pair
    must always point the reduced pair the same way."""
    seen: dict[tuple[int, int], tuple[int, str]] = {}
    for a, b in order.ordered_pairs():  # a < b required
        common = a.mask & b.mask
        ra, rb = a.mask & ~common, b.mask & ~common
        if ra == rb:
            continue
        key = (min(ra, rb), max(ra, rb))
        direction = 1 if ra < rb else -1  # +1 means key[0] < key[1]
        witness = (
            f"{format_coalition(a)} < {format_coalition(b)} forces "
            f"{format_coalition(Coalition(n, ra))} < "
            f"{format_coalition(Coalition(n, rb))}"
        )
        if key in seen and seen[key][0] != direction:
            return f"contradiction: {seen[key][1]}, but {witness}"
        seen.setdefault(key, (direction, witness))
    return None


def _order_witness(order: GeneratorOrder, n: int):
    # The quota variable stays free and unconstrained: only weights matter.
    sys = weight_system(n)
    for hs in simplex_halfspaces(n):
        add_halfspace(sys, hs)
    seq = order.sequence
    for a, b in zip(seq, seq[1:]):  # consecutive strict rows suffice
        sys.lt(difference_terms(a.mask, b.mask), 0)
    if seq:
        for g in order.top_generators:
            sys.lt(difference_terms(seq[-1].mask, g.mask), 0)
    point = strictly_feasible(sys)
    if point is None:
        return None
    return point_weights(point, n)


@dataclass(frozen=True)
class ChainEnumeration:
    chains: tuple[tuple[LinearGame, ...], ...]
    truncated: bool


def enumerate_maximal_chains(
    p: GamePoset, limit: Optional[int] = None
) -> ChainEnumeration:
    """All maximal saturated chains of a built poset, depth-first, in
    canonical node order; truncated (with flag) once `limit` is hit."""
    up: dict[int, list[int]] = {}
    for lo, hi in p.cover_edges:
        up.setdefault(lo, []).append(hi)
    has_lower = {hi for _, hi in p.cover_edges}
    starts = [i for i in range(len(p.nodes)) if i not in has_lower]
    for lst in up.values():
        lst.sort()

    chains: list[tuple[LinearGame, ...]] = []
    truncated = False

    def dfs(i: int, path: list[int]) -> bool:
        nonlocal truncated
        nexts = up.get(i, [])
        if not nexts:
            chains.append(tuple(p.nodes[t] for t in path))
            if limit is not None and len(chains) >= limit:
                truncated = True
                return False
            return True
        for j in nexts:
            path.append(j)
            ok = dfs(j, path)
            path.pop()
            if not ok:
                return False
        return True

    for s in starts:
        if not dfs(s, [s]):
            break
    return ChainEnumeration(tuple(chains), truncated)


# -- conjecture probes -----------------------------------------------------------


@dataclass(frozen=True)
class InducedProbe:
    holds: bool
    counterexample: Optional[tuple[LinearGame, LinearGame]] = None


def probe_induced_conjecture(n: int) -> InducedProbe:
    """For every comparable pair of weighted games, look for a saturated
    all-weighted chain between them.  Experimental probe only."""
    poset = build_poset(n, "J")
    weighted_idx = [
        i for i, v in enumerate(poset.nodes) if is_weighted(v) is not None
    ]
    wset = set(weighted_idx)
    up: dict[int, list[int]] = {}
    for lo, hi in poset.cover_edges:
        if lo in wset and hi in wset:
            up.setdefault(lo, []).append(hi)

    pos = {i: t for t, i in enumerate(weighted_idx)}
    reach = [0] * len(weighted_idx)  # bitset over weighted node positions
    for i in sorted(weighted_idx, key=lambda i: -poset.nodes[i].rank()):
        acc = 0
        for j in up.get(i, []):
            acc |= reach[pos[j]] | (1 << pos[j])
        reach[pos[i]] = acc

    bitmaps = [poset.nodes[i].winning_bitmap() for i in weighted_idx]
    for a in range(len(weighted_idx)):
        wa = bitmaps[a]
        for b in range(len(weighted_idx)):
            if a == b:
                continue
            wb = bitmaps[b]
            # node b above node a in the games poset: W_b subset of W_a
            if wb & ~wa == 0 and wb != wa and not reach[a] >> b & 1:
                return InducedProbe(
                    False,
                    (
                        poset.nodes[weighted_idx[a]],
                        poset.nodes[weighted_idx[b]],
                    ),
                )
    return InducedProbe(True)
