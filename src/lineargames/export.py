"""Deterministic DOT/JSON/CSV emitters for posets and reports."""

from __future__ import annotations

import json

from .coalitions import Coalition, CoalitionPoset, format_coalition
from .games import format_game, game_to_json
from .posets import GamePoset


def poset_to_dot(p: GamePoset) -> str:
    lines = ["digraph poset {", "  rankdir=BT;"]
    by_rank: dict[int, list[int]] = {}
    for i, v in enumerate(p.nodes):
        lines.append(f'  n{i} [label="{format_game(v)}"];')
        by_rank.setdefault(v.rank(), []).append(i)
    for r in sorted(by_rank):
        ids = "; ".join(f"n{i}" for i in by_rank[r])
        lines.append(f"  {{ rank=same; {ids}; }}")
    for lo, hi in p.cover_edges:
        lines.append(f"  n{lo} -> n{hi};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def poset_to_json(p: GamePoset) -> str:
    obj = {
        "n": p.n,
        "kind": p.kind,
        "nodes": [game_to_json(v) for v in p.nodes],
        "edges": [[lo, hi] for lo, hi in p.cover_edges],
        "ranks": [v.rank() for v in p.nodes],
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def poset_to_csv(p: GamePoset) -> str:
    lines = ["index,game,rank"]
    for i, v in enumerate(p.nodes):
        lines.append(f'{i},"{format_game(v)}",{v.rank()}')
    lines.append("lower,upper,")
    for lo, hi in p.cover_edges:
        lines.append(f"{lo},{hi},")
    return "\n".join(lines) + "\n"


def m_poset_to_dot(p: CoalitionPoset) -> str:
    lines = ["digraph coalitions {", "  rankdir=BT;"]
    by_rank: dict[int, list[int]] = {}
    for m in range(1 << p.n):
        label = format_coalition(Coalition(p.n, m))
        lines.append(f'  n{m} [label="{label}"];')
        by_rank.setdefault(Coalition(p.n, m).rank(), []).append(m)
    for r in sorted(by_rank):
        ids = "; ".join(f"n{m}" for m in by_rank[r])
        lines.append(f"  {{ rank=same; {ids}; }}")
    for lo in range(1 << p.n):
        for hi in p.covers[lo]:
            lines.append(f"  n{lo} -> n{hi};")
    lines.append("}")
    return "\n".join(lines) + "\n"
