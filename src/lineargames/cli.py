"""Command-line front end.

Every subcommand is a pure function of its arguments: no configuration
files, no environment variables, no randomness, so repeated invocations
are byte-identical.  Numeric output is exact fractions; --approx appends
decimal renderings for display only.

Exit codes: 0 success, 2 usage error, 1 a negative-but-valid domain
verdict, which is one of:

- `realize` on an unweighted game, or a `realize --check` that fails;
- `facets` on an unweighted game;
- `hierarchy --geometric` on an unweighted game, or when the geometric
  hierarchy disagrees;
- an inconsistent `chain`;
- a `verify-paper` mismatch;
- `trade-search` on an unweighted game when no trade failure is found
  within the bound;
- `conjecture-probe` finding a counterexample.

A reader that closes stdout early (`| head`) ends the command with exit 0
and no traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .coalitions import CoalitionError, build_m_poset, format_coalition
from .exactlp import LPError
from .games import GameError, format_game, parse_game
from .geometry import (
    GenericityError,
    classify_facets,
    footprint_hierarchy,
    vertical_chain,
)
from .posets import (
    KINDS,
    PosetError,
    build_poset,
    chain_consistency,
    enumerate_maximal_chains,
    probe_induced_conjecture,
)
from .verify import SUITES, run_suites
from .weightedness import (
    find_trade_failure,
    format_realization,
    is_weighted,
    parse_realization,
    realization_to_json,
    verify_realization,
)
from . import export

USAGE_ERROR = 2


def _fmt(value: Fraction, approx: bool) -> str:
    if approx and value.denominator != 1:
        return f"{value} (~{float(value):.6g})"
    return str(value)


def _parse_game_arg(parser, text: str, n: int):
    try:
        return parse_game(text, n)
    except (GameError, CoalitionError) as exc:
        parser.error(f"{exc}; game grammar: \"<\" coalition (\";\" coalition)* \">\"")


def _parse_weights(parser, text: str):
    try:
        return [Fraction(tok.strip()) for tok in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        parser.error(f"bad weight list {text!r}: {exc}")


# -- subcommand handlers ------------------------------------------------------


def cmd_classify(args, parser) -> int:
    v = _parse_game_arg(parser, args.game, args.n)
    verdict = v.classify()
    parts = ["linear"]
    parts.append("proper" if verdict["proper"] else "improper")
    if verdict["strong"]:
        parts.append("strong")
    if verdict["self_dual"]:
        parts.append("self-dual")
    r = is_weighted(v)
    parts.append("weighted" if r is not None else "unweighted")
    print(f"{format_game(v)}: " + ", ".join(parts))
    print(f"rank {v.rank()} of {1 << v.n}")
    print(f"dual {format_game(v.dual())}")
    h = v.hierarchy()
    print(f"power composition {h.power_composition}, dummies {list(h.dummies)}")
    if r is not None:
        print(f"realization {format_realization(r)}")
        if args.approx:
            ws = ",".join(f"{float(w):.6g}" for w in reversed(r.weights))
            print(f"  ~ ({float(r.q):.6g}: {ws})")
    elif args.certify:
        cert = find_trade_failure(v, max_coalitions=args.trade_bound)
        if cert is None:
            print(
                f"no trade failure with at most {args.trade_bound} coalitions"
                " (unweightedness established by LP)"
            )
        else:
            print(f"trade failure: {cert}")
    return 0


def cmd_realize(args, parser) -> int:
    v = _parse_game_arg(parser, args.game, args.n)
    if args.check:
        try:
            r = parse_realization(args.check)
        except (GameError, ValueError) as exc:
            parser.error(f"{exc}; realization grammar: \"(q: w_n,...,w_1)\"")
        ok = verify_realization(v, r)
        print(
            f"{format_realization(r)} "
            + ("realizes" if ok else "does not realize")
            + f" {format_game(v)}"
        )
        return 0 if ok else 1
    r = is_weighted(v)
    if r is None:
        print(f"{format_game(v)} is unweighted")
        return 1
    if args.json:
        print(json.dumps(realization_to_json(r), sort_keys=True))
    else:
        print(format_realization(r))
        if args.approx:
            ws = ",".join(f"{float(w):.6g}" for w in reversed(r.weights))
            print(f"  ~ ({float(r.q):.6g}: {ws})")
    return 0


def cmd_facets(args, parser) -> int:
    v = _parse_game_arg(parser, args.game, args.n)
    if is_weighted(v) is None:
        print(f"{format_game(v)} is unweighted: empty polytope")
        return 1
    report = classify_facets(v)
    if args.json:
        print(json.dumps(report.to_json(), sort_keys=True))
        return 0
    print(
        f"{format_game(v)}: {report.facet_count} facets: "
        f"top {len(report.top_facets)}, bottom {len(report.bottom_facets)}, "
        f"vertical {len(report.vertical_facets)}"
    )
    print(
        f"n = {v.n}, hierarchy classes k = {report.classes_k}, "
        f"degree d = {report.degree_d}; n - k + d = "
        f"{v.n - report.classes_k + report.degree_d}"
    )
    for hs, (q, ws) in report.witness_points.items():
        wtxt = ",".join(_fmt(w, args.approx) for w in reversed(ws))
        print(f"  {hs.describe()}  witness ({_fmt(q, args.approx)}: {wtxt})")
    return 0


def cmd_hierarchy(args, parser) -> int:
    v = _parse_game_arg(parser, args.game, args.n)
    h = v.hierarchy()
    print(f"{format_game(v)}: classes (strongest first): "
          + " | ".join(",".join(map(str, c)) for c in h.classes))
    print(f"power composition {h.power_composition}, dummies {list(h.dummies)}")
    if args.geometric:
        if is_weighted(v) is None:
            print("geometric cross-check skipped: game is unweighted")
            return 1
        g = footprint_hierarchy(v)
        agree = g == h
        print(
            "geometric (smallest-subsimplex) hierarchy "
            + ("agrees" if agree else f"DISAGREES: {g.classes}")
        )
        return 0 if agree else 1
    return 0


def cmd_chain(args, parser) -> int:
    if args.weights:
        ws = _parse_weights(parser, args.weights)
        if len(ws) != args.n:
            parser.error(f"expected {args.n} weights, got {len(ws)}")
        try:
            games = vertical_chain(ws, args.n)
        except (GenericityError, GameError) as exc:
            parser.error(str(exc))
    else:
        if not args.games:
            parser.error("chain needs either --weights or a list of games")
        games = [_parse_game_arg(parser, t, args.n) for t in args.games]
    try:
        report = chain_consistency(games)
    except GameError as exc:
        parser.error(str(exc))
    flags = []
    if report.maximal:
        flags.append("maximal")
    if report.self_dual:
        flags.append("self-dual")
    print(
        f"saturated chain of {len(games)} games"
        + (f" ({', '.join(flags)})" if flags else "")
    )
    for v in games:
        print(f"  {format_game(v)}  rank {v.rank()}")
    seq = report.generator_order.sequence
    if seq:
        print("removal order: " + " < ".join(format_coalition(c) for c in seq))
    if report.consistent:
        wtxt = ",".join(_fmt(w, args.approx) for w in reversed(report.witness))
        print(f"consistent; witness weights ({wtxt})")
        return 0
    print(f"inconsistent: {report.cause}")
    return 1


def cmd_poset(args, parser) -> int:
    if args.kind == "M":
        p = build_m_poset(args.n)
        if args.format != "dot":
            parser.error("the coalitions poset is only emitted as DOT")
        sys.stdout.write(export.m_poset_to_dot(p))
        return 0
    try:
        p = build_poset(args.n, args.kind, force=args.force)
    except PosetError as exc:
        parser.error(str(exc))
    if args.format == "dot":
        sys.stdout.write(export.poset_to_dot(p))
    elif args.format == "json":
        sys.stdout.write(export.poset_to_json(p))
    else:
        sys.stdout.write(export.poset_to_csv(p))
    return 0


def cmd_enumerate(args, parser) -> int:
    try:
        p = build_poset(args.n, args.kind, force=args.force)
    except PosetError as exc:
        parser.error(str(exc))
    if args.chains:
        enum = enumerate_maximal_chains(p, limit=args.limit)
        print(
            f"{len(enum.chains)} maximal saturated chains"
            + (" (truncated)" if enum.truncated else "")
        )
        for chain in enum.chains:
            print("  " + " < ".join(format_game(v) for v in chain))
        return 0
    print(f"{len(p.nodes)} games in {args.kind}_{args.n}")
    for v in p.nodes:
        print(f"  {format_game(v)}  rank {v.rank()}")
    return 0


def cmd_verify_paper(args, parser) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    checks, ok = run_suites(names)
    for name, passed, detail in checks:
        mark = "PASS" if passed else "FAIL"
        line = f"[{mark}] {name}"
        if detail:
            line += f" — {detail}"
        print(line)
    print(("all checks passed" if ok else "MISMATCH: some checks failed"))
    return 0 if ok else 1


def cmd_trade_search(args, parser) -> int:
    v = _parse_game_arg(parser, args.game, args.n)
    cert = find_trade_failure(v, max_coalitions=args.bound)
    if cert is None:
        verdict = "weighted" if is_weighted(v) is not None else "unweighted"
        print(
            f"no trade failure with at most {args.bound} coalitions; "
            f"LP verdict: {verdict}"
        )
        return 0 if verdict == "weighted" else 1
    print(f"trade failure: {cert}")
    return 0


def cmd_conjecture_probe(args, parser) -> int:
    probe = probe_induced_conjecture(args.n)
    if probe.holds:
        print(
            f"holds at n = {args.n}: every comparable weighted pair is "
            "joined by a saturated all-weighted chain"
        )
        return 0
    u, v = probe.counterexample
    print(f"witness found at n = {args.n}: no all-weighted saturated chain "
          f"from {format_game(u)} up to {format_game(v)}")
    return 1


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lineargames",
        description=(
            "Analyze linear simple games and weighted voting systems with "
            "exact rational arithmetic."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def game_cmd(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("game", help='game text, e.g. "<521;4321>"')
        p.add_argument("-n", type=int, required=True, help="number of voters")
        p.add_argument("--approx", action="store_true",
                       help="append decimal renderings (display only)")
        return p

    p = game_cmd("classify", "classify a game and decide weightedness")
    p.add_argument("--certify", action="store_true",
                   help="search for a trade failure when unweighted")
    p.add_argument("--trade-bound", type=int, default=3,
                   help="max coalitions per side in the trade search")
    p.set_defaults(func=cmd_classify)

    p = game_cmd("realize", "emit an exact realization, or check one")
    p.add_argument("--check", metavar="REALIZATION",
                   help='verify "(q: w_n,...,w_1)" against the game')
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_realize)

    p = game_cmd("facets", "classify the facets of the realization polytope")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_facets)

    p = game_cmd("hierarchy", "desirability classes and power composition")
    p.add_argument("--geometric", action="store_true",
                   help="cross-check against the smallest-subsimplex method")
    p.set_defaults(func=cmd_hierarchy)

    p = sub.add_parser("chain", help="check a saturated chain for consistency")
    p.add_argument("games", nargs="*", help="games from bottom to top")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--weights", help="generic weights w_n,...,w_1 summing to 1")
    p.add_argument("--approx", action="store_true")
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("poset", help="emit a poset as DOT/JSON/CSV")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--kind", default="J", choices=("M",) + KINDS)
    p.add_argument("--format", default="dot", choices=("dot", "json", "csv"))
    p.add_argument("--force", action="store_true",
                   help="override the size cap")
    p.set_defaults(func=cmd_poset)

    p = sub.add_parser("enumerate", help="list games or maximal chains")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--kind", default="J", choices=KINDS)
    p.add_argument("--chains", action="store_true",
                   help="enumerate maximal saturated chains instead of nodes")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify-paper",
                       help="recompute published values and diff")
    p.add_argument("--suite", default="all",
                   choices=("all",) + tuple(SUITES))
    p.set_defaults(func=cmd_verify_paper)

    p = game_cmd("trade-search", "search for a trade-robustness failure")
    p.add_argument("--bound", type=int, default=3)
    p.set_defaults(func=cmd_trade_search)

    p = sub.add_parser("conjecture-probe",
                       help="probe the induced-subposet conjecture")
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(func=cmd_conjecture_probe)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0,) else 0
    try:
        code = args.func(args, parser)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (`| head`): send what is left, and
        # the flush at exit, to the null device.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except SystemExit as exc:  # parser.error inside a handler
        return USAGE_ERROR if exc.code not in (0,) else 0
    except (GameError, CoalitionError, PosetError, LPError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
