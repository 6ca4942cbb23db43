"""Span tracing around the calls into each layer of lineargames.

The wrappers live here, outside the library: `install` rebinds each listed
function, by object identity, in every loaded `lineargames.*` module
namespace, and each listed method on its class.  Binding by identity
matters because modules import functions by name (`geometry`, `posets` and
`verify` each hold their own reference to `is_weighted`), so patching the
defining module alone would miss those call sites.

A span is (name, start, end, parent span, query id, attributes).  Spans
stay in memory and are written once, by `Tracer.dump`, when the traced
process ends.  `layer_metrics` turns a dump into per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys

QUERY = "query"


def _solve_attrs(args, kwargs, result):
    system = args[0] if args else kwargs["system"]
    strict_rel = sys.modules["lineargames.exactlp"].LT
    strict = sum(1 for c in system.constraints if c.rel == strict_rel)
    return {
        "rows": len(system.constraints),
        "strict_rows": strict,
        "vars": len(system.variables),
        "feasible": int(result.feasible),
    }


def _facet_attrs(args, kwargs, result):
    return {"facets": result.facet_count}


def _trade_attrs(args, kwargs, result):
    return {"found": int(result is not None)}


def _poset_attrs(args, kwargs, result):
    return {"nodes": len(result.nodes), "edges": len(result.cover_edges)}


# (defining module, attribute, span name, attribute extractor)
FUNCTIONS = (
    ("lineargames.exactlp", "solve", "exactlp.solve", _solve_attrs),
    ("lineargames.weightedness", "is_weighted", "weightedness.is_weighted", None),
    ("lineargames.weightedness", "verify_realization",
     "weightedness.verify_realization", None),
    ("lineargames.weightedness", "find_trade_failure",
     "weightedness.find_trade_failure", _trade_attrs),
    ("lineargames.weightedness", "check_certificate",
     "weightedness.check_certificate", None),
    ("lineargames.geometry", "classify_facets", "geometry.classify_facets",
     _facet_attrs),
    ("lineargames.geometry", "footprint_hierarchy",
     "geometry.footprint_hierarchy", None),
    ("lineargames.geometry", "interior_point", "geometry.interior_point", None),
    ("lineargames.games", "j_covers", "games.j_covers", None),
    ("lineargames.games", "j_covered", "games.j_covered", None),
    ("lineargames.posets", "build_poset", "posets.build_poset", _poset_attrs),
    ("lineargames.verify", "suite_enumeration_formula",
     "verify.suite_enumeration_formula", None),
)

# Methods of LinearGame that get a span.  The per-mask helpers in
# `coalitions` run millions of times per run and are measured inside these.
METHODS = (
    "winning_bitmap",
    "shift_maximal_losing",
    "dual",
    "hierarchy",
    "classify",
)

# LinearGame construction is counted, not spanned.
CONSTRUCTOR_COUNT = "games.LinearGame"


class BindError(RuntimeError):
    """A function the tracer must wrap is bound in no lineargames module."""


class Tracer:
    """In-memory span recorder; wrappers record only while `enabled`.

    Span times are read from `clock`, the clock the query latencies are
    read from.
    """

    def __init__(self, clock) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.query_id = None
        self.enabled = False

    def wrap(self, name, fn, attrs=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            record = [name, 0.0, 0.0, tracer.stack[-1], tracer.query_id, None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[1] = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = tracer.clock()
                tracer.stack.pop()
            if attrs is not None:
                record[5] = attrs(args, kwargs, result)
            return result

        return wrapper

    def count(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.enabled:
                tracer.counts[name] = tracer.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def open_query(self, query_id, label: str) -> None:
        """Start the root span of one query; library spans nest under it."""
        self.query_id = query_id
        self.stack = [len(self.spans)]
        self.spans.append([QUERY, 0.0, 0.0, -1, query_id, {"label": label}])
        self.enabled = True

    def close_query(self, start: float, end: float) -> None:
        """Close the root span with the timestamps the latency was read from."""
        self.enabled = False
        root = self.spans[self.stack[0]]
        root[1], root[2] = start, end

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def install(tracer: Tracer) -> dict[str, int]:
    """Bind every wrapper; returns how many namespaces each name was bound in.

    Raises BindError when a listed function is bound nowhere, so a renamed
    or moved function fails the traced run instead of reporting zeros.
    """
    modules = [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "lineargames" or name.startswith("lineargames."))
    ]
    bound: dict[str, int] = {}
    for module_name, attr, name, attrs in FUNCTIONS:
        owner = sys.modules.get(module_name)
        original = getattr(owner, attr, None)
        if original is None:
            raise BindError(f"{module_name}.{attr} not found")
        wrapper = tracer.wrap(name, original, attrs)
        hits = 0
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
                    hits += 1
        if hits == 0:
            raise BindError(f"{module_name}.{attr} is bound in no module")
        bound[name] = hits

    game_class = sys.modules["lineargames.games"].LinearGame
    for attr in METHODS:
        original = game_class.__dict__.get(attr)
        if original is None:
            raise BindError(f"LinearGame.{attr} not found")
        setattr(game_class, attr, tracer.wrap(f"games.LinearGame.{attr}", original))
        bound[f"games.LinearGame.{attr}"] = 1
    game_class.__init__ = tracer.count(CONSTRUCTOR_COUNT, game_class.__init__)
    bound[CONSTRUCTOR_COUNT] = 1
    return bound


# -- per-layer metrics from dumped spans ---------------------------------------


def _self_times(spans):
    """Duration minus the time covered by direct children, per span.

    Calls are synchronous and single-threaded, so children never overlap
    and the covered time is the sum of their durations.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _qid, _attrs in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return [s[2] - s[1] - child_time[i] for i, s in enumerate(spans)]


def layer_metrics(dumps, overhead: float) -> dict[str, tuple[float, str]]:
    """Aggregate the spans of one or more dumps into per-layer metrics,
    each as (value, unit).

    `overhead` is the relative difference in query time between traced
    and untraced runs of the same queries, reported as the tracing overhead.
    """
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    solve_sum = {"rows": 0, "strict_rows": 0, "vars": 0, "feasible": 0}
    facets = trade_found = 0
    poset_nodes = poset_edges = 0
    lps_under = {"geometry.classify_facets": 0, "geometry.footprint_hierarchy": 0}
    candidate_lps = 0
    query_s = covered_s = 0.0
    queries = 0
    constructions = 0

    for dump in dumps:
        spans = dump["spans"]
        constructions += dump["counts"].get(CONSTRUCTOR_COUNT, 0)
        selfs = _self_times(spans)
        for i, (name, start, end, parent, _qid, attrs) in enumerate(spans):
            if name == QUERY:
                queries += 1
                query_s += end - start
                continue
            if spans[parent][0] == QUERY:
                covered_s += end - start
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + selfs[i]
            total_s[name] = total_s.get(name, 0.0) + end - start
            if name == "exactlp.solve":
                for key in solve_sum:
                    solve_sum[key] += attrs[key]
                if spans[parent][0] == "geometry.classify_facets":
                    candidate_lps += 1
                ancestor = parent
                while ancestor >= 0:
                    outer = spans[ancestor][0]
                    if outer in lps_under:
                        lps_under[outer] += 1
                    ancestor = spans[ancestor][3]
            elif name == "geometry.classify_facets":
                facets += attrs["facets"]
            elif name == "weightedness.find_trade_failure":
                trade_found += attrs["found"]
            elif name == "posets.build_poset":
                poset_nodes += attrs["nodes"]
                poset_edges += attrs["edges"]

    def ratio(a, b):
        return a / b if b else 0.0

    def timed(name):
        return self_s.get(name, 0.0), "s"

    solves = calls.get("exactlp.solve", 0)
    m: dict[str, tuple[float, str]] = {
        "exactlp.solve.calls": (solves, "count"),
        "exactlp.solve.self_s": timed("exactlp.solve"),
        "exactlp.solve.ms_per_call": (
            ratio(1000 * total_s.get("exactlp.solve", 0.0), solves), "ms"
        ),
        "exactlp.solve.rows_mean": (ratio(solve_sum["rows"], solves), "count"),
        "exactlp.solve.strict_rows_mean": (ratio(solve_sum["strict_rows"], solves), "count"),
        "exactlp.solve.vars_mean": (ratio(solve_sum["vars"], solves), "count"),
        "exactlp.solve.feasible_ratio": (ratio(solve_sum["feasible"], solves), "ratio"),
    }
    for name in (
        "weightedness.is_weighted",
        "weightedness.verify_realization",
        "weightedness.find_trade_failure",
    ):
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
        m[f"{name}.self_s"] = timed(name)
    m["weightedness.find_trade_failure.found_ratio"] = (
        ratio(trade_found, calls.get("weightedness.find_trade_failure", 0)), "ratio"
    )
    m["weightedness.check_certificate.self_s"] = timed("weightedness.check_certificate")
    for name, lps in lps_under.items():
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
        m[f"{name}.self_s"] = timed(name)
        m[f"{name}.lps_per_call"] = (ratio(lps, calls.get(name, 0)), "count")
    m["geometry.classify_facets.facet_ratio"] = (ratio(facets, candidate_lps), "ratio")
    m["geometry.interior_point.self_s"] = timed("geometry.interior_point")
    m["games.LinearGame.calls"] = (constructions, "count")
    for attr in METHODS:
        m[f"games.LinearGame.{attr}.self_s"] = timed(f"games.LinearGame.{attr}")
    m["games.j_covers.self_s"] = timed("games.j_covers")
    m["games.j_covered.self_s"] = timed("games.j_covered")
    m["posets.build_poset.self_s"] = timed("posets.build_poset")
    m["posets.build_poset.nodes"] = (poset_nodes, "count")
    m["posets.build_poset.edges"] = (poset_edges, "count")
    m["verify.suite_enumeration_formula.self_s"] = timed("verify.suite_enumeration_formula")
    m["trace.queries"] = (queries, "count")
    m["trace.span_coverage"] = (ratio(covered_s, query_s), "ratio")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m
