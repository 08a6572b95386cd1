"""Per-layer measurement for the traced run.

The benchmark measures each layer from outside: while a traced round
runs, :class:`LayerProbe` replaces the layer's public functions with
wrappers that open a ``repro.obs`` span (or, for the hottest leaf calls,
add to a timer and a counter) and restores them afterwards.  Untraced
rounds run the program untouched.  The program's own spans
(``session.run``, ``stage.*``, ``router.match_pair``,
``extension.iteration``, ``cache.get``/``cache.put``) are used as they
are.  Round metrics count only spans inside the benchmark's operation
spans, which cover exactly the timed calls, so the benchmark's own
decoding, publishing and output checks never land in a layer.

Each per-layer metric, per traced round, and the end-to-end metric it
should move:

==========================  ============================================
``region.*``                ``route_p50_s`` on ``open_floor``
``core.*``                  ``route_largest_s``, ``scaling_exponent``
                            on ``bus_ladder``
``scene.*``, ``dp.*``       ``members_per_s`` on ``bus_ladder``
``pair.*``, ``dtw.*``       ``members_per_s`` on ``open_floor``
``drc.check_s``             ``check_p50_ms`` on ``serve_mix``,
                            ``route_largest_s`` on ``bus_ladder``
``io.*``, ``cache.*``,      ``hit_p50_ms``, ``ops_per_s`` on
``server.self_s``           ``serve_mix``
``scenarios.generate_s``,   ``setup_s`` (one traced set-up)
``kicad.import_s``
``unattributed_s``          none: operation time no layer span covers
``trace.overhead_s``        none: traced minus untraced round time
==========================  ============================================
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Tuple

#: Every per-layer metric with its unit, in report order.
METRICS: Tuple[Tuple[str, str], ...] = (
    ("region.assign_s", "s"),
    ("region.calls", "count"),
    ("region.cells", "count"),
    ("core.match_s", "s"),
    ("core.iteration_s", "s"),
    ("core.extend_other_s", "s"),
    ("core.iterations", "count"),
    ("core.applied_ratio", "ratio"),
    ("scene.update_s", "s"),
    ("scene.update_calls", "count"),
    ("scene.query_s", "s"),
    ("scene.query_calls", "count"),
    ("dp.run_s", "s"),
    ("dp.run_calls", "count"),
    ("pair.match_s", "s"),
    ("dtw.convert_s", "s"),
    ("dtw.restore_s", "s"),
    ("drc.check_s", "s"),
    ("io.decode_s", "s"),
    ("io.encode_s", "s"),
    ("io.canonical_s", "s"),
    ("cache.get_s", "s"),
    ("cache.put_s", "s"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("server.self_s", "s"),
    ("scenarios.generate_s", "s"),
    ("kicad.import_s", "s"),
    ("unattributed_s", "s"),
    ("trace.overhead_s", "s"),
)

#: Span names of the benchmark's own operation spans.
OP_PREFIX = "bench.op."


class LayerProbe:
    """Installs the layer wrappers and derives the per-layer metrics."""

    def __init__(self) -> None:
        self.timers: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn: Callable, on_result=None) -> Callable:
        from repro import obs

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with obs.span(name):
                out = fn(*args, **kwargs)
            if on_result is not None:
                on_result(out)
            return out

        return wrapper

    def _timer(self, name: str, fn: Callable) -> Callable:
        timers, counts = self.timers, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                timers[name] += time.perf_counter() - started
                counts[name] += 1

        return wrapper

    def _patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        """Wrap every measured layer entry point (idempotent per round)."""
        import repro.cache
        import repro.core.router
        import repro.io
        import repro.region
        import repro.scenarios
        import repro.server.app
        from repro.api import stages
        from repro.core.dp import SegmentDP
        from repro.core.extension import TraceExtender
        from repro.core.scene import ClearanceScene
        from repro.model import kicad
        from repro.server.app import RouterApp

        def count_cells(assignment) -> None:
            self.counts["region.cells"] += len(assignment.decomposition.regions)

        span = self._span
        self._patch(
            repro.region, "assign_regions",
            lambda f: span("bench.region.assign", f, count_cells),
        )
        self._patch(TraceExtender, "extend", lambda f: span("bench.core.extend", f))
        self._patch(ClearanceScene, "update_trace", lambda f: self._timer("scene.update", f))
        for attr in ("collect_window", "query_polygons"):
            self._patch(ClearanceScene, attr, lambda f: self._timer("scene.query", f))
        self._patch(SegmentDP, "run", lambda f: self._timer("dp.run", f))
        self._patch(repro.core.router, "convert_pair", lambda f: span("bench.dtw.convert", f))
        self._patch(repro.core.router, "restore_pair", lambda f: span("bench.dtw.restore", f))
        for module in (stages, repro.server.app):
            self._patch(module, "check_board", lambda f: span("bench.drc.check", f))
        for module in (repro.io, repro.server.app):
            self._patch(module, "board_from_dict", lambda f: span("bench.io.decode", f))
            for attr in ("board_to_dict", "run_result_to_dict", "drc_report_to_dict"):
                self._patch(module, attr, lambda f: span("bench.io.encode", f))
        self._patch(repro.cache, "canonical_json", lambda f: span("bench.io.canonical", f))
        self._patch(RouterApp, "route", lambda f: span("bench.server.route", f))
        self._patch(RouterApp, "check", lambda f: span("bench.server.check", f))
        self._patch(repro.scenarios, "generate", lambda f: span("bench.scenarios.generate", f))
        self._patch(kicad, "import_scenario_board", lambda f: span("bench.kicad.import", f))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- metrics ------------------------------------------------------------

    def metrics(
        self,
        round_docs: Iterable[Dict[str, Any]],
        setup_doc: Dict[str, Any],
        overhead_s: float,
    ) -> Dict[str, float]:
        """Per-layer metrics per traced round.

        ``round_docs`` are the serialized traces of the traced rounds,
        ``setup_doc`` the trace of one traced set-up.  Layers whose
        wrappers can nest (``io.*``) count self time; the others count
        inclusive time.
        """
        docs = list(round_docs)
        n = max(1, len(docs))
        rounds = SpanTable([s for d in docs for s in d["spans"]], within=OP_PREFIX)
        setup = SpanTable(setup_doc["spans"])
        iterations = rounds.spans("extension.iteration")
        applied = sum(1 for s in iterations if s["attrs"].get("applied"))
        gets = rounds.spans("cache.get")
        hits = sum(1 for s in gets if s["attrs"].get("hit"))
        out = {
            "region.assign_s": rounds.total("bench.region.assign"),
            "region.calls": rounds.count("bench.region.assign"),
            "region.cells": self.counts["region.cells"],
            "core.match_s": rounds.total("stage.match"),
            "core.iteration_s": rounds.total("extension.iteration"),
            "core.extend_other_s": rounds.self_time("bench.core.extend"),
            "core.iterations": len(iterations),
            "core.applied_ratio": applied / len(iterations) if iterations else 0.0,
            "scene.update_s": self.timers["scene.update"],
            "scene.update_calls": self.counts["scene.update"],
            "scene.query_s": self.timers["scene.query"],
            "scene.query_calls": self.counts["scene.query"],
            "dp.run_s": self.timers["dp.run"],
            "dp.run_calls": self.counts["dp.run"],
            "pair.match_s": rounds.total("router.match_pair"),
            "dtw.convert_s": rounds.total("bench.dtw.convert"),
            "dtw.restore_s": rounds.total("bench.dtw.restore"),
            "drc.check_s": rounds.total("bench.drc.check"),
            "io.decode_s": rounds.self_time("bench.io.decode"),
            "io.encode_s": rounds.self_time("bench.io.encode"),
            "io.canonical_s": rounds.self_time("bench.io.canonical"),
            "cache.get_s": rounds.total("cache.get"),
            "cache.put_s": rounds.total("cache.put"),
            "cache.hits": hits,
            "cache.misses": len(gets) - hits,
            "server.self_s": rounds.self_time("bench.server.route")
            + rounds.self_time("bench.server.check"),
            "unattributed_s": sum(
                rounds.self_time(name) for name in rounds.names() if name.startswith(OP_PREFIX)
            ),
        }
        # Ratios and set-up figures are not summed over rounds.
        per_round = {k: v / n for k, v in out.items() if k != "core.applied_ratio"}
        per_round["core.applied_ratio"] = out["core.applied_ratio"]
        per_round["cache.hit_ratio"] = hits / len(gets) if gets else 0.0
        per_round["scenarios.generate_s"] = setup.total("bench.scenarios.generate")
        per_round["kicad.import_s"] = setup.total("bench.kicad.import")
        per_round["trace.overhead_s"] = overhead_s
        return {name: per_round[name] for name, _ in METRICS}


class SpanTable:
    """Totals and self times over a list of serialized spans.

    With ``within``, only spans named with that prefix and their
    descendants count: the benchmark's own work between operations (its
    decoding, publishing and checking) is left out.
    """

    def __init__(self, spans: List[Dict[str, Any]], within: str = "") -> None:
        if within:
            spans = _inside(spans, within)
        self._by_name: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
        self._child_s: Dict[Tuple[int, int], float] = defaultdict(float)
        for s in spans:
            self._by_name[s["name"]].append(s)
            if s["parent"] is not None and s["duration_s"] is not None:
                self._child_s[(s["_doc"], s["parent"])] += s["duration_s"]

    def names(self) -> List[str]:
        return list(self._by_name)

    def spans(self, name: str) -> List[Dict[str, Any]]:
        return self._by_name.get(name, [])

    def count(self, name: str) -> int:
        return len(self.spans(name))

    def total(self, name: str) -> float:
        return sum(s["duration_s"] or 0.0 for s in self.spans(name))

    def self_time(self, name: str) -> float:
        return sum(
            (s["duration_s"] or 0.0) - self._child_s[(s["_doc"], s["id"])]
            for s in self.spans(name)
        )


def _inside(spans: List[Dict[str, Any]], prefix: str) -> List[Dict[str, Any]]:
    """The spans named ``prefix...`` and every span below one of them."""
    by_id = {(s["_doc"], s["id"]): s for s in spans}
    memo: Dict[Tuple[int, int], bool] = {}

    def inside(s: Dict[str, Any]) -> bool:
        key = (s["_doc"], s["id"])
        if key not in memo:
            parent = by_id.get((s["_doc"], s["parent"]))
            memo[key] = s["name"].startswith(prefix) or (
                parent is not None and inside(parent)
            )
        return memo[key]

    return [s for s in spans if inside(s)]


def tag_spans(doc: Dict[str, Any], index: int) -> Dict[str, Any]:
    """Mark each span with its trace's index (span ids repeat across traces)."""
    for s in doc["spans"]:
        s["_doc"] = index
    return doc
