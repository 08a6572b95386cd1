"""The repo benchmark: one command, three workloads, checked outputs.

Run from the repository root::

    python3 repobench/run.py --workload bus_ladder --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing off;
``--trace 1`` alternates untraced and traced rounds and prints the
per-layer metrics (see ``layers.py``), writing the traces and the metrics
under ``.repobench_out/``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--out FILE`` also appends the result, with the run's details, to a
JSON-lines file that ``compare.py`` reads.

The program gets only the generated inputs; every operation's output is
checked by ``checker.py`` outside the timed region.  See README.md for
the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".repobench_out")

#: A run sets up at least this many times and for at least this long;
#: ``setup_s`` is the median set-up.
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0

#: The highest percentile ``hit_tail_ms`` reports.  On a shared machine
#: the slowest few percent of cache hits are scheduler stalls and
#: collector pauses whose number per run follows the machine's load.
TAIL_CAP = 90

#: End-to-end metrics with their units, in report order.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("members_per_s", "1/s"),
    ("route_p50_s", "s"),
    ("route_largest_s", "s"),
    ("scaling_exponent", "1"),
    ("hit_p50_ms", "ms"),
    ("hit_tail_ms", "ms"),
    ("check_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def tail_percentile(n: int) -> int:
    """The highest whole percentile (at most ``TAIL_CAP``) with >= 10
    samples above it under the nearest-rank rule; 0 when there are too
    few samples."""
    for p in range(TAIL_CAP, 0, -1):
        if n - math.ceil(p * n / 100.0) >= 10:
            return p
    return 0


def nearest_rank(values: List[float], p: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered) / 100.0) - 1)]


def loglog_slope(xs: List[float], ys: List[float]) -> float:
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum(
        (a - mx) ** 2 for a in lx
    )


class Sample:
    __slots__ = ("kind", "board", "seconds", "at", "scaled", "failed", "reason")

    def __init__(self, kind: str, board: int, seconds: float, at: float) -> None:
        self.kind = kind
        self.board = board
        #: Measured wall time, and the time scaled to the reference speed
        #: (see ``speed.py``; set once the run has ended).
        self.seconds = seconds
        self.scaled = seconds
        #: Mid-time of the measurement (``perf_counter``).
        self.at = at
        self.failed = False
        self.reason = ""


class Bench:
    """One workload's inputs and the rounds run over them."""

    def __init__(self, spec, seed: int, work_dir: str) -> None:
        from speed import SpeedProbe
        from workloads import expand, round_ops

        self.spec = spec
        self.work_dir = work_dir
        self.boards = expand(spec, seed)
        #: Entry (rung) index of each board.
        self.group = [g for g, _, _ in self.boards]
        self.ops = round_ops(spec, seed)
        self.docs: List[Dict[str, Any]] = []
        self.payloads: List[Dict[str, Any]] = []
        self.members: List[int] = []
        #: Fingerprint of a checked route output -> its board-only findings.
        self.checked: Dict[str, List[str]] = {}
        self.problems: List[str] = []
        self.speed = SpeedProbe()
        self._rounds = 0

    # -- set-up --------------------------------------------------------------

    def setup(self) -> None:
        """Generate, import and encode the inputs, then warm up."""
        from repro.api import SessionConfig
        from repro.io import board_to_dict
        from workloads import make_board, members

        docs, payloads = [], []
        for _, board_spec, board_seed in self.boards:
            doc = board_to_dict(make_board(board_spec, board_seed, ROOT))
            payload: Dict[str, Any] = {"board": doc, "return_board": True}
            if board_spec.region_off:
                config = SessionConfig.preset("default")
                config.region.enabled = False
                payload["config"] = config.to_dict()
            docs.append(doc)
            payloads.append(payload)
        self.docs, self.payloads = docs, payloads
        self.members = [members(doc) for doc in docs]
        # Warm-up: one full round of the smallest board's operations.
        smallest = min(range(len(docs)), key=lambda i: self.members[i])
        self.run_round(only=smallest, record=False)

    # -- rounds --------------------------------------------------------------

    def _fresh_app(self):
        from repro.server.app import RouterApp

        self._rounds += 1
        cache_dir = os.path.join(self.work_dir, f"cache-{self._rounds}")
        return RouterApp(cache_dir), cache_dir

    def run_round(self, only: Optional[int] = None, record: bool = True,
                  trace_op=None) -> List[Sample]:
        """Run one round; returns its samples (none unless ``record``).

        ``trace_op(kind)`` returns a context manager put around exactly
        the timed call of each operation (the traced run's operation
        span); the benchmark's own decoding, publishing and checking stay
        outside it.
        """
        import contextlib

        from repro import io as rio
        from repro.api import RoutingSession, SessionConfig
        from repro.cache import cache_key

        def timed(kind: str, i: int, call):
            with trace_op(kind) if trace_op else contextlib.nullcontext():
                started = time.perf_counter()
                out = call()
                seconds = time.perf_counter() - started
            return Sample(kind, i, seconds, started + seconds / 2.0), out

        app, cache_dir = self._fresh_app()
        fingerprint = SessionConfig.preset("default").fingerprint()
        routed: Dict[int, Tuple[Dict[str, Any], Dict[str, Any], str]] = {}
        samples: List[Sample] = []
        for kind, i in self.ops:
            if only is not None and i != only:
                continue
            if kind == "route" and not self.spec.serve:
                board = rio.board_from_dict(self.docs[i])
                sample, result = timed(
                    kind, i, RoutingSession(board, config="default").run
                )
                result_doc = rio.run_result_to_dict(result)
                routed_doc = rio.board_to_dict(board)
                # Publish the answer the way the server does, so the
                # round's repeat requests are cache hits.
                app.cache.put(
                    cache_key(self.docs[i], fingerprint),
                    {"result": result_doc, "routed_board": routed_doc},
                )
                expected = _canon({"result": result_doc, "routed_board": routed_doc})
            elif kind == "route":
                sample, (_, env) = timed(kind, i, lambda: app.route(self.payloads[i]))
                result_doc, routed_doc = env["result"], env.get("routed_board")
                expected = _canon(_without_cache(env))
                if env.get("cache") != "miss":
                    self._problem(f"{self._label(i)}: first request was a {env.get('cache')}")
            elif kind == "hit":
                sample, (_, env) = timed(kind, i, lambda: app.route(self.payloads[i]))
            else:
                sample, (_, env) = timed(
                    kind, i, lambda: app.check({"board": routed[i][1]})
                )
            # Output checks, outside the timed region.
            if kind == "route":
                routed[i] = (result_doc, routed_doc, expected)
                self._check_route(sample, i, result_doc, routed_doc)
            elif kind == "hit":
                self._check_hit(i, env, routed[i][2])
            else:
                self._check_verdict(i, env, routed[i])
            samples.append(sample)
            if record:
                self.speed.after(sample.seconds)
        shutil.rmtree(cache_dir, ignore_errors=True)
        return samples if record else []

    # -- output checks -------------------------------------------------------

    def _label(self, i: int) -> str:
        _, entry, board_seed = self.boards[i]
        if entry.family == "demo_bus":
            return entry.label  # the same file on every seed
        return f"{entry.label} (seed {board_seed})"

    def _problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)
        else:
            self.problems[-1] = f"... and more ({text})"

    def _route_findings(self, i: int, result_doc, routed_doc) -> List[str]:
        from checker import check_route

        members = [
            {k: m[k] for k in ("name", "target", "length_after")}
            for g in result_doc["groups"]
            for m in g["members"]
        ]
        key = hashlib.sha256(
            _canon({"board": routed_doc, "members": members}).encode()
        ).hexdigest()
        if key not in self.checked:
            self.checked[key] = check_route(self.docs[i], routed_doc, result_doc)
        return self.checked[key]

    def _check_route(self, sample: Sample, i: int, result_doc, routed_doc) -> None:
        findings = self._route_findings(i, result_doc, routed_doc)
        if result_doc["status"] != "ok":
            sample.failed = True
            sample.reason = f"{self._label(i)}: " + "; ".join(
                f"{s['name']} {s['status']}: {s['detail']}"
                for s in result_doc["stages"]
                if s["status"] not in ("ok", "skipped")
            )
        elif findings:
            self._problem(f"{self._label(i)}: routed ok but {findings[:3]}")

    def _check_hit(self, i: int, env: Dict[str, Any], expected: str) -> None:
        if env.get("cache") != "hit":
            self._problem(f"{self._label(i)}: repeat request was a {env.get('cache')}")
        elif self.spec.serve:
            if _canon(_without_cache(env)) != expected:
                self._problem(f"{self._label(i)}: hit differs from its miss response")
        elif _canon(
            {"result": env["result"], "routed_board": env.get("routed_board")}
        ) != expected:
            self._problem(f"{self._label(i)}: hit differs from the routed result")

    def _check_verdict(self, i: int, env: Dict[str, Any], routed) -> None:
        from checker import drc_clean

        findings = self._route_findings(i, routed[0], routed[1])
        if env.get("clean") is not drc_clean(findings):
            self._problem(
                f"{self._label(i)}: /check says clean={env.get('clean')} "
                f"but the checker found {findings[:3]}"
            )


def _canon(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _without_cache(env: Dict[str, Any]) -> Dict[str, Any]:
    return {k: v for k, v in env.items() if k != "cache"}


# -- metrics ------------------------------------------------------------------


def end_to_end(bench: Bench, samples: List[Sample], setup_s: float
               ) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """End-to-end metrics over a run's samples, at the reference speed."""
    spec = bench.spec
    for s in samples:
        s.scaled = s.seconds * bench.speed.scale(s.at)
    timed_s = sum(s.scaled for s in samples)
    by_kind: Dict[str, List[Sample]] = {"route": [], "hit": [], "check": []}
    for s in samples:
        by_kind[s.kind].append(s)
    completed = [s for s in samples if not s.failed]
    routes = by_kind["route"]
    # Per entry (rung): the median over its boards and rounds.
    per_entry = {
        g: statistics.median(s.scaled for s in routes if bench.group[s.board] == g)
        for g in range(len(spec.boards))
    }
    entry_members = {
        g: statistics.median(m for m, h in zip(bench.members, bench.group) if h == g)
        for g in range(len(spec.boards))
    }
    ladder = [g for g, b in enumerate(spec.boards) if b.ladder]
    largest = max(ladder, key=lambda g: entry_members[g])
    hits_ms = [s.scaled * 1e3 for s in by_kind["hit"]]
    p_tail = tail_percentile(len(hits_ms))
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(completed) / timed_s,
        "members_per_s": sum(
            bench.members[s.board] for s in routes if not s.failed
        ) / sum(s.scaled for s in routes),
        "route_p50_s": statistics.median(s.scaled for s in routes),
        "route_largest_s": per_entry[largest],
        "scaling_exponent": loglog_slope(
            [entry_members[g] for g in ladder], [per_entry[g] for g in ladder]
        ),
        "hit_p50_ms": statistics.median(hits_ms),
        "hit_tail_ms": nearest_rank(hits_ms, p_tail) if p_tail else max(hits_ms),
        "check_p50_ms": statistics.median(s.scaled * 1e3 for s in by_kind["check"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "samples": {k: len(v) for k, v in by_kind.items()},
        # Each kind's own throughput, independent of the round's mix.
        "per_kind_per_s": {
            k: len(v) / sum(s.scaled for s in v) for k, v in by_kind.items() if v
        },
        "hit_tail_percentile": p_tail,
        "route_median_s": {spec.boards[g].label: t for g, t in per_entry.items()},
        "members": {spec.boards[g].label: m for g, m in entry_members.items()},
        "largest": spec.boards[largest].label,
        # Scale from measured to reference-speed times over the run.
        "speed_scale": _summary([s.scaled / s.seconds for s in samples if s.seconds]),
        "speed_slices": len(bench.speed.at),
        "raw_route_p50_s": statistics.median(s.seconds for s in routes),
    }
    return metrics, detail


def _summary(values: List[float]) -> Dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"min": min(values), "q1": q1, "median": q2, "q3": q3, "max": max(values)}


# -- entry point ----------------------------------------------------------------


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the result to this JSON-lines file")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import checker
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    checker.selftest()
    spec = WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{spec.name}-", dir=OUT_DIR)
    try:
        return _run(args, spec, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _run(args, spec, work_dir: str) -> int:
    from layers import METRICS

    bench = Bench(spec, args.seed, work_dir)
    setup_times: List[Tuple[float, float]] = []
    while len(setup_times) < SETUP_REPEATS or sum(t for t, _ in setup_times) < SETUP_SECONDS:
        started = time.perf_counter()
        bench.setup()
        took = time.perf_counter() - started
        setup_times.append((took, started + took / 2.0))
        bench.speed.after(took)
    setup_s = statistics.median(t * bench.speed.scale(at) for t, at in setup_times)
    # The benchmark's own long-lived inputs stay out of the collector's
    # scans; otherwise they stretch the program's full collections (from
    # about 6 to 46 ms on bus_ladder), which a server does not carry.
    gc.collect()
    gc.freeze()

    if args.trace:
        metrics, detail, samples = _traced(args, bench)
        units = dict(METRICS)
    else:
        samples = []
        started = time.perf_counter()
        while not samples or time.perf_counter() - started < args.seconds:
            samples.extend(bench.run_round())
        metrics, detail = end_to_end(bench, samples, setup_s)
        units = dict(END_TO_END)

    failures: Dict[str, int] = {}
    for s in samples:
        if s.failed:
            failures[s.reason] = failures.get(s.reason, 0) + 1
    detail["failures"] = failures
    detail["problems"] = bench.problems
    result = {
        "correct": not bench.problems,
        "attempted": len(samples),
        "failed": sum(failures.values()),
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }
    if args.out:
        record = {"workload": spec.name, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "detail": detail, "result": result}
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps({"workload": spec.name, "seed": args.seed, **detail}))
    print(json.dumps(result))
    return 0


def _traced(args, bench: Bench):
    """Alternate untraced and traced rounds; per-layer metrics per round."""
    from repro import obs
    from layers import OP_PREFIX, LayerProbe, tag_spans

    probe = LayerProbe()
    probe.install()
    try:
        with obs.trace("bench.setup") as setup_trace:
            bench.setup()
    finally:
        probe.uninstall()
    probe.timers.clear()
    probe.counts.clear()

    # The traced set-up made new input documents; keep them out of the
    # collector's scans like the first ones.
    gc.collect()
    gc.freeze()

    plain: List[List[Sample]] = []
    traced: List[List[Sample]] = []
    docs: List[Dict[str, Any]] = []

    def traced_round() -> None:
        probe.install()
        try:
            with obs.trace(f"bench.round.{len(docs)}") as trace:
                traced.append(bench.run_round(
                    trace_op=lambda kind: obs.span(OP_PREFIX + kind)
                ))
        finally:
            probe.uninstall()
        docs.append(tag_spans(trace.to_dict(), len(docs)))

    started = time.perf_counter()
    pair_s = 0.0
    # At least two pairs of rounds, in alternating order so neither kind
    # always runs first, and more while another pair fits in ``--seconds``.
    while len(traced) < 2 or time.perf_counter() - started + pair_s <= args.seconds:
        pair_started = time.perf_counter()
        if len(traced) % 2:
            traced_round()
            plain.append(bench.run_round())
        else:
            plain.append(bench.run_round())
            traced_round()
        pair_s = time.perf_counter() - pair_started
    samples = [s for rounds in (plain, traced) for r in rounds for s in r]
    # Round times at the reference speed, so machine drift between an
    # untraced and a traced round does not pass for tracing overhead.
    plain_s = [sum(s.seconds * bench.speed.scale(s.at) for s in r) for r in plain]
    traced_s = [sum(s.seconds * bench.speed.scale(s.at) for s in r) for r in traced]
    overhead = statistics.median(traced_s) - statistics.median(plain_s)
    metrics = probe.metrics(docs, tag_spans(setup_trace.to_dict(), -1), overhead)
    detail = {
        "rounds": {"untraced": len(plain_s), "traced": len(traced_s)},
        "round_s": {"untraced": statistics.median(plain_s),
                    "traced": statistics.median(traced_s)},
    }
    stem = os.path.join(OUT_DIR, f"{bench.spec.name}-s{args.seed}")
    with open(stem + ".trace.json", "w", encoding="utf-8") as fh:
        json.dump({"setup": setup_trace.to_dict(), "rounds": docs}, fh)
    with open(stem + ".layers.json", "w", encoding="utf-8") as fh:
        json.dump({"metrics": metrics, **detail}, fh, indent=2)
    return metrics, detail, samples


if __name__ == "__main__":
    sys.exit(main())
