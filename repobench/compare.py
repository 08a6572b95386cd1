"""Compare two sets of benchmark runs, metric by metric.

Each file holds the JSON lines ``run.py --out FILE`` appends, one per
run.  Typical use, ten seeds per workload on each side::

    for w in bus_ladder open_floor serve_mix; do for s in $(seq 1 10); do
      python3 repobench/run.py --workload $w --seed $s --seconds 30 \\
          --trace 0 --out base.jsonl; done; done
    # ... check out the change, same loop with --out change.jsonl ...
    python3 repobench/compare.py base.jsonl change.jsonl

It prints one markdown row per workload and metric: each side's median
and quartiles, the spread (quartile distance over the median), the change
of the median in the direction that counts as worse, and whether that
stays within the metric's bound in ``BENCHMARK.json``.  With one file it
prints that file's rows alone, which shows whether the set is steady
(every spread below a third of its bound).  Runs made with ``--trace 1``
are summarised the same way, without bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DEFINITIONS = """\
## What the metrics mean

Times are scaled to a reference machine speed (see `speed.py`).

- **setup_s**: median set-up of one run, over at least five set-ups and
  two seconds of them: generate (and import) the boards, encode them,
  and one warm-up round of the smallest board.
- **ops_per_s**: completed operations (routes, cache hits, `/check`
  calls) per second of timed operation time; it weights the kinds by the
  workload's request mix, which is assumed, not measured.
- **members_per_s**: group members of completed routes per second of
  route time.
- **route_p50_s**: median cold route over all routes of the run
  (`serve_mix`: cache misses through `RouterApp.route`).
- **route_largest_s**: median cold route of the largest ladder entry.
- **scaling_exponent**: slope of the least-squares fit of log(entry
  median route time) against log(members) over the ladder entries.
- **hit_p50_ms** / **hit_tail_ms**: median and tail of `RouterApp.route`
  answered from the cache; the tail is the highest whole percentile, at
  most p90, with at least ten samples above it (the run's detail line
  names it and the sample count).
- **check_p50_ms**: median `RouterApp.check` on a routed board.
- **peak_rss_mb**: the process's peak resident set size.
"""

LIMITATIONS = """\
## Limitations

- Boards are synthetic (`repro.scenarios`) apart from one small KiCad
  fixture; real boards are larger and denser.
- One process, one closed-loop client: no figure here says anything
  about throughput under concurrent load or with worker pools.
- Times come from a shared two-vCPU machine whose speed drifts by
  20-40 % over seconds to minutes.  They are scaled by a benchmark-owned
  kernel timed around each operation (`speed.py`), which tracks most of
  that drift but not all: the kernel and the router do not slow down in
  exactly the same way.  A change smaller than a metric's spread is
  unresolved, not "no change".
- The request mixes (hits and checks per cold route) are assumptions:
  no record of real traffic exists.  Only `ops_per_s` depends on them.
- The cache lives on the local disk and every put is fsynced, so
  `serve_mix` figures include that disk's behaviour.
"""


def load(path: str) -> Dict[Tuple[str, int], List[Dict[str, Any]]]:
    """Records grouped by ``(workload, trace)``."""
    out: Dict[Tuple[str, int], List[Dict[str, Any]]] = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                out[(rec["workload"], rec["trace"])].append(rec)
    return out


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: List[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def _fmt(v: float) -> str:
    return f"{v:.4g}"


def bounds() -> Dict[str, Dict[str, Any]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def table(base: Dict, change: Optional[Dict], trace: int) -> List[str]:
    spec = bounds()
    head = "| workload | metric | base median [q1, q3] | spread |"
    rule = "|---|---|---|---|"
    if change is not None:
        head += " change median [q1, q3] | spread | worse by | bound | within |"
        rule += "---|---|---|---|---|"
    lines = [head, rule]
    workloads = sorted({w for (w, t) in base if t == trace})
    for w in workloads:
        runs = base[(w, trace)]
        other = change.get((w, trace), []) if change is not None else []
        names = list(runs[0]["result"]["metrics"])
        for name in names:
            a = [r["result"]["metrics"][name]["value"] for r in runs]
            unit = runs[0]["result"]["metrics"][name]["unit"]
            q1, q2, q3 = quartiles(a)
            row = (f"| {w} | {name} ({unit}) | {_fmt(q2)} [{_fmt(q1)}, {_fmt(q3)}] "
                   f"| {spread(a):.1%} |")
            if change is not None and other:
                b = [r["result"]["metrics"][name]["value"] for r in other]
                p1, p2, p3 = quartiles(b)
                meta = spec.get(name, {})
                sign = -1.0 if meta.get("better") == "higher" else 1.0
                worse = sign * (p2 - q2) / abs(q2) if q2 else 0.0
                bound = meta.get("bound")
                verdict = "-" if bound is None else ("yes" if worse <= bound else "**no**")
                row += (f" {_fmt(p2)} [{_fmt(p1)}, {_fmt(p3)}] | {spread(b):.1%} "
                        f"| {worse:+.1%} | {'-' if bound is None else f'{bound:.0%}'} "
                        f"| {verdict} |")
            lines.append(row)
    return lines


def failures(records: Dict, trace: int) -> List[str]:
    lines = []
    for (w, t), runs in sorted(records.items()):
        if t != trace:
            continue
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        correct = all(r["result"]["correct"] for r in runs)
        lines.append(f"{w}: {len(runs)} runs, {failed}/{attempted} operations "
                     f"failed ({failed / attempted:.4%}), outputs "
                     f"{'correct' if correct else 'NOT correct'}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change", nargs="?")
    args = parser.parse_args(argv)
    base = load(args.base)
    change = load(args.change) if args.change else None
    out: List[str] = []
    for trace, title in ((0, "End-to-end metrics"), (1, "Per-layer metrics (traced runs)")):
        if not any(t == trace for (_, t) in base):
            continue
        out += [f"## {title}", ""] + table(base, change, trace) + [""]
        out += ["Operations:", ""] + [f"- base {x}" for x in failures(base, trace)]
        if change is not None:
            out += [f"- change {x}" for x in failures(change, trace)]
        out.append("")
    out += [DEFINITIONS, LIMITATIONS]
    print("\n".join(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
