"""Output checks for the repo benchmark that share no code with the router.

Everything here works on the plain JSON documents the program hands out
(``repro.io`` board and run-result dictionaries) and recomputes every
quantity from raw coordinates with its own geometry: nothing is imported
from ``repro``, so a fault in the router, the geometry kernels or
``repro.drc`` cannot hide itself by also breaking the check.

Checks made on every routed board (``check_route``):

* ``length_mismatch`` — a member's length recomputed from its polyline
  points (the mean of both halves for a pair) differs from the reported
  ``length_after``;
* ``overshoot`` — a member ends above its target plus the tolerance;
* ``endpoint_moved`` — a trace's first or last point moved by more
  than ``ENDPOINT_EPS`` (a differential-pair half: ``PAIR_ENDPOINT_EPS``);
* ``clearance`` — two traces of different signals are closer than
  ``dgap`` edge to edge (brute-force segment distances);
* ``obstacle_clearance`` — a trace comes closer than ``dobs`` to an
  obstacle;
* ``outside_area`` — a trace vertex lies outside its routable area;
* ``pair_outside_area`` — a vertex of a differential-pair half lies
  outside the pair's routable area (areas of pairs are keyed by the pair
  name; ``repro.drc`` does not check them, so this is not a DRC kind).

``DRC_KINDS`` are the findings a board-only DRC can see (the endpoint and
length checks need the input board and the report); a ``/check`` verdict
must say "clean" exactly when none of them is found.

Run this file to execute the negative cases that show each check fires::

    python3 repobench/checker.py
"""

from __future__ import annotations

import copy
import math
import sys
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

#: Relative tolerance of the recomputed member length.
LENGTH_REL_EPS = 1e-9
#: Absolute slack on every clearance and containment comparison (mm).
SLACK = 1e-6
#: How far a routed single-ended trace end may lie from its pin (mm).
ENDPOINT_EPS = 1e-9
#: The same for a differential-pair half.  Restored halves come back with
#: their ends about 1e-4 mm off (see FOUND in CHANGES.md); 1 um is below
#: any fabrication grid and far below a real pin move.
PAIR_ENDPOINT_EPS = 1e-3

#: Finding kinds a DRC over the routed board alone can report.
DRC_KINDS = ("clearance", "obstacle_clearance", "outside_area")


# -- raw geometry -------------------------------------------------------------


def polyline_length(points: Sequence[Sequence[float]]) -> float:
    return sum(
        math.hypot(b[0] - a[0], b[1] - a[1]) for a, b in zip(points, points[1:])
    )


def _segments(points: Sequence[Sequence[float]]) -> np.ndarray:
    """``(n, 4)`` array of ``x0, y0, x1, y1`` rows."""
    p = np.asarray(points, dtype=float).reshape(-1, 2)
    return np.hstack([p[:-1], p[1:]])


def _point_segment(px, py, seg: np.ndarray):
    """Distance from points ``(px, py)`` (broadcast) to segments."""
    x0, y0, x1, y1 = seg[..., 0], seg[..., 1], seg[..., 2], seg[..., 3]
    dx, dy = x1 - x0, y1 - y0
    ll = dx * dx + dy * dy
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.where(ll > 0, ((px - x0) * dx + (py - y0) * dy) / ll, 0.0)
    t = np.clip(t, 0.0, 1.0)
    return np.hypot(px - (x0 + t * dx), py - (y0 + t * dy))


def _cross(ax, ay, bx, by):
    return ax * by - ay * bx


def segment_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(n, m)`` minimum distances between segments ``a`` and ``b``."""
    A = a[:, None, :]
    B = b[None, :, :]
    d = np.minimum.reduce(
        [
            _point_segment(A[..., 0], A[..., 1], B),
            _point_segment(A[..., 2], A[..., 3], B),
            _point_segment(B[..., 0], B[..., 1], A),
            _point_segment(B[..., 2], B[..., 3], A),
        ]
    )
    # Proper crossings: endpoints of each segment strictly on both sides
    # of the other.
    rx, ry = A[..., 2] - A[..., 0], A[..., 3] - A[..., 1]
    sx, sy = B[..., 2] - B[..., 0], B[..., 3] - B[..., 1]
    o1 = _cross(rx, ry, B[..., 0] - A[..., 0], B[..., 1] - A[..., 1])
    o2 = _cross(rx, ry, B[..., 2] - A[..., 0], B[..., 3] - A[..., 1])
    o3 = _cross(sx, sy, A[..., 0] - B[..., 0], A[..., 1] - B[..., 1])
    o4 = _cross(sx, sy, A[..., 2] - B[..., 0], A[..., 3] - B[..., 1])
    crossing = (o1 * o2 < 0) & (o3 * o4 < 0)
    return np.where(crossing, 0.0, d)


def point_in_polygon(x: float, y: float, poly: Sequence[Sequence[float]]) -> bool:
    """Even-odd ray cast; points within ``SLACK`` of an edge count as in."""
    edges = _segments(list(poly) + [poly[0]])
    if len(edges) and float(_point_segment(x, y, edges).min()) <= SLACK:
        return True
    inside = False
    n = len(poly)
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        if (y0 > y) != (y1 > y):
            xc = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
            if xc > x:
                inside = not inside
    return inside


def _bounds(points) -> Tuple[float, float, float, float]:
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return min(xs), min(ys), max(xs), max(ys)


def _near(b1, b2, margin: float) -> bool:
    return not (
        b1[2] + margin < b2[0]
        or b2[2] + margin < b1[0]
        or b1[3] + margin < b2[1]
        or b2[3] + margin < b1[1]
    )


# -- board documents ----------------------------------------------------------


def _all_traces(board: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Every trace of a board document, pair halves tagged with their pair."""
    out = [dict(t, pair=None) for t in board["traces"]]
    for p in board["pairs"]:
        out.append(dict(p["trace_p"], pair=p["name"]))
        out.append(dict(p["trace_n"], pair=p["name"]))
    return out


def _rules_for(board: Dict[str, Any], points) -> Dict[str, float]:
    """Default rules tightened by every rule area a vertex falls in."""
    rules = dict(board["rules"]["default"])
    for area in board["rules"]["areas"]:
        if any(point_in_polygon(x, y, area["region"]) for x, y in points):
            for key in ("dgap", "dobs"):
                rules[key] = max(rules[key], area["rules"][key])
    return rules


def _member_length(board: Dict[str, Any], name: str) -> float:
    for t in board["traces"]:
        if t["name"] == name:
            return polyline_length(t["path"])
    for p in board["pairs"]:
        if p["name"] == name:
            return (
                polyline_length(p["trace_p"]["path"])
                + polyline_length(p["trace_n"]["path"])
            ) / 2.0
    raise KeyError(name)


def check_route(
    before: Dict[str, Any], after: Dict[str, Any], result: Dict[str, Any]
) -> List[str]:
    """Findings for one routed board; an empty list means it passed."""
    findings: List[str] = []
    tolerances = {g["name"]: g["tolerance"] for g in before["groups"]}
    override = (result.get("config") or {}).get("tolerance")
    for group in result["groups"]:
        tol = override if override is not None else tolerances[group["group"]]
        for m in group["members"]:
            length = _member_length(after, m["name"])
            if abs(length - m["length_after"]) > LENGTH_REL_EPS * max(1.0, length):
                findings.append(
                    f"length_mismatch {m['name']}: polyline {length!r} "
                    f"vs reported {m['length_after']!r}"
                )
            if m["length_after"] > m["target"] + tol + SLACK:
                findings.append(
                    f"overshoot {m['name']}: {m['length_after']!r} > "
                    f"{m['target']!r} + {tol!r}"
                )

    after_traces = {t["name"]: t for t in _all_traces(after)}
    for t in _all_traces(before):
        routed = after_traces.get(t["name"])
        if routed is None:
            findings.append(f"endpoint_moved {t['name']}: trace missing")
            continue
        eps = ENDPOINT_EPS if t["pair"] is None else PAIR_ENDPOINT_EPS
        for end in (0, -1):
            if (
                math.hypot(
                    routed["path"][end][0] - t["path"][end][0],
                    routed["path"][end][1] - t["path"][end][1],
                )
                > eps
            ):
                findings.append(f"endpoint_moved {t['name']}: end {end}")
    findings.extend(check_geometry(after))
    return findings


def check_geometry(board: Dict[str, Any]) -> List[str]:
    """The board-only findings (``DRC_KINDS``) of one board document."""
    findings: List[str] = []
    traces = _all_traces(board)
    segs = [_segments(t["path"]) for t in traces]
    boxes = [_bounds(t["path"]) for t in traces]
    rules = [_rules_for(board, t["path"]) for t in traces]
    for i, a in enumerate(traces):
        for j in range(i + 1, len(traces)):
            b = traces[j]
            if a["pair"] is not None and a["pair"] == b["pair"]:
                continue  # intra-pair spacing is the pair rule
            if a["net"] and a["net"] == b["net"]:
                continue  # one electrical net
            required = (
                max(rules[i]["dgap"], rules[j]["dgap"])
                + a["width"] / 2.0
                + b["width"] / 2.0
            )
            if not _near(boxes[i], boxes[j], required):
                continue
            d = float(segment_distances(segs[i], segs[j]).min())
            if d < required - SLACK:
                findings.append(
                    f"clearance {a['name']}/{b['name']}: {d!r} < {required!r}"
                )
    for ob in board["obstacles"]:
        poly = ob["polygon"]
        edges = _segments(list(poly) + [poly[0]])
        obox = _bounds(poly)
        for i, t in enumerate(traces):
            required = rules[i]["dobs"] + t["width"] / 2.0
            if not _near(boxes[i], obox, required):
                continue
            d = float(segment_distances(segs[i], edges).min())
            if any(
                obox[0] <= x <= obox[2]
                and obox[1] <= y <= obox[3]
                and point_in_polygon(x, y, poly)
                for x, y in t["path"]
            ):
                d = 0.0
            if d < required - SLACK:
                findings.append(
                    f"obstacle_clearance {t['name']}/{ob['name'] or ob['kind']}: "
                    f"{d!r} < {required!r}"
                )
    areas = board["routable_areas"]
    for t in traces:
        area = areas.get(t["name"] if t["pair"] is None else t["pair"])
        if area is None:
            continue
        outside = sum(not point_in_polygon(x, y, area) for x, y in t["path"])
        if outside:
            kind = "outside_area" if t["pair"] is None else "pair_outside_area"
            findings.append(f"{kind} {t['name']}: {outside} vertex(es)")
    return findings


def drc_clean(findings: Sequence[str]) -> bool:
    """The verdict a board-only DRC should give for these findings."""
    return not any(f.split(" ", 1)[0] in DRC_KINDS for f in findings)


# -- negative cases -----------------------------------------------------------


def _fixture() -> Tuple[Dict[str, Any], Dict[str, Any], Dict[str, Any]]:
    """A board of two traces and one differential pair, a clean "routed"
    version and its run result."""
    rules = {"dgap": 4.0, "dobs": 2.0, "dprotect": 2.0, "dmiter": 0.0}

    def trace(name, pts):
        return {"name": name, "width": 1.0, "net": "", "path": pts}

    before = {
        "outline": [[0, 0], [100, 0], [100, 90], [0, 90]],
        "rules": {"default": rules, "areas": []},
        "traces": [
            trace("a", [[10, 10], [90, 10]]),
            trace("b", [[10, 40], [90, 40]]),
        ],
        "pairs": [{"name": "dp",
                   "trace_p": trace("dp_P", [[10, 70], [90, 70]]),
                   "trace_n": trace("dp_N", [[10, 72], [90, 72]])}],
        "obstacles": [
            {"name": "via", "kind": "via",
             "polygon": [[48, 52], [52, 52], [52, 56], [48, 56]]}
        ],
        "groups": [{"name": "g", "members": ["a", "b"],
                    "target_length": 100.0, "tolerance": 0.01}],
        "routable_areas": {"a": [[5, 2], [95, 2], [95, 25], [5, 25]],
                           "dp": [[5, 65], [95, 65], [95, 78], [5, 78]]},
    }
    after = copy.deepcopy(before)
    # One rectangular meander of height 10 on each trace: +20 mm.
    after["traces"][0]["path"] = [[10, 10], [40, 10], [40, 20], [50, 20],
                                  [50, 10], [90, 10]]
    after["traces"][1]["path"] = [[10, 40], [40, 40], [40, 30], [50, 30],
                                  [50, 40], [90, 40]]
    result = {
        "config": {"tolerance": None},
        "groups": [{"group": "g", "members": [
            {"name": "a", "target": 100.0, "length_after": 100.0},
            {"name": "b", "target": 100.0, "length_after": 100.0},
        ]}],
    }
    return before, after, result


def selftest() -> None:
    """Raise ``AssertionError`` unless each check fires on its fault."""
    before, after, result = _fixture()
    clean = check_route(before, after, result)
    assert clean == [], f"clean fixture flagged: {clean}"

    def kinds(b, a, r):
        return sorted({f.split(" ", 1)[0] for f in check_route(b, a, r)})

    moved = copy.deepcopy(after)
    moved["traces"][0]["path"][-1] = [90, 11]
    assert "endpoint_moved" in kinds(before, moved, result)
    nudged = copy.deepcopy(after)
    nudged["traces"][1]["path"][0] = [10, 40 + 1e-6]
    assert kinds(before, nudged, result) == ["endpoint_moved"]
    half = copy.deepcopy(after)
    half["pairs"][0]["trace_p"]["path"][0] = [10, 70 + 1e-4]
    assert kinds(before, half, result) == []
    half["pairs"][0]["trace_n"]["path"][-1] = [90, 73]
    assert kinds(before, half, result) == ["endpoint_moved"]

    over = copy.deepcopy(after)
    over["traces"][0]["path"][2:4] = [[40, 22], [50, 22]]
    over_result = copy.deepcopy(result)
    over_result["groups"][0]["members"][0]["length_after"] = 104.0
    assert kinds(before, over, over_result) == ["overshoot"]

    assert kinds(before, over, result) == ["length_mismatch"]

    close = copy.deepcopy(after)
    close["traces"][1]["path"] = [[10, 40], [40, 40], [40, 24], [50, 24],
                                  [50, 40], [90, 40]]
    close_result = copy.deepcopy(result)
    close_result["groups"][0]["members"][1].update(target=112.0, length_after=112.0)
    assert kinds(before, close, close_result) == ["clearance"]

    crossing = copy.deepcopy(after)
    crossing["traces"][1]["path"] = [[10, 40], [40, 40], [40, 5], [50, 5],
                                     [50, 40], [90, 40]]
    crossing_result = copy.deepcopy(result)
    crossing_result["groups"][0]["members"][1].update(target=150.0, length_after=150.0)
    assert "clearance" in kinds(before, crossing, crossing_result)

    via = copy.deepcopy(after)
    via["traces"][1]["path"] = [[10, 40], [40, 40], [40, 50], [50, 50],
                                [50, 40], [90, 40]]
    assert "obstacle_clearance" in kinds(before, via, result)

    loose = copy.deepcopy(after)
    loose["traces"][0]["path"][2:4] = [[40, 28], [50, 28]]
    loose_result = copy.deepcopy(result)
    loose_result["groups"][0]["members"][0].update(target=116.0, length_after=116.0)
    assert "outside_area" in kinds(before, loose, loose_result)
    assert not drc_clean(check_geometry(loose))
    assert drc_clean(check_geometry(after))

    pair_loose = copy.deepcopy(after)
    pair_loose["pairs"][0]["trace_n"]["path"][1:1] = [[40, 72], [40, 80],
                                                      [50, 80], [50, 72]]
    assert kinds(before, pair_loose, result) == ["pair_outside_area"]


if __name__ == "__main__":
    selftest()
    print("checker negative cases: all fired", file=sys.stderr)
