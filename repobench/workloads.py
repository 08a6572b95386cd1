"""The three workloads: which boards each one routes and in what order.

Every input is drawn from the ``--seed`` through ``repro.scenarios``,
except the imported KiCad fixture, which is the same file on every seed.
A workload is a list of boards plus a fixed sequence of operations on
them (one *round*); a run repeats whole rounds, so every run attempts the
same operations in the same proportions whatever its length.

Operation kinds:

* ``route`` — a cold route of a fresh copy of the board: a direct
  ``RoutingSession.run`` (default preset), or a cache miss through
  ``RouterApp.route`` on ``serve`` workloads;
* ``hit`` — ``RouterApp.route`` on a board the round already routed, so
  the answer comes from the result cache;
* ``check`` — ``RouterApp.check`` on the routed board.

Why each board is where it is (failure rates from sweeps of single-tile
boards under the default preset):

* ``tiled(k)`` returns the first ``k`` tiles of any larger ``tiled`` board of the
  same seed, so a ladder of ``k`` adds few new tile draws per seed.
* With routable areas withheld, the region LP leaves a member short on
  some seeds of ``serpentine_bus``, ``bga_escape`` and ``mixed_groups``;
  pair matching misses its target on some seeds of ``diffpair_cluster``
  (three pairs per tile) and of ``mixed_groups`` with two pairs.  A
  failure that depends on the seed cannot be counted steadily, so those
  boards are not used that way here (see ``FOUND`` in CHANGES.md):
  ``obstacle_maze`` (no failure in 3000 seeds) carries the region LP and
  ``diffpair_cluster`` with two pairs per tile (none in 4000) carries
  MSDTW.  The imported ``demo_bus`` fails on every seed and is counted.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

#: The imported fixture, relative to the repository root.
DEMO_BUS = os.path.join("tests", "kicad", "fixtures", "demo_bus.kicad_pcb")


@dataclass(frozen=True)
class BoardSpec:
    label: str
    #: Scenario family tiled ``tiles`` times, or ``"demo_bus"``.
    family: str
    tiles: int = 1
    #: Drop the preset routable areas so the region LP assigns them.
    withhold_areas: bool = False
    #: Part of the size ladder ``scaling_exponent`` is fitted on.
    ladder: bool = False
    #: Route with the region LP disabled (a request-level config).
    region_off: bool = False
    #: Parameters of the tiled base family.
    params: Tuple[Tuple[str, Any], ...] = ()
    #: Distinct boards drawn for this entry (board ``j`` uses seed
    #: ``100 * seed + j``); the imported board is the same file each time.
    count: int = 1
    #: The boards get the workload's cache hits and ``/check`` calls.
    requests: bool = True
    #: One ``/check`` per round on the entry's first board, whose route
    #: is known to leave DRC violations, so a "not clean" verdict is
    #: compared with the checker too.
    dirty_check: bool = False


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    boards: Tuple[BoardSpec, ...]
    #: Cache hits per board per round.
    hits: int
    #: ``/check`` calls per board per round.
    checks: int
    #: Route through ``RouterApp.route`` (cache misses) instead of a
    #: direct ``RoutingSession.run``, in a seeded interleaved order.
    serve: bool = False


# The entry counts put the median over a round's routes in the middle of
# one entry (``bus-t6``, ``maze-t8``, ``bus-t3``), whose route times are
# spaced apart from its neighbours' so that noise does not reorder them
# around the median.
WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            "bus_ladder",
            tuple(
                BoardSpec(f"bus-t{k}", "serpentine_bus", k, ladder=True, count=7,
                          requests=k == 18)
                for k in (2, 6, 18)
            ),
            hits=12,
            checks=2,
        ),
        WorkloadSpec(
            "open_floor",
            tuple(
                BoardSpec(f"maze-t{k}", "obstacle_maze", k, withhold_areas=True,
                          ladder=True, count=5, requests=k == 16)
                for k in (4, 8, 16)
            )
            + (
                BoardSpec("pairs-t4", "diffpair_cluster", 4, withhold_areas=True,
                          params=(("pairs", 2),), count=5, requests=False),
                BoardSpec("demo_bus", "demo_bus", withhold_areas=True, count=5,
                          requests=False, dirty_check=True),
            ),
            hits=14,
            checks=2,
        ),
        WorkloadSpec(
            "serve_mix",
            (
                BoardSpec("bus-t1", "serpentine_bus", 1, ladder=True, count=5),
                # One key only: copies of one document share a cache key.
                BoardSpec("demo_bus", "demo_bus", region_off=True),
                BoardSpec("bus-t3", "serpentine_bus", 3, ladder=True, count=3),
                BoardSpec("mixed-t10", "mixed_groups", 10),
                BoardSpec("bus-t9", "serpentine_bus", 9, ladder=True, count=5),
            ),
            hits=10,
            checks=3,
            serve=True,
        ),
    )
}


def make_board(spec: BoardSpec, seed: int, root: str):
    """Generate (or import) one board; ``seed`` is the board's own seed."""
    from repro import scenarios
    from repro.model import kicad

    if spec.family == "demo_bus":
        board = kicad.import_scenario_board(os.path.join(root, DEMO_BUS), match="BUS")
    else:
        board = scenarios.generate(
            "tiled",
            seed=seed,
            params={
                "base": spec.family,
                "tiles": spec.tiles,
                "base_params": dict(spec.params),
            },
        )
    if spec.withhold_areas:
        board.routable_areas.clear()
    return board


def expand(spec: WorkloadSpec, seed: int) -> List[Tuple[int, BoardSpec, int]]:
    """Every board of a round as ``(entry index, entry, board seed)``."""
    return [
        (g, entry, 100 * seed + j)
        for g, entry in enumerate(spec.boards)
        for j in range(entry.count)
    ]


def round_ops(spec: WorkloadSpec, seed: int) -> List[Tuple[str, int]]:
    """One round's ``(kind, board index)`` operations, in order.

    ``serve`` workloads interleave the boards' operations in an order
    drawn from ``seed``; each board's route still comes before its hits
    and checks, which need the routed result.
    """
    boards = expand(spec, seed)
    per_board = [
        [("route", i)]
        + ([("hit", i)] * spec.hits + [("check", i)] * spec.checks) * entry.requests
        + [("check", i)] * (entry.dirty_check and (i == 0 or boards[i - 1][0] != g))
        for i, (g, entry, _) in enumerate(boards)
    ]
    if not spec.serve:
        return [op for ops in per_board for op in ops]
    rng = random.Random(seed)
    out: List[Tuple[str, int]] = []
    pending = [list(ops) for ops in per_board]
    while any(pending):
        ops = rng.choice([ops for ops in pending if ops])
        out.append(ops.pop(0))
    return out


def members(doc: Dict[str, Any]) -> int:
    """Group members on a board document."""
    return sum(len(g["members"]) for g in doc["groups"])
