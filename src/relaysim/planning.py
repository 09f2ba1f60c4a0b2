"""Global A* planning and relay plan assembly."""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass

from .errors import BlockedEndpoint, CellOutOfBounds, NoPath
from .geometry import (
    Point,
    VoronoiDiagram,
    Workspace,
    locate,
    point_from_list,
    relay_point,
    robots_from_list,
    robots_to_list,
    shared_edge,
    workspace_from_dict,
    workspace_to_dict,
)
from .nlu import TaskSpec, task_from_dict, task_to_dict
from .world import GridCell, OccupancyGrid, cell_of, center_of


@dataclass(frozen=True)
class GridPath:
    cells: tuple[GridCell, ...]

    @property
    def length(self) -> int:
        """Number of moves (cells minus one)."""
        return len(self.cells) - 1


@dataclass(frozen=True)
class RelayPlan:
    """The relay chain: active[j] carries the item from legs[j] to legs[j + 1]."""

    task: TaskSpec
    active: tuple[int, ...]
    transfers: tuple[Point, ...]
    baseline: bool
    # True where a consecutive pair had no positive-length shared Voronoi edge
    # and the transfer fell back to the path's region-crossing midpoint
    transfer_fallback: tuple[bool, ...] = ()

    @property
    def legs(self) -> tuple[Point, ...]:
        return (self.task.pickup, *self.transfers, self.task.drop)


def astar(grid: OccupancyGrid, start: GridCell, goal: GridCell) -> GridPath:
    """Shortest 4-connected path, unit costs, Manhattan heuristic.

    Ties broken by (f, h, row-major cell index) so results are deterministic.
    """
    for c in (start, goal):
        if not grid.in_bounds(c):
            raise CellOutOfBounds(f"{c} out of bounds")
        if grid.is_blocked(c):
            raise BlockedEndpoint(f"{c} is blocked")
    cols = grid.cols

    def h(c: GridCell) -> int:
        return abs(c.col - goal.col) + abs(c.row - goal.row)

    def idx(c: GridCell) -> int:
        return c.row * cols + c.col

    open_heap: list[tuple[int, int, int, GridCell]] = [(h(start), h(start), idx(start), start)]
    g = {start: 0}
    came: dict[GridCell, GridCell] = {}
    closed: set[GridCell] = set()
    while open_heap:
        _, _, _, cur = heapq.heappop(open_heap)
        if cur in closed:
            continue
        if cur == goal:
            path = [cur]
            while cur in came:
                cur = came[cur]
                path.append(cur)
            path.reverse()
            return GridPath(cells=tuple(path))
        closed.add(cur)
        gc = g[cur]
        for dc, dr in ((0, 1), (0, -1), (1, 0), (-1, 0)):
            nb = GridCell(cur.col + dc, cur.row + dr)
            if not grid.in_bounds(nb) or grid.is_blocked(nb) or nb in closed:
                continue
            ng = gc + 1
            if ng < g.get(nb, 1 << 60):
                g[nb] = ng
                came[nb] = cur
                hn = h(nb)
                heapq.heappush(open_heap, (ng + hn, hn, idx(nb), nb))
    raise NoPath(f"no path from {start} to {goal}")


def _crossing_midpoint(
    owners: list[int], path: GridPath, grid: OccupancyGrid, next_agent: int, start_idx: int
) -> tuple[Point, int]:
    """Midpoint of the path-cell centers where ownership first reaches next_agent."""
    for i in range(start_idx, len(owners)):
        if owners[i] == next_agent:
            a = center_of(path.cells[i - 1], grid)
            b = center_of(path.cells[i], grid)
            return Point((a.x + b.x) / 2.0, (a.y + b.y) / 2.0), i
    raise NoPath(f"agent {next_agent} never owns a path cell")  # unreachable for valid chains


def build_relay_plan(
    task: TaskSpec,
    robots: list[tuple[int, Point]],
    diagram: VoronoiDiagram,
    grid: OccupancyGrid,
) -> RelayPlan:
    if not robots:
        raise ValueError("need at least one robot")
    pos = {rid: p for rid, p in robots}
    path = astar(grid, cell_of(task.pickup, grid), cell_of(task.drop, grid))
    # the Voronoi owner of each path-cell center; the chain is the owners in
    # order of first appearance
    owners = [locate(center_of(cell, grid), diagram) for cell in path.cells]
    active = list(dict.fromkeys(owners))

    transfers: list[Point] = []
    fallback: list[bool] = []
    scan_idx = 1
    for j in range(len(active) - 1):
        a, b = active[j], active[j + 1]
        edge = shared_edge(diagram, a, b)
        if edge is not None:
            z, _ = relay_point(pos[a], pos[b], edge)
            transfers.append(z)
            fallback.append(False)
        else:
            z, scan_idx = _crossing_midpoint(owners, path, grid, b, scan_idx)
            transfers.append(z)
            fallback.append(True)

    return RelayPlan(
        task=task,
        active=tuple(active),
        transfers=tuple(transfers),
        baseline=False,
        transfer_fallback=tuple(fallback),
    )


def single_agent_baseline(
    task: TaskSpec,
    robots: list[tuple[int, Point]],
    diagram: VoronoiDiagram,
    grid: OccupancyGrid,
) -> RelayPlan:
    """Comparison plan: the pickup-region owner performs the whole task alone."""
    if not robots:
        raise ValueError("need at least one robot")
    pos = {rid: p for rid, p in robots}
    rid = locate(task.pickup, diagram)
    # validate reachability of both legs up front
    astar(grid, cell_of(pos[rid], grid), cell_of(task.pickup, grid))
    astar(grid, cell_of(task.pickup, grid), cell_of(task.drop, grid))
    return RelayPlan(
        task=task,
        active=(rid,),
        transfers=(),
        baseline=True,
        transfer_fallback=(),
    )


# --- serialization -----------------------------------------------------------


def plan_to_json(plan: RelayPlan, robots: list[tuple[int, Point]], workspace: Workspace) -> str:
    """A self-contained plan file: the plan plus every placement, bystanders
    included, and the workspace it was planned on."""
    data = {
        "task": task_to_dict(plan.task),
        "active": list(plan.active),
        "transfers": [[z.x, z.y] for z in plan.transfers],
        "baseline": plan.baseline,
        "transfer_fallback": list(plan.transfer_fallback),
        "robots": robots_to_list(robots),
        "workspace": workspace_to_dict(workspace),
    }
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def plan_from_json(text: str) -> tuple[RelayPlan, list[tuple[int, Point]], Workspace]:
    data = json.loads(text)
    plan = RelayPlan(
        task=task_from_dict(data["task"]),
        active=tuple(int(r) for r in data["active"]),
        transfers=tuple(point_from_list(z) for z in data["transfers"]),
        baseline=bool(data["baseline"]),
        transfer_fallback=tuple(bool(f) for f in data["transfer_fallback"]),
    )
    return plan, robots_from_list(data["robots"]), workspace_from_dict(data["workspace"])
