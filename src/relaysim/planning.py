"""Global A* planning and relay plan assembly."""

from __future__ import annotations

import heapq
import json
from typing import NamedTuple

from .errors import BlockedEndpoint, CellOutOfBounds, NoPath
from .geometry import (
    Point,
    VoronoiDiagram,
    Workspace,
    _is_int,
    _nearest,
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
from .world import GridCell, OccupancyGrid, cell_of


class GridPath(NamedTuple):
    """A path as the row-major indices of its cells, on a grid `cols` wide."""

    indices: tuple[int, ...]
    cols: int

    @property
    def cells(self) -> tuple[GridCell, ...]:
        cols = self.cols
        return tuple(GridCell(i % cols, i // cols) for i in self.indices)


class RelayPlan(NamedTuple):
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


def _check_endpoints(grid: OccupancyGrid, start: GridCell, goal: GridCell) -> None:
    for c in (start, goal):
        if not grid.in_bounds(c):
            raise CellOutOfBounds(f"{c} out of bounds")
        if grid.is_blocked(c):
            raise BlockedEndpoint(f"{c} is blocked")


def astar(grid: OccupancyGrid, start: GridCell, goal: GridCell) -> GridPath:
    """Shortest 4-connected path, unit costs, Manhattan heuristic.

    Ties broken by (f, h, row-major cell index) so results are deterministic.
    Where that tie-break's path only moves toward the goal it is walked
    without a search: each step takes the free neighbour toward the goal with
    the lower row-major index, which is the column step while the goal row is
    below (higher) and the row step otherwise. Every walked cell has
    f = h(start), and its neighbours toward the goal have the lowest h of any
    heap entry, so the search would pop the same cells in the same order. A
    walk with neither neighbour toward the goal free falls back to the search.
    """
    _check_endpoints(grid, start, goal)
    cols, mask = grid.cols, grid.blocked_mask
    c, r, gcol, grow = start.col, start.row, goal.col, goal.row
    cur, dst = r * cols + c, grow * cols + gcol
    dc = 1 if gcol > c else -1
    sr = 1 if grow > r else -1
    dr = sr * cols
    walk = [cur]
    while cur != dst:
        if c != gcol and not mask[cur + dc] and (r <= grow or mask[cur + dr]):
            c += dc
            cur += dc
        elif r != grow and not mask[cur + dr]:
            r += sr
            cur += dr
        else:
            return _search(grid, start, goal)
        walk.append(cur)
    return GridPath(tuple(walk), cols)


def _search(grid: OccupancyGrid, start: GridCell, goal: GridCell) -> GridPath:
    """The A* search itself, for endpoints that `astar` has checked."""
    # the search runs on row-major indices; a heap key packs (f, h, index)
    # into one int, as h < cols + rows and index < size
    cols, rows = grid.cols, grid.rows
    size = cols * rows
    span = cols + rows
    gcol, grow = goal.col, goal.row
    src = start.row * cols + start.col
    dst = grow * cols + gcol
    closed = bytearray(grid.blocked_mask)  # blocked cells are never expanded
    g = [size] * size  # no path is `size` moves long
    came = [-1] * size
    h0 = abs(start.col - gcol) + abs(start.row - grow)
    heap = [(h0 * span + h0) * size + src]
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        key = pop(heap)
        cur = key % size
        if closed[cur]:
            continue
        if cur == dst:
            path = []
            while cur >= 0:
                path.append(cur)
                cur = came[cur]
            return GridPath(tuple(path[::-1]), cols)
        closed[cur] = 1
        key //= size
        h = key % span
        ng = key // span - h + 1
        r = cur // cols
        c = cur - r * cols
        # a neighbour's h is h - 1 toward the goal and h + 1 away from it;
        # row-end tests keep a column step from wrapping into the next row
        if r + 1 < rows:
            nb = cur + cols
            if not closed[nb] and ng < g[nb]:
                g[nb] = ng
                came[nb] = cur
                hn = h - 1 if r < grow else h + 1
                push(heap, ((ng + hn) * span + hn) * size + nb)
        if r > 0:
            nb = cur - cols
            if not closed[nb] and ng < g[nb]:
                g[nb] = ng
                came[nb] = cur
                hn = h - 1 if r > grow else h + 1
                push(heap, ((ng + hn) * span + hn) * size + nb)
        if c + 1 < cols:
            nb = cur + 1
            if not closed[nb] and ng < g[nb]:
                g[nb] = ng
                came[nb] = cur
                hn = h - 1 if c < gcol else h + 1
                push(heap, ((ng + hn) * span + hn) * size + nb)
        if c > 0:
            nb = cur - 1
            if not closed[nb] and ng < g[nb]:
                g[nb] = ng
                came[nb] = cur
                hn = h - 1 if c > gcol else h + 1
                push(heap, ((ng + hn) * span + hn) * size + nb)
    raise NoPath(f"no path from {start} to {goal}")


def check_reachable(grid: OccupancyGrid, start: GridCell, goal: GridCell) -> None:
    """Raise what `astar(grid, start, goal)` raises, without a search: the
    endpoints' errors, then NoPath unless both lie in one free region."""
    _check_endpoints(grid, start, goal)
    if grid.blocked:
        cols, regions = grid.cols, grid.regions
        if regions[start.row * cols + start.col] != regions[goal.row * cols + goal.col]:
            raise NoPath(f"no path from {start} to {goal}")


def _crossing_midpoint(
    owners: list[int], path: GridPath, grid: OccupancyGrid, next_agent: int, start_idx: int
) -> tuple[Point, int]:
    """Midpoint of the path-cell centers where ownership first reaches next_agent."""
    for i in range(start_idx, len(owners)):
        if owners[i] == next_agent:
            a = grid.center(path.indices[i - 1])
            b = grid.center(path.indices[i])
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
    # the Voronoi owner of each path-cell center, as `locate` finds it (a center
    # is in the workspace); the chain is the owners in order of first appearance
    x0, y0 = grid.workspace.min_corner
    cols, cw, ch, coords = grid.cols, grid.cell_width, grid.cell_height, diagram._coords
    owners = [_nearest(x0 + (i % cols + 0.5) * cw, y0 + (i // cols + 0.5) * ch, coords)
              for i in path.indices]
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
    # raise up front, as a search of either leg would
    check_reachable(grid, cell_of(pos[rid], grid), cell_of(task.pickup, grid))
    check_reachable(grid, cell_of(task.pickup, grid), cell_of(task.drop, grid))
    return RelayPlan(
        task=task,
        active=(rid,),
        transfers=(),
        baseline=True,
        transfer_fallback=(),
    )


def check_plan(plan: RelayPlan, robots: list[tuple[int, Point]]) -> None:
    """Raise ValueError unless every robot is placed once, and the plan's chain
    is non-empty, names no robot twice and only placed robots, and has one
    transfer and one fallback flag per consecutive pair."""
    placed: set[int] = set()
    for rid, _ in robots:
        if rid in placed:
            raise ValueError(f"robot {rid} is placed twice")
        placed.add(rid)
    active = plan.active
    if not active:
        raise ValueError("empty active chain")
    if len(set(active)) != len(active):
        raise ValueError("a robot appears twice in the active chain")
    missing = set(active) - placed
    if missing:
        raise ValueError(f"active robots {sorted(missing)} not in robots")
    if len(plan.transfers) != len(active) - 1:
        raise ValueError(f"{len(active)} active robots need {len(active) - 1} transfers")
    if len(plan.transfer_fallback) != len(plan.transfers):
        raise ValueError("transfer_fallback must have one flag per transfer")


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
        active=tuple(data["active"]),
        transfers=tuple(point_from_list(z) for z in data["transfers"]),
        baseline=data["baseline"],
        transfer_fallback=tuple(data["transfer_fallback"]),
    )
    if not all(_is_int(r) for r in plan.active):
        raise ValueError(f"active robot ids {list(plan.active)} are not all integers")
    if not all(isinstance(f, bool) for f in (plan.baseline, *plan.transfer_fallback)):
        raise ValueError("baseline and transfer_fallback must be JSON booleans")
    workspace = workspace_from_dict(data["workspace"])
    robots = robots_from_list(data["robots"], workspace)
    points = [("pickup", plan.task.pickup), ("drop", plan.task.drop)]
    points += [(f"transfer {k}", z) for k, z in enumerate(plan.transfers)]
    for name, p in points:
        if not workspace.contains(p):
            raise ValueError(f"{name} at ({p.x}, {p.y}) outside the workspace")
    check_plan(plan, robots)
    return plan, robots, workspace
