"""Independent reference implementations used only to check the real ones."""

from __future__ import annotations

import math
from collections import deque

from relaysim.geometry import Point, Workspace
from relaysim.world import GridCell, OccupancyGrid


def nearest_site_brute(point: Point, sites: list[tuple[int, Point]]) -> int:
    """Exhaustive nearest-site scan with lowest-id tie-breaking."""
    best_id = None
    best = math.inf
    for sid, s in sorted(sites):
        d2 = (point.x - s.x) ** 2 + (point.y - s.y) ** 2
        if d2 < best:
            best = d2
            best_id = sid
    return best_id


def cell_floor(point: Point, ws: Workspace) -> GridCell:
    """The cell of a workspace point by `math.floor` of its offset over the
    cell size; the last column and row also take an offset that rounds up
    to the grid's edge."""
    col = math.floor((point.x - ws.min_corner.x) / (ws.width / ws.grid_cols))
    row = math.floor((point.y - ws.min_corner.y) / (ws.height / ws.grid_rows))
    return GridCell(min(col, ws.grid_cols - 1), min(row, ws.grid_rows - 1))


def cell_center(cell: GridCell, ws: Workspace) -> Point:
    """A cell's center as the grid has always computed it: the corner plus
    the cell's coordinate plus one half, times the cell size."""
    return Point(
        ws.min_corner.x + (cell.col + 0.5) * (ws.width / ws.grid_cols),
        ws.min_corner.y + (cell.row + 0.5) * (ws.height / ws.grid_rows),
    )


def minimax_value_ternary(
    x_i: Point, x_j: Point, p1: Point, p2: Point, iters: int = 120
) -> float:
    """Ternary search over the segment parameter of the convex max-distance."""

    def f(t: float) -> float:
        zx = p1.x + t * (p2.x - p1.x)
        zy = p1.y + t * (p2.y - p1.y)
        return max(math.hypot(zx - x_i.x, zy - x_i.y), math.hypot(zx - x_j.x, zy - x_j.y))

    lo, hi = 0.0, 1.0
    for _ in range(iters):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if f(m1) <= f(m2):
            hi = m2
        else:
            lo = m1
    return f((lo + hi) / 2.0)


def bfs_shortest_moves(grid: OccupancyGrid, start: GridCell, goal: GridCell) -> int | None:
    """Breadth-first shortest 4-connected move count, or None if unreachable."""
    if grid.is_blocked(start) or grid.is_blocked(goal):
        return None
    seen = {start: 0}
    q = deque([start])
    while q:
        cur = q.popleft()
        if cur == goal:
            return seen[cur]
        for dc, dr in ((0, 1), (0, -1), (1, 0), (-1, 0)):
            nb = GridCell(cur.col + dc, cur.row + dr)
            if nb in seen or not grid.in_bounds(nb) or grid.is_blocked(nb):
                continue
            seen[nb] = seen[cur] + 1
            q.append(nb)
    return None
