"""Planar geometry: bounded Voronoi partitions and minimax relay transfer points.

Coordinates are continuous workspace units. The discrete grid overlay is a
separate concern owned by the world module.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from typing import NamedTuple

from .errors import (
    DegenerateEdge,
    DegenerateSites,
    EmptySites,
    PointOutsideWorkspace,
    SitesTooClose,
    SiteOutsideWorkspace,
    UnknownRobotId,
)

# absolute tolerance for equidistance / on-segment tests at ~20-unit scale
EPS_GEOM = 1e-9
# minimum pairwise site separation accepted by compute_voronoi
EPS_SITE = 1e-6
# relative threshold below which an edge counts as parallel to the bisector
EPS_PARALLEL = 1e-9
# most grid cells a workspace may have: the simulator keeps a byte per cell
# and its default tick budget is ten per cell (the largest workload is 60x60)
MAX_GRID_CELLS = 1_000_000


# Value types are NamedTuples, not dataclasses: building dataclasses at import
# costs every `relaysim run` process tens of milliseconds. A type that checks
# its fields subclasses a NamedTuple of them and checks them in `__new__`
# (`_make` and `_replace` skip that check, so the package calls neither).


class _PointFields(NamedTuple):
    x: float
    y: float


class Point(_PointFields):
    __slots__ = ()

    def __new__(cls, x: float, y: float) -> Point:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"non-finite point ({x}, {y})")
        return tuple.__new__(cls, (x, y))


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def dist(a: Point, b: Point) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


class _WorkspaceFields(NamedTuple):
    min_corner: Point
    max_corner: Point
    grid_cols: int
    grid_rows: int


class Workspace(_WorkspaceFields):
    __slots__ = ()

    def __new__(
        cls, min_corner: Point, max_corner: Point, grid_cols: int, grid_rows: int
    ) -> Workspace:
        if not (min_corner.x < max_corner.x and min_corner.y < max_corner.y):
            raise ValueError("min_corner must be strictly below max_corner componentwise")
        if not all(_is_int(n) and n >= 1 for n in (grid_cols, grid_rows)):
            raise ValueError("grid dimensions must be integers >= 1")
        if grid_cols * grid_rows > MAX_GRID_CELLS:
            raise ValueError(f"a {grid_cols}x{grid_rows} grid has more than {MAX_GRID_CELLS} cells")
        # squared distances within the workspace must stay finite, or `locate`
        # finds no site nearer than infinity
        w = max_corner.x - min_corner.x
        h = max_corner.y - min_corner.y
        if not math.isfinite(w * w + h * h):
            raise ValueError("workspace extent too large: its squared diagonal is not finite")
        if not (w / grid_cols > 0 and h / grid_rows > 0):
            raise ValueError("workspace extent too small: its grid cells have no width or height")
        return tuple.__new__(cls, (min_corner, max_corner, grid_cols, grid_rows))

    @property
    def width(self) -> float:
        return self.max_corner.x - self.min_corner.x

    @property
    def height(self) -> float:
        return self.max_corner.y - self.min_corner.y

    def contains(self, p: Point) -> bool:
        """Half-open test, [min, max) on each axis: the extent the grid's cells tile."""
        return (
            self.min_corner.x <= p.x < self.max_corner.x
            and self.min_corner.y <= p.y < self.max_corner.y
        )

    def corners_ccw(self) -> list[Point]:
        return [
            Point(self.min_corner.x, self.min_corner.y),
            Point(self.max_corner.x, self.min_corner.y),
            Point(self.max_corner.x, self.max_corner.y),
            Point(self.min_corner.x, self.max_corner.y),
        ]


class VoronoiCell(NamedTuple):
    """One site's region, a counter-clockwise convex polygon."""

    site_id: int
    site: Point
    vertices: tuple[Point, ...]


class VoronoiDiagram:
    """A partition of `workspace` among `sites`, kept sorted by id.

    `clip(site_id, site)` returns a cell's vertices. `cell(site_id)` clips
    that cell the first time it is read and keeps it; `cells` and `==` read
    every cell, and `sites` reads none.
    """

    def __init__(
        self,
        sites: list[tuple[int, Point]],
        workspace: Workspace,
        clip: Callable[[int, Point], tuple[Point, ...]],
    ) -> None:
        self.sites = tuple(sorted(sites, key=lambda t: t[0]))
        self.workspace = workspace
        self._clip = clip
        self._site = dict(self.sites)
        if len(self._site) != len(self.sites):
            raise ValueError("duplicate robot ids")
        self._cells: dict[int, VoronoiCell] = {}

    def cell(self, site_id: int) -> VoronoiCell:
        cell = self._cells.get(site_id)
        if cell is None:
            site = self._site.get(site_id)
            if site is None:
                raise UnknownRobotId(f"no cell for robot id {site_id}")
            cell = self._cells[site_id] = VoronoiCell(site_id, site, self._clip(site_id, site))
        return cell

    @property
    def cells(self) -> tuple[VoronoiCell, ...]:
        return tuple(self.cell(sid) for sid, _ in self.sites)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VoronoiDiagram):
            return NotImplemented
        return self.workspace == other.workspace and self.cells == other.cells


class SharedEdge(NamedTuple):
    site_a: int
    site_b: int
    p1: Point
    p2: Point


def _clip_halfplane(
    poly: list[tuple[float, float]], nx: float, ny: float, c: float
) -> list[tuple[float, float]]:
    """Clip a convex polygon of (x, y) vertices to the half-plane n.v >= c
    (Sutherland-Hodgman). Each vertex's n.v is computed once and serves as
    both ends of its two edges."""
    out: list[tuple[float, float]] = []
    m = len(poly)
    qx, qy = poly[0]
    nxt_v = nx * qx + ny * qy
    for k in range(m):
        cx, cy = qx, qy
        cur_v = nxt_v
        qx, qy = poly[(k + 1) % m]
        nxt_v = nx * qx + ny * qy
        cur_in = cur_v >= c
        if cur_in:
            out.append(poly[k])
        if cur_in != (nxt_v >= c):
            # intersection of edge cur->nxt with the boundary line n.v = c
            denom = nx * (qx - cx) + ny * (qy - cy)
            t = (c - cur_v) / denom
            out.append((cx + t * (qx - cx), cy + t * (qy - cy)))
    # drop near-duplicate consecutive vertices produced by clipping
    cleaned: list[tuple[float, float]] = []
    for p in out:
        if not cleaned or _dist_sq(cleaned[-1], p) > 1e-24:
            cleaned.append(p)
    if len(cleaned) >= 2 and _dist_sq(cleaned[0], cleaned[-1]) <= 1e-24:
        cleaned.pop()
    return cleaned


def _dist_sq(a: tuple[float, float], b: tuple[float, float]) -> float:
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    return dx * dx + dy * dy


def compute_voronoi(sites: list[tuple[int, Point]], workspace: Workspace) -> VoronoiDiagram:
    """Partition the workspace rectangle among sites by half-plane intersection.

    Each cell is the rectangle clipped against the bisector half-plane of
    every other site, in the order given, so equidistance holds exactly by
    construction. Half-planes that cannot change the polygon are skipped: a
    clip is skipped only when it would return its polygon unchanged, that is
    when the polygon came out of an earlier clip (so it holds no consecutive
    near-duplicate vertices), would not lose a wrapped-around near-duplicate
    vertex, and passes the clip's test at every vertex. The vertices are
    bit-for-bit those of clipping by every site.

    The sites are checked here, but each cell is clipped only the first time
    the diagram reads it. A cell's clip reads nothing but its own site and
    the site list, so the cells read, and the order they are read in, do not
    change any vertex.
    """
    if not sites:
        raise EmptySites("need at least one site")
    for sid, p in sites:
        if not workspace.contains(p):
            raise SiteOutsideWorkspace(f"site {sid} at ({p.x}, {p.y}) outside the workspace")
    coords = [(sid, p.x, p.y) for sid, p in sites]
    # sorted by x, a site can be too close only to the later sites less than
    # EPS_SITE further right: hypot(dx, dy) >= |dx| holds in floats too
    by_x = sorted(coords, key=lambda t: t[1])
    for a in range(len(by_x)):
        sa, ax, ay = by_x[a]
        for b in range(a + 1, len(by_x)):
            sb, bx, by = by_x[b]
            if bx - ax >= EPS_SITE:
                break
            if math.hypot(ax - bx, ay - by) < EPS_SITE:
                raise SitesTooClose(f"sites {sa} and {sb} closer than {EPS_SITE}")

    lo, hi = workspace.min_corner, workspace.max_corner
    x0, y0, x1, y1 = lo.x, lo.y, hi.x, hi.y

    def clip(sid: int, si: Point) -> tuple[Point, ...]:
        sx = si.x
        sy = si.y
        s2 = sx * sx + sy * sy
        poly = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]  # as workspace.corners_ccw()
        # True while a clip that keeps every vertex would return poly as it
        # is. The rectangle may hold near-duplicate corners, so its first
        # clip always runs; a clip's output has none.
        settled = False
        for sjd, tx, ty in coords:
            if sjd == sid:
                continue
            # keep points closer to si than sj:  (si - sj) . x >= (|si|^2 - |sj|^2)/2
            nx = sx - tx
            ny = sy - ty
            c = (s2 - tx * tx - ty * ty) / 2.0
            if settled:
                for x, y in poly:
                    if not nx * x + ny * y >= c:
                        break
                else:
                    continue  # every vertex passes: the clip is a no-op
            poly = _clip_halfplane(poly, nx, ny, c)
            if len(poly) < 3:
                break
            # the clip would drop a last vertex within 1e-12 of the first
            settled = _dist_sq(poly[0], poly[-1]) > 1e-24
        return tuple(Point(x, y) for x, y in poly)

    return VoronoiDiagram(sites, workspace, clip)


def locate(point: Point, diagram: VoronoiDiagram) -> int:
    """Nearest-site owner of a workspace point; exact ties go to the lowest id."""
    if not diagram.workspace.contains(point):
        raise PointOutsideWorkspace(f"({point.x}, {point.y}) outside workspace")
    best_id = -1
    best = math.inf
    px = point.x
    py = point.y
    for sid, site in diagram.sites:  # sorted by id, so strict < keeps the lowest on ties
        dx = px - site.x
        dy = py - site.y
        d2 = dx * dx + dy * dy
        if d2 < best:
            best = d2
            best_id = sid
    return best_id


def _clip_line_to_convex(
    origin: Point, direction: Point, poly: tuple[Point, ...]
) -> tuple[float, float] | None:
    """Parameter interval of the line origin + s*direction inside a CCW convex polygon."""
    s_lo = -math.inf
    s_hi = math.inf
    m = len(poly)
    if m < 3:
        return None
    for k in range(m):
        v1 = poly[k]
        v2 = poly[(k + 1) % m]
        # interior lies left of each CCW edge: inward normal
        nx = -(v2.y - v1.y)
        ny = v2.x - v1.x
        num = nx * (origin.x - v1.x) + ny * (origin.y - v1.y)
        den = nx * direction.x + ny * direction.y
        if abs(den) < 1e-15:
            if num < -EPS_GEOM:
                return None
            continue
        s = -num / den
        if den > 0:
            s_lo = max(s_lo, s)
        else:
            s_hi = min(s_hi, s)
    if s_lo >= s_hi:
        return None
    return (s_lo, s_hi)


def shared_edge(diagram: VoronoiDiagram, i: int, j: int) -> SharedEdge | None:
    """Positive-length common boundary of cells i and j, or None."""
    if i == j:
        raise UnknownRobotId("shared_edge requires two distinct robot ids")
    ci = diagram.cell(i)
    cj = diagram.cell(j)
    mid = Point((ci.site.x + cj.site.x) / 2.0, (ci.site.y + cj.site.y) / 2.0)
    d = Point(cj.site.x - ci.site.x, cj.site.y - ci.site.y)
    b = Point(-d.y, d.x)  # bisector direction
    ival_i = _clip_line_to_convex(mid, b, ci.vertices)
    ival_j = _clip_line_to_convex(mid, b, cj.vertices)
    if ival_i is None or ival_j is None:
        return None
    s_lo = max(ival_i[0], ival_j[0])
    s_hi = min(ival_i[1], ival_j[1])
    blen = math.hypot(b.x, b.y)
    if (s_hi - s_lo) * blen <= EPS_GEOM:
        return None
    p1 = Point(mid.x + s_lo * b.x, mid.y + s_lo * b.y)
    p2 = Point(mid.x + s_hi * b.x, mid.y + s_hi * b.y)
    return SharedEdge(site_a=i, site_b=j, p1=p1, p2=p2)


def relay_point(x_i: Point, x_j: Point, edge: SharedEdge) -> tuple[Point, float]:
    """Minimax transfer point on a segment for two agent positions.

    Minimizes max(|z - x_i|, |z - x_j|) over the segment. The objective is
    the max of two convex distance functions, so the minimum sits at an
    endpoint, at the equidistance crossing, or at the clamped projection of
    one of the sites (or the midpoint, when the segment parallels the
    bisector); evaluating that candidate set is exact.
    """
    if x_i == x_j:
        raise DegenerateSites("agent positions coincide")
    p1, p2 = edge.p1, edge.p2
    ex = p2.x - p1.x
    ey = p2.y - p1.y
    elen2 = ex * ex + ey * ey
    if elen2 == 0.0:
        raise DegenerateEdge("edge endpoints coincide")

    candidates = [0.0, 1.0]

    dx = x_j.x - x_i.x
    dy = x_j.y - x_i.y
    mid = Point((x_i.x + x_j.x) / 2.0, (x_i.y + x_j.y) / 2.0)
    bx, by = -dy, dx  # bisector direction
    cross = ex * by - ey * bx
    elen = math.sqrt(elen2)
    blen = math.hypot(bx, by)
    if abs(cross) >= EPS_PARALLEL * elen * blen:
        # transversal crossing of the bisector: equidistance is linear in t
        c = (x_j.x * x_j.x + x_j.y * x_j.y - x_i.x * x_i.x - x_i.y * x_i.y) / 2.0
        num = c - (dx * p1.x + dy * p1.y)
        den = dx * ex + dy * ey
        if den != 0.0:
            t_cross = num / den
            if 0.0 <= t_cross <= 1.0:
                candidates.append(t_cross)
    for q in (x_i, x_j, mid):
        t = ((q.x - p1.x) * ex + (q.y - p1.y) * ey) / elen2
        candidates.append(min(1.0, max(0.0, t)))

    def value_at(t: float) -> float:
        zx = p1.x + t * ex
        zy = p1.y + t * ey
        return max(math.hypot(zx - x_i.x, zy - x_i.y), math.hypot(zx - x_j.x, zy - x_j.y))

    best_t = min(sorted(candidates), key=value_at)
    z = Point(p1.x + best_t * ex, p1.y + best_t * ey)
    return z, value_at(best_t)


# --- serialization -----------------------------------------------------------
# Points are written inline as [x, y]; point_from_list reads them back.


def point_from_list(xy: list) -> Point:
    """[x, y], two JSON numbers (not booleans), as floats."""
    x, y = xy
    if not all(_is_int(v) or isinstance(v, float) for v in (x, y)):
        raise ValueError(f"coordinates {xy!r} are not two numbers")
    return Point(float(x), float(y))


def workspace_to_dict(ws: Workspace) -> dict:
    return {
        "min": [ws.min_corner.x, ws.min_corner.y],
        "max": [ws.max_corner.x, ws.max_corner.y],
        "cols": ws.grid_cols,
        "rows": ws.grid_rows,
    }


def workspace_from_dict(data: dict) -> Workspace:
    return Workspace(
        min_corner=point_from_list(data["min"]),
        max_corner=point_from_list(data["max"]),
        grid_cols=data["cols"],
        grid_rows=data["rows"],
    )


def robots_to_list(robots: list[tuple[int, Point]]) -> list[list]:
    """Robot placements as [[id, x, y], ...], in the given order."""
    return [[rid, p.x, p.y] for rid, p in robots]


def robots_from_list(data: list, workspace: Workspace) -> list[tuple[int, Point]]:
    """Placements with integer ids, distinct and in the workspace."""
    robots = [(rid, point_from_list(xy)) for rid, *xy in data]
    for rid, p in robots:
        if not _is_int(rid):
            raise ValueError(f"robot id {rid!r} is not an integer")
        if not workspace.contains(p):
            raise ValueError(f"robot {rid} at ({p.x}, {p.y}) outside the workspace")
    if len({rid for rid, _ in robots}) != len(robots):
        raise ValueError("duplicate robot ids")
    return robots


def diagram_to_json(diagram: VoronoiDiagram) -> str:
    data = {
        "workspace": workspace_to_dict(diagram.workspace),
        "cells": [
            {
                "site_id": c.site_id,
                "site": [c.site.x, c.site.y],
                "vertices": [[v.x, v.y] for v in c.vertices],
            }
            for c in diagram.cells
        ],
    }
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def diagram_from_json(text: str) -> VoronoiDiagram:
    """A stored diagram; its clip returns each cell's stored vertices."""
    data = json.loads(text)
    cells = data["cells"]
    if not cells:
        raise ValueError("a diagram needs at least one cell")
    workspace = workspace_from_dict(data["workspace"])
    sites = robots_from_list([[c["site_id"], *c["site"]] for c in cells], workspace)
    vertices = {c["site_id"]: tuple(point_from_list(v) for v in c["vertices"]) for c in cells}
    return VoronoiDiagram(sites, workspace, lambda sid, _: vertices[sid])
