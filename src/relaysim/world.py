"""Discrete grid overlay, occupancy, and the named-zone semantic map."""

from __future__ import annotations

import json
import re
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

from .errors import CellOutOfBounds, PointOutsideWorkspace, UnknownZone
from .geometry import (
    Point,
    Workspace,
    _is_int,
    point_from_list,
    workspace_from_dict,
)

_WS_RE = re.compile(r"\s+")


class GridCell(NamedTuple):
    col: int
    row: int


class _OccupancyGridFields(NamedTuple):
    workspace: Workspace
    blocked: frozenset[GridCell]


class OccupancyGrid(_OccupancyGridFields):
    """A workspace's grid and its blocked cells. Its fields are read-only, so
    the figures it caches on first use stay true; it has no `__slots__`, so
    its instance dict holds them."""

    def __new__(
        cls, workspace: Workspace, blocked: frozenset[GridCell] = frozenset()
    ) -> OccupancyGrid:
        grid = tuple.__new__(cls, (workspace, blocked))
        for c in blocked:
            if not grid.in_bounds(c):
                raise CellOutOfBounds(f"blocked cell {c} out of bounds")
        return grid

    @property
    def cols(self) -> int:
        return self.workspace.grid_cols

    @property
    def rows(self) -> int:
        return self.workspace.grid_rows

    @cached_property
    def cell_width(self) -> float:
        return self.workspace.width / self.cols

    @cached_property
    def cell_height(self) -> float:
        return self.workspace.height / self.rows

    @cached_property
    def _frame(self) -> tuple[float, float, float, float, float, float, int, int]:
        """(x0, y0, x1, y1, cell width, cell height, cols, rows)."""
        lo, hi = self.workspace.min_corner, self.workspace.max_corner
        return (lo.x, lo.y, hi.x, hi.y, self.cell_width, self.cell_height, self.cols, self.rows)

    def index_of(self, point: Point) -> int:
        """Row-major index of the cell whose half-open extent contains the point."""
        x0, y0, x1, y1, cw, ch, cols, rows = self._frame
        x, y = point
        if not (x0 <= x < x1 and y0 <= y < y1):
            raise PointOutsideWorkspace(f"({x}, {y}) outside half-open workspace extent")
        # int() floors the non-negative quotients; min guards float roundoff
        # at the upper edge
        return min(int((y - y0) / ch), rows - 1) * cols + min(int((x - x0) / cw), cols - 1)

    def center(self, index: int) -> Point:
        """Centre of the cell with row-major index `index`, which must be in the grid."""
        x0, y0, _, _, cw, ch, cols, _ = self._frame
        return Point(x0 + (index % cols + 0.5) * cw, y0 + (index // cols + 0.5) * ch)

    def in_bounds(self, cell: GridCell) -> bool:
        return 0 <= cell.col < self.cols and 0 <= cell.row < self.rows

    def is_blocked(self, cell: GridCell) -> bool:
        return cell in self.blocked

    @cached_property
    def blocked_mask(self) -> bytes:
        """Row-major: byte `row * cols + col` is 1 where that cell is blocked."""
        mask = bytearray(self.cols * self.rows)
        for c in self.blocked:
            mask[c.row * self.cols + c.col] = 1
        return bytes(mask)

    @cached_property
    def regions(self) -> list[int]:
        """Row-major: the 4-connected free region of each cell, named by its
        first cell's index; -1 where the cell is blocked."""
        cols, size, mask = self.cols, self.cols * self.rows, self.blocked_mask
        regions = [-1] * size
        for first in range(size):
            if mask[first] or regions[first] >= 0:
                continue
            regions[first] = first
            todo = [first]
            while todo:
                i = todo.pop()
                c = i % cols
                # row-end tests keep a column step from wrapping into the next row
                for ok, nb in ((i >= cols, i - cols), (i + cols < size, i + cols),
                               (c > 0, i - 1), (c + 1 < cols, i + 1)):
                    if ok and not mask[nb] and regions[nb] < 0:
                        regions[nb] = first
                        todo.append(nb)
        return regions


def cell_of(point: Point, grid: OccupancyGrid) -> GridCell:
    """Cell whose half-open extent [x, x+w) x [y, y+h) contains the point."""
    index = grid.index_of(point)
    return GridCell(index % grid.cols, index // grid.cols)


def center_of(cell: GridCell, grid: OccupancyGrid) -> Point:
    if not grid.in_bounds(cell):
        raise CellOutOfBounds(f"cell {cell} out of bounds")
    return grid.center(cell.row * grid.cols + cell.col)


def normalize_zone_name(name: str) -> str:
    return _WS_RE.sub(" ", name.strip().lower())


class SemanticMap(NamedTuple):
    zones: dict[str, Point]  # keys normalized

    @staticmethod
    def from_raw(raw: dict[str, Point]) -> "SemanticMap":
        zones: dict[str, Point] = {}
        for name, anchor in raw.items():
            key = normalize_zone_name(name)
            if key in zones:
                raise ValueError(f"duplicate zone name after normalization: {key!r}")
            zones[key] = anchor
        return SemanticMap(zones=zones)


def resolve_zone(name: str, smap: SemanticMap) -> Point:
    key = normalize_zone_name(name)
    try:
        return smap.zones[key]
    except KeyError:
        raise UnknownZone(f"unknown zone {name!r}") from None


def load_semantic_map(path: str | Path) -> tuple[SemanticMap, Workspace]:
    """Load the zones + workspace JSON file."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    workspace = workspace_from_dict(data["workspace"])
    raw_zones = {name: point_from_list(xy) for name, xy in data["zones"].items()}
    smap = SemanticMap.from_raw(raw_zones)
    for name, anchor in smap.zones.items():
        if not workspace.contains(anchor):
            raise ValueError(f"zone {name!r} anchor ({anchor.x}, {anchor.y}) outside the workspace")
    return smap, workspace


def load_occupancy(path: str | Path, workspace: Workspace) -> OccupancyGrid:
    """Optional occupancy file: JSON list of [col, row] blocked cells, each
    two JSON integers (not booleans)."""
    cells = [GridCell(c, r) for c, r in json.loads(Path(path).read_text(encoding="utf-8"))]
    for c in cells:
        if not (_is_int(c.col) and _is_int(c.row)):
            raise ValueError(f"cell {list(c)!r} is not two integers")
    return OccupancyGrid(workspace=workspace, blocked=frozenset(cells))
