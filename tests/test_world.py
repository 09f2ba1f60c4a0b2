import json
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relaysim.errors import CellOutOfBounds, PointOutsideWorkspace, UnknownZone
from relaysim.geometry import Point, Workspace, dist, workspace_to_dict
from relaysim.world import (
    GridCell,
    OccupancyGrid,
    SemanticMap,
    cell_of,
    center_of,
    load_occupancy,
    load_semantic_map,
    resolve_zone,
)
from mapfiles import map_json
from oracles import cell_center, cell_floor


class TestCellOf:
    def test_first_cell(self, grid20):
        assert cell_of(Point(0.5, 0.5), grid20) == GridCell(0, 0)

    def test_max_corner_excluded(self, grid20):
        with pytest.raises(PointOutsideWorkspace):
            cell_of(Point(20, 20), grid20)

    def test_extent_is_the_workspace_half_open_test(self, grid20):
        ws = grid20.workspace
        for p in (Point(0, 0), Point(19.75, 0), Point(0, 19.75), Point(20, 5), Point(5, 20)):
            assert ws.contains(p) == (p.x < 20 and p.y < 20)
            if ws.contains(p):
                assert grid20.in_bounds(cell_of(p, grid20))
            else:
                with pytest.raises(PointOutsideWorkspace):
                    cell_of(p, grid20)

    def test_round_trip_within_half_diagonal(self, grid20):
        rng = random.Random(1)
        half_diag = (2 ** 0.5) / 2
        for _ in range(1_000):
            p = Point(rng.uniform(0, 20 - 1e-9), rng.uniform(0, 20 - 1e-9))
            c = cell_of(p, grid20)
            assert dist(p, center_of(c, grid20)) <= half_diag + 1e-12


class TestCenterOf:
    def test_corners(self, grid20):
        assert center_of(GridCell(0, 0), grid20) == Point(0.5, 0.5)
        assert center_of(GridCell(19, 19), grid20) == Point(19.5, 19.5)

    def test_out_of_bounds(self, grid20):
        with pytest.raises(CellOutOfBounds):
            center_of(GridCell(20, 0), grid20)

    def test_exhaustive_round_trip(self, grid20):
        for col in range(20):
            for row in range(20):
                c = GridCell(col, row)
                assert cell_of(center_of(c, grid20), grid20) == c

    @settings(max_examples=100, deadline=None)
    @given(
        cols=st.integers(min_value=1, max_value=40),
        rows=st.integers(min_value=1, max_value=40),
        x=st.floats(min_value=0, max_value=19.99),
        y=st.floats(min_value=0, max_value=19.99),
    )
    def test_grid_tiling_assigns_exactly_one_cell(self, cols, rows, x, y):
        ws = Workspace(Point(0, 0), Point(20, 20), cols, rows)
        grid = OccupancyGrid(workspace=ws)
        c = cell_of(Point(x, y), grid)
        assert grid.in_bounds(c)
        # the half-open extent of c contains the point
        assert ws.min_corner.x + c.col * grid.cell_width <= x
        assert x < ws.min_corner.x + (c.col + 1) * grid.cell_width or c.col == cols - 1
        assert ws.min_corner.y + c.row * grid.cell_height <= y

    @settings(max_examples=300, deadline=None)
    @given(
        x0=st.floats(min_value=-1e3, max_value=1e3),
        y0=st.floats(min_value=-1e3, max_value=1e3),
        width=st.floats(min_value=0.01, max_value=1e3),
        height=st.floats(min_value=0.01, max_value=1e3),
        cols=st.integers(min_value=1, max_value=60),
        rows=st.integers(min_value=1, max_value=60),
        fx=st.floats(min_value=0, max_value=1),
        fy=st.floats(min_value=0, max_value=1),
    )
    # one ulp below the upper edge, the offset over the cell width rounds to
    # 31.0, one column past the last: the upper-edge guard maps it to col 30
    @example(x0=-3.7, y0=2.25, width=17.3, height=9.1, cols=31, rows=7, fx=1.0, fy=1.0)
    def test_conversions_equal_the_floor_reference(self, x0, y0, width, height, cols, rows,
                                                   fx, fy):
        """On any workspace, off the origin and with cols != rows included,
        `cell_of` and `index_of` floor the point as the reference does; a
        fraction of 1 puts it one ulp below the upper edge. `center_of` of
        the cell equals `center` of its index, and the reference, bit for bit."""
        ws = Workspace(Point(x0, y0), Point(x0 + width, y0 + height), cols, rows)
        grid = OccupancyGrid(workspace=ws)
        lo, hi = ws.min_corner, ws.max_corner
        x = min(lo.x + fx * ws.width, math.nextafter(hi.x, -math.inf))
        y = min(lo.y + fy * ws.height, math.nextafter(hi.y, -math.inf))
        want = cell_floor(Point(x, y), ws)
        assert cell_of(Point(x, y), grid) == want
        index = grid.index_of(Point(x, y))
        assert index == want.row * cols + want.col
        bits = [v.hex() for v in cell_center(want, ws)]
        assert [v.hex() for v in center_of(want, grid)] == bits
        assert [v.hex() for v in grid.center(index)] == bits


class TestSemanticMap:
    def test_lookup(self, five_zone_map):
        assert resolve_zone("Kitchen", five_zone_map) == Point(2.5, 17.5)

    def test_normalization(self, five_zone_map):
        assert resolve_zone("  bedroom ", five_zone_map) == Point(17.5, 2.5)
        assert resolve_zone("STORAGE   AREA", five_zone_map) == Point(17.5, 17.5)

    def test_unknown_zone(self, five_zone_map):
        with pytest.raises(UnknownZone):
            resolve_zone("garage", five_zone_map)

    def test_file_round_trip(self, five_zone_map, workspace20, tmp_path):
        path = tmp_path / "map.json"
        path.write_text(map_json(five_zone_map, workspace20), encoding="utf-8")
        smap, ws = load_semantic_map(path)
        assert smap.zones == five_zone_map.zones
        assert ws == workspace20
        assert map_json(smap, ws) == path.read_text(encoding="utf-8")

    @pytest.mark.parametrize("anchor", [[20.0, 17.5], [2.5, 20.0], [25, 17.5], [-1, 2.5]])
    def test_anchor_outside_half_open_extent_names_the_zone(self, anchor, workspace20, tmp_path):
        path = tmp_path / "map.json"
        data = {"workspace": workspace_to_dict(workspace20), "zones": {" Kitchen ": anchor}}
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ValueError, match="zone 'kitchen'"):
            load_semantic_map(path)


def test_occupancy_file(workspace20, tmp_path):
    path = tmp_path / "occ.json"
    path.write_text("[[0, 0], [3, 4]]", encoding="utf-8")
    grid = load_occupancy(path, workspace20)
    assert grid.is_blocked(GridCell(0, 0))
    assert grid.is_blocked(GridCell(3, 4))
    assert not grid.is_blocked(GridCell(1, 1))


@pytest.mark.parametrize(
    "cells",
    [[[0.9, 3]], [["3", 2]], [[True, 2]], [[1, 2], [True, 2]], [[0.9, "3"], [True, 2]]],
)
def test_occupancy_cells_must_be_json_integers(cells, workspace20, tmp_path):
    path = tmp_path / "occ.json"
    path.write_text(json.dumps(cells), encoding="utf-8")
    with pytest.raises(ValueError, match="not two integers"):
        load_occupancy(path, workspace20)


def test_blocked_cell_out_of_bounds_rejected(workspace20):
    with pytest.raises(CellOutOfBounds):
        OccupancyGrid(workspace=workspace20, blocked=frozenset({GridCell(50, 2)}))
