import hashlib
import random

import pytest

from relaysim.errors import BlockedEndpoint, CellOutOfBounds, NoPath
from relaysim.geometry import Point, Workspace, compute_voronoi, dist, locate, shared_edge
from relaysim.nlu import TaskSpec
from relaysim import planning
from relaysim.planning import (
    astar,
    build_relay_plan,
    check_reachable,
    plan_from_json,
    plan_to_json,
    single_agent_baseline,
)
from relaysim.simulation import SimConfig, generate_trial, trial_seed
from relaysim.world import GridCell, OccupancyGrid, cell_of, center_of
from oracles import bfs_shortest_moves, nearest_site_brute


def random_grid(rng, cols=20, rows=20, blocked_frac=0.2):
    ws = Workspace(Point(0, 0), Point(float(cols), float(rows)), cols, rows)
    blocked = frozenset(
        GridCell(c, r)
        for c in range(cols)
        for r in range(rows)
        if rng.random() < blocked_frac
    )
    return OccupancyGrid(workspace=ws, blocked=blocked)


def _cells(grid):
    return [GridCell(c, r) for r in range(grid.rows) for c in range(grid.cols)]


def _house_grid():
    """A 30x30 floor of nine rooms: walls on rows and columns 10 and 20, each
    wall segment with a two-cell doorway (cells 4-5, 14-15 and 24-25)."""
    walls = {(w, i) for w in (10, 20) for i in range(30)}
    walls |= {(r, c) for c, r in walls}
    doors = {(w, d) for w in (10, 20) for d in (4, 5, 14, 15, 24, 25)}
    doors |= {(r, c) for c, r in doors}
    ws = Workspace(Point(0, 0), Point(30.0, 30.0), 30, 30)
    return OccupancyGrid(workspace=ws, blocked=frozenset(GridCell(c, r) for c, r in walls - doors))


def _route(search, grid, a, b):
    try:
        return search(grid, a, b)
    except NoPath as exc:
        return str(exc)


def _raised(fn, grid, a, b):
    """The type and text of what fn(grid, a, b) raises; None if it returns."""
    try:
        fn(grid, a, b)
    except (CellOutOfBounds, BlockedEndpoint, NoPath) as exc:
        return type(exc), str(exc)
    return None


def random_team(rng, n, grid):
    cells = rng.sample(
        [GridCell(c, r) for c in range(grid.cols) for r in range(grid.rows)], n
    )
    return [(i, center_of(cell, grid)) for i, cell in enumerate(cells)]


class TestAstar:
    def test_straight_corridor(self, grid20):
        path = astar(grid20, GridCell(0, 0), GridCell(0, 5))
        assert len(path.cells) - 1 == 5

    def test_start_equals_goal(self, grid20):
        path = astar(grid20, GridCell(4, 4), GridCell(4, 4))
        assert len(path.cells) - 1 == 0
        assert path.cells == (GridCell(4, 4),)

    def test_blocked_endpoint(self, workspace20):
        grid = OccupancyGrid(workspace=workspace20, blocked=frozenset({GridCell(0, 0)}))
        with pytest.raises(BlockedEndpoint):
            astar(grid, GridCell(0, 0), GridCell(5, 5))

    def test_no_path(self, workspace20):
        wall = frozenset(GridCell(1, r) for r in range(20))
        grid = OccupancyGrid(workspace=workspace20, blocked=wall)
        with pytest.raises(NoPath):
            astar(grid, GridCell(0, 0), GridCell(5, 5))

    def test_matches_bfs_on_random_grids(self):
        rng = random.Random(17)
        solved = 0
        for _ in range(200):
            grid = random_grid(rng)
            free = [
                GridCell(c, r)
                for c in range(20)
                for r in range(20)
                if not grid.is_blocked(GridCell(c, r))
            ]
            start, goal = rng.sample(free, 2)
            expected = bfs_shortest_moves(grid, start, goal)
            if expected is None:
                with pytest.raises(NoPath):
                    astar(grid, start, goal)
                continue
            path = astar(grid, start, goal)
            assert path.cols == grid.cols
            assert path.cells == tuple(GridCell(i % grid.cols, i // grid.cols) for i in path.indices)
            assert len(path.cells) - 1 == expected
            assert path.cells[0] == start and path.cells[-1] == goal
            for a, b in zip(path.cells, path.cells[1:]):
                assert abs(a.col - b.col) + abs(a.row - b.row) == 1
                assert not grid.is_blocked(b)
            solved += 1
        assert solved > 50

    def test_deterministic(self, grid20):
        a = astar(grid20, GridCell(2, 3), GridCell(15, 11))
        b = astar(grid20, GridCell(2, 3), GridCell(15, 11))
        assert a == b

    def test_no_route_wraps_across_a_row_end(self):
        # (2, 0) is walled in; its row-major successor is (0, 1), the goal
        ws = Workspace(Point(0, 0), Point(3.0, 2.0), 3, 2)
        grid = OccupancyGrid(workspace=ws, blocked=frozenset({GridCell(1, 0), GridCell(2, 1)}))
        for a, b in ((GridCell(2, 0), GridCell(0, 1)), (GridCell(0, 1), GridCell(2, 0))):
            with pytest.raises(NoPath):
                astar(grid, a, b)

    def test_out_of_bounds_endpoints_do_not_alias_a_cell(self):
        ws = Workspace(Point(0, 0), Point(5.0, 4.0), 5, 4)
        grid = OccupancyGrid(workspace=ws)
        inside = GridCell(2, 1)
        for outside in (GridCell(-1, 1), GridCell(5, 1), GridCell(2, 4), GridCell(0, -1)):
            with pytest.raises(CellOutOfBounds):
                astar(grid, outside, inside)
            with pytest.raises(CellOutOfBounds):
                astar(grid, inside, outside)

    def test_one_cell_grid(self):
        grid = OccupancyGrid(workspace=Workspace(Point(0, 0), Point(1.0, 1.0), 1, 1))
        assert astar(grid, GridCell(0, 0), GridCell(0, 0)).cells == (GridCell(0, 0),)

    def test_astar_equals_the_search(self, monkeypatch):
        # astar walks where the search's path only moves toward the goal and
        # searches elsewhere; either way it must return what the search does
        searched = []
        real_search = planning._search

        def counting(grid, start, goal):
            searched.append((start, goal))
            return real_search(grid, start, goal)

        monkeypatch.setattr(planning, "_search", counting)
        rng = random.Random(53)
        pairs = 0
        # every pair on small open grids
        for cols in range(1, 7):
            for rows in range(1, 7):
                grid = random_grid(rng, cols, rows, 0.0)
                for a in _cells(grid):
                    for b in _cells(grid):
                        assert _route(astar, grid, a, b) == _route(real_search, grid, a, b)
                        pairs += 1
        # sampled pairs on walled grids, and on the house floor plan
        grids = [random_grid(rng, rng.randint(1, 15), rng.randint(1, 15), rng.choice((0.1, 0.3, 0.5)))
                 for _ in range(60)]
        grids += [_house_grid()] * 10
        for grid in grids:
            free = [c for c in _cells(grid) if not grid.is_blocked(c)]
            for _ in range(60 if free else 0):
                a, b = rng.choice(free), rng.choice(free)
                assert _route(astar, grid, a, b) == _route(real_search, grid, a, b), (grid, a, b)
                pairs += 1
        assert 0 < len(searched) < pairs / 2

    def test_check_reachable_raises_what_astar_raises(self):
        rng = random.Random(59)
        seen = set()
        for _ in range(500):
            cols, rows = rng.randint(1, 12), rng.randint(1, 12)
            grid = random_grid(rng, cols, rows, rng.choice((0.0, 0.2, 0.45)))
            for _ in range(5):
                a, b = (GridCell(rng.randint(-1, cols), rng.randint(-1, rows)) for _ in "ab")
                outcome = _raised(check_reachable, grid, a, b)
                assert outcome == _raised(astar, grid, a, b), (grid, a, b)
                seen.add(outcome and outcome[0])
        assert seen == {None, CellOutOfBounds, BlockedEndpoint, NoPath}

    def test_paths_and_no_paths_digest(self):
        # pins the (f, h, row-major index) tie-break: an equally short but
        # different path, or a different set of NoPath calls, changes the digest
        rng = random.Random(2024)
        shapes = ((20, 20, 0.25), (60, 60, 0.08), (37, 11, 0.25), (1, 30, 0.1))
        h = hashlib.sha256()
        no_paths = 0
        for i in range(300):
            cols, rows, frac = shapes[i % len(shapes)]
            grid = random_grid(rng, cols, rows, frac)
            free = [
                GridCell(c, r)
                for r in range(rows)
                for c in range(cols)
                if not grid.is_blocked(GridCell(c, r))
            ]
            start, goal = rng.sample(free, 2)
            for a, b in ((start, goal), (goal, start), (start, start)):
                h.update(f"{cols}x{rows} {a.col},{a.row}->{b.col},{b.row}:".encode())
                try:
                    cells = astar(grid, a, b).cells
                except NoPath:
                    h.update(b"none;")
                    no_paths += 1
                    continue
                h.update(" ".join(f"{c.col},{c.row}" for c in cells).encode() + b";")
        assert no_paths > 50
        assert h.hexdigest() == (
            "1aee088ef8a5089a0cdf375cb5ba9e8ac68f2bb92b360c39254569eb778a89d6"
        )


def _cell_task(a: GridCell, b: GridCell, grid: OccupancyGrid) -> TaskSpec:
    return TaskSpec(center_of(a, grid), center_of(b, grid), "box", "cmd")


class TestActiveChain:
    def test_single_region_path(self, workspace20, grid20):
        robots = [(0, Point(5, 10)), (1, Point(15, 10))]
        d = compute_voronoi(robots, workspace20)
        task = _cell_task(GridCell(1, 1), GridCell(4, 4), grid20)
        assert build_relay_plan(task, robots, d, grid20).active == (0,)

    def test_crossing_the_split(self, workspace20, grid20):
        robots = [(0, Point(5, 10)), (1, Point(15, 10))]
        d = compute_voronoi(robots, workspace20)
        task = _cell_task(GridCell(2, 10), GridCell(17, 10), grid20)
        assert build_relay_plan(task, robots, d, grid20).active == (0, 1)

    def test_set_equals_owner_scan(self, workspace20, grid20):
        rng = random.Random(29)
        for _ in range(30):
            sites = random_team(rng, 5, grid20)
            d = compute_voronoi(sites, workspace20)
            a, b = rng.sample(
                [GridCell(c, r) for c in range(20) for r in range(20)], 2
            )
            path = astar(grid20, a, b)
            active = build_relay_plan(_cell_task(a, b, grid20), sites, d, grid20).active
            owners = {locate(center_of(c, grid20), d) for c in path.cells}
            assert set(active) == owners
            assert len(active) == len(set(active))

    @pytest.mark.parametrize("side,team", [(20, 5), (20, 10), (60, 10), (60, 60)])
    def test_chain_is_the_located_owners_in_path_order(self, side, team):
        """On seeded batch trials, the chain is `locate`'s owner of each
        path-cell center, in order of first appearance."""
        config = SimConfig(grid_cols=side, grid_rows=side, team_sizes=(team,))
        grid = OccupancyGrid(workspace=config.workspace())
        for i in range(20):
            rng = random.Random(trial_seed(12345, team, i))
            placements, task = generate_trial(team, config, rng)
            d = compute_voronoi(placements, grid.workspace)
            path = astar(grid, cell_of(task.pickup, grid), cell_of(task.drop, grid))
            want = dict.fromkeys(locate(center_of(c, grid), d) for c in path.cells)
            assert build_relay_plan(task, placements, d, grid).active == tuple(want)

    def test_an_exact_tie_goes_to_the_lower_id(self, workspace20, grid20):
        # sites 5 and 2 mirrored about the center of the pickup's cell (4, 5):
        # the lower id owns that cell, and site 5 every later cell of the path
        robots = [(5, Point(1.5, 2.5)), (2, Point(7.5, 8.5))]
        center = center_of(GridCell(4, 5), grid20)
        d2 = [(center.x - p.x) ** 2 + (center.y - p.y) ** 2 for _, p in robots]
        assert d2[0] == d2[1]
        d = compute_voronoi(robots, workspace20)
        task = _cell_task(GridCell(4, 5), GridCell(0, 1), grid20)
        assert build_relay_plan(task, robots, d, grid20).active == (2, 5)


class TestBuildRelayPlan:
    def test_single_robot(self, workspace20, grid20):
        robots = [(0, Point(10.5, 10.5))]
        d = compute_voronoi(robots, workspace20)
        task = TaskSpec(Point(2.5, 17.5), Point(17.5, 2.5), "box", "cmd")
        plan = build_relay_plan(task, robots, d, grid20)
        assert plan.active == (0,)
        assert plan.transfers == ()
        assert plan.legs == (task.pickup, task.drop)

    def test_two_robot_handoff_on_shared_boundary(self, workspace20, grid20):
        robots = [(1, Point(5.5, 10.5)), (2, Point(15.5, 10.5))]
        d = compute_voronoi(robots, workspace20)
        task = TaskSpec(Point(2.5, 10.5), Point(17.5, 10.5), "glass of water", "cmd")
        plan = build_relay_plan(task, robots, d, grid20)
        assert plan.active == (1, 2)
        assert shared_edge(d, 1, 2) is not None
        assert plan.transfer_fallback == (False,)
        assert len(plan.transfers) == 1
        z = plan.transfers[0]
        assert abs(dist(z, robots[0][1]) - dist(z, robots[1][1])) <= 1e-9
        assert plan.legs == (task.pickup, z, task.drop)

    def test_fallback_flag_set_where_the_cells_share_no_edge(self):
        """Robots 0 and 1 sit on a diagonal of a 2x2 square of robots, so their
        cells meet only at its centre (2, 2); the transfer falls back to the
        path's region crossing."""
        ws = Workspace(Point(-0.5, -0.5), Point(4.5, 4.5), 5, 5)
        robots = [(0, Point(1, 1)), (1, Point(3, 3)), (2, Point(3, 1)), (3, Point(1, 3))]
        d = compute_voronoi(robots, ws)
        task = TaskSpec(Point(1, 2), Point(3, 2), "box", "cmd")
        plan = build_relay_plan(task, robots, d, OccupancyGrid(workspace=ws))
        assert shared_edge(d, 0, 1) is None
        assert (plan.active, plan.transfer_fallback) == ((0, 1), (True,))
        assert plan.transfers == (Point(2.5, 2.0),)

    def test_random_instances_invariants(self, workspace20, grid20):
        rng = random.Random(37)
        pos_lookup = {}
        for _ in range(40):
            robots = random_team(rng, 5, grid20)
            pos_lookup = dict(robots)
            d = compute_voronoi(robots, workspace20)
            task = TaskSpec(
                center_of(GridCell(rng.randrange(20), rng.randrange(20)), grid20),
                center_of(GridCell(rng.randrange(20), rng.randrange(20)), grid20),
                "box",
                "cmd",
            )
            if task.pickup == task.drop:
                continue
            plan = build_relay_plan(task, robots, d, grid20)
            assert len(plan.transfers) == len(plan.active) - 1
            assert len(set(plan.active)) == len(plan.active)
            assert set(plan.active) <= set(pos_lookup)
            for j, (z, fb) in enumerate(zip(plan.transfers, plan.transfer_fallback)):
                if not fb:
                    a = pos_lookup[plan.active[j]]
                    b = pos_lookup[plan.active[j + 1]]
                    assert abs(dist(z, a) - dist(z, b)) <= 1e-6

    def test_segment_stitching(self, workspace20, grid20):
        rng = random.Random(43)
        for _ in range(25):
            robots = random_team(rng, 6, grid20)
            d = compute_voronoi(robots, workspace20)
            task = TaskSpec(
                center_of(GridCell(rng.randrange(20), rng.randrange(20)), grid20),
                center_of(GridCell(rng.randrange(20), rng.randrange(20)), grid20),
                "box",
                "cmd",
            )
            if task.pickup == task.drop:
                continue
            plan = build_relay_plan(task, robots, d, grid20)
            # pickup, then the transfers in chain order, then drop
            legs = plan.legs
            assert len(legs) == len(plan.active) + 1
            assert legs[0] == task.pickup and legs[-1] == task.drop
            assert legs[1:-1] == plan.transfers
            assert legs.count(task.pickup) == 1
            assert legs.count(task.drop) == 1
            # the first carrier owns the pickup
            assert plan.active[0] == nearest_site_brute(task.pickup, robots)


class TestSingleAgentBaseline:
    def test_matches_relay_plan_for_one_robot(self, workspace20, grid20):
        robots = [(0, Point(10.5, 10.5))]
        d = compute_voronoi(robots, workspace20)
        task = TaskSpec(Point(2.5, 17.5), Point(17.5, 2.5), "box", "cmd")
        relay = build_relay_plan(task, robots, d, grid20)
        base = single_agent_baseline(task, robots, d, grid20)
        assert base.active == relay.active
        assert base.transfers == relay.transfers
        assert base.legs == relay.legs == (task.pickup, task.drop)
        assert base.baseline and not relay.baseline

    def test_only_pickup_owner_active(self, workspace20, grid20):
        robots = [(0, Point(3.5, 16.5)), (1, Point(16.5, 3.5)), (2, Point(10.5, 10.5))]
        d = compute_voronoi(robots, workspace20)
        task = TaskSpec(Point(2.5, 17.5), Point(17.5, 2.5), "box", "cmd")
        base = single_agent_baseline(task, robots, d, grid20)
        assert base.active == (0,)
        assert base.transfers == ()

    def test_baseline_length_decomposes(self, workspace20, grid20):
        robots = [(0, Point(3.5, 16.5)), (1, Point(16.5, 3.5))]
        d = compute_voronoi(robots, workspace20)
        task = TaskSpec(Point(2.5, 17.5), Point(17.5, 2.5), "box", "cmd")
        base = single_agent_baseline(task, robots, d, grid20)
        x = dict(robots)[base.active[0]]
        pickup, drop = base.legs
        leg1 = len(astar(grid20, cell_of(x, grid20), cell_of(pickup, grid20)).cells) - 1
        leg2 = len(astar(grid20, cell_of(pickup, grid20), cell_of(drop, grid20)).cells) - 1
        assert leg1 == bfs_shortest_moves(grid20, cell_of(x, grid20), cell_of(pickup, grid20))
        assert leg2 == bfs_shortest_moves(grid20, cell_of(pickup, grid20), cell_of(drop, grid20))


def test_plan_json_round_trip(workspace20, grid20):
    # unsorted ids and a bystander (7): the file keeps every placement, in order
    robots = [(2, Point(15.5, 10.5)), (1, Point(5.5, 10.5)), (7, Point(10.5, 1.5))]
    d = compute_voronoi(robots, workspace20)
    task = TaskSpec(Point(2.5, 10.5), Point(17.5, 10.5), "glass of water", "cmd text")
    plan = build_relay_plan(task, robots, d, grid20)
    assert 7 not in plan.active
    text = plan_to_json(plan, robots, workspace20)
    assert plan_from_json(text) == (plan, robots, workspace20)
    assert plan_to_json(*plan_from_json(text)) == text
