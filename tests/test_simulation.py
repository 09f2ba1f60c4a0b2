import hashlib
import json
import math
import random

import pytest

from relaysim import geometry, planning, simulation
from relaysim.coordination import EventKind, MessageKind
from relaysim.errors import InvalidStart, NoCompletedTrials, PointOutsideWorkspace
from relaysim.geometry import Point, Workspace, compute_voronoi, dist
from relaysim.nlu import TaskSpec
from relaysim.planning import RelayPlan, build_relay_plan, single_agent_baseline
from relaysim.simulation import (
    _REPLAN_AFTER,
    RunConfig,
    SimConfig,
    generate_trial,
    run_batch,
    run_trial,
    simulate,
    summarize,
    summary_to_csv,
    trial_seed,
)
from relaysim.world import GridCell, OccupancyGrid, cell_of, center_of
from oracles import bfs_shortest_moves


SMALL = SimConfig(team_sizes=(1, 3, 5, 10), trials_per_size=5, seed=12345)


def _chebyshev(a: GridCell, b: GridCell) -> int:
    return max(abs(a.col - b.col), abs(a.row - b.row))


def _assert_log_states_the_legs(out) -> None:
    """The j-th HandoffReady goes from active[j] to active[j + 1] at
    transfers[j], the one TaskComplete is sent by active[-1] at the drop, and
    the run is complete exactly when that TaskComplete is the last message."""
    plan, log = out.plan, out.messages
    active = plan.active
    readies = [(m.from_id, m.to_id, m.at) for m in log if m.kind is MessageKind.HANDOFF_READY]
    legs = [(active[j], active[j + 1], z) for j, z in enumerate(plan.transfers)]
    assert readies == legs[: len(readies)]
    done = [m for m in log if m.kind is MessageKind.TASK_COMPLETE]
    assert [(m.from_id, m.at) for m in done] == [(active[-1], plan.task.drop)][: len(done)]
    assert out.record.completed == (len(done) == 1 and log[-1] is done[0])
    if out.record.completed:
        assert readies == legs


class TestGenerateTrial:
    def test_deterministic_for_same_seed(self):
        a = generate_trial(5, SMALL, random.Random("k"))
        b = generate_trial(5, SMALL, random.Random("k"))
        assert a == b

    def test_constraints_hold_over_many_draws(self):
        cfg = SMALL
        grid = OccupancyGrid(workspace=cfg.workspace())
        for i in range(1_000):
            rng = random.Random(f"gen/{i}")
            n = 1 + i % 10
            placements, task = generate_trial(n, cfg, rng)
            cells = [cell_of(p, grid) for _, p in placements]
            assert len(set(cells)) == n  # distinct starts
            pc = cell_of(task.pickup, grid)
            dc = cell_of(task.drop, grid)
            assert pc not in cells and dc not in cells
            assert pc != dc
            assert dist(task.pickup, task.drop) >= cfg.min_task_separation

    def test_rejects_bad_team_size(self):
        with pytest.raises(ValueError):
            generate_trial(0, SMALL, random.Random(0))

    @pytest.mark.parametrize(
        "cols,rows,sizes", [(20, 20, (1, 10)), (7, 13, (1, 12, 60)), (60, 60, (10, 600)),
                            (1, 5, (1, 3))]
    )
    def test_robot_cells_are_a_sample_of_every_cell(self, cols, rows, sizes):
        config = SimConfig(grid_cols=cols, grid_rows=rows, team_sizes=sizes,
                           min_task_separation=1.0)
        grid = OccupancyGrid(workspace=config.workspace())
        every_cell = [GridCell(c, r) for r in range(rows) for c in range(cols)]
        for seed in range(4):
            for k in sizes:
                expected = random.Random(trial_seed(seed, k, 0)).sample(every_cell, k)
                placements, _ = generate_trial(k, config, random.Random(trial_seed(seed, k, 0)))
                assert [cell_of(p, grid) for _, p in placements] == expected


class TestSingleTrials:
    def test_solo_trial_moves_decompose(self):
        """One robot: total moves equal the two shortest grid legs."""
        cfg = SMALL
        grid = OccupancyGrid(workspace=cfg.workspace())
        placements = [(0, center_of(GridCell(0, 0), grid))]
        task = TaskSpec(
            pickup=center_of(GridCell(3, 0), grid),
            drop=center_of(GridCell(3, 9), grid),
            item="box",
            source_text="t",
        )
        out = run_trial(placements, task, cfg)
        assert out.record.completed
        leg1 = bfs_shortest_moves(grid, GridCell(0, 0), GridCell(3, 0))
        leg2 = bfs_shortest_moves(grid, GridCell(3, 0), GridCell(3, 9))
        assert out.record.total_moves == leg1 + leg2
        assert out.record.per_agent_moves == {0: leg1 + leg2}
        assert out.messages[-1].kind is MessageKind.TASK_COMPLETE

    def test_held_robot_detours_after_replan_after_blocked_ticks(self):
        """Robot 0's route to the pickup at (4, 2) runs along row 1 through
        bystander 1 at (2, 1). It reaches (1, 1) at tick 1, is held there for
        exactly _REPLAN_AFTER ticks, and at the next tick steps onto the detour
        around the bystander: down to (1, 2), then along row 2."""
        ws = Workspace(Point(0, 0), Point(5.0, 3.0), 5, 3)
        grid = OccupancyGrid(workspace=ws)
        placements = [(0, center_of(GridCell(0, 1), grid)), (1, center_of(GridCell(2, 1), grid))]
        task = TaskSpec(center_of(GridCell(4, 2), grid), center_of(GridCell(4, 0), grid), "box", "t")
        plan = RelayPlan(task=task, active=(0,), transfers=(), baseline=True)
        out = simulate(plan, placements, grid, RunConfig(), record_trace=True)
        assert out.record.completed
        cells = [t.positions[0] for t in out.trace]
        assert _REPLAN_AFTER == 3
        held = [GridCell(1, 1)] * (1 + _REPLAN_AFTER)
        assert cells[:8] == [GridCell(0, 1), *held, *(GridCell(c, 2) for c in range(1, 4))]
        assert {t.positions[1] for t in out.trace} == {GridCell(2, 1)}

    def test_handoff_on_diagonal_stops_when_the_transfer_cross_is_blocked(self):
        """The transfer cell (2, 2) and its four edge neighbours are blocked, so
        the only stops left are its diagonal neighbours: the receiver acks from
        (3, 3)."""
        ws = Workspace(Point(0, 0), Point(5.0, 5.0), 5, 5)
        cross = [(2, 2), (1, 2), (3, 2), (2, 1), (2, 3)]
        grid = OccupancyGrid(workspace=ws, blocked=frozenset(GridCell(c, r) for c, r in cross))
        placements = [(0, Point(0.5, 0.5)), (1, Point(4.5, 4.5))]
        task = TaskSpec(Point(0.5, 2.5), Point(4.5, 2.5), "box", "t")
        plan = RelayPlan(task=task, active=(0, 1), transfers=(Point(2.5, 2.5),), baseline=False,
                         transfer_fallback=(False,))
        out = simulate(plan, placements, grid, RunConfig(tick_budget=200))
        assert out.record.completed
        assert out.record.ticks == 6
        (ack,) = (m for m in out.messages if m.kind is MessageKind.HANDOFF_ACK)
        assert (ack.from_id, ack.at) == (1, Point(3.5, 3.5))

    def test_two_robot_relay_exchanges_one_message_pair(self):
        cfg = SMALL
        grid = OccupancyGrid(workspace=cfg.workspace())
        placements = [
            (0, center_of(GridCell(4, 10), grid)),
            (1, center_of(GridCell(15, 10), grid)),
        ]
        task = TaskSpec(
            pickup=center_of(GridCell(1, 10), grid),
            drop=center_of(GridCell(18, 10), grid),
            item="glass of water",
            source_text="t",
        )
        out = run_trial(placements, task, cfg)
        assert out.record.completed
        assert out.plan.active == (0, 1)
        kinds = [m.kind for m in out.messages]
        assert kinds.count(MessageKind.HANDOFF_READY) == 1
        assert kinds.count(MessageKind.HANDOFF_ACK) == 1
        assert kinds.count(MessageKind.TASK_COMPLETE) == 1

    @pytest.mark.parametrize("message_delay", [0, 2])
    def test_random_trials_execution_invariants(self, message_delay):
        """Possession, handoff location, completion, and message counts."""
        cfg = SimConfig(**dict(SMALL._asdict(), message_delay=message_delay))
        grid = OccupancyGrid(workspace=cfg.workspace())
        for i in range(100):
            n = (1, 3, 5, 10)[i % 4]
            rng = random.Random(f"inv/{i}")
            placements, task = generate_trial(n, cfg, rng)
            out = run_trial(placements, task, cfg, record_trace=True)
            rec, plan = out.record, out.plan
            assert rec.completed, f"trial inv/{i} did not finish"
            # at most one carrier at every recorded tick, except that the sender
            # still holds the item while the receiver's HandoffAck is in flight
            acks = [m for m in out.messages if m.kind is MessageKind.HANDOFF_ACK]
            for snap in out.trace:
                assert len(snap.carriers) <= 1 or any(
                    set(snap.carriers) == {m.from_id, m.to_id}
                    and m.tick <= snap.tick < m.tick + message_delay
                    for m in acks
                )
            # bystanders never move
            for rid, _ in placements:
                if rid not in plan.active:
                    assert rid not in rec.per_agent_moves
            start = {rid: cell_of(p, grid) for rid, p in placements}
            for snap in out.trace:
                for rid in start:
                    if rid not in plan.active:
                        assert snap.positions[rid] == start[rid]
            # each handoff happens within one cell diagonal of its planned point,
            # on both sides: HandoffReady is sent, and HandoffAck taken, there
            readies = [m for m in out.messages if m.kind is MessageKind.HANDOFF_READY]
            assert len(readies) == len(plan.transfers)
            assert len(acks) == len(plan.transfers)
            for msg in readies + acks:
                planned = min(plan.transfers, key=lambda z: dist(z, msg.at))
                assert _chebyshev(cell_of(msg.at, grid), cell_of(planned, grid)) <= 1
            # liveness: ticks bounded by work plus per-handoff coordination slack
            k = len(plan.transfers)
            assert rec.ticks <= rec.total_moves + 6 * (k + 1) + 10

    @pytest.mark.parametrize("tick_budget", [None, 20])
    @pytest.mark.parametrize("message_delay", [0, 2])
    def test_log_states_each_leg_and_the_completion(self, message_delay, tick_budget):
        cfg = SimConfig(**dict(SMALL._asdict(), message_delay=message_delay,
                               tick_budget=tick_budget))
        completed = set()
        for i in range(40):
            placements, task = generate_trial((1, 3, 5, 10)[i % 4], cfg, random.Random(f"log/{i}"))
            for baseline in (False, True):
                out = run_trial(placements, task, cfg, baseline=baseline)
                _assert_log_states_the_legs(out)
                completed.add(out.record.completed)
        # a 20-tick budget stops some runs before the drop and not others
        assert completed == ({True} if tick_budget is None else {False, True})

    def test_budget_exhaustion_reports_incomplete(self):
        cfg = SimConfig(team_sizes=(1,), trials_per_size=1, seed=0, tick_budget=2)
        grid = OccupancyGrid(workspace=cfg.workspace())
        placements = [(0, center_of(GridCell(0, 0), grid))]
        task = TaskSpec(
            pickup=center_of(GridCell(19, 0), grid),
            drop=center_of(GridCell(19, 19), grid),
            item="box",
            source_text="t",
        )
        out = run_trial(placements, task, cfg)
        assert not out.record.completed
        assert out.record.ticks == 2

    def test_default_budget_is_ten_times_the_grid_area(self):
        # the only robot is walled into a corner of a 6x4 grid, so it never
        # reaches the pickup; the budget comes from that grid, not SimConfig's
        workspace = Workspace(Point(0.0, 0.0), Point(6.0, 4.0), 6, 4)
        walls = frozenset({GridCell(1, 0), GridCell(0, 1), GridCell(1, 1)})
        grid = OccupancyGrid(workspace=workspace, blocked=walls)
        placements = [(0, center_of(GridCell(0, 0), grid))]
        task = TaskSpec(
            pickup=center_of(GridCell(3, 2), grid),
            drop=center_of(GridCell(5, 3), grid),
            item="box",
            source_text="t",
        )
        plan = build_relay_plan(task, placements, compute_voronoi(placements, workspace), grid)
        out = simulate(plan, placements, grid, SimConfig())
        assert not out.record.completed
        assert out.record.ticks == 10 * 6 * 4

    @pytest.mark.parametrize(
        "start,wall,error,match",
        [
            (Point(5.5, 3.5), GridCell(5, 3), InvalidStart, "robot 1 starts in the blocked cell"),
            (Point(1.5, 0.5), GridCell(0, 0), InvalidStart,
             r"robots 0 and 1 start in the same cell GridCell\(col=1, row=0\)"),
            (Point(6.0, 3.5), GridCell(0, 0), PointOutsideWorkspace, "outside half-open"),
        ],
        ids=["blocked", "shared", "outside-workspace"],
    )
    def test_start_in_a_blocked_cell_is_rejected(self, start, wall, error, match):
        """Robot 1 starts on `start` and the grid's one blocked cell is `wall`."""
        workspace = Workspace(Point(0.0, 0.0), Point(6.0, 4.0), 6, 4)
        grid = OccupancyGrid(workspace=workspace, blocked=frozenset({GridCell(0, 0)}))
        placements = [(0, center_of(GridCell(1, 0), grid)), (1, center_of(GridCell(5, 3), grid))]
        task = TaskSpec(
            pickup=center_of(GridCell(1, 3), grid),
            drop=center_of(GridCell(5, 0), grid),
            item="box",
            source_text="t",
        )
        plan = build_relay_plan(task, placements, compute_voronoi(placements, workspace), grid)
        simulate(plan, placements, grid, RunConfig())
        walled = OccupancyGrid(workspace=workspace, blocked=frozenset({wall}))
        with pytest.raises(error, match=match):
            simulate(plan, [placements[0], (1, start)], walled, RunConfig())

    @pytest.mark.parametrize(
        "change,error",
        [
            (dict(active=(0, 7)), r"active robots \[7\] not in robots"),
            (dict(transfers=()), "2 active robots need 1 transfers"),
            (dict(transfers=(Point(10.5, 10.5),) * 2), "2 active robots need 1 transfers"),
            (dict(transfer_fallback=()), "one flag per transfer"),
            (dict(active=(0, 0)), "a robot appears twice"),
            (dict(active=(), transfers=(), transfer_fallback=()), "empty active chain"),
        ],
        ids=["active-robot-not-placed", "transfer-missing", "surplus-transfer",
             "fallback-flag-missing", "robot-twice-in-chain", "empty-chain"],
    )
    def test_plan_that_does_not_fit_the_placements_is_rejected(self, change, error):
        # README's library quick start: robot 0 hands over to robot 1
        workspace = Workspace(Point(0.0, 0.0), Point(20.0, 20.0), 20, 20)
        grid = OccupancyGrid(workspace=workspace)
        placements = [(0, Point(5.5, 10.5)), (1, Point(15.5, 10.5))]
        task = TaskSpec(Point(2.5, 17.5), Point(17.5, 2.5), "glass of water", "t")
        plan = build_relay_plan(task, placements, compute_voronoi(placements, workspace), grid)
        assert plan.active == (0, 1) and len(plan.transfers) == 1
        with pytest.raises(ValueError, match=error):
            simulate(plan._replace(**change), placements, grid, RunConfig())

    def test_a_robot_placed_twice_is_rejected(self):
        workspace = Workspace(Point(0.0, 0.0), Point(10.0, 10.0), 10, 10)
        grid = OccupancyGrid(workspace=workspace)
        task = TaskSpec(Point(2.5, 2.5), Point(7.5, 7.5), "box", "t")
        plan = RelayPlan(task=task, active=(0,), transfers=(), baseline=True)
        placements = [(0, Point(0.5, 0.5)), (1, Point(5.5, 5.5)), (1, Point(1.5, 0.5))]
        with pytest.raises(ValueError, match="robot 1 is placed twice"):
            simulate(plan, placements, grid, RunConfig())

    def test_only_the_chain_gets_an_fsm(self, monkeypatch):
        built = []
        real = simulation.RobotFsm

        def counting(**kwargs):
            built.append(kwargs["robot_id"])
            return real(**kwargs)

        monkeypatch.setattr(simulation, "RobotFsm", counting)
        for i in range(10):
            placements, task = generate_trial(10, SMALL, random.Random(f"fsm/{i}"))
            built.clear()
            out = run_trial(placements, task, SMALL)
            assert out.record.completed
            assert built == list(out.plan.active)  # one FSM per chain robot, bystanders none

    @pytest.mark.parametrize("message_delay", [0, 2])
    def test_logged_message_leds_follow_kind(self, message_delay):
        leds = {"HandoffReady": "blue", "HandoffAck": "green", "TaskComplete": "off"}
        cfg = SimConfig(**dict(SMALL._asdict(), message_delay=message_delay))
        kinds = set()
        for i in range(10):
            placements, task = generate_trial(10, cfg, random.Random(f"led/{i}"))
            for msg in run_trial(placements, task, cfg).messages:
                data = msg.to_dict()
                assert data["status_led"] == leds[data["kind"]]
                kinds.add(data["kind"])
        assert kinds == set(leds)


class TestSearchCallers:
    """Each layer searches through its own module's `astar` name, so a wrapper
    set on that module sees every search the layer makes."""

    @pytest.mark.parametrize("message_delay", (0, 2))
    def test_batch_runs_like_fresh_runs(self, message_delay, monkeypatch):
        """Each run of the batch, relay and baseline, equals the same trial run
        on its own."""
        cfg = SimConfig(**dict(SMALL._asdict(), message_delay=message_delay))
        runs = []
        real = simulation.run_trial

        def keeping(placements, task, config, **kwargs):
            out = real(placements, task, config, **kwargs)
            runs.append((placements, task, kwargs, out.record.to_json_line(), out))
            return out

        monkeypatch.setattr(simulation, "run_trial", keeping)
        run_batch(cfg)
        monkeypatch.undo()
        assert len(runs) == 40
        for placements, task, kwargs, line, out in runs:
            fresh = run_trial(placements, task, cfg, **kwargs)
            assert fresh.record.to_json_line() == line
            assert fresh.plan == out.plan
            assert fresh.messages == out.messages

    def test_simulate_searches_through_simulation_and_plans_through_planning(
        self, monkeypatch
    ):
        searches = []  # (layer, grid, made inside simulate)
        inside = [False]
        built = []
        real_simulate = simulation.simulate
        real_grid = simulation.OccupancyGrid

        def simulating(*args, **kwargs):
            inside[0] = True
            try:
                return real_simulate(*args, **kwargs)
            finally:
                inside[0] = False

        def building(*args, **kwargs):
            built.append(real_grid(*args, **kwargs))
            return built[-1]

        def counting(layer, search):
            def wrapped(grid, start, goal):
                searches.append((layer, grid, inside[0]))
                return search(grid, start, goal)
            return wrapped

        monkeypatch.setattr(simulation, "simulate", simulating)
        monkeypatch.setattr(simulation, "OccupancyGrid", building)
        monkeypatch.setattr(planning, "astar", counting("planning", planning.astar))
        monkeypatch.setattr(simulation, "astar", counting("simulation", simulation.astar))
        run_batch(SMALL)

        floor = OccupancyGrid(workspace=SMALL.workspace())
        # simulate's searches, routes and detours alike, are simulation's
        for layer, _, in_simulate in searches:
            assert layer == ("simulation" if in_simulate else "planning")
        assert any(not in_sim for *_, in_sim in searches)
        assert any(in_sim and grid == floor for _, grid, in_sim in searches)
        # detours search grids of their own, built through simulation.OccupancyGrid
        detours = [grid for _, grid, _ in searches if grid != floor]
        assert detours
        for grid in detours:
            assert grid.blocked and any(grid is b for b in built)


class TestStateLists:
    """simulate's message pass visits the chain's robots in ascending id and
    delivers to each one that is relaying. In these delay-0 trials robots
    enter and leave RELAY in the middle of a pass; each pins its message log
    and the order in which its robots received their messages."""

    @staticmethod
    def run(key: str, monkeypatch):
        received = []  # (robot, kind, from, tick) per MessageReceived event
        real = simulation.fsm_step

        def recording(fsm, event):
            if event.kind is EventKind.MESSAGE_RECEIVED:
                msg = event.message
                received.append((fsm.robot_id, msg.kind.value, msg.from_id, event.tick))
            return real(fsm, event)

        monkeypatch.setattr(simulation, "fsm_step", recording)
        team = int(key.split("/")[1])
        placements, task = generate_trial(team, SMALL, random.Random(key))
        out = run_trial(placements, task, SMALL)
        log = [(m.kind.value, m.from_id, m.to_id, m.tick) for m in out.messages]
        return log, received

    def test_receiver_relays_on_within_the_pass(self, monkeypatch):
        """Robots 3 and 2 each take the item and, already at their outgoing
        transfer, send it on in the same tick: RELAY, NAVIGATE, RELAY within
        one pass. The second pass delivers to 0, 2 and 3, the third to 1 and 2."""
        log, received = self.run("12345/4/78", monkeypatch)
        assert log == [
            ("HandoffReady", 0, 3, 11),
            ("HandoffAck", 3, 0, 11),
            ("HandoffReady", 3, 2, 11),
            ("HandoffAck", 2, 3, 11),
            ("HandoffReady", 2, 1, 11),
            ("HandoffAck", 1, 2, 11),
            ("TaskComplete", 1, 1, 28),
        ]
        assert received == [
            (3, "HandoffReady", 0, 11),
            (0, "HandoffAck", 3, 11),
            (2, "HandoffReady", 3, 11),
            (3, "HandoffAck", 2, 11),
            (1, "HandoffReady", 2, 11),
            (2, "HandoffAck", 1, 11),
        ]

    def test_robots_relay_in_one_pass(self, monkeypatch):
        """Robot 2 reaches its transfer at tick 13, where robot 1's
        HandoffReady has waited since tick 8, and sends the item on at once.
        In the next pass robots 0, 1 and 2 each take a message: robot 0
        leaves RELAY first, and 1 and 2 must still follow in id order."""
        log, received = self.run("12345/3/108", monkeypatch)
        assert log == [
            ("HandoffReady", 1, 2, 8),
            ("HandoffAck", 2, 1, 13),
            ("HandoffReady", 2, 0, 13),
            ("HandoffAck", 0, 2, 13),
            ("TaskComplete", 0, 0, 27),
        ]
        assert received == [
            (2, "HandoffReady", 1, 13),
            (0, "HandoffReady", 2, 13),
            (1, "HandoffAck", 2, 13),
            (2, "HandoffAck", 0, 13),
        ]


class TestObstacleMaps:
    """Relay and baseline runs on 20x20 maps with 40 random blocked cells."""

    @staticmethod
    def runs(trials: int, record_trace: bool = False):
        """(grid, outcome) of the relay and the baseline run of each trial."""
        workspace = Workspace(Point(0.0, 0.0), Point(20.0, 20.0), 20, 20)
        cells = [GridCell(c, r) for r in range(20) for c in range(20)]
        runs = []
        for i in range(trials):
            rng = random.Random(f"obstacles/{i}")
            grid = OccupancyGrid(workspace=workspace, blocked=frozenset(rng.sample(cells, 40)))
            team = 2 + i % 12
            free = [c for c in cells if not grid.is_blocked(c)]
            *starts, pickup, drop = rng.sample(free, team + 2)
            placements = [(rid, center_of(c, grid)) for rid, c in enumerate(starts)]
            task = TaskSpec(center_of(pickup, grid), center_of(drop, grid), "box", "t")
            config = RunConfig(message_delay=2 * ((i // 12) % 2))
            diagram = compute_voronoi(placements, workspace)
            for make_plan in (build_relay_plan, single_agent_baseline):
                plan = make_plan(task, placements, diagram, grid)
                out = simulate(plan, placements, grid, config, record_trace=record_trace)
                runs.append((grid, out))
        return runs

    @pytest.fixture(scope="class")
    def outcomes(self):
        return self.runs(100, record_trace=True)

    def test_detour_grids_mask_exactly_their_blocked_cells(self, monkeypatch):
        built = []

        def recording_grid(*args, **kwargs):
            built.append(OccupancyGrid(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(simulation, "OccupancyGrid", recording_grid)
        self.runs(30)
        assert len(built) > 10
        for grid in built:
            cells = (GridCell(i % grid.cols, i // grid.cols) for i in range(grid.cols * grid.rows))
            assert grid.blocked_mask == bytes(grid.is_blocked(c) for c in cells)

    def test_handoffs_stop_on_free_cells_next_to_the_transfer(self, outcomes):
        handoffs = 0
        for grid, out in outcomes:
            plan = out.plan
            task_cells = {cell_of(plan.task.pickup, grid), cell_of(plan.task.drop, grid)}
            for msg in out.messages:
                if msg.kind is MessageKind.HANDOFF_READY:
                    robot, sender = msg.from_id, msg.from_id
                elif msg.kind is MessageKind.HANDOFF_ACK:
                    robot, sender = msg.from_id, msg.to_id
                else:
                    continue
                cell = out.trace[msg.tick].positions[robot]
                planned = cell_of(plan.transfers[plan.active.index(sender)], grid)
                assert not grid.is_blocked(cell)
                assert cell not in task_cells
                assert _chebyshev(cell, planned) <= 1
                handoffs += 1
        assert handoffs > 100

    def test_log_states_each_leg_and_the_completion(self, outcomes):
        for _, out in outcomes:
            _assert_log_states_the_legs(out)
        assert any(len(out.plan.active) > 2 for _, out in outcomes)

    def test_records_message_logs_and_traces_digest(self, outcomes):
        h = hashlib.sha256()
        for _, out in outcomes:
            h.update(out.record.to_json_line().encode() + b"\n")
            for msg in out.messages:
                h.update(msg.to_json_line().encode() + b"\n")
            for snap in out.trace:
                cells = [[r, c.col, c.row] for r, c in sorted(snap.positions.items())]
                h.update(json.dumps([snap.tick, list(snap.carriers), cells]).encode() + b"\n")
        assert h.hexdigest() == (
            "92557e706021fb180fc445d04db524d58ed030f9b4ec690d39304ab710ae1af8"
        )


class TestRunBatch:
    def test_deterministic_repeat(self):
        s1, r1, _ = run_batch(SMALL)
        s2, r2, _ = run_batch(SMALL)
        assert [r.to_json_line() for r in r1] == [r.to_json_line() for r in r2]
        assert summary_to_csv(s1) == summary_to_csv(s2)

    def test_all_trials_complete_and_baseline_paired(self, monkeypatch):
        # one open grid per grid size: the batch builds its workspace once
        built = []
        make_workspace = simulation.Workspace

        def counting_workspace(*args, **kwargs):
            built.append(args)
            return make_workspace(*args, **kwargs)

        simulation._open_grid.cache_clear()
        monkeypatch.setattr(simulation, "Workspace", counting_workspace)
        summary, records, outcomes = run_batch(SMALL)
        assert len(built) == 1
        assert summary.completion_rate == 1.0
        for rec, outcome in zip(records, outcomes, strict=True):
            assert rec.baseline_total_moves > 0
            assert rec.seed == trial_seed(SMALL.seed, rec.team_size, int(rec.trial_id.rsplit("-", 1)[1]))
            # the totals are read from the per-robot moves and cannot be set
            assert rec.total_moves == sum(rec.per_agent_moves.values())
            assert rec.active_count == len(outcome.plan.active)
            for name in ("total_moves", "active_count"):
                with pytest.raises(AttributeError):
                    setattr(rec, name, 0)
            rec.seed = "reassigned"  # as perfbench's house workload does
            assert rec.seed == "reassigned"

    def test_incomplete_baseline_marks_trial_incomplete(self):
        # trial 0's relay finishes in 16 ticks, but its baseline needs 25
        cfg = SimConfig(team_sizes=(10,), trials_per_size=2, seed=3, tick_budget=22)
        summary, records, _ = run_batch(cfg)
        assert [r.completed for r in records] == [False, True]
        assert summary.completion_rate == 0.5

    def test_summary_matches_independent_scan(self):
        summary, records, _ = run_batch(SMALL)
        for size, stats in summary.per_size.items():
            done = [r for r in records if r.team_size == size and r.completed]
            assert stats.completed == len(done)
            assert stats.mean_total == pytest.approx(
                sum(r.total_moves for r in done) / len(done)
            )
            assert stats.mean_per_agent == pytest.approx(
                sum(r.total_moves / r.active_count for r in done) / len(done)
            )
            assert stats.mean_active == pytest.approx(
                sum(r.active_count for r in done) / len(done)
            )

    def test_per_agent_load_drops_sublinearly_across_seeds(self):
        """Mean active-agent count grows much slower than the team size."""
        for seed in (1, 2, 3, 4, 5):
            cfg = SimConfig(team_sizes=(3, 10), trials_per_size=20, seed=seed)
            summary, _, _ = run_batch(cfg)
            ratio = summary.per_size[10].mean_active / summary.per_size[3].mean_active
            assert ratio < 10 / 3

    def test_delay2_message_logs_and_traces_digest(self):
        """Every message log and tick trace of a small delay-2 batch, relay and
        baseline, byte for byte."""
        cfg = SimConfig(team_sizes=(3, 10), trials_per_size=10, seed=12345, message_delay=2)
        h = hashlib.sha256()
        for size in cfg.team_sizes:
            for i in range(cfg.trials_per_size):
                rng = random.Random(trial_seed(cfg.seed, size, i))
                placements, task = generate_trial(size, cfg, rng)
                for baseline in (False, True):
                    out = run_trial(placements, task, cfg, baseline=baseline, record_trace=True)
                    for msg in out.messages:
                        h.update(msg.to_json_line().encode() + b"\n")
                    for snap in out.trace:
                        cells = [[r, c.col, c.row] for r, c in sorted(snap.positions.items())]
                        line = json.dumps([snap.tick, list(snap.carriers), cells])
                        h.update(line.encode() + b"\n")
        assert h.hexdigest() == (
            "8379aa01b845cbc76f3bb6b57a3452be881e40abe39d9ef4c86588e042d08396"
        )

    def test_clips_only_the_relay_chain(self, monkeypatch):
        # each run partitions for itself, and its diagram clips a cell when it
        # first reads it; the chain's consecutive pairs read their shared
        # edges, and nothing else reads a cell
        runs = []  # per partition, the ids of the cells it clipped
        partition = simulation.compute_voronoi
        make_cell = geometry.VoronoiCell

        def recording_partition(placements, workspace):
            runs.append([])
            return partition(placements, workspace)

        def recording_cell(site_id, site, vertices):
            runs[-1].append(site_id)
            return make_cell(site_id, site, vertices)

        monkeypatch.setattr(simulation, "compute_voronoi", recording_partition)
        monkeypatch.setattr(geometry, "VoronoiCell", recording_cell)
        _, records, outcomes = run_batch(SMALL)
        assert len(runs) == 2 * len(records) == 40
        chains = []
        for relay, base, outcome in zip(runs[::2], runs[1::2], outcomes):
            chain = outcome.plan.active
            assert sorted(relay) == (sorted(chain) if len(chain) >= 2 else [])
            assert base == []  # the baseline reads no cell
            chains.append(len(chain))
        assert min(chains) == 1 and max(chains) >= 3

    def test_summarize_rejects_all_failed(self):
        _, records, _ = run_batch(SimConfig(team_sizes=(1,), trials_per_size=2, seed=7))
        for r in records:
            r.completed = False
        with pytest.raises(NoCompletedTrials):
            summarize(records)

    def test_summarize_rejects_no_records(self):
        with pytest.raises(NoCompletedTrials):
            summarize([])


def test_summary_csv_shape():
    summary, _, _ = run_batch(SimConfig(team_sizes=(1, 3), trials_per_size=3, seed=9))
    csv = summary_to_csv(summary)
    lines = csv.strip().split("\n")
    assert lines[0] == "team_size,mean_total,std_total,mean_per_agent,mean_active,reduction"
    assert len(lines) == 3
    assert lines[1].startswith("1,") and lines[2].startswith("3,")


def test_trial_seed_is_stable():
    assert trial_seed(12345, 10, 32) == "12345/10/32"
    assert trial_seed(0, 1, 0) != trial_seed(0, 1, 1)


def test_config_validation():
    # the centres of a 20x20 grid's opposite corner cells lie 26.87 apart
    for sep in (100.0, 26.88, math.nan, math.inf, True, "8"):
        with pytest.raises(ValueError):
            SimConfig(min_task_separation=sep)
    for sep in (8, math.hypot(19, 19)):
        assert SimConfig(min_task_separation=sep).min_task_separation == sep
    for trials in (0, 2.5):
        with pytest.raises(ValueError):
            SimConfig(trials_per_size=trials)
    for sizes in ((), (3, 0), (2.7,), ("3",), (True,), (399,), (1, 399)):
        with pytest.raises(ValueError):
            SimConfig(team_sizes=sizes)
    assert SimConfig(team_sizes=(398,)).team_sizes == (398,)
    with pytest.raises(ValueError, match="repeat"):
        SimConfig(team_sizes=(3, 3))
    for seed in (1.0, True, "1", None):
        with pytest.raises(ValueError, match="seed"):
            SimConfig(seed=seed)
    for dims in ({"grid_cols": 0}, {"grid_rows": -1}, {"grid_cols": 2.5}, {"grid_rows": "20"},
                 {"grid_cols": True}, {"grid_cols": geometry.MAX_GRID_CELLS + 1, "grid_rows": 1}):
        with pytest.raises(ValueError):
            SimConfig(**dims)
    assert SimConfig(grid_cols=geometry.MAX_GRID_CELLS, grid_rows=1).grid_rows == 1
    # the area less the pickup's and the drop's cells: 3 x 4 - 2
    small = {"grid_cols": 3, "grid_rows": 4, "min_task_separation": 1.0}
    assert SimConfig(team_sizes=(10,), **small).team_sizes == (10,)
    with pytest.raises(ValueError):
        SimConfig(team_sizes=(11,), **small)
    for config_type in (RunConfig, SimConfig):
        for fields in (
            {"message_delay": "2"},
            {"message_delay": -3},
            {"message_delay": True},
            {"tick_budget": 0},
            {"tick_budget": 2.5},
            {"tick_budget": True},
        ):
            with pytest.raises(ValueError):
                config_type(**fields)
    assert RunConfig(message_delay=0, tick_budget=1) == RunConfig(0, 1)


def test_config_from_dict_round_trip():
    cfg = SimConfig(
        **{"team_sizes": [1, 3], "trials_per_size": 2, "seed": 42, "min_task_separation": 8.0}
    )
    assert cfg.team_sizes == (1, 3)
    assert cfg.seed == 42
