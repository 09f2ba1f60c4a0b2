"""Deterministic tick-based relay execution and the randomized batch harness.

One trial: place robots, partition the workspace, build a relay plan, then
step every robot one grid cell per tick until the item is delivered or the
tick budget runs out. Trials are fully determined by (config, seed).
"""

from __future__ import annotations

import json
import math
import random
from functools import lru_cache
from types import SimpleNamespace
from typing import NamedTuple

from .coordination import (
    EventKind,
    FsmEvent,
    HandoffMessage,
    MessageBus,
    MessageKind,
    RobotFsm,
    RobotState,
    fsm_step,
)
from .errors import BlockedEndpoint, InvalidStart, NoCompletedTrials, NoPath, PlacementExhausted
from .geometry import Point, Workspace, _is_int, compute_voronoi, dist
from .nlu import TaskSpec, task_to_dict
from .planning import RelayPlan, astar, build_relay_plan, check_plan, single_agent_baseline
from .world import GridCell, OccupancyGrid

# ticks a robot waits behind an occupied cell before replanning around it
_REPLAN_AFTER = 3

# a transfer's cell, then its neighbours, in the order the router tries them
_STOP_OFFSETS = ((0, 0), (0, 1), (1, 0), (0, -1), (-1, 0), (1, 1), (1, -1), (-1, 1), (-1, -1))


class _RunConfigFields(NamedTuple):
    message_delay: int
    tick_budget: int | None  # None: 10 * the simulated grid's area


class RunConfig(_RunConfigFields):
    """How `simulate` executes a plan."""

    __slots__ = ()

    def __new__(cls, message_delay: int = 0, tick_budget: int | None = None) -> RunConfig:
        if not _is_int(message_delay) or message_delay < 0:
            raise ValueError("message_delay must be an integer >= 0")
        if tick_budget is not None and (not _is_int(tick_budget) or tick_budget < 1):
            raise ValueError("tick_budget must be null or an integer >= 1")
        return tuple.__new__(cls, (message_delay, tick_budget))


class _SimConfigFields(NamedTuple):
    message_delay: int  # RunConfig's fields first, in its order
    tick_budget: int | None
    grid_cols: int
    grid_rows: int
    team_sizes: tuple[int, ...]
    trials_per_size: int
    min_task_separation: float
    seed: int


class SimConfig(_SimConfigFields, RunConfig):
    """A randomized batch: the trials to generate, and how each one runs.

    A RunConfig too: its fields start with RunConfig's, which read the same
    tuple positions.
    """

    __slots__ = ()

    def __new__(
        cls,
        message_delay: int = 0,
        tick_budget: int | None = None,
        grid_cols: int = 20,
        grid_rows: int = 20,
        team_sizes: tuple[int, ...] = (1, 3, 5, 7, 10),
        trials_per_size: int = 100,
        min_task_separation: float = 8.0,
        seed: int = 0,
    ) -> SimConfig:
        RunConfig(message_delay, tick_budget)  # checks RunConfig's fields
        # team sizes decoded from a JSON list are stored as a tuple
        team_sizes = tuple(team_sizes)
        if not all(_is_int(n) for n in team_sizes):
            raise ValueError("team_sizes must be integers")
        if len(set(team_sizes)) != len(team_sizes):
            raise ValueError("team_sizes must not repeat a size")
        if not _is_int(seed):
            raise ValueError("seed must be an integer")
        if not all(_is_int(n) and n >= 1 for n in (grid_cols, grid_rows)):
            raise ValueError("grid_cols and grid_rows must be integers >= 1")
        sep = min_task_separation
        if isinstance(sep, bool) or not isinstance(sep, (int, float)) or not math.isfinite(sep):
            raise ValueError("min_task_separation must be a finite number")
        # the pickup and the drop are cell centres: opposite corners' are farthest apart
        if sep > math.hypot(grid_cols - 1, grid_rows - 1):
            raise ValueError("min_task_separation must not exceed the corner centres' distance")
        if not _is_int(trials_per_size) or trials_per_size < 1:
            raise ValueError("trials_per_size must be an integer >= 1")
        if not team_sizes or min(team_sizes) < 1:
            raise ValueError("team_sizes must be a non-empty list of sizes >= 1")
        # the pickup and the drop need two cells that no robot starts on
        if max(team_sizes) > grid_cols * grid_rows - 2:
            raise ValueError("team_sizes must leave two of the grid's cells free")
        config = tuple.__new__(
            cls,
            (message_delay, tick_budget, grid_cols, grid_rows, team_sizes,
             trials_per_size, min_task_separation, seed),
        )
        config.workspace()  # checks the grid against the cell ceiling
        return config

    def workspace(self) -> Workspace:
        return _open_grid(self.grid_cols, self.grid_rows).workspace


class TrialRecord(SimpleNamespace):
    """One trial's figures: `trial_id`, `team_size`, `seed`, `task`,
    `per_agent_moves`, `baseline_total_moves`, `ticks` and `completed`.
    `run_batch` fills in `seed` and the baseline's after both runs; the
    totals are read from `per_agent_moves`."""

    @property
    def active_count(self) -> int:
        return len(self.per_agent_moves)

    @property
    def total_moves(self) -> int:
        return sum(self.per_agent_moves.values())

    def to_dict(self) -> dict:
        return {
            "trial_id": self.trial_id,
            "team_size": self.team_size,
            "seed": self.seed,
            "task": task_to_dict(self.task),
            "active_count": self.active_count,
            "per_agent_moves": {str(k): v for k, v in sorted(self.per_agent_moves.items())},
            "total_moves": self.total_moves,
            "baseline_total_moves": self.baseline_total_moves,
            "ticks": self.ticks,
            "completed": self.completed,
        }

    def to_json_line(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


class SizeStats(NamedTuple):
    team_size: int
    trials: int
    completed: int
    mean_total: float
    std_total: float
    mean_per_agent: float
    mean_active: float
    reduction: float


class BatchSummary(NamedTuple):
    per_size: dict[int, SizeStats]
    completion_rate: float


class TickTrace(NamedTuple):
    tick: int
    carriers: tuple[int, ...]
    positions: dict[int, GridCell]


class TrialOutcome(NamedTuple):
    record: TrialRecord
    plan: RelayPlan
    messages: list[HandoffMessage]
    trace: list[TickTrace] | None = None


# --- trial generation --------------------------------------------------------


@lru_cache(maxsize=8)
def _open_grid(cols: int, rows: int) -> OccupancyGrid:
    """The grid with no blocked cell of the `cols` x `rows` workspace at the
    origin, one for every trial of that size; the grid is read-only, so the
    figures it caches stay true."""
    workspace = Workspace(Point(0.0, 0.0), Point(float(cols), float(rows)), cols, rows)
    return OccupancyGrid(workspace=workspace)


def generate_trial(
    team_size: int, config: SimConfig, rng: random.Random
) -> tuple[list[tuple[int, Point]], TaskSpec]:
    """Random distinct robot cells plus a pickup/drop pair split by the
    configured minimum separation; task cells never coincide with a robot's
    start cell so every goal cell stays physically reachable."""
    if team_size < 1:
        raise ValueError("team_size must be >= 1")
    cols, rows = config.grid_cols, config.grid_rows
    # row-major indices: the same draws as sampling a list of every cell
    drawn = rng.sample(range(cols * rows), team_size)
    taken = set(drawn)
    grid = _open_grid(cols, rows)
    for _ in range(10_000):
        pc, pr = rng.randrange(cols), rng.randrange(rows)
        dc, dr = rng.randrange(cols), rng.randrange(rows)
        pickup, drop = pr * cols + pc, dr * cols + dc
        if pickup in taken or drop in taken or pickup == drop:
            continue
        p, d = grid.center(pickup), grid.center(drop)
        if dist(p, d) >= config.min_task_separation:
            placements = [(i, grid.center(cell)) for i, cell in enumerate(drawn)]
            text = f"deliver package from cell {pc},{pr} to cell {dc},{dr}"
            return placements, TaskSpec(pickup=p, drop=d, item="package", source_text=text)
    raise PlacementExhausted("could not satisfy task placement constraints")


# --- single-trial executor ---------------------------------------------------


class _Robot:
    """Physical state of one robot of the relay chain, on row-major cell
    indices. Its FSM owns the leg; `leg` holds the cells where the leg's
    start and end count as reached, and `stops` is the one the FSM drives to."""

    __slots__ = ("rid", "cell", "fsm", "leg", "route", "blocked_ticks", "moves", "stops")

    def __init__(
        self, rid: int, cell: int, fsm: RobotFsm, leg: tuple[tuple[int, ...], tuple[int, ...]]
    ) -> None:
        self.rid = rid
        self.cell = cell
        self.fsm = fsm
        self.leg = leg
        self.route: list[int] = []  # reversed: the next cell is last
        self.blocked_ticks = 0
        self.moves = 0
        self.stops: tuple[int, ...] = ()  # in the order the router tries them


def _cell(index: int, cols: int) -> GridCell:
    return GridCell(index % cols, index // cols)


def _transfer_stops(
    cell: int, grid: OccupancyGrid, task_cells: frozenset[int]
) -> tuple[int, ...]:
    """A transfer in `cell` is reached on that cell or a neighbour, if it is
    free and neither the pickup's nor the drop's cell."""
    cols, rows, mask = grid.cols, grid.rows, grid.blocked_mask
    col, row = cell % cols, cell // cols
    stops = []
    for dc, dr in _STOP_OFFSETS:
        c, r = col + dc, row + dr
        if 0 <= c < cols and 0 <= r < rows:
            i = r * cols + c
            if not mask[i] and i not in task_cells:
                stops.append(i)
    return tuple(stops)


def _plan_route(
    robot: _Robot, grid: OccupancyGrid, occupied: dict[int, int] | None = None
) -> list[int]:
    """Route to the first of the robot's stops that A* reaches, next step
    last; with `occupied`, around the cells other robots stand on."""
    cols = grid.cols
    extra = {c for c, rid in (occupied or {}).items() if rid != robot.rid}
    work = grid
    if extra:
        walls = frozenset(_cell(c, cols) for c in extra)
        work = OccupancyGrid(workspace=grid.workspace, blocked=grid.blocked | walls)
    for target in robot.stops:
        if target in extra:
            continue
        try:
            path = astar(work, _cell(robot.cell, cols), _cell(target, cols))
        except (NoPath, BlockedEndpoint):
            continue
        return list(path.indices[:0:-1])
    return []


def simulate(
    plan: RelayPlan,
    placements: list[tuple[int, Point]],
    grid: OccupancyGrid,
    config: RunConfig,
    task_id: str = "task",
    record_trace: bool = False,
) -> TrialOutcome:
    """Run one relay plan to completion, or until the tick budget runs out
    (config.tick_budget, else 10 * the grid's area). A plan that does not fit
    `placements` (see `planning.check_plan`) raises ValueError."""
    check_plan(plan, placements)
    bus = MessageBus(delay=config.message_delay)
    cols = grid.cols
    mask = grid.blocked_mask
    # where each robot stands: the team is seated on its start cells by
    # ascending id, and only the chain's robots move off theirs
    occupied: dict[int, int] = {}
    for rid, pos in sorted(placements):
        cell = grid.index_of(pos)
        if cell in occupied:
            raise InvalidStart(
                f"robots {occupied[cell]} and {rid} start in the same cell {_cell(cell, cols)}"
            )
        if mask[cell]:
            raise InvalidStart(f"robot {rid} starts in the blocked cell {_cell(cell, cols)}")
        occupied[cell] = rid
    starts = {rid: cell for cell, rid in occupied.items()}
    # the stops of each of plan.legs, by position: the pickup and the drop
    # stop on their own cell, every transfer on its transfer stops
    ends = [grid.index_of(p) for p in plan.legs]
    task_cells = frozenset((ends[0], ends[-1]))
    stops = [(ends[0],), *(_transfer_stops(c, grid, task_cells) for c in ends[1:-1]), (ends[-1],)]
    # a robot with its leg's FSM and stops for each robot of the chain, in
    # chain order; bystanders never act, so they only stand in `occupied`
    robots: dict[int, _Robot] = {}
    for j, (rid, nxt) in enumerate(zip(plan.active, (*plan.active[1:], None))):
        fsm = RobotFsm(robot_id=rid, task_id=task_id, item=plan.task.item,
                       picks_up=j == 0, leg_end=plan.legs[j + 1], peer_next=nxt)
        robots[rid] = _Robot(rid, starts[rid], fsm, (stops[j], stops[j + 1]))
    # the chain by ascending id, the order in which every phase visits it; a
    # robot has stops only in NAVIGATE, and one without a free stop stays put
    chain = [robots[rid] for rid in sorted(robots)]
    budget = config.tick_budget if config.tick_budget is not None else 10 * grid.cols * grid.rows

    trace: list[TickTrace] | None = [] if record_trace else None

    def step(rb: _Robot, event: FsmEvent) -> None:
        """Apply `event`, then each event that follows at once: arrival on
        one of the robot's stops, the pickup, the drop."""
        rb.route = []  # every event ends the leg or the wait it was routed for
        while True:
            rb.fsm, msgs = fsm_step(rb.fsm, event)
            for m in msgs:
                bus.send(m)
            fsm = rb.fsm
            state = fsm.state
            rb.stops = rb.leg[fsm.carrying is not None] if state is RobotState.NAVIGATE else ()
            if rb.cell in rb.stops:
                kind = EventKind.ARRIVED_WAYPOINT
            elif state is RobotState.PICKUP:
                kind = EventKind.PICKUP_DONE
            elif state is RobotState.DELIVER:
                kind = EventKind.DROP_DONE
            else:
                return
            event = FsmEvent(kind, event.tick)

    for rb in chain:
        step(rb, FsmEvent(EventKind.ASSIGN_SEGMENT, tick=0))

    tick = 0
    while True:
        # message cascade: messages wait in the bus until their robot relays
        # at its transfer, so delay 0 resolves a full handoff within the tick
        progress = bus.pending()
        while progress:
            progress = False
            for rb in chain:
                if rb.fsm.state is not RobotState.RELAY:
                    continue
                for msg in bus.poll(rb.rid, tick):
                    here = grid.center(rb.cell)
                    step(rb, FsmEvent(EventKind.MESSAGE_RECEIVED, tick, here, msg))
                    progress = True
        if trace is not None:
            carriers = tuple(rb.rid for rb in chain if rb.fsm.carrying is not None)
            positions = dict(sorted((r, _cell(c, cols)) for c, r in occupied.items()))
            trace.append(TickTrace(tick, carriers, positions))
        # the trial is complete once its TaskComplete is logged; it is the
        # last message, as every other robot has handed the item on by then
        completed = bool(bus.log) and bus.log[-1].kind is MessageKind.TASK_COMPLETE
        if completed or tick >= budget:
            break
        tick += 1
        # movement: lower ids move first, a robot waits behind an occupied
        # next cell, and one that steps onto one of its stops arrives there
        # (step settles every arrival, so no robot starts here on a stop)
        for rb in chain:
            if not rb.stops:
                continue
            if not rb.route:
                rb.route = _plan_route(rb, grid)
            if rb.blocked_ticks >= _REPLAN_AFTER:
                detour = _plan_route(rb, grid, occupied)
                if detour:
                    rb.route = detour
            if not rb.route or rb.route[-1] in occupied:
                rb.blocked_ticks += 1
                continue
            nxt = rb.route.pop()
            del occupied[rb.cell]
            occupied[nxt] = rb.rid
            rb.cell = nxt
            rb.moves += 1
            rb.blocked_ticks = 0
            if nxt in rb.stops:
                step(rb, FsmEvent(EventKind.ARRIVED_WAYPOINT, tick))

    record = TrialRecord(
        trial_id=task_id,
        team_size=len(placements),
        seed="",
        task=plan.task,
        per_agent_moves={rid: robots[rid].moves for rid in plan.active},
        baseline_total_moves=0,
        ticks=tick,
        completed=completed,
    )
    return TrialOutcome(record=record, plan=plan, messages=bus.log, trace=trace)


def run_trial(
    placements: list[tuple[int, Point]],
    task: TaskSpec,
    config: SimConfig,
    baseline: bool = False,
    task_id: str = "task",
    record_trace: bool = False,
) -> TrialOutcome:
    """Plan and execute one trial end to end."""
    grid = _open_grid(config.grid_cols, config.grid_rows)
    diagram = compute_voronoi(placements, grid.workspace)
    if baseline:
        plan = single_agent_baseline(task, placements, diagram, grid)
    else:
        plan = build_relay_plan(task, placements, diagram, grid)
    return simulate(plan, placements, grid, config, task_id=task_id, record_trace=record_trace)


# --- batch harness -----------------------------------------------------------


def trial_seed(master_seed: int, team_size: int, trial_index: int) -> str:
    """Counter-based per-trial seed key, stable across runs and platforms."""
    return f"{master_seed}/{team_size}/{trial_index}"


def run_batch(config: SimConfig) -> tuple[BatchSummary, list[TrialRecord], list[TrialOutcome]]:
    records: list[TrialRecord] = []
    outcomes: list[TrialOutcome] = []
    for size in config.team_sizes:
        for i in range(config.trials_per_size):
            seed_key = trial_seed(config.seed, size, i)
            rng = random.Random(seed_key)
            placements, task = generate_trial(size, config, rng)
            tid = f"trial-{size}-{i}"
            outcome = run_trial(placements, task, config, task_id=tid)
            base = run_trial(placements, task, config, baseline=True, task_id=tid + "-baseline")
            rec = outcome.record
            rec.seed = seed_key
            rec.baseline_total_moves = base.record.total_moves
            # a truncated baseline's move count is no baseline to compare against
            rec.completed = rec.completed and base.record.completed
            records.append(rec)
            outcomes.append(outcome)
    return summarize(records), records, outcomes


def summarize(records: list[TrialRecord]) -> BatchSummary:
    """Aggregate per-team-size statistics over completed trials."""
    # imported here: only the batch path summarizes, so `relaysim run` never loads statistics
    from statistics import mean, pstdev

    if not records:
        raise NoCompletedTrials("no trials to summarize")
    by_size: dict[int, list[TrialRecord]] = {}
    for rec in records:
        by_size.setdefault(rec.team_size, []).append(rec)
    per_size: dict[int, SizeStats] = {}
    for size in sorted(by_size):
        recs = by_size[size]
        done = [r for r in recs if r.completed]
        if not done:
            raise NoCompletedTrials(f"no completed trials for team size {size}")
        totals = [r.total_moves for r in done]
        per_agent = [r.total_moves / r.active_count for r in done]
        actives = [r.active_count for r in done]
        baselines = [r.baseline_total_moves for r in done]
        mean_base = mean(baselines)
        reduction = 1.0 - (mean(per_agent) / mean_base) if mean_base > 0 else 0.0
        per_size[size] = SizeStats(
            team_size=size,
            trials=len(recs),
            completed=len(done),
            mean_total=mean(totals),
            std_total=pstdev(totals) if len(totals) > 1 else 0.0,
            mean_per_agent=mean(per_agent),
            mean_active=mean(actives),
            reduction=reduction,
        )
    return BatchSummary(
        per_size=per_size,
        completion_rate=sum(r.completed for r in records) / len(records),
    )


def summary_to_csv(summary: BatchSummary) -> str:
    lines = ["team_size,mean_total,std_total,mean_per_agent,mean_active,reduction"]
    for size in sorted(summary.per_size):
        s = summary.per_size[size]
        lines.append(
            f"{size},{s.mean_total:.6f},{s.std_total:.6f},"
            f"{s.mean_per_agent:.6f},{s.mean_active:.6f},{s.reduction:.6f}"
        )
    return "\n".join(lines) + "\n"
