"""The four workloads: fixed inputs, timed rounds, per-op results.

A round is a fixed list of ops, the same in every round of a run and in
every run: the trials come from INPUT_SEED, and the run's seed only picks
the order in which a round plays them. So the simulated figures and the
share of failed ops do not depend on the seed or on how many rounds fit.
An op is one relay trial plus its paired single-robot baseline on the
batch workloads, and one `relaysim run` process on cli_run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from relaysim import cli, geometry, nlu, planning, simulation, world
from relaysim.geometry import Point, Workspace
from relaysim.nlu import TaskSpec
from relaysim.world import GridCell, OccupancyGrid

import checks
from tracing import Patches

# Seed of every workload's trials; relaysim's default batch seed.
INPUT_SEED = 12345

MODULES = {
    "cli": cli, "geometry": geometry, "nlu": nlu, "planning": planning,
    "simulation": simulation, "world": world,
}


@dataclass
class Op:
    seconds: float
    team: int = 0
    moves: int = 0  # relay run's total moves
    active: int = 1
    ticks: int = 0  # relay run's ticks until delivery
    robot_ticks: int = 0  # ticks x team size, relay and baseline runs summed
    errors: list[str] = field(default_factory=list)

    @property
    def ran(self) -> bool:
        """The op produced a record; an op that raised did not."""
        return self.team > 0


@dataclass
class Round:
    seconds: float
    ops: list[Op]
    digest: str  # sha256 of the round's records, for the determinism check
    errors: list[str] = field(default_factory=list)  # round-level check failures


def _digest(lines) -> str:
    """sha256 of the records in sorted order, so it does not depend on the
    order the run's seed picked."""
    h = hashlib.sha256()
    for line in sorted(lines):
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _trial_op(seconds, floor, placements, task, relay, baseline) -> Op:
    rec = relay.record
    op = Op(
        seconds=seconds, team=rec.team_size, moves=rec.total_moves,
        active=rec.active_count, ticks=rec.ticks,
        robot_ticks=(rec.ticks + baseline.record.ticks) * rec.team_size,
    )
    op.errors = checks.check_trial(
        floor, placements, task, relay, baseline, rec.baseline_total_moves
    )
    return op


class BatchWorkload:
    """`run_batch(config)` unchanged; light probes mark each op's start and
    keep its inputs and paired baseline for the checks."""

    def __init__(self, config: simulation.SimConfig):
        self.config = config
        self.floor = checks.FloorGrid.of(OccupancyGrid(workspace=config.workspace()))

    def bare_round(self) -> None:
        """The round's ops with no probes or checks, for peak memory."""
        simulation.run_batch(self.config)

    def run_round(self, tracer=None) -> Round:
        stamps: list[float] = []
        inputs: list[tuple] = []
        baselines: list = []
        gen = simulation.generate_trial
        run = simulation.run_trial
        summ = simulation.summarize

        def generate_probe(*args, **kwargs):
            stamps.append(perf_counter())
            trial = gen(*args, **kwargs)
            inputs.append(trial)
            return trial

        def run_probe(*args, **kwargs):
            outcome = run(*args, **kwargs)
            if outcome.plan.baseline:
                baselines.append(outcome)
            return outcome

        def summarize_probe(records):
            stamps.append(perf_counter())
            return summ(records)

        with Patches() as patches:
            if tracer is not None:
                tracer.install(patches, MODULES)
                gen, run, summ = simulation.generate_trial, simulation.run_trial, simulation.summarize
            patches.set(simulation, "generate_trial", generate_probe)
            patches.set(simulation, "run_trial", run_probe)
            patches.set(simulation, "summarize", summarize_probe)
            start = perf_counter()
            try:
                summary, records, outcomes = simulation.run_batch(self.config)
            except Exception as exc:  # every op of the round counts as failed
                seconds = perf_counter() - start
                n = len(self.config.team_sizes) * self.config.trials_per_size
                error = f"run_batch raised {type(exc).__name__}: {exc}"
                return Round(seconds=seconds, digest="",
                             ops=[Op(seconds=seconds / n, errors=[error]) for _ in range(n)])
            seconds = perf_counter() - start

        n = len(records)
        if not (len(stamps) == n + 1 and len(inputs) == len(baselines) == len(outcomes) == n):
            raise RuntimeError(
                "run_batch no longer calls simulation.generate_trial, run_trial and "
                "summarize once per trial; the benchmark's op probes need updating"
            )
        ops = [
            _trial_op(stamps[i + 1] - stamps[i], self.floor, *inputs[i], outcomes[i], baselines[i])
            for i in range(n)
        ]
        return Round(
            seconds=seconds, ops=ops,
            digest=_digest(r.to_json_line() for r in records),
            errors=checks.check_summary(summary, records),
        )


def _order(seed: int, items) -> list:
    """The run's order of a round's items."""
    items = list(items)
    random.Random(f"order/{seed}").shuffle(items)
    return items


def paper_batch(seed: int) -> BatchWorkload:
    """The default SimConfig; the seed orders the team sizes."""
    sizes = _order(seed, simulation.SimConfig().team_sizes)
    return BatchWorkload(simulation.SimConfig(seed=INPUT_SEED, team_sizes=tuple(sizes)))


def large_team(seed: int) -> BatchWorkload:
    return BatchWorkload(simulation.SimConfig(
        grid_cols=60, grid_rows=60, team_sizes=tuple(_order(seed, (10, 30, 60))),
        trials_per_size=40, seed=INPUT_SEED,
    ))


# --- house: walled rooms --------------------------------------------------------

HOUSE_SIDE = 30
HOUSE_WALLS = (10, 20)  # wall rows and columns: a 3 x 3 grid of rooms
HOUSE_DOORS = ((4, 5), (14, 15), (24, 25))  # two-cell doorway in each wall segment
HOUSE_TEAMS = (4, 7, 10)
HOUSE_TRIALS_PER_TEAM = 100


def house_grid() -> OccupancyGrid:
    ws = Workspace(Point(0.0, 0.0), Point(float(HOUSE_SIDE), float(HOUSE_SIDE)),
                   HOUSE_SIDE, HOUSE_SIDE)
    walls = {(w, i) for w in HOUSE_WALLS for i in range(HOUSE_SIDE)}
    walls |= {(i, w) for w in HOUSE_WALLS for i in range(HOUSE_SIDE)}
    doors = {(w, d) for w in HOUSE_WALLS for pair in HOUSE_DOORS for d in pair}
    doors |= {(d, w) for w in HOUSE_WALLS for pair in HOUSE_DOORS for d in pair}
    blocked = frozenset(GridCell(c, r) for c, r in walls - doors)
    return OccupancyGrid(workspace=ws, blocked=blocked)


class HouseWorkload:
    """Voronoi, relay plan, baseline and simulation driven one by one on a
    walled floor plan, with message delay 2."""

    def __init__(self, seed: int):
        self.grid = house_grid()
        self.floor = checks.FloorGrid.of(self.grid)
        self.config = simulation.SimConfig(
            grid_cols=HOUSE_SIDE, grid_rows=HOUSE_SIDE, team_sizes=HOUSE_TEAMS,
            trials_per_size=HOUSE_TRIALS_PER_TEAM, seed=INPUT_SEED, message_delay=2,
        )
        free = [GridCell(c, r) for r in range(HOUSE_SIDE) for c in range(HOUSE_SIDE)
                if GridCell(c, r) not in self.grid.blocked]
        trials = []
        for size in HOUSE_TEAMS:
            for i in range(HOUSE_TRIALS_PER_TEAM):
                key = simulation.trial_seed(INPUT_SEED, size, i)
                trials.append((key, *self._trial(random.Random(key), free, size)))
        self.trials = _order(seed, trials)

    def _center(self, cell: GridCell) -> Point:
        return Point(cell.col + 0.5, cell.row + 0.5)

    def _trial(self, rng: random.Random, free: list[GridCell], size: int):
        robots = rng.sample(free, size)
        taken = set(robots)
        while True:
            pickup, drop = rng.choice(free), rng.choice(free)
            if (pickup not in taken and drop not in taken
                    and math.dist((pickup.col, pickup.row), (drop.col, drop.row))
                    >= self.config.min_task_separation):
                break
        placements = [(i, self._center(c)) for i, c in enumerate(robots)]
        task = TaskSpec(
            pickup=self._center(pickup), drop=self._center(drop), item="package",
            source_text=f"deliver package from cell {pickup.col},{pickup.row} "
                        f"to cell {drop.col},{drop.row}",
        )
        return placements, task

    def bare_round(self) -> None:
        """The round's ops with no checks, for peak memory."""
        self.run_round(check=False)

    def run_round(self, tracer=None, check: bool = True) -> Round | None:
        grid, config, ws = self.grid, self.config, self.grid.workspace
        done: list = []  # per op: an Op if it raised, else its outputs for the checks
        records = []
        with Patches() as patches:
            if tracer is not None:
                tracer.install(patches, MODULES)
            start = perf_counter()
            for key, placements, task in self.trials:
                t0 = perf_counter()
                try:
                    diagram = geometry.compute_voronoi(placements, ws)
                    plan = planning.build_relay_plan(task, placements, diagram, grid)
                    base_plan = planning.single_agent_baseline(task, placements, diagram, grid)
                    relay = simulation.simulate(plan, placements, grid, config, task_id=key)
                    base = simulation.simulate(
                        base_plan, placements, grid, config, task_id=key + "-baseline"
                    )
                except Exception as exc:  # an op that raises is a failed op, not a crash
                    done.append(Op(seconds=perf_counter() - t0,
                                   errors=[f"{type(exc).__name__}: {exc}"]))
                    continue
                relay.record.seed = key
                relay.record.baseline_total_moves = base.record.total_moves
                records.append(relay.record)
                if check:
                    done.append((perf_counter() - t0, placements, task, relay, base))
            summary = simulation.summarize(records)
            seconds = perf_counter() - start
        if not check:
            return None
        ops = [d if isinstance(d, Op) else _trial_op(d[0], self.floor, *d[1:]) for d in done]
        return Round(
            seconds=seconds, ops=ops,
            digest=_digest(r.to_json_line() for r in records),
            errors=checks.check_summary(summary, records),
        )


# --- cli_run: one `relaysim run` process per op ------------------------------------

CLI_ZONES = {
    "kitchen": (2.5, 17.5),
    "living area": (10.5, 10.5),
    "storage area": (17.5, 17.5),
    "bedroom": (17.5, 2.5),
    "bathroom": (2.5, 2.5),
}
CLI_ROBOTS = [(0, 5.5, 14.5), (1, 14.5, 14.5), (2, 5.5, 5.5), (3, 14.5, 5.5),
              (4, 10.5, 17.5), (5, 10.5, 2.5), (6, 2.5, 10.5), (7, 17.5, 10.5)]
CLI_ITEMS = ("cup", "book", "towel", "glass of water", "phone")


class CliWorkload:
    """Each op is a fresh `python -m relaysim.cli run --command ...` process.

    A round is the 20 ordered pairs of the five zones. The map and team are
    fixed, and each pair has its own item; the seed orders the commands.
    In-process mode calls `cli.main` instead: the traced run uses it, since
    spans cannot be recorded inside a child process.
    """

    def __init__(self, seed: int, workdir: Path, src: Path):
        workdir.mkdir(parents=True, exist_ok=True)
        self.map_path = workdir / "house_map.json"
        self.robots_path = workdir / "robots.json"
        self.err_path = workdir / "stderr.txt"
        self.map_path.write_text(json.dumps({
            "zones": {name.title(): list(xy) for name, xy in CLI_ZONES.items()},
            "workspace": {"min": [0, 0], "max": [20, 20], "cols": 20, "rows": 20},
        }))
        self.robots_path.write_text(json.dumps(CLI_ROBOTS))
        pairs = [(a, b) for a in CLI_ZONES for b in CLI_ZONES if a != b]
        self.commands = _order(
            seed, [(a, b, CLI_ITEMS[i % len(CLI_ITEMS)]) for i, (a, b) in enumerate(pairs)])
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.in_process = False
        self.peak_rss_kb = 0

    def _argv(self, pickup: str, drop: str, item: str) -> list[str]:
        return ["run", "--command", f"bring the {item} from the {pickup} to the {drop}",
                "--map", str(self.map_path), "--robots", str(self.robots_path)]

    def _child(self, argv: list[str]) -> tuple[int, str]:
        with open(self.err_path, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "relaysim.cli", *argv],
                stdout=subprocess.PIPE, stderr=err, env=self.env,
            )
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if proc.returncode != 0:
            sys.stderr.write(self.err_path.read_text(errors="replace"))
        return proc.returncode, out.decode()

    def _in_process(self, argv: list[str]) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            sys.stderr.write(err.getvalue())
        return code, out.getvalue()

    def run_round(self, tracer=None) -> Round:
        call = self._in_process if self.in_process or tracer is not None else self._child
        results = []
        with Patches() as patches:
            if tracer is not None:
                tracer.install(patches, MODULES)
            start = perf_counter()
            for pickup, drop, item in self.commands:
                t0 = perf_counter()
                code, out = call(self._argv(pickup, drop, item))
                results.append((perf_counter() - t0, code, out, pickup, drop, item))
            seconds = perf_counter() - start
        ops = []
        for op_seconds, code, out, pickup, drop, item in results:
            op = Op(seconds=op_seconds)
            op.errors = checks.check_cli_record(code, out, CLI_ZONES, pickup, drop, item)
            if not op.errors:
                rec = json.loads(out)
                op.team, op.moves, op.active, op.ticks = (
                    rec["team_size"], rec["total_moves"], rec["active_count"], rec["ticks"])
                op.robot_ticks = op.ticks * op.team
            ops.append(op)
        return Round(seconds=seconds, ops=ops, digest=_digest(r[2] for r in results))


def make(name: str, seed: int, workdir: Path, src: Path):
    """Build a workload's inputs; cli_run writes its map and team under workdir."""
    if name == "cli_run":
        return CliWorkload(seed, workdir, src)
    return {"paper_batch": paper_batch, "large_team": large_team, "house": HouseWorkload}[name](seed)
