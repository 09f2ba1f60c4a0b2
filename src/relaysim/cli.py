"""Command-line driver tying parsing, planning, simulation, and rendering together.

Exit codes: 0 success, 2 command/zone parse failures, 3 planning or geometry
failures, 4 execution failures, 1 anything else. stdout carries only data;
diagnostics go to stderr (level via the DELIVER_LOG env var).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import geometry, nlu, planning, render, simulation, world
from .errors import (
    NoPath,
    RelaysimError,
    SameZone,
    UnknownZone,
    UnparsableCommand,
)
from .geometry import Point, compute_voronoi

EXIT_OK = 0
EXIT_OTHER = 1
EXIT_PARSE = 2
EXIT_PLANNING = 3
EXIT_EXECUTION = 4

log = logging.getLogger("relaysim")


def _setup_logging() -> None:
    level_name = os.environ.get("DELIVER_LOG", "error").lower()
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        level_name, logging.ERROR
    )
    logging.basicConfig(stream=sys.stderr, level=level, format="%(levelname)s %(message)s")


def _load_robots(path: str) -> list[tuple[int, Point]]:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return [(int(rid), Point(float(x), float(y))) for rid, x, y in data]


def _interpreter_config(args: argparse.Namespace) -> nlu.InterpreterConfig:
    return nlu.InterpreterConfig(
        mode=args.interpreter,
        endpoint=args.endpoint,
        timeout=args.timeout,
        fallback=args.fallback == "on",
    )


def _write_or_stdout(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_partition(args: argparse.Namespace) -> int:
    _, workspace = world.load_semantic_map(args.map)
    robots = _load_robots(args.robots)
    diagram = compute_voronoi(robots, workspace)
    _write_or_stdout(geometry.diagram_to_json(diagram), args.out)
    if args.svg:
        Path(args.svg).write_text(render.render_partition_svg(diagram), encoding="utf-8")
    return EXIT_OK


def cmd_plan(args: argparse.Namespace) -> int:
    smap, workspace = world.load_semantic_map(args.map)
    robots = _load_robots(args.robots)
    task = nlu.interpret(args.command, smap, _interpreter_config(args))
    nlu.validate_task(task, workspace)
    grid = world.OccupancyGrid(workspace=workspace)
    diagram = compute_voronoi(robots, workspace)
    plan = planning.build_relay_plan(task, robots, diagram, grid)
    _write_or_stdout(planning.plan_to_json(plan), args.out)
    if args.svg:
        Path(args.svg).write_text(render.render_plan_svg(plan, diagram), encoding="utf-8")
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args)
    if args.plan:
        plan = planning.plan_from_json(Path(args.plan).read_text(encoding="utf-8"))
        placements = [
            (rid, plan.segments[i][0]) for i, rid in enumerate(plan.active)
        ]
        grid = world.OccupancyGrid(workspace=config.workspace())
        outcome = simulation.simulate(plan, placements, grid, config, task_id="cli-run")
    else:
        smap, workspace = world.load_semantic_map(args.map)
        robots = _load_robots(args.robots)
        task = nlu.interpret(args.command, smap, _interpreter_config(args))
        nlu.validate_task(task, workspace)
        config = simulation.SimConfig(
            grid_cols=workspace.grid_cols,
            grid_rows=workspace.grid_rows,
            seed=config.seed,
            message_delay=config.message_delay,
            tick_budget=config.tick_budget,
        )
        outcome = simulation.run_trial(robots, task, config, task_id="cli-run")
    _write_or_stdout(outcome.record.to_json_line() + "\n", args.out)
    if args.messages:
        lines = "".join(m.to_json_line() + "\n" for m in outcome.messages)
        Path(args.messages).write_text(lines, encoding="utf-8")
    if not outcome.record.completed:
        log.error("trial did not complete within the tick budget")
        return EXIT_EXECUTION
    return EXIT_OK


def _load_config(args: argparse.Namespace) -> simulation.SimConfig:
    data: dict = {}
    if getattr(args, "config", None):
        data = json.loads(Path(args.config).read_text(encoding="utf-8"))
    if getattr(args, "team_sizes", None):
        data["team_sizes"] = [int(n) for n in args.team_sizes.split(",")]
    if getattr(args, "trials", None):
        data["trials_per_size"] = args.trials
    if getattr(args, "seed", None) is not None:
        data["seed"] = args.seed
    return simulation.SimConfig.from_dict(data)


def cmd_batch(args: argparse.Namespace) -> int:
    if args.seed is None:
        raise UnparsableCommand("batch mode requires an explicit --seed")
    config = _load_config(args)
    summary, records, _ = simulation.run_batch(config)
    csv_text = simulation.summary_to_csv(summary)
    if args.out_csv:
        Path(args.out_csv).write_text(csv_text, encoding="utf-8")
    if args.out:
        lines = "".join(r.to_json_line() + "\n" for r in records)
        Path(args.out).write_text(lines, encoding="utf-8")
    sys.stdout.write(csv_text)
    return EXIT_OK


def cmd_render(args: argparse.Namespace) -> int:
    if args.plan:
        plan = planning.plan_from_json(Path(args.plan).read_text(encoding="utf-8"))
        _, workspace = world.load_semantic_map(args.map)
        robots = _load_robots(args.robots)
        diagram = compute_voronoi(robots, workspace)
        svg = render.render_plan_svg(plan, diagram)
    else:
        diagram = geometry.diagram_from_json(
            Path(args.diagram).read_text(encoding="utf-8")
        )
        svg = render.render_partition_svg(diagram)
    Path(args.svg).write_text(svg, encoding="utf-8")
    return EXIT_OK


def _add_interpreter_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--interpreter", choices=("grammar", "external"), default="grammar")
    p.add_argument("--endpoint", default=None, help="external interpreter URL")
    p.add_argument("--fallback", choices=("on", "off"), default="on")
    p.add_argument("--timeout", type=float, default=5.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="relaysim")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("partition", help="compute and store the Voronoi partition")
    p.add_argument("--map", required=True)
    p.add_argument("--robots", required=True, help="JSON file: [[id, x, y], ...]")
    p.add_argument("--out", default=None)
    p.add_argument("--svg", default=None)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("plan", help="parse a command and build a relay plan")
    p.add_argument("--command", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("--robots", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--svg", default=None)
    _add_interpreter_flags(p)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("run", help="execute one trial")
    p.add_argument("--plan", default=None, help="plan JSON produced by 'plan'")
    p.add_argument("--command", default=None)
    p.add_argument("--map", default=None)
    p.add_argument("--robots", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="trial record JSONL (default stdout)")
    p.add_argument("--messages", default=None, help="handoff message log JSONL")
    _add_interpreter_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("batch", help="run the scalability experiment batch")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--team-sizes", dest="team_sizes", default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--out-csv", dest="out_csv", default=None)
    p.add_argument("--out", default=None, help="trial records JSONL")
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("render", help="render a stored diagram or plan to SVG")
    p.add_argument("--diagram", default=None)
    p.add_argument("--plan", default=None)
    p.add_argument("--map", default=None)
    p.add_argument("--robots", default=None)
    p.add_argument("--svg", required=True)
    p.set_defaults(func=cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UnparsableCommand, UnknownZone, SameZone) as exc:
        log.error("%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (NoPath, RelaysimError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PLANNING
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OTHER


if __name__ == "__main__":
    sys.exit(main())
