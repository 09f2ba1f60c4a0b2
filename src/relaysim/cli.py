"""Command-line driver tying parsing, planning, simulation, and rendering together.

Each failure prints one `error:` line to stderr and exits with the
`exit_code` of its error type (`relaysim.errors`): 2 usage, malformed input
files, command/zone or interpreter-reply failures, 3 planning or geometry
failures, 4 execution failures; 1 for anything else (I/O); 0 on success.
stdout carries only data.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

from . import geometry, nlu, planning, simulation, world
from .errors import EXIT_OK, EXIT_OTHER, RelaysimError, TrialIncomplete, UsageError
from .errors import EXIT_EXECUTION, EXIT_PARSE, EXIT_PLANNING  # noqa: F401  (for callers of main)
from .geometry import Point, Workspace


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load(path: str, decode):
    """decode(path), where a file that does not decode is a UsageError naming it."""
    try:
        return decode(path)
    except (AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise UsageError(f"{path}: malformed file ({type(exc).__name__}: {exc})") from exc


def _load_robots(path: str, workspace: Workspace) -> list[tuple[int, Point]]:
    return _load(path, lambda p: geometry.robots_from_list(json.loads(_read(p)), workspace))


def _load_plan(path: str) -> tuple[planning.RelayPlan, list[tuple[int, Point]], Workspace]:
    return _load(path, lambda p: planning.plan_from_json(_read(p)))


def _decode_config(path: str, config_type: type[simulation.RunConfig]) -> simulation.RunConfig:
    data = json.loads(_read(path))
    if "seed" in data:
        raise ValueError("seed is set by `batch --seed`, not by a config file")
    return config_type(**data)


def _load_config(path: str | None, config_type: type[simulation.RunConfig]) -> simulation.RunConfig:
    if path is None:
        return config_type()
    return _load(path, lambda p: _decode_config(p, config_type))


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1."""
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return int(text)


def _team_sizes(text: str) -> tuple[int, ...]:
    """argparse type: a comma-separated list of positive integers."""
    return tuple(_positive_int(n) for n in text.split(","))


def _interpreter_config(args: argparse.Namespace) -> nlu.InterpreterConfig:
    return nlu.InterpreterConfig(
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
    _, workspace = _load(args.map, world.load_semantic_map)
    robots = _load_robots(args.robots, workspace)
    diagram = geometry.compute_voronoi(robots, workspace)
    _write_or_stdout(geometry.diagram_to_json(diagram), args.out)
    if args.svg:
        from . import render  # imported here: only the SVG outputs draw

        Path(args.svg).write_text(render.render_partition_svg(diagram), encoding="utf-8")
    return EXIT_OK


def _plan_command(
    args: argparse.Namespace,
) -> tuple[planning.RelayPlan, list[tuple[int, Point]], Workspace, geometry.VoronoiDiagram]:
    """Interpret --command on --map and plan its relay chain for --robots;
    also returns the partition the plan was built on."""
    smap, workspace = _load(args.map, world.load_semantic_map)
    robots = _load_robots(args.robots, workspace)
    task = nlu.interpret(args.command, smap, _interpreter_config(args))
    nlu.validate_task(task, workspace)
    diagram = geometry.compute_voronoi(robots, workspace)
    grid = world.OccupancyGrid(workspace=workspace)
    return planning.build_relay_plan(task, robots, diagram, grid), robots, workspace, diagram


def cmd_plan(args: argparse.Namespace) -> int:
    plan, robots, workspace, diagram = _plan_command(args)
    _write_or_stdout(planning.plan_to_json(plan, robots, workspace), args.out)
    if args.svg:
        from . import render  # imported here: only the SVG outputs draw

        Path(args.svg).write_text(render.render_plan_svg(plan, diagram), encoding="utf-8")
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args.config, simulation.RunConfig)
    if args.plan:
        plan, robots, workspace = _load_plan(args.plan)
    else:
        plan, robots, workspace, _ = _plan_command(args)
    grid = world.OccupancyGrid(workspace=workspace)
    outcome = simulation.simulate(plan, robots, grid, config, task_id="cli-run")
    _write_or_stdout(outcome.record.to_json_line() + "\n", args.out)
    if args.messages:
        lines = "".join(m.to_json_line() + "\n" for m in outcome.messages)
        Path(args.messages).write_text(lines, encoding="utf-8")
    if not outcome.record.completed:
        raise TrialIncomplete("trial did not complete within the tick budget")
    return EXIT_OK


def cmd_batch(args: argparse.Namespace) -> int:
    if args.seed is None:
        raise UsageError("batch mode requires an explicit --seed")
    flags = {"seed": args.seed}
    if args.team_sizes is not None:
        flags["team_sizes"] = args.team_sizes
    if args.trials is not None:
        flags["trials_per_size"] = args.trials
    loaded = _load_config(args.config, simulation.SimConfig)
    try:
        config = simulation.SimConfig(**dict(loaded._asdict(), **flags))
    except ValueError as exc:  # the flags do not fit the configured grid
        raise UsageError(str(exc)) from exc
    with contextlib.ExitStack() as stack:
        # open the outputs first, so a bad path fails before the batch runs
        csv_out, jsonl_out = (
            stack.enter_context(open(p, "w", encoding="utf-8")) if p else None
            for p in (args.out_csv, args.out)
        )
        summary, records, _ = simulation.run_batch(config)
        csv_text = simulation.summary_to_csv(summary)
        if csv_out:
            csv_out.write(csv_text)
        if jsonl_out:
            jsonl_out.writelines(r.to_json_line() + "\n" for r in records)
    sys.stdout.write(csv_text)
    return EXIT_OK


def cmd_render(args: argparse.Namespace) -> int:
    from . import render  # imported here: only the SVG outputs draw

    if args.plan:
        plan, robots, workspace = _load_plan(args.plan)
        svg = render.render_plan_svg(plan, geometry.compute_voronoi(robots, workspace))
    else:
        diagram = _load(args.diagram, lambda p: geometry.diagram_from_json(_read(p)))
        svg = render.render_partition_svg(diagram)
    Path(args.svg).write_text(svg, encoding="utf-8")
    return EXIT_OK


def _add_interpreter_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--endpoint", default=None, help="external interpreter URL (omit for the grammar)")
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
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--plan", default=None, help="plan JSON produced by 'plan'")
    source.add_argument("--command", default=None, help="needs --map and --robots")
    p.add_argument("--map", default=None)
    p.add_argument("--robots", default=None)
    p.add_argument("--config", default=None, help="RunConfig JSON: message_delay, tick_budget")
    p.add_argument("--out", default=None, help="trial record JSONL (default stdout)")
    p.add_argument("--messages", default=None, help="handoff message log JSONL")
    _add_interpreter_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("batch", help="run the scalability experiment batch")
    p.add_argument("--config", default=None, help="SimConfig JSON: batch and RunConfig fields")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--team-sizes", dest="team_sizes", type=_team_sizes, default=None)
    p.add_argument("--trials", type=_positive_int, default=None)
    p.add_argument("--out-csv", dest="out_csv", default=None)
    p.add_argument("--out", default=None, help="trial records JSONL")
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("render", help="render a stored diagram or plan to SVG")
    stored = p.add_mutually_exclusive_group(required=True)
    stored.add_argument("--diagram", default=None)
    stored.add_argument("--plan", default=None)
    p.add_argument("--svg", required=True)
    p.set_defaults(func=cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.func is cmd_run and args.command and not (args.map and args.robots):
        parser.error("run --command requires --map and --robots")
    if args.func is cmd_run and args.plan and (args.map or args.robots or args.endpoint):
        parser.error("run --plan takes no --map, --robots or --endpoint")
    try:
        return args.func(args)
    except RelaysimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OTHER


if __name__ == "__main__":
    sys.exit(main())
