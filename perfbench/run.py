#!/usr/bin/env python3
"""relaysim benchmark: four workloads, end-to-end metrics and per-layer spans.

Run from the root of a relaysim checkout; relaysim is imported from ./src.

    python3 perfbench/run.py                        # all four workloads, one after another
    python3 perfbench/run.py --workload house --seed 3 --seconds 25 --trace 0
    python3 perfbench/run.py --workload house --trace 1   # per-layer metrics, spans.jsonl
    python3 perfbench/run.py --artifact-digests      # sha256 of the default-seed batch files

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Ops that fail only the chain-end check, a known fault, count as
failed and leave the run correct; any other failed check makes it incorrect.
The exit code is 0 only if the run is correct.
See perfbench/README.md for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPANS = BENCH / "spans.jsonl"  # the last traced round's spans, written by every traced run
WORKLOADS = ("paper_batch", "large_team", "house", "cli_run")

# setup_s is the median of at least this many set-ups: the run's own and
# fresh processes
SETUP_SAMPLES = 7
IMPORT_SAMPLES = 3
# rates are medians over rounds, so a run plays at least this many
# (on cli_run, 100 ops, so op_ms_p90 has ten samples beyond it)
MIN_ROUNDS = 5

END_TO_END = (
    ("setup_s", "s"), ("ops_per_s", "ops/s"), ("op_ms_p50", "ms"), ("op_ms_p90", "ms"),
    ("robot_ticks_per_s", "robot-ticks/s"), ("moves_per_task", "moves"),
    ("moves_per_agent", "moves"), ("ticks_per_task", "ticks"), ("peak_rss_mb", "MB"),
)

# (metric, span name, field of Tracer.totals: 0 calls, 1 seconds, 2 self seconds, 3 raised)
LAYER_SPANS = (
    ("cli.main.time_s", "cli.main", 1),
    ("world.load_semantic_map.time_s", "world.load_semantic_map", 1),
    ("nlu.parse_command.calls", "nlu.parse_command", 0),
    ("nlu.parse_command.time_s", "nlu.parse_command", 1),
    ("geometry.compute_voronoi.calls", "geometry.compute_voronoi", 0),
    ("geometry.compute_voronoi.time_s", "geometry.compute_voronoi", 1),
    ("geometry.locate.calls", "geometry.locate", 0),
    ("geometry.locate.time_s", "geometry.locate", 1),
    ("geometry.shared_edge.time_s", "geometry.shared_edge", 1),
    ("geometry.relay_point.time_s", "geometry.relay_point", 1),
    ("planning.build_relay_plan.calls", "planning.build_relay_plan", 0),
    ("planning.build_relay_plan.time_s", "planning.build_relay_plan", 1),
    ("planning.build_relay_plan.self_s", "planning.build_relay_plan", 2),
    ("planning.single_agent_baseline.time_s", "planning.single_agent_baseline", 1),
    ("planning.astar.calls", "planning.astar", 0),
    ("planning.astar.time_s", "planning.astar", 1),
    ("planning.astar.failed", "planning.astar", 3),
    ("simulation.astar.calls", "simulation.astar", 0),
    ("simulation.astar.time_s", "simulation.astar", 1),
    ("simulation.astar.failed", "simulation.astar", 3),
    ("world.grid_builds", "world.grid_builds", 0),
    ("coordination.fsm_step.calls", "coordination.fsm_step", 0),
    ("coordination.fsm_step.time_s", "coordination.fsm_step", 1),
    ("simulation.generate_trial.time_s", "simulation.generate_trial", 1),
    ("simulation.simulate.calls", "simulation.simulate", 0),
    ("simulation.simulate.time_s", "simulation.simulate", 1),
    ("simulation.simulate.self_s", "simulation.simulate", 2),
    ("simulation.summarize.time_s", "simulation.summarize", 1),
)
# measured with an in-process cli.main round on every workload
CLI_LAYERS = ("cli.main.", "world.load_semantic_map.", "nlu.parse_command.")
# off the path of some workloads (cli_run runs no baseline and neither
# generates trials nor summarizes; house does not call generate_trial):
# printed where they apply, not in the JSON
NOT_EVERYWHERE = ("planning.single_agent_baseline.time_s", "simulation.generate_trial.time_s",
                  "simulation.summarize.time_s")


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith("useful_ratio") else "count"


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _measure(wl, args, floors: dict):
    """Whole rounds until the wall clock passes args.seconds. With --trace 1,
    every untraced round is followed by a traced round of the same ops;
    without, a fresh set-up process runs after each round, so the set-up
    samples see the same host as the rounds do."""
    plain, traced, tracers, setups = [], [], [], []
    min_rounds = 1 if args.trace else MIN_ROUNDS
    start = perf_counter()
    while True:
        plain.append(wl.run_round())
        if args.trace:
            tracer = tracing.Tracer()
            traced.append(wl.run_round(tracer))
            traced[-1].errors += _check_paths(tracer, floors)
            tracer.paths.clear()
            tracer.totals()
            if tracers:  # only the last round's spans are kept, for SPANS
                tracers[-1].spans.clear()
            tracers.append(tracer)
        else:
            setups.append(_setup_sample(args))
        elapsed = perf_counter() - start
        if len(plain) >= min_rounds and elapsed * (1 + 0.5 / len(plain)) >= args.seconds:
            break
    while not args.trace and len(setups) < SETUP_SAMPLES - 1:
        setups.append(_setup_sample(args))
    return plain, traced, tracers, setups


def _check_paths(tracer, floors: dict) -> list[str]:
    """Every path A* returned in a traced round, against the benchmark's BFS."""
    errors = []
    for name, grid, start, goal, path in tracer.paths:
        key = (grid.workspace, grid.blocked)
        floor = floors.get(key)
        if floor is None:
            floor = checks.FloorGrid.of(grid)
            if name == "planning.astar":  # the workload's own grid; detour grids rarely repeat
                floors[key] = floor
        cols = floor.cols
        cells = [c.row * cols + c.col for c in path.cells]
        for err in checks.check_path(floor, start.row * cols + start.col,
                                     goal.row * cols + goal.col, cells):
            errors.append(f"{name} {start}->{goal}: {err}")
    return errors


def _setup_sample(args) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def _peak_rss_kb(args, errors: list[str]) -> int:
    """Peak resident memory of a child that sets up and plays one round
    with no probes or checks, so the figure is relaysim's alone."""
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--bare-round"],
        stdout=subprocess.DEVNULL,
    )
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        errors.append(f"the bare round for peak_rss_mb exited {proc.returncode}")
    return usage.ru_maxrss


def _import_times() -> tuple[float, float]:
    """Fresh-interpreter import of relaysim.cli, and the part spent in relaysim.nlu."""
    code = ("import time; t = time.perf_counter(); import relaysim.cli; "
            "print(time.perf_counter() - t)")
    cli_s, nlu_s = [], []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                              capture_output=True, text=True, check=True, env=_child_env())
        cli_s.append(float(proc.stdout.strip()))
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "relaysim.nlu":
                nlu_s.append(int(parts[1]) / 1e6)
    return statistics.median(cli_s), statistics.median(nlu_s)


def _end_to_end(rounds, setup: list[float], rss_kb: int) -> dict:
    """Rates are medians over rounds and op times are pooled, so a slow
    spell of the host moves a run's figures less than a mean would. Every
    op that ran is timed, failed or not; the simulated means are over them."""
    ops = [op for r in rounds for op in r.ops if op.ran]
    times = sorted(op.seconds * 1e3 for op in ops)
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": statistics.median(sum(op.ran for op in r.ops) / r.seconds for r in rounds),
        "op_ms_p50": statistics.median(times),
        "op_ms_p90": statistics.quantiles(times, n=10)[8],
        "robot_ticks_per_s": statistics.median(
            sum(op.robot_ticks for op in r.ops) / r.seconds for r in rounds),
        "moves_per_task": statistics.fmean(op.moves for op in ops),
        "moves_per_agent": statistics.fmean(op.moves / op.active for op in ops),
        "ticks_per_task": statistics.fmean(op.ticks for op in ops),
        "peak_rss_mb": rss_kb / 1024.0,
    }


def _layer_metrics(tracers, cli_tracers) -> dict:
    def per_round(group, span, field):
        return statistics.fmean(t.totals().get(span, (0, 0.0, 0.0, 0))[field] for t in group)

    out = {}
    for metric, span, field in LAYER_SPANS:
        group = cli_tracers if metric.startswith(CLI_LAYERS) else tracers
        out[metric] = per_round(group, span, field)
    for caller in ("planning", "simulation"):
        calls = out[f"{caller}.astar.calls"]
        out[f"{caller}.astar.useful_ratio"] = (
            (calls - out[f"{caller}.astar.failed"]) / calls if calls else 0.0)
    out["coordination.messages"] = statistics.fmean(t.messages for t in tracers)
    out["simulation.ticks"] = statistics.fmean(t.ticks for t in tracers)
    return out


def _known_fault(op) -> bool:
    return all(e.startswith(checks.CHAIN_END_FAULT) for e in op.errors)


def run_one(args) -> int:
    workdir = BENCH / "_work" / str(os.getpid())
    try:
        t0 = perf_counter()
        sys.path.insert(0, str(SRC))
        import relaysim  # noqa: F401  (the import is part of set-up time)
        import workloads

        wl = workloads.make(args.workload, args.seed, workdir, SRC)
        setup = [perf_counter() - t0]
        if args.setup_only:
            print(json.dumps({"setup_s": setup[0]}))
            return 0
        if args.bare_round:
            wl.bare_round()
            return 0
        if args.trace and hasattr(wl, "in_process"):
            wl.in_process = True
        plain, traced, tracers, setups = _measure(wl, args, {})
        rounds = plain + traced
        errors = [e for r in rounds for e in r.errors]
        if len({r.digest for r in rounds}) != 1:
            errors.append("rounds of the same ops produced different records")
        failed_ops = [op for r in rounds for op in r.ops if op.errors]
        attempted = sum(len(r.ops) for r in rounds)
        errors += [e for op in failed_ops if not _known_fault(op) for e in op.errors]

        if args.trace:
            cli_tracers = tracers
            if args.workload != "cli_run":
                probe = workloads.make("cli_run", args.seed, workdir / "cli", SRC)
                probe.in_process = True
                cli_tracers = [tracing.Tracer()]
                probe_round = probe.run_round(cli_tracers[0])
                errors += probe_round.errors + [e for op in probe_round.ops for e in op.errors]
            metrics = _layer_metrics(tracers, cli_tracers)
            metrics["cli.import_s"], metrics["nlu.import_s"] = _import_times()
            metrics["trace.overhead_s"] = (
                statistics.fmean(r.seconds for r in traced)
                - statistics.fmean(r.seconds for r in plain))
            with open(SPANS, "w") as fh:
                for rec in tracers[-1].span_records():
                    fh.write(json.dumps(rec) + "\n")
            report = {m: (v, _unit(m)) for m, v in sorted(metrics.items())
                      if v or m not in NOT_EVERYWHERE}
        elif not any(op.ran for r in plain for op in r.ops):  # nothing to time
            report = {}
        else:
            rss_kb = wl.peak_rss_kb if args.workload == "cli_run" else _peak_rss_kb(args, errors)
            metrics = _end_to_end(plain, setup + setups, rss_kb)
            report = {m: (metrics[m], unit) for m, unit in END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with_parent = workdir.parent
        if with_parent.is_dir() and not any(with_parent.iterdir()):
            with_parent.rmdir()

    for err in list(dict.fromkeys(errors))[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    known = sum(_known_fault(op) for op in failed_ops)
    timed = sum(op.ran for r in plain for op in r.ops)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {len(rounds)} rounds, "
          f"ops attempted={attempted} failed={len(failed_ops)} (of which {known} only by "
          f"the known chain-end fault), records sha256={rounds[0].digest[:16]}")
    for name, (value, unit) in report.items():
        note = f"  (n={timed})" if name == "op_ms_p90" else ""
        print(f"{name:40s} {value:14.6f} {unit}{note}")
    shown = {m: {"value": v, "unit": u} for m, (v, u) in report.items()
             if m not in NOT_EVERYWHERE}
    correct = not errors
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failed_ops), "metrics": shown}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process, one after another."""
    results = {}
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        sys.stdout.write(proc.stdout)
        code = code or proc.returncode
        lines = proc.stdout.splitlines()
        results[name] = json.loads(lines[-1]) if lines else None
    done = [r for r in results.values() if r]
    print(json.dumps({
        "correct": len(done) == len(WORKLOADS) and all(r["correct"] for r in done),
        "attempted": sum(r["attempted"] for r in done),
        "failed": sum(r["failed"] for r in done),
        "metrics": {f"{w}.{m}": v for w, r in results.items() if r
                    for m, v in r["metrics"].items()},
    }))
    return code


def artifact_digests(args) -> int:
    """sha256 of summary.csv and trials.jsonl as `relaysim batch --seed S` writes them."""
    workdir = BENCH / "_work" / f"digests-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        files = {"summary.csv": workdir / "summary.csv", "trials.jsonl": workdir / "trials.jsonl"}
        subprocess.run(
            [sys.executable, "-m", "relaysim.cli", "batch", "--seed", str(args.seed),
             "--out-csv", str(files["summary.csv"]), "--out", str(files["trials.jsonl"])],
            stdout=subprocess.DEVNULL, check=True, env=_child_env(),
        )
        for name, path in files.items():
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {name} (seed {args.seed})")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--artifact-digests", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--bare-round", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "relaysim" / "__init__.py").is_file():
        print(f"error: no relaysim package under {SRC}; the benchmark runs from a "
              "relaysim checkout", file=sys.stderr)
        return 2
    if args.artifact_digests:
        return artifact_digests(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
