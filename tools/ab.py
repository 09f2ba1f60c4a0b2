#!/usr/bin/env python3
"""In-process A/B timing of two relaysim trees on one benchmark workload.

    python3 tools/ab.py PARENT_TREE CHANGE_TREE --workload large_team
    python3 tools/ab.py ../parent . --workload house --processes 6 --rounds 5

Each tree is the root of a relaysim checkout, with `src/` and `perfbench/`.
For each of --processes pairs, one child process per tree runs, one at a
time, and the tree that runs first alternates from pair to pair. A child
imports relaysim and `perfbench/workloads.py` from its own tree, plays one
checked round (its record digest and failed ops), then --rounds bare rounds,
each timed with `time.process_time`.

A tree's figure is the median, over its processes, of each process's best
round; the quartiles of those best rounds are printed beside it. The script
prints both figures, the ratio parent / change (above 1: the change is
faster), the pairs the change won, and whether the change meets the claim
rule: it wins at least 9 of 10 pairs, and its median is below the parent's
by more than the parent's interquartile range. If the two trees' checked
rounds differ in record digest or in failed ops, or a round check fails, it
prints no ratio and exits 1.

cli_run is not offered: its ops run in child processes, whose time
`process_time` does not count.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("paper_batch", "large_team", "house")
SEED = 12345  # perfbench's default --seed: the order a round plays its ops in


def child(tree: Path, workload: str, rounds: int) -> dict:
    """One checked round, then `rounds` bare rounds, on `tree`'s code."""
    src = (tree / "src").resolve()
    sys.path[:0] = [str(src), str((tree / "perfbench").resolve())]
    import relaysim
    import workloads

    if not Path(relaysim.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"relaysim was imported from {relaysim.__file__}, not from {src}")
    wl = workloads.make(workload, SEED, None, None)
    checked = wl.run_round()
    times = []
    for _ in range(rounds):
        start = time.process_time()
        wl.bare_round()
        times.append(time.process_time() - start)
    return {
        "digest": checked.digest,
        "failed": sum(1 for op in checked.ops if op.errors),
        "ops": len(checked.ops),
        "round_errors": checked.errors,
        "best": min(times),
    }


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), as `statistics.quantiles(n=4)` gives them."""
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4))


def _run_child(tree: Path, args) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", str(tree),
         "--workload", args.workload, "--rounds", str(args.rounds)],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"the child on {tree} exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def compare(args) -> int:
    trees = {"parent": args.parent, "change": args.change}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.processes):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for label in order:
            runs[label].append(_run_child(trees[label], args))

    print(f"{args.workload}: {args.processes} processes per tree, {args.rounds} bare rounds "
          "each; CPU seconds per round, median of each process's best")
    seen, quartiles = {}, {}
    for label in ("parent", "change"):
        outs = runs[label]
        first = outs[0]
        seen[label] = {(o["digest"], o["failed"]) for o in outs}
        q1, median, q3 = quartiles[label] = _quartiles([o["best"] for o in outs])
        print(f"  {label:6}  {median:.4f} s (quartiles {q1:.4f}–{q3:.4f})  "
              f"digest {first['digest'][:8]}…  failed {first['failed']}/{first['ops']}  "
              f"{trees[label]}")
    errors = [e for outs in runs.values() for o in outs for e in o["round_errors"]]
    if errors or len(seen["parent"] | seen["change"]) != 1:
        for e in errors:
            print(f"round check failed: {e}", file=sys.stderr)
        print("no ratio: the trees' checked rounds differ or fail", file=sys.stderr)
        return 1
    q1, parent, q3 = quartiles["parent"]
    change = quartiles["change"][1]
    won = sum(c["best"] < p["best"] for p, c in zip(runs["parent"], runs["change"]))
    print(f"  ratio parent/change {parent / change:.3f}; "
          f"the change won {won} of {args.processes} pairs")
    met = 10 * won >= 9 * args.processes and parent - change > q3 - q1
    print(f"  claim rule {'met' if met else 'not met'}: at least 9 of 10 pairs won, and the "
          f"median gain {parent - change:.4f} s above the parent's interquartile range "
          f"{q3 - q1:.4f} s")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, nargs="?", help="root of the parent tree")
    parser.add_argument("change", type=Path, nargs="?", help="root of the changed tree")
    parser.add_argument("--workload", choices=WORKLOADS, default="large_team")
    parser.add_argument("--processes", type=int, default=10, help="child processes per tree")
    parser.add_argument("--rounds", type=int, default=7, help="bare rounds per child")
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        print(json.dumps(child(args.child, args.workload, args.rounds)))
        return 0
    if args.parent is None or args.change is None:
        parser.error("give the parent tree and the changed tree")
    if args.processes < 1 or args.rounds < 1:
        parser.error("--processes and --rounds must be at least 1")
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
