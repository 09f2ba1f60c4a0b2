"""End-to-end acceptance checks.

Each test exercises one release criterion and prints a single PASS/FAIL line
so the suite output doubles as an acceptance report.
"""

import json
import math
import random
import time

import pytest

from relaysim.cli import EXIT_OK, main
from relaysim.coordination import MessageKind
from relaysim.errors import SameZone, UnknownZone, UnparsableCommand
from relaysim.geometry import (
    Point,
    SharedEdge,
    Workspace,
    compute_voronoi,
    dist,
    locate,
    relay_point,
)
from relaysim.nlu import parse_command
from relaysim.planning import astar
from relaysim.simulation import SimConfig, generate_trial, run_batch, run_trial
from relaysim.world import GridCell, OccupancyGrid, cell_of
from oracles import bfs_shortest_moves, minimax_value_ternary, nearest_site_brute


def _report(capsys, name: str, ok: bool, detail: str = "") -> None:
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"[{status}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def _random_sites(rng, n, ws):
    sites = []
    while len(sites) < n:
        p = Point(rng.uniform(0.2, 19.8), rng.uniform(0.2, 19.8))
        if all(dist(p, q) > 1e-3 for _, q in sites):
            sites.append((len(sites), p))
    return sites


def test_criterion_1_voronoi_locate_matches_brute_force(capsys):
    """100 random site configurations, 10^4 sampled points each."""
    ws = Workspace(Point(0.0, 0.0), Point(20.0, 20.0), 20, 20)
    rng = random.Random(101)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(100):
        sites = _random_sites(rng, rng.randint(1, 12), ws)
        d = compute_voronoi(sites, ws)
        for _ in range(10_000):
            p = Point(rng.uniform(0, 20), rng.uniform(0, 20))
            if locate(p, d) != nearest_site_brute(p, sites):
                mismatches += 1
    elapsed = time.perf_counter() - start
    _report(
        capsys,
        "criterion 1: Voronoi locate agrees with brute force on 10^6 samples",
        mismatches == 0 and elapsed < 10.0,
        f"{mismatches} mismatches, {elapsed:.2f}s",
    )


def test_criterion_2_relay_point_optimality(capsys):
    """1000 triples (>=200 on-bisector): minimax within 1e-7 of the oracle."""
    rng = random.Random(202)
    start = time.perf_counter()
    worst_gap = 0.0
    worst_imbalance = 0.0
    bisector_cases = 0
    total = 0
    while total < 1_000:
        x_i = Point(rng.uniform(-10, 10), rng.uniform(-10, 10))
        x_j = Point(rng.uniform(-10, 10), rng.uniform(-10, 10))
        if dist(x_i, x_j) < 1e-3:
            continue
        on_bisector = total % 4 == 0  # every fourth case: segment on the bisector
        if on_bisector:
            mx, my = (x_i.x + x_j.x) / 2, (x_i.y + x_j.y) / 2
            bx, by = -(x_j.y - x_i.y), x_j.x - x_i.x
            norm = math.hypot(bx, by)
            bx, by = bx / norm, by / norm
            a = rng.uniform(-8, 8)
            b = a + rng.uniform(0.1, 8)
            p1 = Point(mx + a * bx, my + a * by)
            p2 = Point(mx + b * bx, my + b * by)
        else:
            p1 = Point(rng.uniform(-10, 10), rng.uniform(-10, 10))
            p2 = Point(rng.uniform(-10, 10), rng.uniform(-10, 10))
            if dist(p1, p2) < 1e-3:
                continue
        z, v = relay_point(x_i, x_j, SharedEdge(0, 1, p1, p2))
        worst_gap = max(worst_gap, abs(v - minimax_value_ternary(x_i, x_j, p1, p2)))
        if on_bisector:
            bisector_cases += 1
            worst_imbalance = max(worst_imbalance, abs(dist(z, x_i) - dist(z, x_j)))
        total += 1
    elapsed = time.perf_counter() - start
    _report(
        capsys,
        "criterion 2: relay point optimal on 1000 triples incl. on-bisector",
        worst_gap <= 1e-7
        and worst_imbalance <= 1e-9
        and bisector_cases >= 200
        and elapsed < 5.0,
        f"gap {worst_gap:.2e}, imbalance {worst_imbalance:.2e}, "
        f"{bisector_cases} bisector cases, {elapsed:.2f}s",
    )


def test_criterion_3_astar_matches_bfs(capsys):
    """200 random 20x20 grids, 20% blocked: equal shortest lengths."""
    ws = Workspace(Point(0.0, 0.0), Point(20.0, 20.0), 20, 20)
    rng = random.Random(303)
    solvable = 0
    mismatches = 0
    for _ in range(200):
        blocked = frozenset(
            GridCell(c, r)
            for c in range(20)
            for r in range(20)
            if rng.random() < 0.2
        )
        grid = OccupancyGrid(workspace=ws, blocked=blocked)
        free = [
            GridCell(c, r)
            for c in range(20)
            for r in range(20)
            if not grid.is_blocked(GridCell(c, r))
        ]
        start, goal = rng.sample(free, 2)
        expected = bfs_shortest_moves(grid, start, goal)
        if expected is None:
            continue
        solvable += 1
        if len(astar(grid, start, goal).cells) - 1 != expected:
            mismatches += 1
    _report(
        capsys,
        "criterion 3: A* equals BFS shortest length on random grids",
        mismatches == 0 and solvable >= 100,
        f"{solvable} solvable instances, {mismatches} mismatches",
    )


def test_criterion_4_protocol_invariants(capsys):
    """300 seeded trials: possession, handoff locality, completion, counts."""
    cfg = SimConfig(seed=404)
    grid = OccupancyGrid(workspace=cfg.workspace())
    sizes = (1, 3, 5, 10)
    failures = []
    for i in range(300):
        n = sizes[i % 4]
        rng = random.Random(f"acceptance/{i}")
        placements, task = generate_trial(n, cfg, rng)
        out = run_trial(placements, task, cfg, record_trace=True)
        rec, plan = out.record, out.plan
        if not rec.completed:
            failures.append(f"trial {i}: incomplete")
            continue
        if any(len(snap.carriers) > 1 for snap in out.trace):
            failures.append(f"trial {i}: multiple carriers")
        readies = [m for m in out.messages if m.kind is MessageKind.HANDOFF_READY]
        acks = [m for m in out.messages if m.kind is MessageKind.HANDOFF_ACK]
        if len(readies) != len(plan.transfers) or len(acks) != len(plan.transfers):
            failures.append(f"trial {i}: message count mismatch")
        for msg in readies:
            planned = min(plan.transfers, key=lambda z: dist(z, msg.at))
            a = cell_of(msg.at, grid)
            b = cell_of(planned, grid)
            if max(abs(a.col - b.col), abs(a.row - b.row)) > 1:
                failures.append(f"trial {i}: handoff away from planned point")
    _report(
        capsys,
        "criterion 4: protocol invariants over 300 seeded trials",
        not failures,
        failures[0] if failures else "0 violations",
    )


def test_criterion_5_scalability_trends(capsys):
    """Default batch: stable totals, reduced per-agent load, sublinear actives."""
    start = time.perf_counter()
    summary, _, _ = run_batch(SimConfig(seed=12345))
    elapsed = time.perf_counter() - start
    totals = [summary.per_size[n].mean_total for n in summary.per_size]
    spread = (max(totals) - min(totals)) / min(totals)
    # reduction is 1 - mean_per_agent / paired_baseline_mean at that size
    per_agent_ratio = 1.0 - summary.per_size[10].reduction
    active_ratio = summary.per_size[10].mean_active / summary.per_size[3].mean_active
    ok = (
        summary.completion_rate == 1.0
        and spread < 0.30
        and per_agent_ratio <= 0.60
        and active_ratio < 10 / 3
        and elapsed < 60.0
    )
    _report(
        capsys,
        "criterion 5: scalability trends on the default batch",
        ok,
        f"total spread {spread:.3f}, per-agent/baseline {per_agent_ratio:.3f}, "
        f"active(10)/active(3) {active_ratio:.2f}, {elapsed:.1f}s",
    )


def test_criterion_6_batch_determinism(capsys, tmp_path):
    """Identical config and seed produce byte-identical CSV and JSONL."""
    args = ["batch", "--seed", "606", "--team-sizes", "1,3,5", "--trials", "5"]
    csv1, jsonl1 = tmp_path / "a.csv", tmp_path / "a.jsonl"
    csv2, jsonl2 = tmp_path / "b.csv", tmp_path / "b.jsonl"
    code1 = main(args + ["--out-csv", str(csv1), "--out", str(jsonl1)])
    code2 = main(args + ["--out-csv", str(csv2), "--out", str(jsonl2)])
    ok = (
        code1 == EXIT_OK
        and code2 == EXIT_OK
        and csv1.read_bytes() == csv2.read_bytes()
        and jsonl1.read_bytes() == jsonl2.read_bytes()
    )
    _report(
        capsys,
        "criterion 6: batch rerun is byte-identical",
        ok,
        f"{len(csv1.read_bytes())}B CSV, {len(jsonl1.read_bytes())}B JSONL",
    )


def test_criterion_7_nlu_contract(capsys, five_zone_map):
    """Canonical command, 20 phrasing variants, documented parse errors."""
    canonical = parse_command(
        "Bring the glass of water from the kitchen to the bedroom", five_zone_map
    )
    ok = (
        canonical.pickup == Point(2.5, 17.5)
        and canonical.drop == Point(17.5, 2.5)
        and canonical.item == "glass of water"
    )
    variants = [
        "bring the glass of water from the kitchen to the bedroom",
        "Bring the glass of water from the Kitchen to the Bedroom",
        "BRING THE GLASS OF WATER FROM THE KITCHEN TO THE BEDROOM",
        "bring glass of water from kitchen to bedroom",
        "bring a glass of water from the kitchen to the bedroom",
        "take the glass of water from the kitchen to the bedroom",
        "take a glass of water from kitchen to the bedroom",
        "deliver the glass of water from the kitchen to the bedroom",
        "deliver glass of water from Kitchen to Bedroom",
        "carry the glass of water from the kitchen to the bedroom",
        "carry a glass of water from the kitchen to bedroom",
        "move the glass of water from the kitchen to the bedroom",
        "move glass of water from kitchen to bedroom",
        "please bring the glass of water from the kitchen to the bedroom",
        "Please take the glass of water from the Kitchen to the Bedroom",
        "bring the glass of water from the kitchen to the bedroom.",
        "bring the glass of water from the kitchen to the bedroom!",
        "bring  the glass of water  from the kitchen  to the bedroom",
        "Take The Glass Of Water From The Kitchen To The Bedroom",
        "deliver a glass of water from the kitchen to the bedroom",
    ]
    assert len(variants) == 20
    for text in variants:
        got = parse_command(text, five_zone_map)
        if (got.pickup, got.drop, got.item.lower()) != (
            canonical.pickup,
            canonical.drop,
            canonical.item.lower(),
        ):
            ok = False
            break
    errors_ok = True
    for text, exc in [
        ("go to the kitchen", UnparsableCommand),
        ("", UnparsableCommand),
        ("bring box from garage to bedroom", UnknownZone),
        ("bring box from kitchen to kitchen", SameZone),
    ]:
        try:
            parse_command(text, five_zone_map)
            errors_ok = False
        except exc:
            pass
        except Exception:
            errors_ok = False
    _report(
        capsys,
        "criterion 7: command grammar contract and error taxonomy",
        ok and errors_ok,
        "20 variants, 4 error cases",
    )
