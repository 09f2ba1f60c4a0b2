"""Independent computations the benchmark checks relaysim's outputs against.

Nothing here calls relaysim: the oracles work on plain numbers, tuples and
the public result objects' fields, so a fault in the library cannot hide by
being shared with its own check.
"""

from __future__ import annotations

import json
import math
from array import array
from collections import deque

TOL = 1e-9
# A known fault of select_active_agents (perfbench/README.md, Known faults):
# ops that fail only this check are counted as failed, and the run stays correct.
CHAIN_END_FAULT = "chain ends at robot"
_STEPS = ((0, 1), (0, -1), (1, 0), (-1, 0))


def nearest_robot(x: float, y: float, placements) -> int:
    """Brute-force nearest robot of a point; the lowest id wins exact ties."""
    best_id = None
    best = math.inf
    for rid, p in sorted(placements, key=lambda t: t[0]):
        dx = x - p.x
        dy = y - p.y
        d2 = dx * dx + dy * dy
        if d2 < best:
            best = d2
            best_id = rid
    return best_id


class FloorGrid:
    """Row-major free/blocked cells of a workspace, with breadth-first distances.

    Distance tables are kept per source cell: a run repeats the same trials
    round after round, so later rounds check for free.
    """

    def __init__(self, cols: int, rows: int, x0: float, y0: float, width: float,
                 height: float, blocked):
        self.cols = cols
        self.rows = rows
        self._x0, self._y0 = x0, y0
        self._cw, self._ch = width / cols, height / rows
        self.blocked = bytearray(cols * rows)
        self._tables: dict[int, array] = {}
        for col, row in blocked:
            self.blocked[row * cols + col] = 1

    @staticmethod
    def of(grid) -> "FloorGrid":
        """Snapshot of a relaysim OccupancyGrid."""
        ws = grid.workspace
        return FloorGrid(
            ws.grid_cols, ws.grid_rows, ws.min_corner.x, ws.min_corner.y,
            ws.max_corner.x - ws.min_corner.x, ws.max_corner.y - ws.min_corner.y,
            ((c.col, c.row) for c in grid.blocked),
        )

    def index(self, x: float, y: float) -> int:
        col = min(int(math.floor((x - self._x0) / self._cw)), self.cols - 1)
        row = min(int(math.floor((y - self._y0) / self._ch)), self.rows - 1)
        return row * self.cols + col

    def distances(self, source: int) -> array:
        """4-connected move counts from source to every cell; -1 where unreachable."""
        if source in self._tables:
            return self._tables[source]
        cols, rows, blocked = self.cols, self.rows, self.blocked
        dist = array("i", [-1]) * (cols * rows)
        dist[source] = 0
        queue = deque([source])
        while queue:
            cur = queue.popleft()
            col, row = cur % cols, cur // cols
            nd = dist[cur] + 1
            for dc, dr in _STEPS:
                c, r = col + dc, row + dr
                if 0 <= c < cols and 0 <= r < rows:
                    nb = r * cols + c
                    if dist[nb] < 0 and not blocked[nb]:
                        dist[nb] = nd
                        queue.append(nb)
        self._tables[source] = dist
        return dist


def _message_counts(messages) -> tuple[int, int, int]:
    kinds = [m.kind.value for m in messages]
    return kinds.count("HandoffReady"), kinds.count("HandoffAck"), kinds.count("TaskComplete")


def check_run(label: str, outcome) -> list[str]:
    """Checks that hold for any executed plan, relay or baseline."""
    errors = []
    rec, plan = outcome.record, outcome.plan
    if not rec.completed:
        errors.append(f"{label}: did not complete ({rec.ticks} ticks)")
    if sum(rec.per_agent_moves.values()) != rec.total_moves:
        errors.append(f"{label}: per-agent moves do not sum to total_moves")
    ready, ack, done = _message_counts(outcome.messages)
    n = len(plan.transfers)
    if (ready, ack, done) != (n, n, 1):
        errors.append(
            f"{label}: messages ready/ack/complete = {ready}/{ack}/{done}, "
            f"expected {n}/{n}/1"
        )
    return errors


def check_trial(floor: FloorGrid, placements, task, relay, baseline,
                baseline_moves: int) -> list[str]:
    """Every output check of one op: a relay trial and its paired baseline.

    baseline_moves is the figure the op reported for the baseline (the
    record's baseline_total_moves).
    """
    errors = check_run("relay", relay) + check_run("baseline", baseline)
    plan = relay.plan
    pos = dict(placements)
    want_first = nearest_robot(task.pickup.x, task.pickup.y, placements)
    want_last = nearest_robot(task.drop.x, task.drop.y, placements)
    if plan.active[0] != want_first:
        errors.append(f"chain starts at robot {plan.active[0]}, nearest to pickup is {want_first}")
    if plan.active[-1] != want_last:
        errors.append(f"{CHAIN_END_FAULT} {plan.active[-1]}, nearest to drop is {want_last}")

    for j, z in enumerate(plan.transfers):
        if plan.transfer_fallback[j]:
            continue
        a, b = plan.active[j], plan.active[j + 1]
        da = math.hypot(z.x - pos[a].x, z.y - pos[a].y)
        db = math.hypot(z.x - pos[b].x, z.y - pos[b].y)
        if abs(da - db) > TOL:
            errors.append(f"transfer {j} not equidistant from robots {a} and {b}: {da} vs {db}")
        for k, p in placements:
            if k not in (a, b) and math.hypot(z.x - p.x, z.y - p.y) < min(da, db) - TOL:
                errors.append(f"transfer {j} between {a} and {b} is closer to robot {k}")

    rid = baseline.plan.active[0]
    from_pickup = floor.distances(floor.index(task.pickup.x, task.pickup.y))
    to_pickup = from_pickup[floor.index(pos[rid].x, pos[rid].y)]
    to_drop = from_pickup[floor.index(task.drop.x, task.drop.y)]
    if to_pickup < 0 or to_drop < 0:
        errors.append("baseline legs unreachable by BFS")
    elif baseline_moves < to_pickup + to_drop:
        errors.append(f"baseline moves {baseline_moves} below BFS bound {to_pickup + to_drop}")
    if baseline_moves != baseline.record.total_moves:
        errors.append("record's baseline_total_moves differs from the baseline run")
    return errors


def _mean(values) -> float:
    return math.fsum(values) / len(values)


def check_summary(summary, records) -> list[str]:
    """Recompute the per-size statistics of summarize() from the records."""
    errors = []
    by_size: dict[int, list] = {}
    for rec in records:
        by_size.setdefault(rec.team_size, []).append(rec)
    if sorted(by_size) != sorted(summary.per_size):
        return [f"summary sizes {sorted(summary.per_size)} != record sizes {sorted(by_size)}"]
    for size, recs in sorted(by_size.items()):
        done = [r for r in recs if r.completed]
        stats = summary.per_size[size]
        per_agent = _mean([r.total_moves / r.active_count for r in done])
        base = _mean([r.baseline_total_moves for r in done])
        want = {
            "mean_total": _mean([r.total_moves for r in done]),
            "mean_per_agent": per_agent,
            "mean_active": _mean([r.active_count for r in done]),
            "reduction": 1.0 - per_agent / base if base > 0 else 0.0,
        }
        if (stats.trials, stats.completed) != (len(recs), len(done)):
            errors.append(f"size {size}: trial counts differ")
        for name, value in want.items():
            got = getattr(stats, name)
            if abs(got - value) > TOL:
                errors.append(f"size {size}: {name} {got} != recomputed {value}")
    return errors


def check_path(floor: FloorGrid, start: int, goal: int, cells) -> list[str]:
    """An A* path given as flat cell indices: it runs from start to goal in
    4-connected steps onto free cells, and no shorter path exists."""
    cols = floor.cols
    if not cells or cells[0] != start or cells[-1] != goal:
        return ["path does not run from start to goal"]
    for a, b in zip(cells, cells[1:]):
        if abs(a % cols - b % cols) + abs(a // cols - b // cols) != 1:
            return [f"path step {a}->{b} is not 4-connected"]
    if any(floor.blocked[c] for c in cells):
        return ["path enters a blocked cell"]
    dist = floor.distances(goal)
    if len(cells) - 1 != dist[start]:
        return [f"path length {len(cells) - 1} != BFS distance {dist[start]}"]
    return []


def check_cli_record(returncode: int, stdout: str, zone_anchor: dict, pickup: str,
                     drop: str, item: str) -> list[str]:
    """Output of one `relaysim run` process against the command it was given."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    lines = stdout.splitlines()
    if len(lines) != 1:
        return [f"{len(lines)} stdout lines, expected one JSON record"]
    try:
        rec = json.loads(lines[0])
    except ValueError:
        return ["stdout is not a JSON record"]
    errors = []
    if rec.get("completed") is not True:
        errors.append("record not completed")
    task = rec.get("task", {})
    if task.get("pickup") != list(zone_anchor[pickup]):
        errors.append(f"pickup {task.get('pickup')} != {pickup} anchor")
    if task.get("drop") != list(zone_anchor[drop]):
        errors.append(f"drop {task.get('drop')} != {drop} anchor")
    if task.get("item") != item:
        errors.append(f"item {task.get('item')!r} != {item!r}")
    if sum(rec.get("per_agent_moves", {}).values()) != rec.get("total_moves"):
        errors.append("per-agent moves do not sum to total_moves")
    return errors
