import contextlib
import copy
import hashlib
import io
import json
import math
import os
import re
import socket
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relaysim import geometry, simulation
from relaysim.cli import EXIT_EXECUTION, EXIT_OK, EXIT_OTHER, EXIT_PARSE, EXIT_PLANNING, main
from relaysim.geometry import Point, Workspace, compute_voronoi
from relaysim.nlu import TaskSpec
from relaysim.planning import build_relay_plan, plan_from_json
from relaysim.render import render_plan_svg
from relaysim.world import OccupancyGrid
from mapfiles import map_json
from test_nlu import _Handler, mock_endpoint  # noqa: F401  (fixture)

COMMAND = "bring the cup from the kitchen to the bedroom"
SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh_python(code: str, cwd: Path) -> dict:
    """Run code in a new interpreter with relaysim on its path; return the
    JSON object it prints last."""
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        cwd=cwd, capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture
def map_file(five_zone_map, workspace20, tmp_path):
    path = tmp_path / "map.json"
    path.write_text(map_json(five_zone_map, workspace20), encoding="utf-8")
    return str(path)


@pytest.fixture
def robots_file(tmp_path):
    path = tmp_path / "robots.json"
    path.write_text(json.dumps([[0, 5.5, 10.5], [1, 15.5, 10.5]]), encoding="utf-8")
    return str(path)


class TestPartition:
    def test_svg_output(self, map_file, robots_file, tmp_path):
        svg = tmp_path / "diagram.svg"
        code = main(["partition", "--map", map_file, "--robots", robots_file, "--svg", str(svg)])
        assert code == EXIT_OK
        assert svg.read_text(encoding="utf-8").startswith("<svg")


class TestPlan:
    def test_plan_schema(self, map_file, robots_file, tmp_path):
        out = tmp_path / "plan.json"
        code = main(
            ["plan", "--command", "bring the glass of water from the kitchen to the bedroom",
             "--map", map_file, "--robots", robots_file, "--out", str(out)]
        )
        assert code == EXIT_OK
        data = json.loads(out.read_text(encoding="utf-8"))
        assert set(data) >= {"task", "active", "transfers", "robots", "workspace"}
        assert "segments" not in data
        plan, robots, _ = plan_from_json(out.read_text(encoding="utf-8"))
        assert len(plan.transfers) == len(plan.active) - 1
        assert set(plan.active) <= {rid for rid, _ in robots}

    def test_svg_partitions_once(self, map_file, robots_file, tmp_path, monkeypatch):
        calls = []
        real = geometry.compute_voronoi

        def counting(robots, workspace):
            calls.append(robots)
            return real(robots, workspace)

        out, svg = tmp_path / "plan.json", tmp_path / "plan.svg"
        monkeypatch.setattr(geometry, "compute_voronoi", counting)
        code = main(
            ["plan", "--command", COMMAND, "--map", map_file, "--robots", robots_file,
             "--out", str(out), "--svg", str(svg)]
        )
        assert code == EXIT_OK
        assert len(calls) == 1
        # the SVG is the one `render --plan` draws from its own partition
        again = tmp_path / "again.svg"
        assert main(["render", "--plan", str(out), "--svg", str(again)]) == EXIT_OK
        assert svg.read_bytes() == again.read_bytes()

    def test_unknown_zone_exit_code(self, map_file, robots_file, capsys):
        code = main(
            ["plan", "--command", "bring box from garage to bedroom",
             "--map", map_file, "--robots", robots_file]
        )
        assert code == EXIT_PARSE
        assert "error:" in capsys.readouterr().err

    def test_unparsable_exit_code(self, map_file, robots_file):
        code = main(
            ["plan", "--command", "do something useful",
             "--map", map_file, "--robots", robots_file]
        )
        assert code == EXIT_PARSE

    def test_same_zone_exit_code(self, map_file, robots_file):
        code = main(
            ["plan", "--command", "bring box from kitchen to kitchen",
             "--map", map_file, "--robots", robots_file]
        )
        assert code == EXIT_PARSE


class TestRun:
    def test_run_from_command(self, map_file, robots_file, tmp_path):
        out = tmp_path / "record.jsonl"
        msgs = tmp_path / "messages.jsonl"
        code = main(
            ["run", "--command", "bring the glass of water from the kitchen to the bedroom",
             "--map", map_file, "--robots", robots_file,
             "--out", str(out), "--messages", str(msgs)]
        )
        assert code == EXIT_OK
        rec = json.loads(out.read_text(encoding="utf-8"))
        assert rec["completed"] is True
        assert rec["total_moves"] > 0
        lines = [json.loads(l) for l in msgs.read_text(encoding="utf-8").splitlines()]
        kinds = [m["kind"] for m in lines]
        assert kinds.count("TaskComplete") == 1

    def test_handoff_count_matches_plan(self, map_file, robots_file, tmp_path):
        plan_path = tmp_path / "plan.json"
        main(
            ["plan", "--command", "bring the glass of water from the kitchen to the bedroom",
             "--map", map_file, "--robots", robots_file, "--out", str(plan_path)]
        )
        plan, _, _ = plan_from_json(plan_path.read_text(encoding="utf-8"))
        msgs = tmp_path / "messages.jsonl"
        code = main(
            ["run", "--plan", str(plan_path), "--out", str(tmp_path / "rec.jsonl"),
             "--messages", str(msgs)]
        )
        assert code == EXIT_OK
        kinds = [
            json.loads(l)["kind"] for l in msgs.read_text(encoding="utf-8").splitlines()
        ]
        assert kinds.count("HandoffReady") == len(plan.transfers)
        assert kinds.count("HandoffAck") == len(plan.transfers)

    def test_robot_on_the_lower_edge_runs_from_robots_and_plan_alike(self, map_file, tmp_path):
        # the workspace's extent is half-open, [min, max): its lower edge lies inside
        robots = tmp_path / "robots.json"
        robots.write_text(json.dumps([[0, 0.0, 10.5], [1, 15.5, 10.5]]), encoding="utf-8")
        sources = ["--command", COMMAND, "--map", map_file, "--robots", str(robots)]
        plan_path, stored, direct = (tmp_path / n for n in ("plan.json", "a.jsonl", "b.jsonl"))
        assert main(["plan", *sources, "--out", str(plan_path)]) == EXIT_OK
        assert main(["run", "--plan", str(plan_path), "--out", str(stored)]) == EXIT_OK
        assert main(["run", *sources, "--out", str(direct)]) == EXIT_OK
        assert stored.read_bytes() == direct.read_bytes()
        assert json.loads(stored.read_text(encoding="utf-8"))["completed"] is True

    def test_robots_sharing_a_cell_exit_3(self, map_file, tmp_path, capsys):
        robots = tmp_path / "robots.json"
        rows = [[0, 5.2, 10.2], [1, 5.7, 10.7], [2, 15.5, 10.5]]
        robots.write_text(json.dumps(rows), encoding="utf-8")
        code = main(
            ["run", "--command", COMMAND, "--map", map_file, "--robots", str(robots),
             "--out", str(tmp_path / "rec.jsonl")]
        )
        assert code == EXIT_PLANNING
        assert capsys.readouterr().err.splitlines() == [
            "error: robots 0 and 1 start in the same cell GridCell(col=5, row=10)"
        ]

    @staticmethod
    def run_from_the_pickup_cell(zones, command, tmp_path, monkeypatch):
        """Run `command` with robot 0 on the pickup's cell; the record, the
        message log and each FSM event as (robot, kind, tick)."""
        events = []
        real = simulation.fsm_step

        def recording(fsm, event):
            events.append((fsm.robot_id, event.kind.value, event.tick))
            return real(fsm, event)

        monkeypatch.setattr(simulation, "fsm_step", recording)
        paths = {n: tmp_path / f"{n}.json" for n in ("map", "robots", "rec", "msgs")}
        paths["map"].write_text(json.dumps(_map(zones=zones)), encoding="utf-8")
        paths["robots"].write_text(json.dumps([[0, 2.5, 2.5], [1, 15.5, 15.5]]), encoding="utf-8")
        code = main(
            ["run", "--command", command, "--map", str(paths["map"]),
             "--robots", str(paths["robots"]), "--out", str(paths["rec"]),
             "--messages", str(paths["msgs"])]
        )
        assert code == EXIT_OK
        rec = json.loads(paths["rec"].read_text(encoding="utf-8"))
        log = [json.loads(l) for l in paths["msgs"].read_text(encoding="utf-8").splitlines()]
        return rec, [(m["kind"], m["from"], m["tick"]) for m in log], events

    def test_pickup_and_drop_in_one_cell_complete_at_tick_0(self, tmp_path, monkeypatch):
        rec, log, events = self.run_from_the_pickup_cell(
            {"C": [2.2, 2.2], "D": [2.7, 2.7]}, "bring the cup from C to D", tmp_path, monkeypatch
        )
        assert (rec["completed"], rec["ticks"], rec["total_moves"]) == (True, 0, 0)
        assert log == [("TaskComplete", 0, 0)]
        assert events == [
            (0, "AssignSegment", 0), (0, "ArrivedWaypoint", 0), (0, "PickupDone", 0),
            (0, "ArrivedWaypoint", 0), (0, "DropDone", 0),
        ]

    def test_robot_on_the_pickup_cell_picks_up_at_tick_0(self, tmp_path, monkeypatch):
        rec, log, events = self.run_from_the_pickup_cell(
            {"A": [2.5, 2.5], "B": [17.5, 17.5]}, "bring the cup from A to B", tmp_path, monkeypatch
        )
        assert (rec["completed"], rec["ticks"], rec["per_agent_moves"]) == (
            True, 28, {"0": 13, "1": 26}
        )
        assert log == [("HandoffReady", 0, 13), ("HandoffAck", 1, 13), ("TaskComplete", 1, 28)]
        assert [e for e in events if e[2] == 0] == [
            (0, "AssignSegment", 0), (0, "ArrivedWaypoint", 0), (0, "PickupDone", 0),
            (1, "AssignSegment", 0),
        ]

    def test_budget_exceeded_exit_code(self, map_file, robots_file, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"tick_budget": 1}), encoding="utf-8")
        rec = tmp_path / "rec.jsonl"
        code = main(
            ["run", "--command", "bring box from kitchen to bedroom",
             "--map", map_file, "--robots", robots_file,
             "--config", str(cfg), "--out", str(rec)]
        )
        assert code == EXIT_EXECUTION
        # the record is written before the run fails
        assert json.loads(rec.read_text(encoding="utf-8"))["completed"] is False
        assert capsys.readouterr().err.splitlines() == [
            "error: trial did not complete within the tick budget"
        ]


# Maps that are not the 20x20 unit-cell default, each with a team that
# includes a bystander (the last robot): workspace, zones, robots.
MAPS = {
    "30x30": (
        {"min": [0, 0], "max": [30, 30], "cols": 30, "rows": 30},
        {"Kitchen": [2.5, 27.5], "Bedroom": [27.5, 2.5]},
        [[0, 5.5, 20.5], [1, 20.5, 5.5], [3, 12.5, 12.5], [2, 27.5, 27.5]],
    ),
    "minus10-10": (
        {"min": [-10, -10], "max": [10, 10], "cols": 20, "rows": 20},
        {"Kitchen": [-7.5, 7.5], "Bedroom": [7.5, -7.5]},
        [[0, -5.5, 2.5], [1, 4.5, -5.5], [3, -0.5, -0.5], [2, 7.5, 7.5]],
    ),
    "half-cells": (
        {"min": [0, 0], "max": [10, 10], "cols": 20, "rows": 20},
        {"Kitchen": [1.25, 8.75], "Bedroom": [8.75, 1.25]},
        [[0, 2.75, 6.25], [1, 6.75, 2.75], [3, 4.75, 4.75], [2, 8.75, 8.75]],
    ),
    "5x5": (
        {"min": [0, 0], "max": [5, 5], "cols": 5, "rows": 5},
        {"Kitchen": [0.5, 4.5], "Bedroom": [4.5, 0.5]},
        [[0, 1.5, 3.5], [1, 3.5, 1.5], [2, 4.5, 4.5]],
    ),
}


class TestRunOnAnyMap:
    @pytest.mark.parametrize("name", sorted(MAPS))
    def test_stored_plan_runs_like_the_command(self, name, tmp_path):
        ws, zones, team = MAPS[name]
        map_path, robots_path = tmp_path / "map.json", tmp_path / "robots.json"
        map_path.write_text(json.dumps({"workspace": ws, "zones": zones}), encoding="utf-8")
        robots_path.write_text(json.dumps(team), encoding="utf-8")
        sources = ["--map", str(map_path), "--robots", str(robots_path)]
        plan_path = tmp_path / "plan.json"
        assert main(["plan", "--command", COMMAND, *sources, "--out", str(plan_path)]) == EXIT_OK
        plan, robots, _ = plan_from_json(plan_path.read_text(encoding="utf-8"))
        assert len(robots) == len(team) and team[-1][0] not in plan.active

        stored, direct = tmp_path / "stored.jsonl", tmp_path / "direct.jsonl"
        msgs = tmp_path / "messages.jsonl"
        assert main(["run", "--plan", str(plan_path), "--out", str(stored),
                     "--messages", str(msgs)]) == EXIT_OK
        assert main(["run", "--command", COMMAND, *sources, "--out", str(direct)]) == EXIT_OK
        assert stored.read_bytes() == direct.read_bytes()
        rec = json.loads(stored.read_text(encoding="utf-8"))
        assert rec["completed"] is True
        assert rec["team_size"] == len(team)
        # a HandoffAck is sent from the receiver's cell centre, so it lies on
        # the map's own grid, not on a default unit grid
        cell = [(hi - lo) / n for lo, hi, n in zip(ws["min"], ws["max"], (ws["cols"], ws["rows"]))]
        messages = [json.loads(line) for line in msgs.read_text(encoding="utf-8").splitlines()]
        acks = [m["at"] for m in messages if m["kind"] == "HandoffAck"]
        assert len(acks) == len(plan.transfers) >= 1
        for at in acks:
            for v, lo, w in zip(at, ws["min"], cell):
                k = (v - lo) / w - 0.5
                assert math.isclose(k, round(k), abs_tol=1e-9)

    @pytest.mark.parametrize("name", sorted(MAPS))
    def test_plan_svg_stays_on_the_canvas(self, name, tmp_path):
        ws, zones, team = MAPS[name]
        map_path, robots_path = tmp_path / "map.json", tmp_path / "robots.json"
        map_path.write_text(json.dumps({"workspace": ws, "zones": zones}), encoding="utf-8")
        robots_path.write_text(json.dumps(team), encoding="utf-8")
        svg_path = tmp_path / "plan.svg"
        assert main(["plan", "--command", COMMAND, "--map", str(map_path),
                     "--robots", str(robots_path), "--svg", str(svg_path)]) == EXIT_OK
        svg = svg_path.read_text(encoding="utf-8")
        width, height = (float(re.search(f'<svg [^>]*{k}="([^"]+)"', svg)[1])
                         for k in ("width", "height"))
        xs = [float(v) for v in re.findall(r' (?:cx|x1|x2|x)="([^"]+)"', svg)]
        ys = [float(v) for v in re.findall(r' (?:cy|y1|y2|y)="([^"]+)"', svg)]
        for points in re.findall(r' points="([^"]+)"', svg):
            for pair in points.split():
                x, y = pair.split(",")
                xs.append(float(x))
                ys.append(float(y))
        assert xs and ys
        assert all(0 <= x <= width for x in xs)
        assert all(0 <= y <= height for y in ys)


# Plan-file cases give a function that edits a real plan file's JSON in place.
def _without_robots(data):
    del data["robots"]


def _duplicate_robot_id(data):
    data["robots"].append([data["robots"][0][0], 10.5, 3.5])


def _unknown_active_id(data):
    data["active"][-1] = 9


def _one_transfer_short(data):
    del data["transfers"][-1]
    del data["transfer_fallback"][-1]


def _duplicate_active(data):
    data["active"].append(data["active"][0])
    data["transfers"].append(data["transfers"][0])
    data["transfer_fallback"].append(False)


def _empty_active(data):
    data["active"] = []
    data["transfers"] = []
    data["transfer_fallback"] = []


def _one_fallback_flag_short(data):
    del data["transfer_fallback"][-1]


def _transfer_outside(data):
    data["transfers"][0] = [500, 500]


def _robot_outside(data):
    data["robots"][0][1:] = [-50, 10.5]


def _pickup_outside(data):
    data["task"]["pickup"] = [-3, 17.5]


# the workspace's extent is half-open, [min, max): its upper edge lies outside
def _pickup_on_upper_edge(data):
    data["task"]["pickup"] = [2.5, 20.0]


def _robot_on_upper_edge(data):
    data["robots"][0][1:] = [20.0, 10.5]


def _transfer_not_numbers(data):
    data["transfers"][0] = ["10", True]


def _fractional_active_id(data):
    data["active"][0] += 0.9


def _string_baseline_flag(data):
    data["baseline"] = "false"


def _string_fallback_flag(data):
    data["transfer_fallback"][0] = "no"


def _numeric_item(data):
    data["task"]["item"] = 5


def _list_source_text(data):
    data["task"]["source_text"] = [COMMAND]


def _map(zones=None, **workspace):
    """The two-zone 20x20 map, with the zones or workspace fields given."""
    return {"workspace": {"min": [0, 0], "max": [20, 20], "cols": 20, "rows": 20, **workspace},
            "zones": zones or {"kitchen": [2.5, 17.5], "bedroom": [17.5, 2.5]}}


def _map_with_kitchen_at(x, y):
    return _map(zones={"kitchen": [x, y], "bedroom": [17.5, 2.5]})


DUPLICATE_ID_ROBOTS = [[0, 5.5, 14.5], [0, 14.5, 5.5], [2, 10.5, 10.5]]

RUN_ROBOTS = ["run", "--command", COMMAND, "--map", "{map}", "--robots", "{bad}"]
RUN_MAP = ["run", "--command", COMMAND, "--map", "{bad}", "--robots", "{robots}"]


class TestMalformedInput:
    @pytest.mark.parametrize(
        "argv,content",
        [
            (["run", "--plan", "{bad}"], _without_robots),
            (["plan", "--command", COMMAND, "--map", "{map}", "--robots", "{bad}"],
             [[0, 1.5]]),
            (["run", "--command", COMMAND, "--map", "{map}", "--robots", "{robots}",
              "--config", "{bad}"], {"tick_limit": 5}),
            (["batch", "--seed", "1", "--config", "{bad}"], {"tick_limit": 5}),
            (["run", "--command", COMMAND, "--map", "{map}", "--robots", "{robots}",
              "--config", "{bad}"], {"team_sizes": [3]}),
            (["batch", "--seed", "1", "--config", "{bad}"], {"team_sizes": [0]}),
            (["run", "--command", COMMAND, "--map", "{map}", "--robots", "{robots}",
              "--config", "{bad}"], {"message_delay": "2"}),
            (["run", "--command", COMMAND, "--map", "{map}", "--robots", "{robots}",
              "--config", "{bad}"], {"message_delay": -3}),
            (["run", "--command", COMMAND, "--map", "{map}", "--robots", "{robots}",
              "--config", "{bad}"], {"tick_budget": 0}),
            (["batch", "--seed", "1", "--config", "{bad}"], {"team_sizes": [2.7]}),
            (["batch", "--seed", "3", "--trials", "1", "--team-sizes", "1", "--config", "{bad}"],
             {"grid_cols": 0}),
            (["batch", "--seed", "3", "--trials", "1", "--config", "{bad}"],
             {"team_sizes": [500]}),
            (["partition", "--map", "{bad}", "--robots", "{robots}", "--svg", "{svg}"], "{not json"),
            (["partition", "--map", "{map}", "--robots", "{bad}", "--svg", "{svg}"],
             DUPLICATE_ID_ROBOTS),
            (["plan", "--command", COMMAND, "--map", "{map}", "--robots", "{bad}"],
             DUPLICATE_ID_ROBOTS),
            (["run", "--command", COMMAND, "--map", "{map}", "--robots", "{bad}"],
             DUPLICATE_ID_ROBOTS),
            (["run", "--plan", "{bad}"], _duplicate_robot_id),
            (["run", "--plan", "{bad}"], _unknown_active_id),
            (["run", "--plan", "{bad}"], _one_transfer_short),
            (["run", "--plan", "{bad}"], _duplicate_active),
            (["run", "--plan", "{bad}"], _empty_active),
            (["run", "--plan", "{bad}"], _one_fallback_flag_short),
            (["run", "--plan", "{bad}"], _transfer_outside),
            (["run", "--plan", "{bad}"], _robot_outside),
            (["run", "--plan", "{bad}"], _pickup_outside),
            (["run", "--plan", "{bad}"], _pickup_on_upper_edge),
            (["run", "--plan", "{bad}"], _robot_on_upper_edge),
            (["run", "--command", COMMAND, "--map", "{bad}", "--robots", "{robots}"],
             _map_with_kitchen_at(20.0, 17.5)),
            (["run", "--command", COMMAND, "--map", "{bad}", "--robots", "{robots}"],
             _map_with_kitchen_at(25, 17.5)),
            (["batch", "--seed", "1", "--config", "{bad}"], {"min_task_separation": math.nan}),
            (["batch", "--seed", "1", "--config", "{bad}"], {"min_task_separation": True}),
            (RUN_ROBOTS, [[0, 20.0, 10.5], [1, 15.5, 10.5]]),
            (RUN_ROBOTS, [[0, 25, 10.5], [1, 15.5, 10.5]]),
            (["partition", "--map", "{map}", "--robots", "{bad}", "--svg", "{svg}"],
             [[0, 5.5, -0.5]]),
            (RUN_ROBOTS, [[0.9, 5.5, 10.5], [1.2, 15.5, 10.5]]),
            (RUN_ROBOTS, [[True, 5.5, 10.5], [2, 15.5, 10.5]]),
            (RUN_ROBOTS, [[0, math.nan, 10.5], [1, 15.5, 10.5]]),
            (RUN_MAP, _map(cols=True)),
            (RUN_MAP, _map(cols=2.5)),
            (RUN_MAP, _map(cols=0)),
            (RUN_MAP, _map(min=[20, 0])),
            (RUN_MAP, _map(max=[20, 1e300])),
            (RUN_MAP, _map(max=[1e300, 20])),
            (RUN_MAP, _map(cols=geometry.MAX_GRID_CELLS + 1, rows=1)),
            (RUN_MAP, _map(max=[5e-324, 20], zones={"kitchen": [0, 17.5], "bedroom": [0, 2.5]})),
            (RUN_MAP, _map(zones={"kitchen": [math.nan, 17.5], "bedroom": [17.5, 2.5]})),
            (RUN_MAP, _map(zones={"Kitchen": [2.5, 17.5], " kitchen": [3.5, 17.5],
                                  "bedroom": [17.5, 2.5]})),
            (RUN_ROBOTS, [[0, "5.5", 10.5], [1, True, 10.5]]),
            (RUN_ROBOTS, "[[0, 5.5, 1" + "0" * 400 + "], [1, 15.5, 10.5]]"),
            (RUN_MAP, _map_with_kitchen_at("2.5", "17.5")),
            (["run", "--plan", "{bad}"], _transfer_not_numbers),
            (["run", "--plan", "{bad}"], _fractional_active_id),
            (["run", "--plan", "{bad}"], _string_baseline_flag),
            (["run", "--plan", "{bad}"], _string_fallback_flag),
            (["run", "--plan", "{bad}"], _numeric_item),
            (["run", "--plan", "{bad}"], _list_source_text),
            (["batch", "--seed", "3", "--config", "{bad}"], {"seed": 7}),
            (["run", "--plan", "{bad}"], "[" * 100_000 + "]" * 100_000),
            (RUN_MAP, "[" * 100_000 + "]" * 100_000),
            (RUN_ROBOTS, "[" * 100_000 + "]" * 100_000),
            (["batch", "--seed", "3", "--config", "{bad}"], "[" * 100_000 + "]" * 100_000),
        ],
        ids=["plan-without-robots", "short-robots-row", "unknown-config-key",
             "unknown-batch-config-key", "batch-key-in-run-config", "zero-team-size-batch-config",
             "string-message-delay", "negative-message-delay", "zero-tick-budget",
             "fractional-team-size-batch-config", "zero-grid-cols-batch-config",
             "team-larger-than-grid-batch-config",
             "map-not-json",
             "duplicate-robot-id-partition", "duplicate-robot-id-plan",
             "duplicate-robot-id-run", "plan-with-duplicate-robot-id",
             "plan-active-id-not-in-robots", "plan-one-transfer-short",
             "plan-robot-twice-in-active", "plan-empty-active",
             "plan-one-fallback-flag-short", "plan-transfer-outside-workspace",
             "plan-robot-outside-workspace", "plan-pickup-outside-workspace",
             "plan-pickup-on-upper-edge", "plan-robot-on-upper-edge",
             "map-anchor-on-upper-edge", "map-anchor-outside-workspace",
             "nan-task-separation-batch-config", "boolean-task-separation-batch-config",
             "robot-on-upper-edge", "robot-outside-workspace", "robot-below-lower-edge",
             "fractional-robot-ids", "boolean-robot-id", "nan-robot-coordinate",
             "boolean-map-cols", "fractional-map-cols", "zero-map-cols",
             "map-min-not-below-max", "map-too-tall-for-squared-distances",
             "map-too-wide-for-squared-distances", "map-one-cell-over-the-ceiling",
             "map-cells-of-zero-width", "nan-zone-anchor",
             "zones-equal-after-normalization",
             "string-and-boolean-robot-coordinates",
             "robot-coordinate-too-large-for-a-float", "string-zone-anchor", "plan-transfer-not-numbers", "plan-fractional-active-id",
             "plan-string-baseline-flag", "plan-string-fallback-flag", "plan-numeric-item",
             "plan-list-source-text", "seed-in-batch-config", "plan-nested-too-deep",
             "map-nested-too-deep", "robots-nested-too-deep", "batch-config-nested-too-deep"],
    )
    def test_one_error_line_naming_the_file_and_exit_2(
        self, argv, content, map_file, robots_file, tmp_path, capsys, monkeypatch
    ):
        def run_batch(*args, **kwargs):
            pytest.fail("run_batch ran although its config file is malformed")

        def simulate(*args, **kwargs):
            pytest.fail("simulate ran although an input file is malformed")

        monkeypatch.setattr(simulation, "run_batch", run_batch)
        monkeypatch.setattr(simulation, "simulate", simulate)
        bad = tmp_path / "bad.json"
        if callable(content):
            main(["plan", "--command", COMMAND, "--map", map_file, "--robots", robots_file,
                  "--out", str(bad)])
            data = json.loads(bad.read_text(encoding="utf-8"))
            content(data)
            content = data
        text = content if isinstance(content, str) else json.dumps(content)
        bad.write_text(text, encoding="utf-8")
        capsys.readouterr()
        paths = {"bad": str(bad), "map": map_file, "robots": robots_file,
                 "svg": str(tmp_path / "out.svg")}
        assert main([arg.format(**paths) for arg in argv]) == EXIT_PARSE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {bad}: ")


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            ["run"],
            ["run", "--command", COMMAND],
            ["run", "--command", COMMAND, "--map", "map.json"],
            ["run", "--command", COMMAND, "--robots", "robots.json"],
            ["run", "--plan", "plan.json", "--command", COMMAND],
            ["render", "--svg", "out.svg"],
            ["partition", "--map", "map.json", "--robots", "robots.json"],
            ["batch", "--seed", "1", "--team-sizes", "1", "--trials", "0"],
            ["batch", "--seed", "1", "--team-sizes", ""],
            ["batch", "--seed", "1", "--team-sizes", "0"],
            ["batch", "--seed", "1", "--team-sizes", "1,x"],
            ["run", "--plan", "plan.json", "--map", "map.json"],
            ["run", "--plan", "plan.json", "--robots", "robots.json"],
            ["run", "--plan", "plan.json", "--endpoint", "http://localhost:9"],
            ["partition", "--map", "map.json", "--robots", "robots.json", "--svg", "out.svg",
             "--out", "diagram.json"],
            ["render", "--diagram", "diagram.json", "--svg", "out.svg"],
            *([sub, "--command", COMMAND, "--map", "map.json", "--robots", "robots.json",
               "--endpoint", "http://127.0.0.1:9/", "--fallback", "on", "--timeout", t]
              for sub, t in (("plan", "inf"), ("run", "1e400"), ("plan", "-1"),
                             ("run", "nan"), ("plan", "0"), ("run", "1e10"))),
        ],
    )
    def test_missing_or_conflicting_inputs_exit_2(self, argv, capsys, monkeypatch):
        def run_batch(*args, **kwargs):
            pytest.fail("run_batch ran although its flags are invalid")

        monkeypatch.setattr(simulation, "run_batch", run_batch)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_team_size_flag_larger_than_the_grid_exits_2(self, capsys, monkeypatch):
        def run_batch(*args, **kwargs):
            pytest.fail("run_batch ran although its team size does not fit the grid")

        monkeypatch.setattr(simulation, "run_batch", run_batch)
        assert main(["batch", "--seed", "3", "--trials", "1", "--team-sizes", "399"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_repeated_team_size_flag_exits_2(self, capsys, monkeypatch):
        def run_batch(*args, **kwargs):
            pytest.fail("run_batch ran although a team size repeats")

        monkeypatch.setattr(simulation, "run_batch", run_batch)
        assert main(["batch", "--seed", "1", "--trials", "2", "--team-sizes", "3,3"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: team_sizes must not repeat a size"
        ]


# JSON values a mutation writes: small numbers, the float extremes, other types
MUTANTS = [0, 1, 2, 3, -1, 20, 0.5, 2.5, -0.0, 5e-324, 1e300, -1e300, sys.float_info.max,
           math.inf, -math.inf, math.nan, True, False, None, "", "kitchen", [], [2.5, 17.5], {}]


def _mutate(data, path, op, value):
    """Edit the node that `path` leads to: an int step picks a child by
    position (modulo their count, dict keys sorted), a str step by key."""
    parent = key = None
    node = data
    for step in path:
        if not isinstance(node, (dict, list)) or not node:
            break
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, step if isinstance(step, str) else keys[step % len(keys)]
        node = node[key]
    value = copy.deepcopy(value)  # MUTANTS' lists and dicts stay as they are
    if parent is None:
        return value if op == "replace" else data
    if op == "replace":
        parent[key] = value
    elif op == "delete":
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, copy.deepcopy(node))
    else:  # a second key, which for a zone is the same name after normalization
        parent[key + " "] = copy.deepcopy(node)
    return data


@pytest.fixture(scope="module")
def run_inputs(tmp_path_factory):
    """The map, robots and plan files of one `relaysim plan` on a 20x20
    three-zone map, and a config with a small tick budget."""
    d = tmp_path_factory.mktemp("run_inputs")
    data = {
        "map": _map(zones={"kitchen": [2.5, 17.5], "bedroom": [17.5, 2.5], "hall": [10.5, 10.5]}),
        "robots": [[0, 5.5, 14.5], [1, 14.5, 5.5], [2, 10.5, 10.5]],
    }
    for name in data:
        (d / f"{name}.json").write_text(json.dumps(data[name]), encoding="utf-8")
    (d / "config.json").write_text(json.dumps({"tick_budget": 100}), encoding="utf-8")
    args = ["--command", COMMAND, "--map", str(d / "map.json"), "--robots", str(d / "robots.json")]
    assert main(["plan", *args, "--out", str(d / "plan.json")]) == EXIT_OK
    data["plan"] = json.loads((d / "plan.json").read_text(encoding="utf-8"))
    return d, data


class TestAnyRunInput:
    @settings(max_examples=150, deadline=None)
    @given(
        target=st.sampled_from(["map", "robots", "plan"]),
        edits=st.lists(
            st.tuples(st.lists(st.integers(0, 7), max_size=4),
                      st.sampled_from(["replace", "delete", "duplicate"]),
                      st.sampled_from(MUTANTS)),
            min_size=1, max_size=2,
        ),
    )
    @example(target="map", edits=[(["workspace", "max", 1], "replace", 1e300)])
    @example(target="map", edits=[(["workspace", "cols"], "replace", geometry.MAX_GRID_CELLS + 1),
                                  (["workspace", "rows"], "replace", 1)])
    def test_runs_or_fails_with_one_error_line(self, run_inputs, target, edits):
        d, data = run_inputs
        mutated = copy.deepcopy(data[target])
        for path, op, value in edits:
            mutated = _mutate(mutated, path, op, value)
        bad = d / "bad.json"
        bad.write_text(json.dumps(mutated), encoding="utf-8")
        files = {name: str(d / f"{name}.json") for name in data}
        files[target] = str(bad)
        if target == "plan":
            source = ["--plan", files["plan"]]
        else:
            source = ["--command", COMMAND, "--map", files["map"], "--robots", files["robots"]]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(["run", *source, "--config", str(d / "config.json"),
                         "--out", str(d / "record.jsonl")])
        assert code in (EXIT_OK, EXIT_PARSE, EXIT_PLANNING, EXIT_EXECUTION)
        err = stderr.getvalue().splitlines()
        assert len(err) == (code != EXIT_OK) and all(e.startswith("error: ") for e in err)


class TestExternalInterpreter:
    def test_unreachable_endpoint_exits_1(self, map_file, robots_file):
        with socket.socket() as sock:  # a port that was free a moment ago refuses connections
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        code = main(
            ["plan", "--command", COMMAND, "--map", map_file, "--robots", robots_file,
             "--endpoint", f"http://127.0.0.1:{port}/",
             "--fallback", "off", "--timeout", "2"]
        )
        assert code == EXIT_OTHER

    def test_error_reply_exits_2(self, map_file, robots_file, mock_endpoint):
        _Handler.status = 500
        code = main(
            ["plan", "--command", COMMAND, "--map", map_file, "--robots", robots_file,
             "--endpoint", mock_endpoint,
             "--fallback", "off", "--timeout", "2"]
        )
        assert code == EXIT_PARSE

    @pytest.mark.parametrize(
        "reply,line",
        [
            (b"not json", "error: reply is not JSON: Expecting value: line 1 column 1 (char 0)"),
            ({"pickup": "Kitchen", "drop": "kitchen", "item": "cup"},
             "error: interpreter returned identical zones 'Kitchen'"),
            ({"pickup": 5, "drop": "Bedroom", "item": "cup"},
             "error: reply's pickup, drop and item must be strings"),
            ({"pickup": "Kitchen", "drop": "Bedroom", "item": ["cup"]},
             "error: reply's pickup, drop and item must be strings"),
        ],
        ids=["not-json", "one-zone-twice", "numeric-pickup", "list-item"],
    )
    def test_unusable_reply_exits_2_without_fallback(
        self, reply, line, map_file, robots_file, mock_endpoint, capsys
    ):
        _Handler.reply = reply
        code = main(
            ["run", "--command", COMMAND, "--map", map_file, "--robots", robots_file,
             "--endpoint", mock_endpoint, "--fallback", "off", "--timeout", "2"]
        )
        assert code == EXIT_PARSE
        assert capsys.readouterr().err.splitlines() == [line]

    def test_reply_that_is_not_json_falls_back_to_the_grammar_record(
        self, map_file, robots_file, mock_endpoint, tmp_path
    ):
        _Handler.reply = b"not json"
        sources = ["--command", COMMAND, "--map", map_file, "--robots", robots_file]
        external, grammar = tmp_path / "external.jsonl", tmp_path / "grammar.jsonl"
        assert main(["run", *sources, "--endpoint", mock_endpoint, "--timeout", "2",
                     "--out", str(external)]) == EXIT_OK
        assert main(["run", *sources, "--out", str(grammar)]) == EXIT_OK
        assert len(_Handler.seen) == 1
        assert external.read_bytes() == grammar.read_bytes()

    def test_reply_with_a_numeric_zone_falls_back_to_the_grammar_record(
        self, map_file, robots_file, mock_endpoint, tmp_path
    ):
        _Handler.reply = {"pickup": 5, "drop": "Bedroom", "item": "cup"}
        sources = ["--command", COMMAND, "--map", map_file, "--robots", robots_file]
        external, grammar = tmp_path / "external.jsonl", tmp_path / "grammar.jsonl"
        assert main(["run", *sources, "--endpoint", mock_endpoint, "--timeout", "2",
                     "--out", str(external)]) == EXIT_OK
        assert main(["run", *sources, "--out", str(grammar)]) == EXIT_OK
        assert len(_Handler.seen) == 1
        assert external.read_bytes() == grammar.read_bytes()


class TestBatch:
    @pytest.mark.parametrize("flag", ["--out-csv", "--out"])
    def test_bad_output_path_fails_before_the_batch(self, flag, tmp_path, monkeypatch):
        def run_batch(*args, **kwargs):
            pytest.fail("run_batch ran although an output could not be opened")

        monkeypatch.setattr(simulation, "run_batch", run_batch)
        bad = str(tmp_path / "missing" / "out.txt")
        assert main(["batch", "--seed", "1", "--trials", "1", flag, bad]) == EXIT_OTHER

    def test_default_seed_artifacts_digests(self, tmp_path, capsys):
        """The default-seed summary.csv / trials.jsonl, byte for byte."""
        csv, jsonl = tmp_path / "summary.csv", tmp_path / "trials.jsonl"
        args = ["batch", "--seed", "12345", "--out-csv", str(csv), "--out", str(jsonl)]
        assert main(args) == EXIT_OK
        assert hashlib.sha256(csv.read_bytes()).hexdigest() == (
            "17649d429f443196bcf15ca5b4587cee691d33a4eda92d71585e9144495149ec"
        )
        assert hashlib.sha256(jsonl.read_bytes()).hexdigest() == (
            "96d44651b518e3a6bbe8a1aa9faa008c9a375518a2f3babad1412510b5832eb3"
        )

    def test_requires_seed(self, capsys):
        assert main(["batch", "--team-sizes", "1", "--trials", "1"]) == EXIT_PARSE

    def test_placement_exhausted_exits_3(self, tmp_path, capsys):
        # no two cell centres of a 2x2 grid lie 1.5 apart, so no task can be placed
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"grid_cols": 2, "grid_rows": 2, "team_sizes": [2],
                                   "trials_per_size": 1, "min_task_separation": 1.5}))
        assert main(["batch", "--seed", "1", "--config", str(cfg)]) == EXIT_PLANNING
        assert capsys.readouterr().err.splitlines() == [
            "error: could not satisfy task placement constraints"
        ]

    def test_outputs_and_byte_identical_rerun(self, tmp_path, capsys):
        args = [
            "batch", "--seed", "12345", "--team-sizes", "1,3", "--trials", "3",
        ]
        csv1, jsonl1 = tmp_path / "a.csv", tmp_path / "a.jsonl"
        csv2, jsonl2 = tmp_path / "b.csv", tmp_path / "b.jsonl"
        assert main(args + ["--out-csv", str(csv1), "--out", str(jsonl1)]) == EXIT_OK
        out1 = capsys.readouterr().out
        assert main(args + ["--out-csv", str(csv2), "--out", str(jsonl2)]) == EXIT_OK
        out2 = capsys.readouterr().out
        assert csv1.read_bytes() == csv2.read_bytes()
        assert jsonl1.read_bytes() == jsonl2.read_bytes()
        assert out1 == out2
        header = csv1.read_text(encoding="utf-8").splitlines()[0]
        assert header == "team_size,mean_total,std_total,mean_per_agent,mean_active,reduction"
        records = [json.loads(l) for l in jsonl1.read_text(encoding="utf-8").splitlines()]
        assert len(records) == 6
        assert all(r["completed"] for r in records)


class TestRender:
    def test_render_stored_plan(self, map_file, robots_file, tmp_path):
        plan_path = tmp_path / "plan.json"
        main(
            ["plan", "--command", "bring box from kitchen to bedroom",
             "--map", map_file, "--robots", robots_file, "--out", str(plan_path)]
        )
        svg = tmp_path / "plan.svg"
        code = main(
            ["render", "--plan", str(plan_path), "--svg", str(svg)]
        )
        assert code == EXIT_OK
        assert "<svg" in svg.read_text(encoding="utf-8")

    def test_plan_file_with_segments_runs_and_renders_the_same(
        self, map_file, robots_file, tmp_path
    ):
        """Plan files written before `segments` was dropped still load; the key
        is ignored, even when it disagrees with the chain."""
        plan_path, legacy_path = tmp_path / "plan.json", tmp_path / "legacy.json"
        assert main(
            ["plan", "--command", "bring the glass of water from the kitchen to the bedroom",
             "--map", map_file, "--robots", robots_file, "--out", str(plan_path)]
        ) == EXIT_OK
        data = json.loads(plan_path.read_text(encoding="utf-8"))
        data["segments"] = [[[0.5, 0.5], [1.5, 1.5], [2.5, 2.5]]]
        legacy_path.write_text(json.dumps(data), encoding="utf-8")
        outputs = []
        for path in (plan_path, legacy_path):
            rec, msgs, svg = (tmp_path / f"{path.stem}.{ext}" for ext in ("jsonl", "msgs", "svg"))
            assert main(["run", "--plan", str(path), "--out", str(rec),
                         "--messages", str(msgs)]) == EXIT_OK
            assert main(["render", "--plan", str(path), "--svg", str(svg)]) == EXIT_OK
            outputs.append([f.read_bytes() for f in (rec, msgs, svg)])
        assert outputs[0] == outputs[1]

    def test_plan_svg_draws_each_robots_approach_and_leg(self):
        ws = Workspace(Point(-2, 0), Point(18, 20), 20, 20)
        robots = [(4, Point(14.5, 10.5)), (2, Point(0.5, 10.5)), (7, Point(7.5, 10.5))]
        task = TaskSpec(Point(-1.5, 10.5), Point(16.5, 10.5), "box", "cmd")
        diagram = compute_voronoi(robots, ws)
        plan = build_relay_plan(task, robots, diagram, OccupancyGrid(workspace=ws))
        assert plan.active == (2, 7, 4) and len(plan.transfers) == 2
        svg = render_plan_svg(plan, diagram)

        def xy(p):  # the canvas transform: 30 px per unit, 20 px margin, y flipped
            return f"{20 + (p.x + 2) * 30:.2f}", f"{20 + (20 - p.y) * 30:.2f}"

        site = dict(robots)
        legs = (task.pickup, *plan.transfers, task.drop)
        colors = ("#1f77b4", "#9467bd", "#8c564b")
        expected = []
        for j, rid in enumerate(plan.active):
            for a, b in ((site[rid], legs[j]), (legs[j], legs[j + 1])):
                expected.append((*xy(a), *xy(b), colors[j]))
        dashed = re.findall(
            r'<line x1="([^"]+)" y1="([^"]+)" x2="([^"]+)" y2="([^"]+)" '
            r'stroke="([^"]+)" stroke-width="2.0" stroke-dasharray="6,3"/>',
            svg,
        )
        assert dashed == expected


class TestFreshProcess:
    """What one `relaysim run` process loads and logs, seen from a new interpreter."""

    def test_run_imports_no_http_statistics_or_render(self, tmp_path):
        # README's map and quick-start team
        (tmp_path / "map.json").write_text(json.dumps({
            "zones": {"Kitchen": [2.5, 17.5], "Bedroom": [17.5, 2.5]},
            "workspace": {"min": [0, 0], "max": [20, 20], "cols": 20, "rows": 20},
        }))
        (tmp_path / "robots.json").write_text(json.dumps([[0, 5.5, 10.5], [1, 15.5, 10.5]]))
        got = _fresh_python("""
            import sys
            bare = set(sys.modules)
            import contextlib, io, json
            from relaysim import cli
            argv = ["--command", "bring the box from the kitchen to the bedroom",
                    "--map", "map.json", "--robots", "robots.json"]
            with contextlib.redirect_stdout(io.StringIO()):
                run = cli.main(["run", *argv])
            after_run = sorted(set(sys.modules) - bare)
            with contextlib.redirect_stdout(io.StringIO()):
                plan = cli.main(["plan", *argv, "--svg", "plan.svg"])
            print(json.dumps({"codes": [run, plan], "after_run": after_run,
                              "after_plan": sorted(set(sys.modules) - bare)}))
        """, tmp_path)
        assert got["codes"] == [EXIT_OK, EXIT_OK]
        unused = ("http.client", "urllib.request", "ssl", "email", "statistics", "logging",
                  "dataclasses", "inspect", "relaysim.render")
        loaded = [m for m in got["after_run"] if any(m == u or m.startswith(u + ".") for u in unused)]
        assert loaded == []
        assert "relaysim.render" in got["after_plan"]
        assert (tmp_path / "plan.svg").read_text(encoding="utf-8").startswith("<svg")

    def test_readme_quick_start_prints_one_record(self, tmp_path):
        readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
        (code,) = re.findall(r"```python\n(.*?)```", readme, re.S)
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert proc.returncode == 0, proc.stderr
        (line,) = proc.stdout.splitlines()
        assert json.loads(line)["completed"] is True

    def test_each_main_prints_one_error_line_to_its_own_stderr(
        self, map_file, robots_file, tmp_path
    ):
        got = _fresh_python(f"""
            import contextlib, io, json
            from relaysim import cli
            argv = ["run", "--command", "fetch it", "--map", {map_file!r},
                    "--robots", {robots_file!r}]
            buffers, codes = [], []
            for _ in range(2):
                buffers.append(io.StringIO())
                with contextlib.redirect_stderr(buffers[-1]):
                    codes.append(cli.main(argv))
            print(json.dumps({{"codes": codes, "err": [b.getvalue() for b in buffers]}}))
        """, tmp_path)
        assert got["codes"] == [EXIT_PARSE, EXIT_PARSE]
        for err in got["err"]:
            assert [l.split(" ", 1)[0] for l in err.splitlines()] == ["error:"]
