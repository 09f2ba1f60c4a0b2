"""The public value types: named fields in a fixed order, value equality, a
hash equal to the field tuple's, a `Name(field=value, ...)` repr and
read-only fields."""

import math

import pytest

from relaysim.coordination import (
    EventKind,
    FsmEvent,
    HandoffMessage,
    MessageKind,
    RobotFsm,
    RobotState,
)
from relaysim.geometry import Point, SharedEdge, VoronoiCell, Workspace
from relaysim.nlu import InterpreterConfig, TaskSpec
from relaysim.planning import GridPath, RelayPlan
from relaysim.simulation import BatchSummary, RunConfig, SimConfig, SizeStats, TickTrace
from relaysim.world import GridCell, OccupancyGrid, SemanticMap

P, Q = Point(1.5, 2.0), Point(3.0, 4.5)
WS = Workspace(Point(0.0, 0.0), Point(20.0, 20.0), 20, 20)
TASK = TaskSpec(P, Q, "cup", "bring the cup from a to b")
STATS_VALUES = (3, 5, 5, 10.0, 1.5, 5.0, 2.0, 0.25)
STATS = SizeStats(*STATS_VALUES)

# type, field names in order, one value per field
VALUES = [
    (Point, ("x", "y"), (1.5, 2.0)),
    (Workspace, ("min_corner", "max_corner", "grid_cols", "grid_rows"), (P, Q, 3, 5)),
    (VoronoiCell, ("site_id", "site", "vertices"), (2, P, (Point(0.0, 0.0), Q, P))),
    (SharedEdge, ("site_a", "site_b", "p1", "p2"), (0, 1, P, Q)),
    (GridCell, ("col", "row"), (4, 7)),
    (OccupancyGrid, ("workspace", "blocked"), (WS, frozenset({GridCell(1, 2)}))),
    (SemanticMap, ("zones",), ({"kitchen": P},)),
    (TaskSpec, ("pickup", "drop", "item", "source_text"), (P, Q, "cup", "bring it")),
    (InterpreterConfig, ("endpoint", "timeout", "fallback"), ("http://localhost:1/", 2.0, False)),
    (GridPath, ("indices", "cols"), ((0, 20), 20)),
    (RelayPlan, ("task", "active", "transfers", "baseline", "transfer_fallback"),
     (TASK, (0, 1), (Point(2.0, 3.0),), False, (True,))),
    (HandoffMessage, ("kind", "task_id", "from_id", "to_id", "at", "tick"),
     (MessageKind.HANDOFF_READY, "t", 0, 1, P, 9)),
    (FsmEvent, ("kind", "tick", "at", "message"), (EventKind.PICKUP_DONE, 4, P, None)),
    (RobotFsm,
     ("robot_id", "state", "carrying", "task_id", "item", "picks_up", "leg_end", "peer_next"),
     (3, RobotState.RELAY, "cup", "t", "cup", False, P, 4)),
    (RunConfig, ("message_delay", "tick_budget"), (2, 50)),
    (SimConfig,
     ("message_delay", "tick_budget", "grid_cols", "grid_rows", "team_sizes",
      "trials_per_size", "min_task_separation", "seed"),
     (1, None, 10, 12, (2, 3), 4, 5.0, 7)),
    (SizeStats,
     ("team_size", "trials", "completed", "mean_total", "std_total", "mean_per_agent",
      "mean_active", "reduction"),
     STATS_VALUES),
    (BatchSummary, ("per_size", "completion_rate"), ({3: STATS}, 1.0)),
    (TickTrace, ("tick", "carriers", "positions"), (5, (0,), {0: GridCell(1, 1)})),
]


@pytest.mark.parametrize("cls,names,values", VALUES, ids=[v[0].__name__ for v in VALUES])
def test_value_type(cls, names, values):
    by_position = cls(*values)
    by_name = cls(**dict(zip(names, values)))
    assert by_position == by_name
    assert tuple(getattr(by_name, n) for n in names) == values
    assert repr(by_name) == f"{cls.__name__}(" + ", ".join(
        f"{n}={v!r}" for n, v in zip(names, values)) + ")"
    if any(isinstance(v, dict) for v in values):
        with pytest.raises(TypeError):
            hash(by_name)
    else:
        assert hash(by_name) == hash(values)
    for n, v in zip(names, values):
        with pytest.raises(AttributeError):
            setattr(by_name, n, v)


def test_defaults_and_checks():
    assert RunConfig(0, 1) == RunConfig(message_delay=0, tick_budget=1)
    assert RunConfig() == RunConfig(0, None)
    assert isinstance(SimConfig(), RunConfig)
    assert SimConfig(team_sizes=[1, 2]).team_sizes == (1, 2)
    assert OccupancyGrid(WS).blocked == frozenset()
    for x, y in ((math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)):
        with pytest.raises(ValueError):
            Point(x, y)
