"""Voronoi-based multi-robot relay pickup-and-delivery planning and simulation."""

from .geometry import (
    Point,
    SharedEdge,
    VoronoiCell,
    VoronoiDiagram,
    Workspace,
    compute_voronoi,
    locate,
    relay_point,
    shared_edge,
)
from .nlu import InterpreterConfig, TaskSpec, interpret_external, parse_command, validate_task
from .planning import (
    GridPath,
    RelayPlan,
    astar,
    build_relay_plan,
    single_agent_baseline,
)
from .simulation import BatchSummary, RunConfig, SimConfig, TrialRecord, generate_trial, run_batch, run_trial, summarize
from .world import GridCell, OccupancyGrid, SemanticMap, cell_of, center_of, resolve_zone

__all__ = [
    "Point",
    "SharedEdge",
    "VoronoiCell",
    "VoronoiDiagram",
    "Workspace",
    "compute_voronoi",
    "locate",
    "relay_point",
    "shared_edge",
    "InterpreterConfig",
    "TaskSpec",
    "interpret_external",
    "parse_command",
    "validate_task",
    "GridPath",
    "RelayPlan",
    "astar",
    "build_relay_plan",
    "single_agent_baseline",
    "BatchSummary",
    "RunConfig",
    "SimConfig",
    "TrialRecord",
    "generate_trial",
    "run_batch",
    "run_trial",
    "summarize",
    "GridCell",
    "OccupancyGrid",
    "SemanticMap",
    "cell_of",
    "center_of",
    "resolve_zone",
]
