"""Layer spans recorded from outside relaysim, at the public functions of each module.

The library is not edited. For one traced round the benchmark swaps module
attributes for timing wrappers, so a call made through a module's global
name (simulation's `astar`, planning's `locate`, ...) opens a span, and
puts the originals back afterwards. A name imported into several modules
is wrapped in each, and the span name says which layer made the call where
that matters: `planning.astar` for plan-time searches, `simulation.astar`
for the simulator's routes and detours.
"""

from __future__ import annotations

from time import perf_counter


class Patches:
    """Module attributes replaced for a while, restored in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, module, name: str, value) -> None:
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, name, value = self._saved.pop()
            setattr(module, name, value)


# (module name, attribute, span name); the modules live under relaysim.
TRACED = (
    ("geometry", "compute_voronoi", "geometry.compute_voronoi"),
    ("simulation", "compute_voronoi", "geometry.compute_voronoi"),
    ("planning", "locate", "geometry.locate"),
    ("planning", "shared_edge", "geometry.shared_edge"),
    ("planning", "relay_point", "geometry.relay_point"),
    ("world", "load_semantic_map", "world.load_semantic_map"),
    ("simulation", "OccupancyGrid", "world.OccupancyGrid"),
    ("planning", "astar", "planning.astar"),
    ("simulation", "astar", "simulation.astar"),
    ("planning", "build_relay_plan", "planning.build_relay_plan"),
    ("simulation", "build_relay_plan", "planning.build_relay_plan"),
    ("planning", "single_agent_baseline", "planning.single_agent_baseline"),
    ("simulation", "single_agent_baseline", "planning.single_agent_baseline"),
    ("simulation", "fsm_step", "coordination.fsm_step"),
    ("simulation", "generate_trial", "simulation.generate_trial"),
    ("simulation", "simulate", "simulation.simulate"),
    ("simulation", "run_trial", "simulation.run_trial"),
    ("simulation", "summarize", "simulation.summarize"),
    ("simulation", "run_batch", "simulation.run_batch"),
    ("nlu", "parse_command", "nlu.parse_command"),
    ("cli", "main", "cli.main"),
)


class Tracer:
    """Spans of one traced round, kept in memory.

    A span is (name, start, end, parent index, self seconds, returned):
    self seconds is the duration minus the time its child spans cover, and
    returned is False when the call raised. Calls run one at a time, so a
    span's children are exactly the spans opened while it is on the stack.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self.paths: list[tuple] = []  # (span name, grid, start, goal, GridPath)
        self.ticks = 0
        self.messages = 0
        self._totals: dict[str, list] | None = None

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        on_return = self._on_return(name)

        def traced(*args, **kwargs):
            frame = [len(spans), 0.0]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            returned = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans[frame[0]] = (name, start, end, parent, end - start - frame[1], returned)
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def _on_return(self, name: str):
        if name.endswith(".astar"):
            def keep_path(args, path):
                grid, start, goal = args[:3]
                self.paths.append((name, grid, start, goal, path))
            return keep_path
        if name == "simulation.simulate":
            def count(args, outcome):
                self.ticks += outcome.record.ticks
                self.messages += len(outcome.messages)
            return count
        return None

    def install(self, patches: Patches, relaysim_modules: dict) -> None:
        for module, attr, name in TRACED:
            mod = relaysim_modules[module]
            patches.set(mod, attr, self.wrap(name, getattr(mod, attr)))

    def totals(self) -> dict[str, list]:
        """Per span name: [calls, seconds, self seconds, raised]; plus the
        grid builds made inside simulate as `world.grid_builds`. Computed
        once, so the spans can be dropped afterwards."""
        if self._totals is not None:
            return self._totals
        out: dict[str, list] = {}
        spans = self.spans
        builds = 0
        for name, start, end, parent, self_s, returned in spans:
            row = out.setdefault(name, [0, 0.0, 0.0, 0])
            row[0] += 1
            row[1] += end - start
            row[2] += self_s
            row[3] += not returned
            if name == "world.OccupancyGrid":
                while parent >= 0 and spans[parent][0] != "simulation.simulate":
                    parent = spans[parent][3]
                builds += parent >= 0
        out["world.grid_builds"] = [builds, 0.0, 0.0, 0]
        self._totals = out
        return out

    def span_records(self) -> list[dict]:
        return [
            {"id": i, "name": s[0], "start": s[1], "end": s[2], "parent": s[3]}
            for i, s in enumerate(self.spans)
        ]
