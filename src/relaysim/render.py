"""Static SVG rendering of partitions and relay plans."""

from __future__ import annotations

from .geometry import Point, VoronoiDiagram, shared_edge
from .planning import RelayPlan

_SCALE = 30.0
_MARGIN = 20.0

_SEGMENT_COLORS = ("#1f77b4", "#9467bd", "#8c564b", "#17becf", "#bcbd22", "#7f7f7f")


class _Svg:
    def __init__(self, width: float, height: float, x_min: float, y_max: float):
        self.parts: list[str] = []
        self.width = width
        self.height = height
        self.x_min = x_min
        self.y_max = y_max

    def tx(self, p: Point) -> tuple[float, float]:
        # flip y so the workspace's minimum corner sits bottom-left
        x = _MARGIN + (p.x - self.x_min) * _SCALE
        return (x, _MARGIN + (self.y_max - p.y) * _SCALE)

    def polygon(self, pts: list[Point], stroke: str, fill: str = "none", width: float = 1.5) -> None:
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in (self.tx(p) for p in pts))
        self.parts.append(
            f'<polygon points="{coords}" fill="{fill}" stroke="{stroke}" stroke-width="{width}"/>'
        )

    def line(self, a: Point, b: Point, stroke: str, width: float = 2.0, dash: str = "") -> None:
        x1, y1 = self.tx(a)
        x2, y2 = self.tx(b)
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{stroke}" stroke-width="{width}"{extra}/>'
        )

    def circle(self, p: Point, r: float, fill: str) -> None:
        x, y = self.tx(p)
        self.parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r}" fill="{fill}"/>')

    def text(self, p: Point, label: str, dy: float = -8.0) -> None:
        x, y = self.tx(p)
        self.parts.append(
            f'<text x="{x:.2f}" y="{y + dy:.2f}" font-size="12" '
            f'font-family="sans-serif" text-anchor="middle">{label}</text>'
        )

    def to_string(self) -> str:
        head = (
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{self.width:.0f}" height="{self.height:.0f}">'
        )
        return head + "\n" + "\n".join(self.parts) + "\n</svg>\n"


def _new_canvas(diagram: VoronoiDiagram) -> _Svg:
    ws = diagram.workspace
    return _Svg(
        width=ws.width * _SCALE + 2 * _MARGIN,
        height=ws.height * _SCALE + 2 * _MARGIN,
        x_min=ws.min_corner.x,
        y_max=ws.max_corner.y,
    )


def _draw_partition(svg: _Svg, diagram: VoronoiDiagram) -> None:
    for cell in diagram.cells:
        svg.polygon(list(cell.vertices), stroke="#d62728", fill="#f7f7f7")
    for cell in diagram.cells:
        svg.circle(cell.site, 5, "#2ca02c")
        svg.text(cell.site, f"A{cell.site_id}")


def render_partition_svg(diagram: VoronoiDiagram) -> str:
    svg = _new_canvas(diagram)
    _draw_partition(svg, diagram)
    ids = [c.site_id for c in diagram.cells]
    for a in range(len(ids)):
        for b in range(a + 1, len(ids)):
            edge = shared_edge(diagram, ids[a], ids[b])
            if edge is not None:
                svg.line(edge.p1, edge.p2, "#d62728", width=2.5)
    return svg.to_string()


def render_plan_svg(plan: RelayPlan, diagram: VoronoiDiagram) -> str:
    svg = _new_canvas(diagram)
    _draw_partition(svg, diagram)
    for j, rid in enumerate(plan.active):
        # the robot's approach from its site, then the leg it carries
        color = _SEGMENT_COLORS[j % len(_SEGMENT_COLORS)]
        leg_start, leg_end = plan.legs[j : j + 2]
        svg.line(diagram.cell(rid).site, leg_start, color, width=2.0, dash="6,3")
        svg.line(leg_start, leg_end, color, width=2.0, dash="6,3")
    svg.circle(plan.task.pickup, 6, "#2ca02c")
    svg.text(plan.task.pickup, "pickup")
    svg.circle(plan.task.drop, 6, "#d62728")
    svg.text(plan.task.drop, "drop")
    for i, z in enumerate(plan.transfers):
        svg.circle(z, 6, "#ff7f0e")
        svg.text(z, f"H{i + 1}")
    return svg.to_string()
