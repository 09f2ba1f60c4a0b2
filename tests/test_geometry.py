import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaysim import geometry
from relaysim.errors import (
    DegenerateEdge,
    DegenerateSites,
    EmptySites,
    PointOutsideWorkspace,
    SitesTooClose,
    SiteOutsideWorkspace,
    UnknownRobotId,
)
from relaysim.geometry import (
    Point,
    SharedEdge,
    VoronoiCell,
    VoronoiDiagram,
    Workspace,
    _clip_halfplane,
    compute_voronoi,
    dist,
    locate,
    relay_point,
    shared_edge,
)
from relaysim.world import GridCell, OccupancyGrid, center_of
from oracles import minimax_value_ternary, nearest_site_brute


def random_sites(rng, n, ws):
    sites = []
    while len(sites) < n:
        p = Point(rng.uniform(0.5, ws.max_corner.x - 0.5), rng.uniform(0.5, ws.max_corner.y - 0.5))
        if all(dist(p, q) > 1e-3 for _, q in sites):
            sites.append((len(sites), p))
    return sites


class TestComputeVoronoi:
    def test_single_site_full_rectangle(self, workspace20):
        d = compute_voronoi([(0, Point(5, 5))], workspace20)
        assert len(d.cells) == 1
        assert set((v.x, v.y) for v in d.cells[0].vertices) == {
            (0, 0),
            (20, 0),
            (20, 20),
            (0, 20),
        }

    def test_two_sites_split_on_vertical_line(self, workspace20):
        d = compute_voronoi([(0, Point(5, 10)), (1, Point(15, 10))], workspace20)
        xs0 = sorted({v.x for v in d.cells[0].vertices})
        xs1 = sorted({v.x for v in d.cells[1].vertices})
        assert xs0 == [0, 10]
        assert xs1 == [10, 20]

    def test_sampled_cells_match_nearest_site(self, workspace20):
        rng = random.Random(7)
        sites = random_sites(rng, 5, workspace20)
        d = compute_voronoi(sites, workspace20)
        for _ in range(10_000):
            p = Point(rng.uniform(0, 20), rng.uniform(0, 20))
            assert locate(p, d) == nearest_site_brute(p, sites)

    def test_cells_are_convex_ccw(self, workspace20):
        rng = random.Random(11)
        for _ in range(20):
            sites = random_sites(rng, rng.randint(2, 9), workspace20)
            d = compute_voronoi(sites, workspace20)
            for cell in d.cells:
                vs = cell.vertices
                assert len(vs) >= 3
                for k in range(len(vs)):
                    a, b, c = vs[k], vs[(k + 1) % len(vs)], vs[(k + 2) % len(vs)]
                    cross = (b.x - a.x) * (c.y - b.y) - (b.y - a.y) * (c.x - b.x)
                    assert cross >= -1e-9  # counter-clockwise, convex

    def test_errors(self, workspace20):
        with pytest.raises(EmptySites):
            compute_voronoi([], workspace20)
        with pytest.raises(SiteOutsideWorkspace):
            compute_voronoi([(0, Point(25, 5))], workspace20)
        with pytest.raises(SiteOutsideWorkspace):  # the extent is half-open, [min, max)
            compute_voronoi([(0, Point(20.0, 5))], workspace20)
        with pytest.raises(SitesTooClose):
            compute_voronoi([(0, Point(5, 5)), (1, Point(5, 5 + 1e-9))], workspace20)
        with pytest.raises(ValueError, match="duplicate robot ids"):
            compute_voronoi([(0, Point(5, 5)), (0, Point(15, 5))], workspace20)
        d = compute_voronoi([(0, Point(0.0, 5)), (1, Point(15, 5))], workspace20)
        with pytest.raises(UnknownRobotId):
            shared_edge(d, 1, 1)
        with pytest.raises(UnknownRobotId):
            d.cell(2)

    def test_sites_too_close_matches_all_pairs(self, workspace20):
        # compute_voronoi compares each site only with its neighbours in x;
        # it must accept and reject exactly the site sets an all-pairs check does
        eps = geometry.EPS_SITE

        def too_close(points):
            return any(
                math.hypot(p.x - q.x, p.y - q.y) < eps
                for k, p in enumerate(points)
                for q in points[k + 1:]
            )

        rng = random.Random(4242)
        seen = {True: 0, False: 0}
        for _ in range(400):
            n = rng.randint(1, 8)
            points = [Point(rng.uniform(2, 18), rng.uniform(2, 18)) for _ in range(n)]
            for _ in range(rng.randint(1, 6)):
                p = rng.choice(points)
                # just below, at or just above EPS_SITE, or far
                d = eps * rng.choice((0.5, 1 - 1e-9, 1.0, 1 + 1e-9, 2.0, 1e6))
                kind = rng.randrange(4)
                if kind == 0:  # any direction
                    angle = rng.uniform(0, 2 * math.pi)
                    q = Point(p.x + d * math.cos(angle), p.y + d * math.sin(angle))
                elif kind == 1:  # the same x
                    q = Point(p.x, p.y + rng.choice((-d, d)))
                elif kind == 2:  # close in x, far apart in y
                    q = Point(p.x + rng.choice((-d, d)), rng.uniform(2, 18))
                else:  # close in y, far apart in x
                    q = Point(rng.uniform(2, 18), p.y + rng.choice((-d, d)))
                points.append(q)
            rng.shuffle(points)
            sites = list(enumerate(points))
            want = too_close(points)
            seen[want] += 1
            if want:
                with pytest.raises(SitesTooClose):
                    compute_voronoi(sites, workspace20)
            else:
                compute_voronoi(sites, workspace20)
        assert min(seen.values()) >= 100, seen


def _grid_centre_sites(rng, n, ws):
    """n distinct cell centres in sampled order, as the batch places robots."""
    grid = OccupancyGrid(workspace=ws)
    cols = ws.grid_cols
    drawn = rng.sample(range(cols * ws.grid_rows), n)
    return [(i, center_of(GridCell(k % cols, k // cols), grid)) for i, k in enumerate(drawn)]


def _real_sites(rng, n, ws):
    """n real-valued sites at least 1e-3 apart, strictly inside ws."""
    lo, hi = ws.min_corner, ws.max_corner
    sites = []
    while len(sites) < n:
        p = Point(rng.uniform(lo.x + 0.5, hi.x - 0.5), rng.uniform(lo.y + 0.5, hi.y - 0.5))
        if all(dist(p, q) > 1e-3 for _, q in sites):
            sites.append((len(sites), p))
    return sites


def _diagram_families():
    """(label, sites, workspace) for the partition digest and the reference
    comparison: random real-valued sites, grid-centre sites (many co-circular
    quadruples) on three grids, an off-origin, non-square workspace, and a
    workspace 1e-13 wide, whose corners are near-duplicate vertices. Every
    other case lists the sites in shuffled id order, so the clip order
    differs from the cell order."""
    rng = random.Random(909)
    ws20 = Workspace(Point(0.0, 0.0), Point(20.0, 20.0), 20, 20)
    far = Workspace(Point(-1e6, 3.0), Point(-1e6 + 40.0, 28.0), 40, 25)
    cases = []
    for n in range(2, 21):
        for _ in range(3):
            cases.append(("real20", _real_sites(rng, n, ws20), ws20))
    for side, teams, repeats in (
        (20, (1, 2, 3, 5, 7, 10, 20, 40, 80), 4),
        (30, (3, 10, 30, 60), 3),
        (60, (10, 30, 60, 120), 2),
    ):
        ws = Workspace(Point(0.0, 0.0), Point(float(side), float(side)), side, side)
        for n in teams:
            for _ in range(repeats):
                cases.append((f"grid{side}", _grid_centre_sites(rng, n, ws), ws))
    for n in (2, 5, 12, 40):
        for _ in range(3):
            cases.append(("far-grid", _grid_centre_sites(rng, n, far), far))
            cases.append(("far-real", _real_sites(rng, n, far), far))
    for k, (_, sites, _) in enumerate(cases):
        if k % 2:
            rng.shuffle(sites)
    thin = Workspace(Point(0.0, 0.0), Point(1e-13, 10.0), 1, 10)
    sites = [(1, Point(5e-14, 7.0)), (0, Point(5e-14, 2.0)), (2, Point(5e-14, 9.5))]
    cases.append(("thin", sites, thin))
    return cases


def _clip_halfplane_reference(poly, nx, ny, c):
    """Sutherland-Hodgman clip to n.v >= c, as compute_voronoi did before it
    skipped half-planes: the reference for the exact-equality test."""
    out = []
    m = len(poly)
    for k in range(m):
        cur = poly[k]
        nxt = poly[(k + 1) % m]
        cur_in = nx * cur.x + ny * cur.y >= c
        nxt_in = nx * nxt.x + ny * nxt.y >= c
        if cur_in:
            out.append(cur)
        if cur_in != nxt_in:
            denom = nx * (nxt.x - cur.x) + ny * (nxt.y - cur.y)
            t = (c - (nx * cur.x + ny * cur.y)) / denom
            out.append(Point(cur.x + t * (nxt.x - cur.x), cur.y + t * (nxt.y - cur.y)))
    cleaned = []
    for p in out:
        if not cleaned or (cleaned[-1].x - p.x) ** 2 + (cleaned[-1].y - p.y) ** 2 > 1e-24:
            cleaned.append(p)
    if len(cleaned) >= 2 and (cleaned[0].x - cleaned[-1].x) ** 2 + (
        cleaned[0].y - cleaned[-1].y
    ) ** 2 <= 1e-24:
        cleaned.pop()
    return cleaned


def _voronoi_reference(sites, workspace):
    """Every cell clipped by every other site's bisector, in the given order."""
    rect = workspace.corners_ccw()
    cells = []
    for sid, si in sorted(sites, key=lambda t: t[0]):
        poly = rect
        for sjd, sj in sites:
            if sjd == sid:
                continue
            nx = si.x - sj.x
            ny = si.y - sj.y
            c = (si.x * si.x + si.y * si.y - sj.x * sj.x - sj.y * sj.y) / 2.0
            poly = _clip_halfplane_reference(poly, nx, ny, c)
            if len(poly) < 3:
                break
        cells.append(VoronoiCell(site_id=sid, site=si, vertices=tuple(poly)))
    return VoronoiDiagram(
        sites, workspace, lambda sid, _: next(c.vertices for c in cells if c.site_id == sid)
    )


class TestPartitionPinned:
    def test_vertices_digest(self):
        # pins every vertex bit of compute_voronoi, including the sign of zero
        h = hashlib.sha256()
        for label, sites, ws in _diagram_families():
            h.update(f"{label} {len(sites)}|".encode())
            for cell in compute_voronoi(sites, ws).cells:
                h.update(f"{cell.site_id}:".encode())
                h.update(" ".join(f"{v.x!r},{v.y!r}" for v in cell.vertices).encode() + b";")
        assert h.hexdigest() == (
            "92839a304bfbea3d3d520820cdf7620ef7ca5d63cde5baaf16bdd941c86cbbe9"
        )

    def test_matches_all_pairs_reference(self):
        for label, sites, ws in _diagram_families():
            assert compute_voronoi(sites, ws) == _voronoi_reference(sites, ws), label

    def test_keep_all_clip_still_pops_a_wrapped_vertex(self):
        # why compute_voronoi runs every clip while its polygon wraps around
        square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        assert _clip_halfplane(square, 1.0, 0.0, -5.0) == square
        wrapped = square + [(4e-13, 0.0)]  # last vertex 4e-13 from the first
        assert _clip_halfplane(wrapped, 1.0, 0.0, -5.0) == square


class TestClipOnRead:
    def test_cells_read_in_any_order_match_reference(self, monkeypatch):
        # compute_voronoi clips a cell the first time its vertices are read
        clips = [0]
        real = geometry._clip_halfplane

        def counting(poly, nx, ny, c):
            clips[0] += 1
            return real(poly, nx, ny, c)

        monkeypatch.setattr(geometry, "_clip_halfplane", counting)
        rng = random.Random(2718)
        for label, sites, ws in _diagram_families():
            reference = _voronoi_reference(sites, ws)
            ref = {c.site_id: c for c in reference.cells}
            clips[0] = 0
            d = compute_voronoi(sites, ws)
            assert d.sites == tuple(sorted(sites, key=lambda t: t[0]))
            for sid, p in sites:
                assert locate(p, d) == sid
            locate(ws.min_corner, d)
            assert clips[0] == 0, label
            ids = [sid for sid, _ in sites]
            rng.shuffle(ids)
            subset = rng.sample(ids, rng.randint(0, len(ids)))
            read = {}
            for sid in subset + ids:  # a random subset, then every cell
                before = clips[0]
                vertices = d.cell(sid).vertices
                if sid in read:
                    assert clips[0] == before and vertices is read[sid], label
                    continue
                assert clips[0] > before or len(sites) == 1, label
                assert vertices == ref[sid].vertices, label
                read[sid] = vertices
            assert d == reference, label

    def test_settled_clips_that_keep_every_vertex_are_skipped(self, monkeypatch):
        # the vertex test's skip: no clip past a cell's first returns its
        # input unchanged, unless the input wraps a near-duplicate vertex
        calls = []
        real = geometry._clip_halfplane

        def recording(poly, nx, ny, c):
            out = real(poly, nx, ny, c)
            calls.append((list(poly), out))
            return out

        monkeypatch.setattr(geometry, "_clip_halfplane", recording)
        for label, sites, ws in _diagram_families():
            calls.clear()
            rect = [(v.x, v.y) for v in ws.corners_ccw()]
            for cell in compute_voronoi(sites, ws).cells:
                cell.vertices
            assert calls or len(sites) == 1, label
            for poly, out in calls:
                (fx, fy), (lx, ly) = poly[0], poly[-1]
                settled = (fx - lx) ** 2 + (fy - ly) ** 2 > 1e-24
                assert out != poly or poly == rect or not settled, label


class TestLocate:
    def test_nearest(self, workspace20):
        d = compute_voronoi([(0, Point(0.5, 0.5)), (1, Point(10, 10))], workspace20)
        assert locate(Point(1, 1), d) == 0

    def test_tie_breaks_to_lowest_id(self, workspace20):
        d = compute_voronoi([(0, Point(2, 2)), (1, Point(8, 8))], workspace20)
        assert locate(Point(5, 5), d) == 0

    def test_outside_workspace(self, workspace20):
        d = compute_voronoi([(0, Point(5, 5))], workspace20)
        with pytest.raises(PointOutsideWorkspace):
            locate(Point(21, 5), d)

    def test_thousand_random_points_vs_brute_force(self, workspace20):
        rng = random.Random(3)
        sites = random_sites(rng, 8, workspace20)
        d = compute_voronoi(sites, workspace20)
        for _ in range(1_000):
            p = Point(rng.uniform(0, 20), rng.uniform(0, 20))
            assert locate(p, d) == nearest_site_brute(p, sites)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_partition_property(self, n, seed):
        ws = Workspace(Point(0.0, 0.0), Point(20.0, 20.0), 20, 20)
        rng = random.Random(seed)
        sites = random_sites(rng, n, ws)
        d = compute_voronoi(sites, ws)
        for _ in range(100):
            p = Point(rng.uniform(0, 20), rng.uniform(0, 20))
            assert locate(p, d) == nearest_site_brute(p, sites)


class TestSharedEdge:
    def test_two_site_edge(self, workspace20):
        d = compute_voronoi([(0, Point(5, 10)), (1, Point(15, 10))], workspace20)
        e = shared_edge(d, 0, 1)
        assert e is not None
        ends = sorted([(e.p1.x, e.p1.y), (e.p2.x, e.p2.y)])
        assert ends == [(10.0, 0.0), (10.0, 20.0)]

    def test_collinear_outer_pair_has_no_edge(self, workspace20):
        d = compute_voronoi(
            [(0, Point(2, 10)), (1, Point(10, 10)), (2, Point(18, 10))], workspace20
        )
        assert shared_edge(d, 0, 2) is None
        assert shared_edge(d, 0, 1) is not None

    def test_symmetry(self, workspace20):
        rng = random.Random(5)
        sites = random_sites(rng, 6, workspace20)
        d = compute_voronoi(sites, workspace20)
        for i in range(6):
            for j in range(i + 1, 6):
                a = shared_edge(d, i, j)
                b = shared_edge(d, j, i)
                assert (a is None) == (b is None)
                if a is not None:
                    ends_a = sorted([(a.p1.x, a.p1.y), (a.p2.x, a.p2.y)])
                    ends_b = sorted([(b.p1.x, b.p1.y), (b.p2.x, b.p2.y)])
                    for (ax, ay), (bx, by) in zip(ends_a, ends_b):
                        assert math.isclose(ax, bx, abs_tol=1e-9)
                        assert math.isclose(ay, by, abs_tol=1e-9)

    def test_edge_points_equidistant_and_dominant(self, workspace20):
        rng = random.Random(9)
        for _ in range(25):
            sites = random_sites(rng, 6, workspace20)
            d = compute_voronoi(sites, workspace20)
            pos = dict(sites)
            for i in range(6):
                for j in range(i + 1, 6):
                    e = shared_edge(d, i, j)
                    if e is None:
                        continue
                    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
                        z = Point(
                            e.p1.x + t * (e.p2.x - e.p1.x), e.p1.y + t * (e.p2.y - e.p1.y)
                        )
                        di = dist(z, pos[i])
                        dj = dist(z, pos[j])
                        assert abs(di - dj) <= 1e-9
                        for k in range(6):
                            if k not in (i, j):
                                assert dist(z, pos[k]) >= di - 1e-9


class TestRelayPoint:
    def test_midpoint_on_segment(self):
        z, v = relay_point(Point(0, 0), Point(2, 0), SharedEdge(0, 1, Point(1, -1), Point(1, 1)))
        assert (z.x, z.y) == (1.0, 0.0)
        assert v == pytest.approx(1.0)

    def test_clamps_to_nearer_endpoint(self):
        z, v = relay_point(
            Point(0, 0), Point(2, 0), SharedEdge(0, 1, Point(1, 0.5), Point(1, 1))
        )
        assert (z.x, z.y) == (1.0, 0.5)
        assert v == pytest.approx(math.sqrt(1.25))

    def test_degenerate_inputs(self):
        edge = SharedEdge(0, 1, Point(1, -1), Point(1, 1))
        with pytest.raises(DegenerateSites):
            relay_point(Point(1, 1), Point(1, 1), edge)
        with pytest.raises(DegenerateEdge):
            relay_point(Point(0, 0), Point(2, 0), SharedEdge(0, 1, Point(1, 1), Point(1, 1)))

    def test_matches_ternary_search_oracle(self):
        rng = random.Random(21)
        for _ in range(300):
            x_i = Point(rng.uniform(-10, 10), rng.uniform(-10, 10))
            x_j = Point(rng.uniform(-10, 10), rng.uniform(-10, 10))
            if dist(x_i, x_j) < 1e-6:
                continue
            p1 = Point(rng.uniform(-10, 10), rng.uniform(-10, 10))
            p2 = Point(rng.uniform(-10, 10), rng.uniform(-10, 10))
            if dist(p1, p2) < 1e-6:
                continue
            z, v = relay_point(x_i, x_j, SharedEdge(0, 1, p1, p2))
            expected = minimax_value_ternary(x_i, x_j, p1, p2)
            assert v <= expected + 1e-7
            assert abs(v - expected) <= 1e-7
            assert v == pytest.approx(max(dist(z, x_i), dist(z, x_j)))

    def test_equal_load_on_bisector_edges(self):
        rng = random.Random(31)
        for _ in range(200):
            x_i = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
            x_j = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
            if dist(x_i, x_j) < 1e-3:
                continue
            # construct a segment lying on the perpendicular bisector
            mx, my = (x_i.x + x_j.x) / 2, (x_i.y + x_j.y) / 2
            bx, by = -(x_j.y - x_i.y), x_j.x - x_i.x
            norm = math.hypot(bx, by)
            bx, by = bx / norm, by / norm
            a = rng.uniform(-4, 4)
            b = a + rng.uniform(0.1, 4)
            p1 = Point(mx + a * bx, my + a * by)
            p2 = Point(mx + b * bx, my + b * by)
            z, v = relay_point(x_i, x_j, SharedEdge(0, 1, p1, p2))
            assert abs(dist(z, x_i) - dist(z, x_j)) <= 1e-9

