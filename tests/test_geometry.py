"""Geometry invariants, with independently computed oracles where the
expected values are not obvious."""

import math

import numpy as np
import pytest

from spectral_certify import _kernels, geometry
from spectral_certify.geometry import (
    BoxSandwich,
    ConvexPolygon,
    GeometryError,
    Point2,
    Rectangle,
    VoronoiPartition,
    ball_packing_count,
    diameter,
    inner_offset,
    maximal_separated_net,
    mvee,
    polygon_from_json,
    polygon_to_json,
    rectangle_from_polygon,
    rectangle_sandwich,
    regular_polygon,
    svg_scene,
    voronoi_partition,
)

UNIT_SQUARE = [[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]]


class TestConvexPolygon:
    def test_area_centroid_of_square(self):
        sq = ConvexPolygon(UNIT_SQUARE)
        assert sq.area == pytest.approx(1.0, rel=1e-15)
        assert sq.centroid == pytest.approx([0.0, 0.0], abs=1e-15)

    def test_clockwise_rejected(self):
        with pytest.raises(GeometryError):
            ConvexPolygon(UNIT_SQUARE[::-1])

    def test_nonconvex_rejected(self):
        with pytest.raises(GeometryError):
            ConvexPolygon([[0, 0], [2, 0], [1, 0.2], [2, 2], [0, 2]])

    def test_degenerate_rejected(self):
        with pytest.raises(GeometryError):
            ConvexPolygon([[0, 0], [1, 0], [2, 0]])
        # sliver far below the relative tolerance of the coordinate scale
        with pytest.raises(GeometryError):
            ConvexPolygon([[0, 0], [1, 0], [0.5, 1e-15]])

    def test_uniformly_tiny_triangle_is_valid(self):
        # validation is scale relative, so a small but well shaped
        # triangle is fine
        t = ConvexPolygon([[0, 0], [1e-15, 0], [0, 1e-15]])
        assert t.area == pytest.approx(5e-31, rel=1e-12)

    def test_duplicate_vertices_dropped(self):
        p = ConvexPolygon([[0, 0], [1, 0], [1, 0], [1, 1], [0, 1], [0, 0]])
        assert p.n == 4

    def test_collinear_vertices_kept(self):
        p = ConvexPolygon([[0, 0], [0.5, 0], [1, 0], [1, 1], [0, 1]])
        assert p.n == 5
        assert p.area == pytest.approx(1.0, rel=1e-15)

    def test_containment(self):
        hexa = regular_polygon(6)
        inside = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.85]])
        outside = np.array([[1.2, 0.0], [0.9, 0.9]])
        assert hexa.contains_points(inside).all()
        assert not hexa.contains_points(outside).any()

    def test_diameter_of_regular_polygons(self):
        # even n: diameter is twice the circumradius; odd n: the longest
        # chord connects a vertex to one across, 2 R cos(pi / (2 n))
        assert diameter(regular_polygon(8)) == pytest.approx(2.0, rel=1e-12)
        expected5 = 2.0 * math.cos(math.pi / 10.0)
        assert diameter(regular_polygon(5)) == pytest.approx(expected5, rel=1e-12)

    def test_json_round_trip(self):
        p = regular_polygon(7, circumradius=2.5)
        q = polygon_from_json(polygon_to_json(p))
        assert np.array_equal(p.vertices, q.vertices)

    @pytest.mark.parametrize(
        "text",
        ["3", "null", '"square"', "[[0, 0], [1, 0], [0, 1]]", "{}", '{"vertices": {"x": 1}}'],
    )
    def test_json_not_a_polygon_object(self, text):
        with pytest.raises(GeometryError):
            polygon_from_json(text)


class TestInnerOffset:
    def test_square_offset_is_smaller_square(self):
        sq = ConvexPolygon(UNIT_SQUARE)
        inner = inner_offset(sq, 0.2)
        assert inner is not None
        assert inner.area == pytest.approx(0.6**2, rel=1e-12)
        (lo, hi) = inner.bounding_box
        assert lo == pytest.approx([-0.3, -0.3], abs=1e-12)
        assert hi == pytest.approx([0.3, 0.3], abs=1e-12)

    def test_equilateral_triangle_against_line_intersection_oracle(self):
        # oracle: shift each edge line inward by r and intersect adjacent
        # pairs directly, independently of the clipping implementation
        tri = regular_polygon(3)
        r = 0.15
        v = tri.vertices
        lines = []
        for i in range(3):
            p, q = v[i], v[(i + 1) % 3]
            e = q - p
            n = np.array([e[1], -e[0]]) / np.linalg.norm(e)
            lines.append((n, n @ p - r))
        expected = []
        for i in range(3):
            n1, c1 = lines[i]
            n2, c2 = lines[(i + 1) % 3]
            expected.append(np.linalg.solve(np.array([n1, n2]), np.array([c1, c2])))
        inner = inner_offset(tri, r)
        got = sorted(map(tuple, np.round(inner.vertices, 9)))
        want = sorted(map(tuple, np.round(np.array(expected), 9)))
        assert got == pytest.approx(want, abs=1e-9)
        # similar triangle: inradius shrinks from 1/2 to 1/2 - r
        assert inner.area == pytest.approx(tri.area * ((0.5 - r) / 0.5) ** 2, rel=1e-9)

    def test_offset_nesting(self):
        hexa = regular_polygon(6)
        a = inner_offset(hexa, 0.1)
        b = inner_offset(hexa, 0.3)
        assert a.contains_points(b.vertices).all()
        assert a.area > b.area

    def test_collapse_returns_none(self):
        sq = ConvexPolygon(UNIT_SQUARE)
        assert inner_offset(sq, 0.5) is None
        assert inner_offset(sq, 5.0) is None

    def test_rejects_nonpositive_offset(self):
        sq = ConvexPolygon(UNIT_SQUARE)
        with pytest.raises(GeometryError):
            inner_offset(sq, 0.0)
        with pytest.raises(GeometryError):
            inner_offset(sq, -1.0)


class TestNet:
    @pytest.mark.parametrize("sep", [0.15, 0.4, 0.9])
    def test_separation_and_covering(self, sep):
        hexa = regular_polygon(6)
        net = maximal_separated_net(hexa, sep)
        if len(net) > 1:
            d2 = ((net[:, None, :] - net[None, :, :]) ** 2).sum(-1)
            np.fill_diagonal(d2, np.inf)
            assert math.sqrt(d2.min()) >= sep
        # covering over the verification grid of pitch sep/16
        (x0, y0), (x1, y1) = hexa.bounding_box
        pitch = sep / 16.0
        xs = x0 + pitch * np.arange(int((x1 - x0) / pitch) + 1)
        ys = y0 + pitch * np.arange(int((y1 - y0) / pitch) + 1)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        pts = np.stack([gx.ravel(), gy.ravel()], 1)
        pts = pts[hexa.contains_points(pts)]
        # the kernel's own distance formula: cdist/cKDTree may differ in the
        # last bit at distance exactly sep
        nearest = np.full(len(pts), np.inf)
        for sx, sy in net:
            d = np.sqrt((pts[:, 0] - sx) ** 2 + (pts[:, 1] - sy) ** 2)
            nearest = np.minimum(nearest, d)
        assert nearest.max() <= sep

    def test_net_points_inside(self):
        pent = regular_polygon(5)
        net = maximal_separated_net(pent, 0.3)
        assert pent.contains_points(net).all()

    def test_deterministic(self):
        tri = regular_polygon(3)
        a = maximal_separated_net(tri, 0.25)
        b = maximal_separated_net(tri, 0.25)
        assert np.array_equal(a, b)

    def test_large_separation_single_point(self):
        sq = ConvexPolygon(UNIT_SQUARE)
        net = maximal_separated_net(sq, 10.0)
        assert len(net) == 1

    @pytest.mark.parametrize("sep", [1e-3, 1e-300])
    def test_grids_over_budget_rejected(self, sep):
        sq = ConvexPolygon([[0, 0], [10, 0], [10, 10], [0, 10]])
        with pytest.raises(GeometryError, match="too small"):
            maximal_separated_net(sq, sep)

    def test_limited_grids_over_budget_rejected(self, monkeypatch):
        # a limit stops the scans early, but the grid budget is still
        # checked before any grid is built
        def no_grid(*args, **kwargs):
            raise AssertionError("a net grid was built")

        monkeypatch.setattr(np, "meshgrid", no_grid)
        sq = ConvexPolygon([[0, 0], [10, 0], [10, 10], [0, 10]])
        with pytest.raises(GeometryError, match="too small"):
            maximal_separated_net(sq, 1e-3, limit=40)

    @pytest.mark.parametrize("limit", [0, 1, 22, 23, 24, 25, 26, 100])
    def test_limit_gives_a_prefix(self, limit, monkeypatch):
        # the 12-gon's sep=0.37 net has 26 points, 24 of them from the
        # coarse pass: the limits stop each pass, or neither
        scan = _kernels.greedy_net
        sizes = []

        def counted(*args, **kwargs):
            net = scan(*args, **kwargs)
            sizes.append(len(net))
            return net

        monkeypatch.setattr(_kernels, "greedy_net", counted)
        poly = regular_polygon(12)
        full = maximal_separated_net(poly, 0.37)
        assert sizes == [24, 26]
        got = maximal_separated_net(poly, 0.37, limit=limit)
        assert np.array_equal(got, full[: limit + 1])

    def test_rejects_bad_separation(self):
        sq = ConvexPolygon(UNIT_SQUARE)
        with pytest.raises(GeometryError):
            maximal_separated_net(sq, 0.0)
        with pytest.raises(GeometryError):
            maximal_separated_net(None, 1.0)


class TestVoronoi:
    def test_two_sites_split_square(self):
        sq = ConvexPolygon(UNIT_SQUARE)
        part = voronoi_partition(sq, [[-0.25, 0.0], [0.25, 0.0]])
        assert len(part.cells) == 2
        for cell in part.cells:
            assert cell.area == pytest.approx(0.5, rel=1e-12)

    def test_monte_carlo_cell_areas(self):
        # oracle: empirical nearest-site frequencies over a seeded sample
        sq = ConvexPolygon(UNIT_SQUARE)
        sites = np.array(
            [[-0.3, -0.2], [0.35, -0.3], [0.1, 0.05], [-0.2, 0.4], [0.4, 0.35]]
        )
        part = voronoi_partition(sq, sites)
        rng = np.random.default_rng(123)
        samples = rng.uniform(-0.5, 0.5, size=(1_000_000, 2))
        d2 = ((samples[:, None, :] - sites[None, :, :]) ** 2).sum(-1)
        owner = d2.argmin(axis=1)
        for i, cell in enumerate(part.cells):
            frac = float((owner == i).mean())
            assert cell.area == pytest.approx(frac, abs=3e-3)

    def test_cells_contain_sites_and_tile(self, random_polygons):
        rng = np.random.default_rng(5)
        for poly in random_polygons[:20]:
            c = poly.centroid
            sites = c + (poly.vertices[:6] - c) * rng.uniform(0.2, 0.8)
            part = voronoi_partition(poly, sites)
            total = sum(cell.area for cell in part.cells)
            assert total == pytest.approx(poly.area, rel=1e-9)

    def test_rejects_duplicate_sites(self):
        sq = ConvexPolygon(UNIT_SQUARE)
        with pytest.raises(GeometryError):
            voronoi_partition(sq, [[0.1, 0.1], [0.1, 0.1]])

    def test_rejects_outside_sites(self):
        sq = ConvexPolygon(UNIT_SQUARE)
        with pytest.raises(GeometryError):
            voronoi_partition(sq, [[0.0, 0.0], [2.0, 0.0]])

    @pytest.mark.parametrize("moved", [0, 4, 8])
    def test_rejects_site_outside_its_cell(self, moved):
        sq = ConvexPolygon(UNIT_SQUARE)
        g = np.linspace(-1.0 / 3.0, 1.0 / 3.0, 3)
        part = voronoi_partition(sq, np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2))
        corner = part.cells[moved].vertices[0]
        sites = part.sites.copy()
        # a site on a corner of its own cell is inside it
        sites[moved] = corner
        VoronoiPartition(sq, sites, part.cells)
        sites[moved] = corner + 1e-6 * (corner - part.sites[moved])
        with pytest.raises(GeometryError, match=f"cell {moved} does not contain its site"):
            VoronoiPartition(sq, sites, part.cells)
        sites[moved] = part.sites[(moved + 1) % 9]
        with pytest.raises(GeometryError, match=f"cell {moved} does not contain its site"):
            VoronoiPartition(sq, sites, part.cells)


def _numpy_clip(verts, a, b, c, tol):
    n = verts.shape[0]
    vals = a * verts[:, 0] + b * verts[:, 1] - c
    out = []
    for i in range(n):
        j = (i + 1) % n
        vi, vj = verts[i], verts[j]
        di, dj = vals[i], vals[j]
        if di <= tol:
            out.append(vi)
        if (di <= tol) != (dj <= tol):
            t = di / (di - dj)
            out.append(vi + t * (vj - vi))
    return np.array(out) if out else np.empty((0, 2))


def argsort_voronoi_cells(P, sites):
    """Reference cells: every site is argsorted by distance for every cell,
    and the bisectors are clipped nearest first on numpy arrays."""
    pts = np.asarray(sites, dtype=float)
    tol = 1e-12 * P.scale
    norms = (pts**2).sum(axis=1)
    cells = []
    for i in range(pts.shape[0]):
        d2i = ((pts - pts[i]) ** 2).sum(axis=1)
        verts = np.array(P.vertices)
        for j in np.argsort(d2i, kind="stable"):
            if j == i:
                continue
            r_max = math.sqrt(float(((verts - pts[i]) ** 2).sum(axis=1).max()))
            if math.sqrt(float(d2i[j])) > 2.0 * r_max * (1.0 + 1e-9):
                break
            a = 2.0 * (pts[j, 0] - pts[i, 0])
            b = 2.0 * (pts[j, 1] - pts[i, 1])
            c = norms[j] - norms[i]
            verts = _numpy_clip(verts, a, b, c, tol * math.hypot(a, b))
        cells.append(ConvexPolygon(verts).vertices)
    return cells


def voronoi_oracle_cases():
    """(domain, sites) pairs: lattice nets with exact distance ties, random
    sites, moved rectangles, and one or two sites."""
    rng = np.random.default_rng(21)
    square = Rectangle(Point2(0.0, 0.0), 2.0, 2.0, 0.0).polygon()
    idx = np.array([(i, j) for i in range(-15, 16) for j in range(-15, 16)], dtype=float)
    lone = [[1.9, 1.9], [1.8, -1.7], [-1.6, 1.5]]
    cases = [
        (square, 0.125 * idx),
        (square, _kernels.greedy_net(0.125 * idx, np.empty((0, 2)), 0.5, False)),
        (square, _kernels.greedy_net(0.125 * idx, np.empty((0, 2)), 0.5, True)),
        (square, rng.uniform(-2.0, 2.0, size=(300, 2))),
        # a dense cluster and three lone sites: their cells reach far
        # beyond the first ring of buckets
        (square, np.concatenate([rng.uniform(-1.9, -1.5, (200, 2)), lone])),
        (square, [[0.3, -0.7]]),
        (square, [[-1.0, 0.0], [1.0, 0.0]]),
    ]
    for rotation, center, seed in ((0.7371, (3.5, -1.25), 1), (math.pi / 2, (-2.0, 7.0), 2)):
        rect = Rectangle(Point2(*center), 1.5, 3.0, rotation)
        shrunk = inner_offset(rect.polygon(), 0.2)
        cases.append((rect.polygon(), maximal_separated_net(shrunk, 0.4)))
        local = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(80, 2))
        u, v = rect.axes
        inside = rect.center.array + 1.4 * local[:, :1] * u + 2.9 * local[:, 1:] * v
        cases.append((rect.polygon(), inside))
    # a long strip, crowded at one end: the cells at the other end span
    # many bucket rings
    strip = Rectangle(Point2(0.0, 0.0), 0.25, 20.0, 0.0).polygon()
    crowd = rng.uniform([-0.24, -19.9], [0.24, -17.0], (60, 2))
    cases.append((strip, np.concatenate([crowd, [[0.0, 15.0], [0.1, 19.5]]])))
    return cases


class TestVoronoiOracle:
    """The bucket-ring partition gives exactly the argsort reference cells."""

    def test_cases_reach_beyond_the_first_ring(self, monkeypatch):
        # the oracle cases must take the wider rings, not only the 3 x 3
        # buckets the first pass sorts
        reaches = []
        rings = geometry._rings

        def recording(grid, pts, sites, reach):
            reaches.append(reach)
            return rings(grid, pts, sites, reach)

        monkeypatch.setattr(geometry, "_rings", recording)
        for P, sites in voronoi_oracle_cases():
            voronoi_partition(P, sites)
        assert max(reaches) >= 8

    @pytest.mark.parametrize("case", [0, 4, 11])
    def test_sites_come_in_argsort_order(self, case):
        # read to the end, the rings give every site in the order of a
        # stable argsort of d2, as voronoi_partition builds them
        P, sites = voronoi_oracle_cases()[case]
        pts = np.asarray(sites, dtype=float)
        radius = geometry._RING_SPACINGS * math.sqrt(P.area / len(pts))
        grid = _kernels.BucketGrid(pts, *_kernels.bucket_frame(pts, radius))
        rings = geometry._rings(grid, pts, np.arange(len(pts)), 1)
        for i, ring in zip(range(0, len(pts), 7), list(rings)[::7]):
            d2 = ((pts - pts[i]) ** 2).sum(axis=1)
            order = np.argsort(d2, kind="stable")
            got = list(geometry._by_distance(grid, pts, i, ring, radius))
            assert [j for _, j in got] == order.tolist()
            assert [x for x, _ in got] == d2[order].tolist()

    @pytest.mark.parametrize("case", [0, 4, 11])
    def test_cells_equal_in_small_pair_chunks(self, case, monkeypatch):
        # grid pairs come a few at a time, so a site's first ring is split
        # between chunks and held over
        monkeypatch.setattr(_kernels, "_PAIR_CHUNK", 97)
        P, sites = voronoi_oracle_cases()[case]
        part = voronoi_partition(P, sites)
        want = argsort_voronoi_cells(P, sites)
        assert all(np.array_equal(cell.vertices, ref) for cell, ref in zip(part.cells, want))

    @pytest.mark.parametrize("case", range(len(voronoi_oracle_cases())))
    def test_cells_equal(self, case):
        P, sites = voronoi_oracle_cases()[case]
        part = voronoi_partition(P, sites)
        want = argsort_voronoi_cells(P, sites)
        assert len(part.cells) == len(want)
        for cell, ref in zip(part.cells, want):
            assert np.array_equal(cell.vertices, ref)


class TestRectangle:
    def test_normalization_short_axis_first(self):
        r = Rectangle(Point2(0, 0), 3.0, 1.0, 0.0)
        assert r.half_width_a == 1.0
        assert r.half_width_b == 3.0
        assert r.rotation == pytest.approx(math.pi / 2)

    def test_polygon_round_trip(self):
        r = Rectangle(Point2(0.5, -1.0), 0.7, 1.9, 0.3)
        back = rectangle_from_polygon(r.polygon())
        assert back is not None
        assert back.half_width_a == pytest.approx(r.half_width_a, rel=1e-12)
        assert back.half_width_b == pytest.approx(r.half_width_b, rel=1e-12)
        assert back.center.x == pytest.approx(r.center.x, abs=1e-12)
        assert math.cos(2 * (back.rotation - r.rotation)) == pytest.approx(1.0, abs=1e-9)

    def test_recognition_rejects_non_rectangles(self):
        assert rectangle_from_polygon(regular_polygon(5)) is None
        trapezoid = ConvexPolygon([[0, 0], [2, 0], [1.5, 1], [0.5, 1]])
        assert rectangle_from_polygon(trapezoid) is None

    def test_diameter_and_area(self):
        r = Rectangle(Point2(0, 0), 1.0, 2.0, 0.1)
        assert r.area == pytest.approx(8.0, rel=1e-15)
        assert r.diameter == pytest.approx(2.0 * math.sqrt(5.0), rel=1e-15)


class TestMvee:
    def test_rectangle_axes(self):
        # the minimal ellipse around a box scales its half-widths by sqrt(2)
        box = ConvexPolygon([[-1, -2], [1, -2], [1, 2], [-1, 2]])
        e = mvee(box.vertices)
        semis = sorted([e.semi_axis_a, e.semi_axis_b])
        assert semis[0] == pytest.approx(math.sqrt(2.0), rel=1e-5)
        assert semis[1] == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-5)
        assert e.quadratic_form(box.vertices).max() <= 1.0 + 1e-12

    def test_minimality_within_axis_aligned_family(self):
        # oracle: among axis-aligned ellipses through the box corners the
        # area is minimized at the sqrt(2) scaling; the computed ellipse
        # must not beat the family optimum and must be close to it
        box = ConvexPolygon([[-1, -2], [1, -2], [1, 2], [-1, 2]])
        e = mvee(box.vertices)
        area = math.pi * e.semi_axis_a * e.semi_axis_b
        s1 = np.append(np.linspace(1.01, 3.9, 2000), math.sqrt(2.0))
        s2 = 2.0 * s1 / np.sqrt(s1**2 - 1.0)
        family_best = float((math.pi * s1 * s2).min())
        assert area >= family_best * (1.0 - 1e-9)
        assert area == pytest.approx(family_best, rel=1e-4)

    def test_contains_random_hulls(self, random_polygons):
        for poly in random_polygons[:30]:
            e = mvee(poly.vertices)
            assert e.quadratic_form(poly.vertices).max() <= 1.0 + 3e-7

    def test_rejects_collinear(self):
        with pytest.raises(GeometryError):
            mvee([[0, 0], [1, 1], [2, 2], [3, 3]])


class TestSandwich:
    def test_unit_square_half_widths(self):
        sq = ConvexPolygon(UNIT_SQUARE)
        s = rectangle_sandwich(sq)
        assert s.inner.half_width_a >= 0.25 - 1e-6
        assert s.inner.half_width_b >= 0.25 - 1e-6
        assert s.inner.half_width_b <= 0.25 + 1e-6

    def test_tall_box_exact_inner(self):
        box = ConvexPolygon([[-1, -2], [1, -2], [1, 2], [-1, 2]])
        s = rectangle_sandwich(box)
        assert s.inner.half_width_a == pytest.approx(0.5, abs=1e-6)
        assert s.inner.half_width_b == pytest.approx(1.0, abs=1e-6)

    def test_containment_and_dilation(self, random_polygons):
        for poly in random_polygons[:40]:
            s = rectangle_sandwich(poly)
            assert poly.contains_points(s.inner.polygon().vertices).all()
            assert s.outer.contains_points(poly.vertices).all()
            assert s.dilation_factor <= 8.0
            assert s.dilation_factor in (1.0, 2.0, 4.0, 8.0)

    def test_invariant_enforced(self):
        inner = Rectangle(Point2(0, 0), 1.0, 2.0, 0.0)
        with pytest.raises(GeometryError):
            BoxSandwich(inner=inner, outer=inner.scaled(3.0), dilation_factor=2.0)


class TestPacking:
    def test_fits_and_count(self):
        sq = ConvexPolygon([[0, 0], [4, 0], [4, 4], [0, 4]])
        check = ball_packing_count(sq, [[1, 1], [3, 1], [1, 3], [3, 3]], 1.0)
        assert check.count == 4
        assert check.fits
        assert check.total_ball_area == pytest.approx(4 * math.pi, rel=1e-15)

    def test_rejects_overlapping_balls(self):
        sq = ConvexPolygon([[0, 0], [4, 0], [4, 4], [0, 4]])
        with pytest.raises(GeometryError):
            ball_packing_count(sq, [[1.0, 1.0], [2.9, 1.0]], 1.0)

    def test_tangent_balls_allowed(self):
        sq = ConvexPolygon([[0, 0], [4, 0], [4, 4], [0, 4]])
        check = ball_packing_count(sq, [[1.0, 1.0], [3.0, 1.0]], 1.0)
        assert check.count == 2

    def test_tangent_lattice_exact(self):
        # 1600 centers, every neighbour pair tangent; moving one center a
        # single ulp towards its neighbour makes two balls overlap
        sq = ConvexPolygon([[0, 0], [20, 0], [20, 20], [0, 20]])
        idx = np.array([(i, j) for i in range(40) for j in range(40)], dtype=float)
        centers = 0.25 + 0.5 * idx
        assert ball_packing_count(sq, centers, 0.25).count == 1600
        centers[777, 0] = np.nextafter(centers[777, 0], np.inf)
        with pytest.raises(GeometryError):
            ball_packing_count(sq, centers, 0.25)


def brute_force_greedy_net(candidates, existing, sep, strict):
    """Reference scan: every candidate is compared with every kept point."""
    kept = [tuple(p) for p in existing]
    for x, y in candidates.tolist():
        near = False
        for qx, qy in kept:
            d = math.sqrt((x - qx) * (x - qx) + (y - qy) * (y - qy))
            if (d <= sep) if strict else (d < sep):
                near = True
                break
        if not near:
            kept.append((x, y))
    return np.array(kept, dtype=float).reshape(-1, 2)


class TestGreedyNetOracle:
    """The bucketed scan keeps exactly the sites of the all-pairs scan."""

    @pytest.mark.parametrize("offset", [0.0, -7.3, 1e5])
    @pytest.mark.parametrize("strict", [False, True])
    def test_lattice_ties(self, offset, strict):
        # a lattice of pitch sep/8 puts many pairs at distance exactly sep;
        # the net scans it in lexicographic order, the shuffle in any order
        sep = 0.3
        idx = np.array([(i, j) for i in range(-24, 25) for j in range(-24, 25)])
        lattice = offset + (sep / 8.0) * idx.astype(float)
        shuffled = lattice[np.random.default_rng(13).permutation(len(lattice))]
        for cands in (lattice, shuffled):
            for existing in (np.empty((0, 2)), cands[:3] + sep / 16.0):
                got = _kernels.greedy_net(cands, existing, sep, strict)
                want = brute_force_greedy_net(cands, existing, sep, strict)
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("offset", [0.0, 1e5])
    @pytest.mark.parametrize("strict", [False, True])
    def test_existing_at_exact_separation(self, offset, strict):
        # pitch sep/8 = 1/32 keeps every lattice coordinate exact at both
        # offsets, so many candidates lie at distance exactly sep from an
        # existing point and only the strict rule tells them apart
        sep = 0.25
        idx = np.array([(i, j) for i in range(-24, 25) for j in range(-24, 25)])
        lattice = offset + (sep / 8.0) * idx.astype(float)
        # existing points at exactly sep from lattice points, and others one
        # ulp further out, just beyond sep
        existing = np.concatenate(
            [
                lattice[::97] + np.array([sep, 0.0]),
                np.nextafter(lattice[48::97] + np.array([0.0, sep]), np.inf),
            ]
        )
        d = lattice[:, None, :] - existing[None, :, :]
        dist = np.sqrt(d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1])
        assert (dist == sep).sum() > 20
        assert ((dist > sep) & (dist < sep * (1.0 + 1e-9))).sum() > 20
        shuffled = lattice[np.random.default_rng(15).permutation(len(lattice))]
        # sparse: each existing point has one candidate at exactly sep and
        # one just beyond it, and nothing else nearby
        sparse = lattice[::50] * 20.0 - 19.0 * offset
        lone = np.concatenate(
            [sparse + np.array([sep, 0.0]), np.nextafter(sparse + np.array([0.0, sep]), np.inf)]
        )
        for cands, near in ((lattice, existing), (shuffled, existing), (lone, sparse)):
            got = _kernels.greedy_net(cands, near, sep, strict)
            want = brute_force_greedy_net(cands, near, sep, strict)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("offset", [0.0, -7.3, 1e5])
    def test_random_points(self, offset):
        rng = np.random.default_rng(14)
        cands = offset + rng.uniform(-1.0, 1.0, size=(2000, 2))
        existing = offset + rng.uniform(-1.0, 1.0, size=(5, 2))
        for strict in (False, True):
            got = _kernels.greedy_net(cands, existing, 0.3, strict)
            want = brute_force_greedy_net(cands, existing, 0.3, strict)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("offset", [0.0, 1e5])
    @pytest.mark.parametrize("strict", [False, True])
    def test_columns_stepping_by_sep(self, offset, strict):
        # lattice columns whose y steps are exactly sep, or one ulp shorter
        # or longer; the runs meet these ties on arrays, the scan in Python
        sep = 0.25
        ys = offset + sep * np.arange(-12, 13, dtype=float)
        for step in (None, -np.inf, np.inf):
            col = ys if step is None else np.nextafter(ys, step)
            col[::2] = ys[::2]
            xs = offset + sep * np.arange(-4, 5) / 3.0
            cands = np.concatenate([np.stack([np.full(col.size, x), col], axis=1) for x in xs])
            # the same column again, with existing points in it
            existing = cands[5:80:7] + np.array([0.0, sep])
            for near in (np.empty((0, 2)), existing):
                got = _kernels.greedy_net(cands, near, sep, strict)
                want = brute_force_greedy_net(cands, near, sep, strict)
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("strict", [False, True])
    def test_interleaved_columns(self, strict):
        # lattice columns visited in shuffled order, so consecutive
        # candidates alternate columns and runs are short
        sep = 0.3
        idx = np.array([(i, j) for i in range(-20, 21) for j in range(-20, 21)])
        lattice = (sep / 8.0) * idx.astype(float)
        rng = np.random.default_rng(17)
        # whole columns in shuffled order, then candidates dealt from
        # three columns at a time
        columns = [lattice[idx[:, 0] == i] for i in rng.permutation(np.arange(-20, 21))]
        dealt = np.concatenate(
            [np.stack(columns[k : k + 3], axis=1).reshape(-1, 2) for k in range(0, 39, 3)]
            + columns[39:]
        )
        for cands in (np.concatenate(columns), dealt):
            for existing in (np.empty((0, 2)), cands[:40:9] + sep / 16.0):
                got = _kernels.greedy_net(cands, existing, sep, strict)
                want = brute_force_greedy_net(cands, existing, sep, strict)
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("offset", [0.0, -7.3, 1e5])
    def test_random_columns(self, offset):
        # columns at random x with random y: runs of every length, from 1 to
        # longer than a query chunk
        rng = np.random.default_rng(18)
        xs = offset + rng.uniform(-1.0, 1.0, size=40)
        lengths = rng.integers(1, 40, size=40)
        lengths[7] = _kernels._QUERY_CHUNK + 50
        cands = np.concatenate(
            [
                np.stack([np.full(n, x), offset + rng.uniform(-1.0, 1.0, n)], axis=1)
                for x, n in zip(xs, lengths)
            ]
        )
        existing = offset + rng.uniform(-1.0, 1.0, size=(5, 2))
        for strict in (False, True):
            got = _kernels.greedy_net(cands, existing, 0.3, strict)
            want = brute_force_greedy_net(cands, existing, 0.3, strict)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("strict", [False, True])
    def test_limit_keeps_a_prefix(self, strict):
        # a limit stops the scan after limit + 1 rows, existing ones counted;
        # what it returns is the head of the unlimited result
        sep = 0.3
        idx = np.array([(i, j) for i in range(-24, 25) for j in range(-24, 25)])
        lattice = (sep / 8.0) * idx.astype(float)
        shuffled = lattice[np.random.default_rng(16).permutation(len(lattice))]
        for cands in (lattice, shuffled):
            for existing in (np.empty((0, 2)), cands[:3] + sep / 16.0):
                full = _kernels.greedy_net(cands, existing, sep, strict)
                n = len(full)
                for limit in (0, 1, 2, 3, 4, 10, n - 2, n - 1, n, n + 5):
                    got = _kernels.greedy_net(cands, existing, sep, strict, limit=limit)
                    assert np.array_equal(got, full[: limit + 1])


class TestBucketGrid:
    """Grid queries return exactly the pairs whose keys are within reach."""

    @pytest.mark.parametrize("offset", [0.0, 1e5])
    @pytest.mark.parametrize("reach", [0, 1, 3])
    def test_pairs_match_keys(self, offset, reach):
        rng = np.random.default_rng(20)
        # 400 points in one bucket give more pairs than one chunk holds
        pts = offset + np.concatenate(
            [rng.uniform(-2.0, 2.0, (300, 2)), rng.uniform(0.0, 0.01, (400, 2)), [[5.0, -3.0]]]
        )
        grid = _kernels.BucketGrid(pts, *_kernels.bucket_frame(pts, 0.3))
        kx, ky = grid.keys(pts)
        for queries in (pts, pts[::-7] + 0.01):
            qkx, qky = grid.keys(queries)
            near_x = np.abs(qkx[:, None] - kx[None, :]) <= reach
            want = np.argwhere(near_x & (np.abs(qky[:, None] - ky[None, :]) <= reach))
            chunks = list(grid.pairs(queries, reach))
            got = np.concatenate([np.stack(c, axis=1) for c in chunks])
            assert len(chunks) > 1 or len(want) <= _kernels._PAIR_CHUNK
            assert len(got) == len(want)
            assert np.array_equal(got[np.lexsort(got.T[::-1])], want)

    def test_keys_of_a_wide_spread(self):
        # a radius 1e-300 of the spread: every key stays below ~1e15
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [1e-300, 0.0], [0.5, 1.0]])
        grid = _kernels.BucketGrid(pts, *_kernels.bucket_frame(pts, 1e-300))
        kx, ky = grid.keys(pts)
        assert kx.max() < 1.1e15 and ky.max() < 1.1e15
        assert kx[0] == kx[2] and ky[0] == ky[2]
        pairs = np.concatenate([np.stack(c, axis=1) for c in grid.pairs(pts)])
        want = [(0, 0), (0, 2), (1, 1), (2, 0), (2, 2), (3, 3)]
        assert sorted(map(tuple, pairs.tolist())) == want


def brute_force_close_pair(pts, close):
    """Reference pair test: every pair of distinct indices is measured."""
    pts = np.asarray(pts, dtype=float)
    for i in range(len(pts)):
        d = pts[i + 1 :] - pts[i]
        if close(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]).any():
            return True
    return False


def close_pair_cases():
    """(points, radius, close, expected) for geometry._close_pair: the two
    tests its callers make, at and around their thresholds."""
    rng = np.random.default_rng(19)
    r, tol = 0.25, 1e-12
    tangent = 0.25 + 0.5 * np.array([(i, j) for i in range(30) for j in range(30)], dtype=float)
    cluster = np.concatenate([rng.uniform(0.0, 1e-3, (300, 2)), rng.uniform(-5.0, 5.0, (30, 2))])
    cases = []
    overlap = lambda d2: np.sqrt(d2) < 2.0 * r  # noqa: E731
    # tangent balls, and every ball one ulp wider than tangent
    wider = lambda d2: np.sqrt(d2) <= 2.0 * r  # noqa: E731
    for offset in (0.0, 1e5):
        # one center moved a single ulp towards its neighbour
        touching = offset + tangent
        touching[417, 0] = np.nextafter(touching[417, 0], np.inf)
        cases += [
            (offset + tangent, 2.0 * r, overlap, False),
            (offset + tangent, 2.0 * r, wider, True),
            (touching, 2.0 * r, overlap, True),
            (offset + np.array([[0.0, 0.0], [0.5, 0.0]]), 2.0 * r, overlap, False),
            (offset + np.array([[0.0, 0.0], [0.0, 0.49]]), 2.0 * r, overlap, True),
            (offset + cluster, 2.0 * r, overlap, True),
        ]
    same = lambda d2: d2 <= tol * tol  # noqa: E731
    one_tol = np.array([[0.3, 0.7], [0.3 + tol, 0.7], [5.0, -2.0]])
    beyond = one_tol.copy()
    beyond[1, 0] = np.nextafter(np.nextafter(0.3 + tol, 1.0), 1.0)
    spread = rng.uniform(-1.0, 1.0, (200, 2))
    spread[50] = spread[49] + np.array([1e-300, 0.0])
    cases += [
        (one_tol, tol, same, None),
        (beyond, tol, same, None),
        (cluster, tol, same, False),
        (np.array([[2.0, 2.0], [2.0, 2.0]]), tol, same, True),
        (np.array([[2.0, 2.0], [3.0, 2.0]]), tol, same, False),
        # pairs 1e-300 apart in a spread of 2: every bucket holds one point
        (spread, tol, same, True),
        (spread, 1e-300, lambda d2: np.sqrt(d2) <= 1e-300, True),
        (np.delete(spread, 50, axis=0), 1e-300, lambda d2: np.sqrt(d2) <= 1e-300, False),
    ]
    return cases


class TestClosePairOracle:
    """The bucket-grid pair test agrees with the all-pairs one."""

    @pytest.mark.parametrize("case", range(len(close_pair_cases())))
    def test_agrees_with_all_pairs(self, case):
        pts, radius, close, expected = close_pair_cases()[case]
        want = brute_force_close_pair(pts, close)
        if expected is not None:
            assert want is expected
        assert geometry._close_pair(np.asarray(pts, dtype=float), radius, close) is want


class TestSvg:
    def test_scene_is_wellformed(self):
        hexa = regular_polygon(6)
        net = maximal_separated_net(hexa, 0.5)
        part = voronoi_partition(hexa, net)
        s = rectangle_sandwich(hexa)
        out = svg_scene(hexa, cells=part.cells, boxes=[s.inner, s.outer])
        assert out.startswith("<svg")
        assert out.endswith("</svg>")
        assert out.count("<polygon") == 1 + len(part.cells) + 2
        assert out.count("stroke-dasharray") == 2
