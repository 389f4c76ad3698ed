"""Geometry invariants, with independently computed oracles where the
expected values are not obvious."""

import math

import numpy as np
import pytest

from spectral_certify import _kernels
from spectral_certify.geometry import (
    BoxSandwich,
    ConvexPolygon,
    GeometryError,
    Point2,
    Rectangle,
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

    @pytest.mark.parametrize("offset", [0.0, -7.3, 1e5])
    def test_random_points(self, offset):
        rng = np.random.default_rng(14)
        cands = offset + rng.uniform(-1.0, 1.0, size=(2000, 2))
        existing = offset + rng.uniform(-1.0, 1.0, size=(5, 2))
        for strict in (False, True):
            got = _kernels.greedy_net(cands, existing, 0.3, strict)
            want = brute_force_greedy_net(cands, existing, 0.3, strict)
            assert np.array_equal(got, want)


class TestSvg:
    def test_scene_is_wellformed(self):
        hexa = regular_polygon(6)
        net = maximal_separated_net(hexa, 0.5)
        part = voronoi_partition(hexa, net)
        out = svg_scene(hexa, cells=part.cells, sites=part.sites)
        assert out.startswith("<svg")
        assert out.endswith("</svg>")
        assert out.count("<polygon") == 1 + len(part.cells)
        assert out.count("<circle") == len(part.sites)
