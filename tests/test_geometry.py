"""Geometry invariants, with independently computed oracles where the
expected values are not obvious."""

import hashlib
import math

import numpy as np
import pytest

from spectral_certify import _kernels, certify, geometry
from spectral_certify.bounds import rectangle_spectrum
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
    polygon_from_json,
    rectangle_from_polygon,
    rectangle_sandwich,
    regular_polygon,
    svg_scene,
    voronoi_partition,
)

from oracles import inertia, pairwise_diameters, partition_radius, polygon_to_json

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

    @pytest.mark.parametrize("size", [1e-148, 1e-160, 3e150, 1e300])
    def test_coordinate_scale_out_of_range(self, size):
        # squares and cross products of coordinates would overflow, or the
        # cross-product tolerance underflow; nothing is formed before the check
        with np.errstate(all="raise"):
            with pytest.raises(GeometryError, match=r"outside \[1.49e-148, 1e\+150\]"):
                ConvexPolygon(np.array(UNIT_SQUARE) * size)
            with pytest.raises(GeometryError, match="^cell 1: largest"):
                ConvexPolygon.many([UNIT_SQUARE, np.array(UNIT_SQUARE) * size])

    @pytest.mark.parametrize("size", [geometry.SCALE_MIN, geometry.SCALE_MAX])
    def test_coordinate_scale_at_range_ends(self, size):
        with np.errstate(over="raise", invalid="raise"):
            P = ConvexPolygon([[0.0, 0.0], [size, 0.0], [size, size], [0.0, size]])
        assert P.scale == size
        assert P.area == size * size

    # a polygon 800,000 units off the origin, where coordinates are spaced
    # 1.2e-10 apart
    FAR = 800000.0

    def test_small_polygon_far_from_origin(self):
        # the tolerances follow the polygon's own extent and the rounding of
        # coordinates where it sits, not its distance from the origin
        P = ConvexPolygon(np.array(UNIT_SQUARE) * 0.25 + [self.FAR, 0.0])
        assert P.n == 4
        assert P.area == 0.0625
        assert P.scale == self.FAR + 0.125

    @pytest.mark.parametrize(
        "vertices, message",
        [
            (np.array(UNIT_SQUARE) * 0.25, None),
            ([[0.0, 0.0], [0.125, 0.0], [0.25, 0.0]], "degenerate"),
            ([[0.0, 0.0], [0.25, 0.0], [0.125, 1e-12]], "degenerate"),
            (np.array(UNIT_SQUARE[::-1]) * 0.25, "counterclockwise"),
            ([[0.0, 0.0], [1e-10, 0.0], [0.0, 1e-10]], "distinct"),
        ],
        ids=["square", "flat", "sliver", "clockwise", "unresolved"],
    )
    def test_far_out_on_both_axes(self, vertices, message):
        # the shoelace sum is taken relative to a vertex, so its rounding
        # follows the polygon's size, not max|x| max|y| = 9e14
        vertices = np.array(vertices) + [3e7, 3e7]
        if message is not None:
            with pytest.raises(GeometryError, match=message):
                ConvexPolygon(vertices)
        else:
            assert ConvexPolygon(vertices).area == 0.0625

    def test_short_edges_far_from_origin(self):
        # each turn, |e|^2 sin(2 pi / 3344) ~ 4.2e-10, is far above its own
        # rounding but below 2^-47 x scale x width = 2.8e-9
        P = ConvexPolygon(regular_polygon(3344).vertices * 0.25 + [self.FAR, 0.0])
        assert P.n == 3344
        assert P.area == pytest.approx(regular_polygon(3344).area / 16.0, rel=1e-9)

    def test_containment_far_from_origin(self):
        # 1e-7 outside the right edge is 4e-7 of the side: outside, though
        # within EPS_REL x the largest |coordinate| (8e-7)
        P = ConvexPolygon(np.array(UNIT_SQUARE) * 0.25 + [self.FAR, 0.0])
        assert P.contains_points([[self.FAR + 0.125 + 1e-7, 0.0]]).tolist() == [False]
        assert P.contains_points([[self.FAR + 0.125, 0.0], [self.FAR, 0.1]]).tolist() == [True, True]
        # a partition tests its sites with the same tolerance
        VoronoiPartition(P, [[self.FAR + 0.125, 0.0]], [P])
        with pytest.raises(GeometryError, match="does not contain its site"):
            VoronoiPartition(P, [[self.FAR + 0.125 + 1e-7, 0.0]], [P])

    @pytest.mark.parametrize(
        "P",
        [ConvexPolygon(UNIT_SQUARE), regular_polygon(7, 3.0), ConvexPolygon([[0, 0], [1e3, 0], [1e3, 1e-3]])],
        ids=["square", "heptagon", "sliver"],
    )
    def test_containment_about_origin_at_scale_tolerance(self, P):
        # a polygon whose bounding box holds the origin tests points to
        # within EPS_REL x its largest |coordinate|: points pushed out of
        # each edge by 0.5 and 1.5 times that tolerance, and in by 0.5
        normals, offsets = P.edge_halfplanes()
        tol = geometry.EPS_REL * P.scale
        mid = 0.5 * (P.vertices + np.roll(P.vertices, -1, axis=0))
        pts = np.concatenate([mid + f * tol * normals for f in (-0.5, 0.5, 1.5)])
        expected = _kernels.points_in_halfplanes(pts, normals, offsets, tol)
        assert P.contains_points(pts).tolist() == expected.tolist()
        assert expected.sum() == 2 * P.n

    @pytest.mark.parametrize(
        "vertices, message",
        [
            ([[0.0, 0.0], [0.125, 0.0], [0.25, 0.0]], "degenerate"),  # flat
            # collinear to within the coordinate spacing, and four collinear
            ([[0.0, 0.0], [0.25, 0.0], [0.125, 1e-12]], "degenerate"),
            ([[0.0, 0.0], [0.125, 0.0], [0.25, 0.0], [0.25, 1e-12]], "degenerate"),
            (np.array(UNIT_SQUARE[::-1]) * 0.25, "counterclockwise"),
            ([[0.0, 0.0], [1e-10, 0.0], [0.0, 1e-10]], "distinct"),  # one spacing wide
        ],
        ids=["flat", "sliver", "collinear", "clockwise", "unresolved"],
    )
    def test_degenerate_far_from_origin_rejected(self, vertices, message):
        with pytest.raises(GeometryError, match=message):
            ConvexPolygon(np.array(vertices) + [self.FAR, 0.0])

    def test_sliver_about_origin_rejected(self):
        # about the origin the tolerances are those of the coordinate scale:
        # corners turning by half of EPS_REL * scale^2 are not corners
        with pytest.raises(GeometryError, match="degenerate"):
            ConvexPolygon([[0.0, 0.0], [1.0, 0.0], [0.5, 5e-13]])

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

    @staticmethod
    def _batches(monkeypatch):
        """Record every vertex-list batch ConvexPolygon.many receives while
        the Voronoi partition of the rect:10:10, k = l = 40, C = 0.5 net and
        the 1 x 10 grid certificate of a moved, turned 1 x 10 rectangle are
        built; returns the batches and the cells of both."""
        batches = []
        many = ConvexPolygon.many

        def recording(vertex_lists):
            batches.append(vertex_lists)
            return many(vertex_lists)

        monkeypatch.setattr(ConvexPolygon, "many", staticmethod(recording))
        rect = Rectangle(Point2(0.0, 0.0), 5.0, 5.0, 0.0).polygon()
        R = partition_radius(40, 40, 0.5, rectangle_spectrum(5.0, 5.0, 41)[40])
        cells = voronoi_partition(rect, maximal_separated_net(inner_offset(rect, R), 2.0 * R)).cells
        turned = Rectangle(Point2(0.3, -0.2), 0.5, 5.0, 0.4)
        cells += certify.construct_partition(turned, 10, 10, 1.0).cells
        monkeypatch.setattr(ConvexPolygon, "many", many)
        assert [len(b) for b in batches] == [394, 10]
        return batches, cells

    @staticmethod
    def _random_polygons(count=200, seed=11):
        """Convex polygons of 3-24 vertices on rotated, moved ellipses of
        scale 1e-3-1e3, with an exact duplicate, a near duplicate (below
        the tolerance) and an edge midpoint (collinear) injected at random."""
        rng = np.random.default_rng(seed)
        polygons = []
        for _ in range(count):
            n = int(rng.integers(3, 25))
            ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
            scale = 10.0 ** rng.uniform(-3, 3)
            ax = scale * rng.uniform(0.2, 1.0, 2)
            c, s = math.cos(rng.uniform(0, np.pi)), math.sin(rng.uniform(0, np.pi))
            pts = np.stack([ax[0] * np.cos(ang), ax[1] * np.sin(ang)], axis=1)
            pts = pts @ np.array([[c, s], [-s, c]]) + scale * rng.uniform(-5, 5, 2)
            verts = pts.tolist()
            for _ in range(int(rng.integers(0, 4))):
                i = int(rng.integers(len(verts)))
                kind = rng.integers(3)
                if kind == 0:
                    verts.insert(i, list(verts[i]))
                elif kind == 1:
                    verts.insert(i, [verts[i][0] * (1 + 1e-15), verts[i][1]])
                else:
                    j = (i + 1) % len(verts)
                    mid = [(verts[i][0] + verts[j][0]) / 2, (verts[i][1] + verts[j][1]) / 2]
                    verts.insert(i + 1, mid)
            polygons.append(verts)
        return polygons

    @staticmethod
    def _assert_same(batch, singles):
        assert len(batch) == len(singles)
        for P, Q in zip(batch, singles):
            assert P.vertices.dtype == Q.vertices.dtype
            assert P.vertices.tobytes() == Q.vertices.tobytes()
            assert not P.vertices.flags.writeable
            assert (P.area, P.scale) == (Q.area, Q.scale)
            # the shoelace sum relative to the first vertex, as np.sum rounds it
            d = P.vertices - P.vertices[0]
            e = np.roll(d, -1, axis=0)
            assert P.area == 0.5 * float(np.sum(d[:, 0] * e[:, 1] - e[:, 0] * d[:, 1]))

    def test_many_matches_one_at_a_time(self, monkeypatch):
        batches, _ = self._batches(monkeypatch)
        batches.append(self._random_polygons())
        for batch in batches:
            self._assert_same(ConvexPolygon.many(batch), [ConvexPolygon(v) for v in batch])
        ns = {P.n for P in ConvexPolygon.many(batches[-1])}
        assert min(ns) == 3 and max(ns) >= 16

    def test_diameters_match_one_at_a_time(self, monkeypatch):
        _, cells = self._batches(monkeypatch)
        cells += ConvexPolygon.many(self._random_polygons())
        cells += [regular_polygon(n, r) for n, r in ((7, 1e-9), (256, 3.0), (1001, 1.0))]
        for P in cells:
            assert diameter(P) == pairwise_diameters(P)

    @pytest.mark.parametrize(
        "bad",
        [
            UNIT_SQUARE[::-1],  # clockwise
            [[0, 0], [1, 0], [float("nan"), 1]],
            [[0, 0, 0], [1, 0, 0], [0, 1, 0]],  # wrong shape
            [[0, 0], [1], [0, 1]],  # ragged
            [[0, 0], [1, 0]],  # fewer than 3 vertices
            [[0, 0], [1, 0], [1, 0], [0, 0]],  # fewer than 3 distinct vertices
            [[0, 0], [1, 0], [2, 0]],  # zero area
            [],
            "square",
            3,
        ],
    )
    def test_many_rejects_what_one_rejects(self, bad):
        with pytest.raises(GeometryError) as alone:
            ConvexPolygon(bad)
        good = UNIT_SQUARE
        with pytest.raises(GeometryError) as batch:
            ConvexPolygon.many([good, good, bad, good])
        assert str(batch.value) == f"cell 2: {alone.value}"

    def test_many_names_the_first_bad_cell(self):
        # cell 1 fails the last check (area), cell 3 the first (finite)
        zero_area = [[0, 0], [1, 0], [2, 0]]
        nan = [[0, 0], [1, 0], [math.nan, 1]]
        with pytest.raises(GeometryError, match="^cell 1: polygon is degenerate"):
            ConvexPolygon.many([UNIT_SQUARE, zero_area, UNIT_SQUARE, nan])
        with pytest.raises(GeometryError, match="^cell 0: point coordinates"):
            ConvexPolygon.many(np.array([nan, zero_area]))
        assert ConvexPolygon.many([]) == []

    def test_certificate_with_a_corrupted_cell(self):
        from spectral_certify.certify import PartitionCertificate, construct_partition, verify_certificate

        rect = Rectangle(Point2(0.0, 0.0), 0.5, 5.0, 0.0)
        cert = construct_partition(rect, 7, 7)
        obj = cert.to_dict()
        assert len(obj["cells"]) > 3
        obj["cells"][3] = obj["cells"][3][::-1]
        # no cell is checked as a polygon: a clockwise cell loads, and is
        # not the grid
        report = verify_certificate(PartitionCertificate.from_dict(obj))
        assert [link.name for link in report.links if not link.holds] == ["grid_rebuilt"]

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

    def test_grids_over_budget_rejected_before_any_is_built(self, monkeypatch):
        # the grid budget is checked before either grid is built
        def no_grid(*args, **kwargs):
            raise AssertionError("a net grid was built")

        monkeypatch.setattr(np, "meshgrid", no_grid)
        sq = ConvexPolygon([[0, 0], [10, 0], [10, 10], [0, 10]])
        with pytest.raises(GeometryError, match="too small"):
            maximal_separated_net(sq, 1e-3)

    @pytest.mark.parametrize("limit", [0, 1, 22, 23, 24, 25, 26, 100])
    def test_limit_gives_a_prefix(self, limit, monkeypatch):
        # the 12-gon's sep=0.37 net has 26 points, 24 of them from the
        # coarse pass: a net cut to its first limit + 1 sites (as the square
        # probes cut theirs to 25) stops in either pass, or in neither, and
        # is the head of the all-pairs scans of both passes
        scan = _kernels.greedy_net
        passes = []

        def recorded(candidates, existing, sep, strict):
            net = scan(candidates, existing, sep, strict)
            passes.append((candidates, existing, sep, strict, net))
            return net

        monkeypatch.setattr(_kernels, "greedy_net", recorded)
        got = maximal_separated_net(regular_polygon(12), 0.37)[: limit + 1]
        assert [len(p[-1]) for p in passes] == [24, 26]
        coarse, fine = (brute_force_greedy_net(*p[:4]) for p in passes)
        assert np.array_equal(fine[:24], coarse)
        assert np.array_equal(got, fine[: limit + 1])
        assert np.array_equal(got[:24], coarse[: limit + 1])

    def test_rejects_bad_separation(self):
        sq = ConvexPolygon(UNIT_SQUARE)
        with pytest.raises(GeometryError):
            maximal_separated_net(sq, 0.0)
        with pytest.raises(GeometryError):
            maximal_separated_net(None, 1.0)


def _net_digest(net):
    return hashlib.sha256(np.ascontiguousarray(net, dtype=np.float64).tobytes()).hexdigest()


def _seeded_convex_polygon():
    """Nine random points on a rotated, shifted ellipse, in angle order."""
    rng = np.random.default_rng(31)
    ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, 9))
    t = 0.6
    turn = np.array([[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]])
    pts = np.stack([1.7 * np.cos(ang), 0.9 * np.sin(ang)], axis=1) @ turn
    return ConvexPolygon(pts + np.array([3.1, -1.2]))


class TestNetPins:
    """sha256 of the sites of nets that certificates are built on, as an
    earlier implementation of the scan kept them: a rewrite of the scan
    must keep them bit for bit."""

    @pytest.mark.parametrize(
        "C, sites, digest",
        [
            (0.5, 394, "9bbba50ab88de05cfa1ece2c04da59879d9d0151ce8aa793c4875fd89a452f54"),
            (0.25, 1594, "62a034b0804bd06ea528feb51e2e5fb258a3c2228343ed5e9ff1d658839e8e7a"),
        ],
    )
    def test_rect_10x10(self, C, sites, digest):
        # the net of the rect:10:10, k = l = 40 certificate at constant C
        R = partition_radius(40, 40, C, rectangle_spectrum(5.0, 5.0, 41)[40])
        rect = Rectangle(Point2(0.0, 0.0), 5.0, 5.0, 0.0).polygon()
        net = maximal_separated_net(inner_offset(rect, R), 2.0 * R)
        assert (len(net), _net_digest(net)) == (sites, digest)

    # the constants at which a search over C once built nets for the square
    # certificate with k = l = 24, each net capped at l + 1 = 25 sites: the
    # first 25 sites of the full net
    SQUARE_PROBES = [
        0.25, 0.5, 1.0, 2.0, 2.8284271247461903, 3.3635856610148585, 3.668016172818685, 3.8304131227942944
    ]

    def test_square_search_probes(self):
        square = Rectangle(Point2(0.0, 0.0), 0.5, 0.5, 0.0).polygon()
        mu_24 = rectangle_spectrum(0.5, 0.5, 25)[24]
        probes = []
        for C in self.SQUARE_PROBES:
            R = partition_radius(24, 24, C, mu_24)
            sites = maximal_separated_net(inner_offset(square, R), 2.0 * R)[:25]
            probes.append((24, len(sites), _net_digest(sites)))
        assert probes == [
            (24, 25, "4e528b92006ef5a73adf91bc51667da5f2bcd885aeb7dbab4d2dc0077f40db97"),
            (24, 25, "4cc558e54c05b078c7cd9d5252a8545c1fae5486da53cbf813f1c0c91a2c61a7"),
            (24, 25, "c2260760eeadd311b0d82453678c97bcc5a714eb40e7b0e2b8126fbff36676de"),
            (24, 13, "1b6eb77f80a1ac382a3750cdbc4684658eb0208f1172d750f2813340ffe8ba23"),
            (24, 6, "6eb0da47cad4812bae1b8905550905c5d95dded1adadd551f97a4e43eb61eb65"),
            (24, 3, "e9f3f936d9a28d5dce99634882880a429196622a8c996ecf69b9df0aa9323911"),
            (24, 3, "64d43581e281492200427e7b0574df39a7c8aa3ac92269bca0b08abb5b920691"),
            (24, 3, "ff36118cfd066fb273b7b805f41eb8cced5d90e07c4944d7916e9c040056c744"),
        ]

    def test_random_polygon(self):
        net = maximal_separated_net(_seeded_convex_polygon(), 0.23)
        assert (len(net), _net_digest(net)) == (
            75,
            "af85fde18d38c45c009cb56a76c6a4a4f6b2819e7cb31b563d03fc8fb9d29d6b",
        )


class TestNetLattice:
    @staticmethod
    def _scanned(monkeypatch):
        """Record the candidates of every greedy_net call."""
        scan = _kernels.greedy_net
        seen = []

        def recorded(candidates, *args, **kwargs):
            seen.append(candidates.copy())
            return scan(candidates, *args, **kwargs)

        monkeypatch.setattr(_kernels, "greedy_net", recorded)
        return seen

    def test_candidates_in_lexicographic_order(self, monkeypatch):
        # the lattice is scanned as the meshgrid lays it out, unsorted: it
        # must come out strictly increasing in (x, y); the nets are those the
        # square search probes and the rect:10:10, C = 0.5 net of TestNetPins
        seen = self._scanned(monkeypatch)
        square = Rectangle(Point2(0.0, 0.0), 0.5, 0.5, 0.0).polygon()
        mu_24 = rectangle_spectrum(0.5, 0.5, 25)[24]
        for C in TestNetPins.SQUARE_PROBES:
            R = partition_radius(24, 24, C, mu_24)
            maximal_separated_net(inner_offset(square, R), 2.0 * R)
        rect = Rectangle(Point2(0.0, 0.0), 5.0, 5.0, 0.0).polygon()
        R = partition_radius(40, 40, 0.5, rectangle_spectrum(5.0, 5.0, 41)[40])
        maximal_separated_net(inner_offset(rect, R), 2.0 * R)
        far = ConvexPolygon(regular_polygon(7).vertices + 1e5)
        maximal_separated_net(far, 0.2)
        assert len(seen) > 10
        for pts in seen:
            x, y = pts[:, 0], pts[:, 1]
            assert ((x[1:] > x[:-1]) | ((x[1:] == x[:-1]) & (y[1:] > y[:-1]))).all()
            assert np.array_equal(np.lexsort((y, x)), np.arange(len(pts)))


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
        # beyond their nearest sites
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
    # many site spacings
    strip = Rectangle(Point2(0.0, 0.0), 0.25, 20.0, 0.0).polygon()
    crowd = rng.uniform([-0.24, -19.9], [0.24, -17.0], (60, 2))
    cases.append((strip, np.concatenate([crowd, [[0.0, 15.0], [0.1, 19.5]]])))
    return cases


class TestVoronoiOracle:
    """The partition gives exactly the argsort reference cells."""

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

    def test_far_rectangle_recognised(self):
        r = Rectangle(Point2(800000.0, 0.0), 0.25, 0.5, 0.3)
        back = rectangle_from_polygon(r.polygon())
        assert back is not None
        assert back.half_width_a == pytest.approx(0.25, rel=1e-9)
        assert back.half_width_b == pytest.approx(0.5, rel=1e-9)

    @pytest.mark.parametrize(
        "vertices",
        [
            # equal sides, edges at a dot product of 0.16
            [[800000.5, 0.0], [800000.0, 0.3], [799999.5, 0.0], [800000.0, -0.3]],
            # a parallelogram leaning by 1e-6 over a unit side
            [[800000.0, 0.0], [800001.0, 0.0], [800001.000001, 1.0], [800000.000001, 1.0]],
        ],
        ids=["rhombus", "parallelogram"],
    )
    def test_far_non_rectangles_rejected(self, vertices):
        # the right-angle test is relative to the polygon's own size, not
        # to its distance from the origin
        assert rectangle_from_polygon(ConvexPolygon(vertices)) is None


class TestSandwich:
    @staticmethod
    def _assert_box_inner(a, b, rot):
        # a rectangle of half-widths a, b has standard deviations a / sqrt(3)
        # and b / sqrt(3) along its sides, and its sandwich dilates by 2
        box = Rectangle(Point2(0.25, -1.0), a, b, rot).polygon()
        s = rectangle_sandwich(box)
        assert s.inner.half_width_a == pytest.approx(a / math.sqrt(3.0), rel=1e-15, abs=1e-15)
        assert s.inner.half_width_b == pytest.approx(b / math.sqrt(3.0), rel=1e-15, abs=1e-15)
        assert s.dilation_factor == 2.0

    def test_unit_square_half_widths(self):
        self._assert_box_inner(0.5, 0.5, 0.0)

    def test_tall_box_exact_inner(self):
        self._assert_box_inner(1.0, 2.0, 0.0)

    def test_turned_box_half_widths(self):
        self._assert_box_inner(0.3, 1.7, 0.6)

    def test_containment_and_dilation(self, gallery, random_polygons):
        for poly in list(gallery.values()) + random_polygons:
            s = rectangle_sandwich(poly)
            assert poly.contains_points(s.inner.polygon().vertices).all()
            assert s.outer.polygon().contains_points(poly.vertices).all()
            assert s.dilation_factor in (2.0, 4.0)

    def test_inertia_ellipse_sandwich(self, gallery, random_polygons):
        # sqrt(2) E in P in sqrt(8) E, E the inertia ellipse of an oracle
        # centroid and covariance, and the inner box is the largest box of
        # sqrt(2) E along its axes
        for poly in list(gallery.values()) + random_polygons:
            g, S = inertia(poly)
            normals, offsets = poly.edge_halfplanes()
            support = normals @ g + math.sqrt(2.0) * np.sqrt(((normals @ S) * normals).sum(axis=1))
            assert (support <= offsets + 1e-12 * poly.scale).all()
            rel = poly.vertices - g
            assert ((rel @ np.linalg.inv(S)) * rel).sum(axis=1).max() <= 8.0 * (1.0 + 1e-12)
            s = rectangle_sandwich(poly)
            assert s.inner.center.array == pytest.approx(g, rel=1e-12, abs=1e-12 * poly.scale)
            sigma = np.sqrt(np.linalg.eigvalsh(S))
            widths = [s.inner.half_width_a, s.inner.half_width_b]
            assert widths == pytest.approx(sigma.tolist(), rel=1e-9)

    def test_equilateral_triangle_is_tight(self):
        # both inclusions touch: sqrt(2) E is the incircle (radius 1/2 for
        # circumradius 1) and sqrt(8) E the circumcircle
        tri = regular_polygon(3)
        s = rectangle_sandwich(tri)
        sigma = 1.0 / math.sqrt(8.0)
        assert s.inner.half_width_a == pytest.approx(sigma, rel=1e-15)
        assert s.inner.half_width_b == pytest.approx(sigma, rel=1e-15)
        g = s.inner.center.array
        normals, offsets = tri.edge_halfplanes()
        assert offsets - normals @ g == pytest.approx([math.sqrt(2.0) * sigma] * 3, rel=1e-15)
        radii = np.hypot(*(tri.vertices - g).T)
        assert radii == pytest.approx([math.sqrt(8.0) * sigma] * 3, rel=1e-15)
        assert s.dilation_factor == 4.0

    @pytest.mark.parametrize("height", [1e-3, 1e-6, 1e-9])
    def test_thin_turned_triangle(self, height):
        # the standard deviation across a triangle of height h is h / sqrt(18);
        # at h = 1e-9 it cancels to 0 in the covariance of the unturned copy
        cos, sin = math.cos(0.5236), math.sin(0.5236)
        turn = np.array([[cos, -sin], [sin, cos]])
        tri = ConvexPolygon(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, height]]) @ turn.T + [3.1, 7.7])
        s = rectangle_sandwich(tri)
        assert s.inner.half_width_a == pytest.approx(height / math.sqrt(18.0), rel=1e-6)
        assert tri.contains_points(s.inner.polygon().vertices).all()
        assert s.outer.polygon().contains_points(tri.vertices).all()
        assert s.dilation_factor in (2.0, 4.0)

    @pytest.mark.parametrize("radius", [geometry.SCALE_MAX, 1.01 * geometry.SCALE_MIN])
    def test_range_ends(self, radius):
        # the dilated boxes are tested by their corners, so a box reaching
        # past the polygon coordinate range does not end the search
        s = rectangle_sandwich(regular_polygon(6, radius))
        assert s.dilation_factor == 4.0
        assert np.abs(s.outer.corners()).max() > radius

    @pytest.mark.parametrize("power", [300, -300])
    def test_power_of_two_covariance(self, gallery, random_polygons, power):
        f = 2.0**power
        for poly in list(gallery.values()) + random_polygons[:30]:
            s = rectangle_sandwich(poly)
            t = rectangle_sandwich(ConvexPolygon(poly.vertices * f))
            for a, b in ((s.inner, t.inner), (s.outer, t.outer)):
                assert (b.center.x, b.center.y) == (f * a.center.x, f * a.center.y)
                assert (b.half_width_a, b.half_width_b) == (f * a.half_width_a, f * a.half_width_b)
                assert b.rotation == a.rotation
            assert t.dilation_factor == s.dilation_factor

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
    """The windowed scan keeps exactly the sites of the all-pairs scan."""

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

    @pytest.mark.parametrize("sep", [2.0**-30, 2.0**-33])
    @pytest.mark.parametrize("strict", [False, True])
    def test_window_at_the_limit_of_precision(self, sep, strict):
        # at offset 1e5 the pitch sep/8 = 2^-36 at sep = 2^-33 is one ulp of
        # the coordinates, so the x window's bounds x -+ 2 sep round as much
        # as the distances do
        idx = np.array([(i, j) for i in range(-24, 25) for j in range(-24, 25)])
        lattice = 1e5 + (sep / 8.0) * idx.astype(float)
        shuffled = lattice[np.random.default_rng(22).permutation(len(lattice))]
        for cands in (lattice, shuffled):
            for existing in (np.empty((0, 2)), cands[:3] + sep / 16.0):
                got = _kernels.greedy_net(cands, existing, sep, strict)
                want = brute_force_greedy_net(cands, existing, sep, strict)
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("strict", [False, True])
    def test_distances_that_underflow(self, strict):
        # at sep = 2^-540 a point 4 sep away squares to below half the
        # smallest subnormal, so its distance reads 0 and it is rejected
        sep = 2.0**-540
        cands = np.array([[0.0, 0.0], [4.0 * sep, 0.0], [0.0, 4.0 * sep], [2.0**-500, 0.0]])
        for existing in (np.empty((0, 2)), np.array([[-4.0 * sep, 0.0]])):
            got = _kernels.greedy_net(cands, existing, sep, strict)
            assert np.array_equal(got, brute_force_greedy_net(cands, existing, sep, strict))
            assert len(got) == len(existing) + 2

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
        # or longer: ties that each kept site and each existing point meets
        # among the candidates of its x window
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
        # lattice columns visited in shuffled order, so the candidates are
        # not in lexicographic order: a kept site's x window holds
        # candidates from before it in the scan as well as after
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
        # columns at random x with random y, from 1 candidate to 4146
        rng = np.random.default_rng(18)
        xs = offset + rng.uniform(-1.0, 1.0, size=40)
        lengths = rng.integers(1, 40, size=40)
        lengths[7] = 4146
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
    lone_pair = np.delete(spread, 50, axis=0)
    lone_pair[150] = lone_pair[3] + np.array([0.0, 0.5 * tol])
    cases += [
        (one_tol, tol, same, None),
        (beyond, tol, same, None),
        (cluster, tol, same, False),
        (np.array([[2.0, 2.0], [2.0, 2.0]]), tol, same, True),
        (np.array([[2.0, 2.0], [3.0, 2.0]]), tol, same, False),
        # pairs 1e-300 apart in a spread of 2
        (spread, tol, same, True),
        (spread, 1e-300, lambda d2: np.sqrt(d2) <= 1e-300, True),
        (np.delete(spread, 50, axis=0), 1e-300, lambda d2: np.sqrt(d2) <= 1e-300, False),
        # one close pair, far apart in row order
        (lone_pair, tol, same, True),
    ]
    return cases


class TestClosePairOracle:
    """The windowed pair test agrees with the all-pairs one."""

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
        out = svg_scene(hexa, cells=[cell.vertices for cell in part.cells], boxes=[s.inner, s.outer])
        assert out.startswith("<svg")
        assert out.endswith("</svg>")
        assert out.count("<polygon") == 1 + len(part.cells) + 2
        assert out.count("stroke-dasharray") == 2
