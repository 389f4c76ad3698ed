"""Mesh construction, uniform refinement, and the conformity audit."""

import math

import numpy as np
import pytest

from spectral_certify.geometry import ConvexPolygon, regular_polygon
from spectral_certify.mesh import (
    MeshError,
    TriangleMesh,
    _edge_counts,
    check_conforming,
    check_refinement,
    mesh_polygon,
    refine,
    triangulate,
)

UNIT_SQUARE = ConvexPolygon([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])


def _moved_quadrilateral():
    quad = np.array([[0.0, 0.0], [3.0, 0.4], [2.5, 2.0], [0.3, 1.6]])
    c, s = math.cos(0.7371), math.sin(0.7371)
    return ConvexPolygon(quad @ np.array([[c, s], [-s, c]]) + [5.0, -3.0])


ORACLE_DOMAINS = {
    "square": (UNIT_SQUARE, 5),
    "rect_10x1": (ConvexPolygon([[-5.0, -0.5], [5.0, -0.5], [5.0, 0.5], [-5.0, 0.5]]), 5),
    "regular_5": (regular_polygon(5), 5),
    "regular_7": (regular_polygon(7), 5),
    "regular_256": (regular_polygon(256), 3),
    "moved_quad": (_moved_quadrilateral(), 5),
}


def _oracle_edge_counts(triangles):
    """Edge table by sorted side pairs and np.unique over rows."""
    edges = np.concatenate(
        [triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]]
    )
    edges.sort(axis=1)
    return np.unique(edges, axis=0, return_counts=True)


def _oracle_refine(mesh):
    """Uniform refinement one parent triangle at a time, midpoints numbered
    through a dict over the lexicographically sorted edges."""
    uniq, _ = _oracle_edge_counts(mesh.triangles)
    edge_index = {(int(a), int(b)): i for i, (a, b) in enumerate(uniq)}
    nv = mesh.num_vertices
    mid = 0.5 * (mesh.vertices[uniq[:, 0]] + mesh.vertices[uniq[:, 1]])
    verts = np.vstack([mesh.vertices, mid])

    def midpoint(a, b):
        return nv + edge_index[(a, b) if a < b else (b, a)]

    children = np.empty((4 * mesh.num_triangles, 3), dtype=np.int64)
    for t, (i, j, k) in enumerate(mesh.triangles.tolist()):
        mij, mjk, mki = midpoint(i, j), midpoint(j, k), midpoint(k, i)
        children[4 * t + 0] = (i, mij, mki)
        children[4 * t + 1] = (mij, j, mjk)
        children[4 * t + 2] = (mki, mjk, k)
        children[4 * t + 3] = (mij, mjk, mki)
    return TriangleMesh(vertices=verts, triangles=children, h_max=mesh.h_max / 2.0)


def _assert_same_refinement(mesh):
    got, want = refine(mesh), _oracle_refine(mesh)
    assert np.array_equal(got.vertices, want.vertices)
    assert np.array_equal(got.triangles, want.triangles)
    assert got.h_max == want.h_max
    uniq, counts, _ = _edge_counts(mesh.triangles)
    want_uniq, want_counts = _oracle_edge_counts(mesh.triangles)
    assert np.array_equal(uniq, want_uniq) and np.array_equal(counts, want_counts)
    return got


class TestRefineOracle:
    @pytest.mark.parametrize("name", sorted(ORACLE_DOMAINS))
    def test_refinement_equals_loop(self, name):
        poly, top = ORACLE_DOMAINS[name]
        mesh = triangulate(poly)
        for _ in range(top + 1):
            mesh = _assert_same_refinement(mesh)

    def test_shuffled_triangles(self):
        mesh = mesh_polygon(regular_polygon(7), 2)
        rng = np.random.default_rng(5)
        tris = mesh.triangles[rng.permutation(mesh.num_triangles)]
        # turning the corners of a row keeps its orientation
        turns = rng.integers(0, 3, mesh.num_triangles)
        tris = np.stack([np.roll(row, r) for row, r in zip(tris, turns)])
        shuffled = TriangleMesh(mesh.vertices, tris, mesh.h_max)
        for _ in range(3):
            shuffled = _assert_same_refinement(shuffled)


class TestCounts:
    def test_fan_counts(self):
        mesh = triangulate(UNIT_SQUARE)
        assert mesh.num_vertices == 5
        assert mesh.num_triangles == 4
        assert check_conforming(mesh)["boundary_edges"] == 4

    @pytest.mark.parametrize("levels", [0, 1, 2, 3])
    def test_triangle_count_grows_fourfold(self, levels):
        hexa = regular_polygon(6)
        mesh = mesh_polygon(hexa, levels)
        assert mesh.num_triangles == 6 * 4**levels

    def test_vertex_and_edge_recurrence(self):
        # refinement adds one vertex per edge and turns E into 2E + 3T
        mesh = triangulate(regular_polygon(5))
        for _ in range(3):
            stats = check_conforming(mesh)
            child = refine(mesh)
            child_stats = check_conforming(child)
            assert child_stats["vertices"] == stats["vertices"] + stats["edges"]
            assert child_stats["edges"] == 2 * stats["edges"] + 3 * stats["triangles"]
            assert child_stats["boundary_edges"] == 2 * stats["boundary_edges"]
            mesh = child

    @pytest.mark.parametrize("levels", [0, 1, 2, 4])
    def test_checked_vertex_count(self, levels):
        for poly in (UNIT_SQUARE, regular_polygon(5), regular_polygon(256), _moved_quadrilateral()):
            assert check_refinement(poly, levels) == mesh_polygon(poly, levels).num_vertices

    def test_euler_relation(self):
        for levels in range(4):
            stats = check_conforming(mesh_polygon(UNIT_SQUARE, levels))
            assert stats["vertices"] - stats["edges"] + stats["triangles"] == 1


class TestRefinementGeometry:
    def test_h_max_halves_exactly(self):
        mesh = triangulate(regular_polygon(7))
        for _ in range(4):
            child = refine(mesh)
            # bitwise: halving a float is exact
            assert child.h_max == mesh.h_max / 2.0
            measured = float(child.edge_lengths().max())
            assert math.isclose(child.h_max, measured, rel_tol=1e-12)
            mesh = child

    def test_min_angle_preserved(self):
        # children are similar to their parents, so refinement cannot
        # degrade the angle quality
        mesh = triangulate(regular_polygon(5))
        base = mesh.min_angle()
        for _ in range(3):
            mesh = refine(mesh)
            assert abs(mesh.min_angle() - base) <= 1e-9

    def test_area_preserved(self):
        for levels in range(4):
            mesh = mesh_polygon(UNIT_SQUARE, levels)
            assert mesh.total_area() == pytest.approx(1.0, rel=1e-12)


class TestConformity:
    def test_gallery_meshes_conform(self, gallery):
        for name, poly in gallery.items():
            stats = check_conforming(mesh_polygon(poly, 2), poly)
            assert stats["area"] == pytest.approx(poly.area, rel=1e-12)
            assert stats["min_angle"] > 0.0

    def test_random_polygon_meshes_conform(self, random_polygons):
        for poly in random_polygons[:25]:
            check_conforming(mesh_polygon(poly, 2), poly)

    def test_detects_flipped_triangle(self):
        mesh = mesh_polygon(UNIT_SQUARE, 1)
        bad = TriangleMesh(vertices=mesh.vertices, triangles=mesh.triangles[:, ::-1], h_max=mesh.h_max)
        with pytest.raises(MeshError):
            check_conforming(bad)

    def test_detects_wrong_h_max(self):
        mesh = mesh_polygon(UNIT_SQUARE, 1)
        bad = TriangleMesh(vertices=mesh.vertices, triangles=mesh.triangles, h_max=mesh.h_max * 1.5)
        with pytest.raises(MeshError):
            check_conforming(bad)

    def test_detects_bowtie(self):
        # two triangles sharing one vertex: V - E + F = 5 - 6 + 2 = 1 as for a
        # disc, but the 6 boundary edges have only 5 distinct endpoints
        verts = np.array([[0.0, 0.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0]])
        tris = np.array([[0, 1, 2], [0, 3, 4]])
        bowtie = TriangleMesh(vertices=verts, triangles=tris, h_max=2.0)
        with pytest.raises(MeshError, match="6 boundary edges on 5 vertices"):
            check_conforming(bowtie)

    def test_detects_annulus_with_detached_triangle(self):
        # a square annulus of 8 triangles (V - E + F = 8 - 16 + 8 = 0) and a
        # detached triangle (1) balance Euler as a disc does, and their 11
        # boundary edges have 11 distinct endpoints, but lie in three cycles
        outer = [[-2.0, -2.0], [2.0, -2.0], [2.0, 2.0], [-2.0, 2.0]]
        inner = [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]
        verts = np.array(outer + inner + [[5.0, 0.0], [6.0, 0.0], [5.0, 1.0]])
        ring = [[i, (i + 1) % 4, 4 + (i + 1) % 4] for i in range(4)]
        ring += [[i, 4 + (i + 1) % 4, 4 + i] for i in range(4)]
        mesh = TriangleMesh(vertices=verts, triangles=np.array(ring + [[8, 9, 10]]), h_max=0.0)
        mesh.h_max = float(mesh.edge_lengths().max())
        with pytest.raises(MeshError, match="11 boundary edges on 11 vertices, not one cycle"):
            check_conforming(mesh)

    def test_detects_area_mismatch(self):
        mesh = mesh_polygon(UNIT_SQUARE, 1)
        with pytest.raises(MeshError):
            check_conforming(mesh, regular_polygon(6))


class TestValidation:
    def test_rejects_bad_levels(self):
        with pytest.raises(MeshError):
            mesh_polygon(UNIT_SQUARE, -1)
        with pytest.raises(MeshError):
            mesh_polygon(UNIT_SQUARE, 1.5)

    def test_rejects_meshes_over_budget(self):
        # 256 * 4**6 and 4 * 4**9 are ~1.05M triangles; the cap keeps huge levels cheap
        for poly, levels in ((regular_polygon(256), 6), (UNIT_SQUARE, 9), (UNIT_SQUARE, 10**9)):
            with pytest.raises(MeshError, match="over budget"):
                mesh_polygon(poly, levels)
        with pytest.raises(MeshError, match="over budget"):
            mesh_polygon(UNIT_SQUARE, np.int64(40))

    def test_rejects_out_of_range_indices(self):
        with pytest.raises(MeshError):
            TriangleMesh(
                vertices=np.zeros((3, 2)),
                triangles=np.array([[0, 1, 5]]),
                h_max=1.0,
            )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(MeshError):
            TriangleMesh(
                vertices=np.zeros((3, 3)),
                triangles=np.array([[0, 1, 2]]),
                h_max=1.0,
            )
