"""Conforming triangle meshes of convex polygons with uniform refinement.

The initial mesh fans the polygon from its centroid; refinement splits
every triangle into four through the edge midpoints, which keeps every
angle of the original mesh (each child is similar to its parent) and
halves the mesh width exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import ConvexPolygon


class MeshError(ValueError):
    pass


# A P1 spectrum peaks under 1700 bytes a triangle (mesh, assembly arrays and LU
# factor of K + M; rect:10:1 at level 8: 262,144 triangles, 478 MiB peak RSS),
# so the budget admits ~630k triangles: level 8 of a quadrilateral, 5 of a 256-gon.
MESH_BYTES = 2**30


@dataclass
class TriangleMesh:
    """Conforming triangulation: vertices (V, 2), positively oriented
    triangles (T, 3), boundary vertex flags, refinement level, mesh width."""

    vertices: np.ndarray
    triangles: np.ndarray
    boundary: np.ndarray
    refinement_level: int
    h_max: float

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.triangles = np.asarray(self.triangles, dtype=np.int64)
        self.boundary = np.asarray(self.boundary, dtype=bool)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be (V, 2)")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangles must be (T, 3)")
        if self.boundary.shape != (self.vertices.shape[0],):
            raise MeshError("boundary flags must match the vertex count")
        if self.triangles.min() < 0 or self.triangles.max() >= self.vertices.shape[0]:
            raise MeshError("triangle indices out of range")

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    def triangle_coords(self) -> np.ndarray:
        """(T, 3, 2) coordinate array of the triangle corners."""
        return self.vertices[self.triangles]

    def signed_areas(self) -> np.ndarray:
        c = self.triangle_coords()
        return 0.5 * (
            (c[:, 1, 0] - c[:, 0, 0]) * (c[:, 2, 1] - c[:, 0, 1])
            - (c[:, 2, 0] - c[:, 0, 0]) * (c[:, 1, 1] - c[:, 0, 1])
        )

    def total_area(self) -> float:
        return float(self.signed_areas().sum())

    def edge_lengths(self) -> np.ndarray:
        c = self.triangle_coords()
        out = np.empty((self.num_triangles, 3))
        for i in range(3):
            d = c[:, (i + 1) % 3, :] - c[:, i, :]
            out[:, i] = np.hypot(d[:, 0], d[:, 1])
        return out

    def min_angle(self) -> float:
        """Smallest interior angle over all triangles, in radians."""
        lengths = self.edge_lengths()
        a, b, c = lengths[:, 0], lengths[:, 1], lengths[:, 2]
        angles = []
        for opp, s1, s2 in ((a, b, c), (b, c, a), (c, a, b)):
            cosv = np.clip((s1**2 + s2**2 - opp**2) / (2.0 * s1 * s2), -1.0, 1.0)
            angles.append(np.arccos(cosv))
        return float(np.minimum.reduce(angles).min())


def _edge_counts(triangles: np.ndarray):
    """Undirected edges (E, 2) in lexicographic order, how many triangles
    share each, and the edge of every triangle side as a (3, T) array whose
    rows are the sides (0, 1), (1, 2) and (2, 0)."""
    a = triangles.T
    b = a[[1, 2, 0]]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    # with every index below v, lo * v + hi sorts exactly like the pair (lo, hi)
    v = int(triangles.max()) + 1
    keys, sides, counts = np.unique(lo * v + hi, return_inverse=True, return_counts=True)
    return np.stack([keys // v, keys % v], axis=1), counts, sides.reshape(3, -1)


def triangulate(P: ConvexPolygon) -> TriangleMesh:
    """Fan triangulation from the centroid: one triangle per polygon edge."""
    n = P.n
    verts = np.vstack([P.vertices, P.centroid[None, :]])
    tris = np.array([[i, (i + 1) % n, n] for i in range(n)], dtype=np.int64)
    boundary = np.zeros(n + 1, dtype=bool)
    boundary[:n] = True
    mesh = TriangleMesh(
        vertices=verts,
        triangles=tris,
        boundary=boundary,
        refinement_level=0,
        h_max=0.0,
    )
    if (mesh.signed_areas() <= 0).any():
        raise MeshError("fan triangulation produced a degenerate triangle")
    mesh.h_max = float(mesh.edge_lengths().max())
    return mesh


def refine(mesh: TriangleMesh) -> TriangleMesh:
    """Uniform refinement: each triangle splits into four via edge
    midpoints.  Children are similar to their parents, so the minimal
    angle is preserved and h_max halves exactly."""
    uniq, counts, sides = _edge_counts(mesh.triangles)
    mid_coords = 0.5 * (mesh.vertices[uniq[:, 0]] + mesh.vertices[uniq[:, 1]])
    verts = np.vstack([mesh.vertices, mid_coords])
    # a midpoint is on the boundary iff its edge belongs to one triangle only
    boundary = np.concatenate([mesh.boundary, counts == 1])
    # columns i, j, k, mij, mjk, mki; children (i, mij, mki), (mij, j, mjk),
    # (mki, mjk, k), (mij, mjk, mki) of each parent in turn
    corners = np.concatenate([mesh.triangles, mesh.num_vertices + sides.T], axis=1)
    children = corners[:, [0, 3, 5, 3, 1, 4, 5, 4, 2, 3, 4, 5]].reshape(-1, 3)
    return TriangleMesh(
        vertices=verts,
        triangles=children,
        boundary=boundary,
        refinement_level=mesh.refinement_level + 1,
        h_max=mesh.h_max / 2.0,
    )


def check_refinement(P: ConvexPolygon, levels: int) -> None:
    """Raise MeshError unless levels is an integer >= 0 whose mesh of P
    fits the MESH_BYTES budget."""
    if not isinstance(levels, (int, np.integer)) or levels < 0:
        raise MeshError("refinement level must be an integer >= 0")
    triangles = P.n * 4 ** min(int(levels), 32)  # past level 32 every mesh is over budget
    if triangles * 1700 > MESH_BYTES:
        raise MeshError(f"refinement level {levels} gives {triangles:.3g} triangles, over budget")


def mesh_polygon(P: ConvexPolygon, levels: int) -> TriangleMesh:
    """Fan triangulation refined the given number of times; a mesh over the
    MESH_BYTES budget is refused before it is built."""
    check_refinement(P, levels)
    mesh = triangulate(P)
    for _ in range(levels):
        mesh = refine(mesh)
    return mesh


def check_conforming(mesh: TriangleMesh, domain: ConvexPolygon | None = None) -> dict:
    """Structural audit of a mesh; raises MeshError on any violation.

    Checks positive orientation, edge conformity (every edge in one or two
    triangles, flags consistent with the boundary), the Euler relation
    V - E + F = 1 for a disc, and when the source polygon is supplied, the
    exact area identity and vertex containment.
    """
    areas = mesh.signed_areas()
    if (areas <= 0).any():
        raise MeshError("mesh contains a non-positively-oriented triangle")
    uniq, counts, _ = _edge_counts(mesh.triangles)
    if ((counts < 1) | (counts > 2)).any():
        raise MeshError("an edge belongs to more than two triangles")
    boundary_edges = uniq[counts == 1]
    interior_edges = uniq[counts == 2]
    if not mesh.boundary[boundary_edges].all():
        raise MeshError("boundary edge with an interior endpoint flag")
    num_edges = uniq.shape[0]
    euler = mesh.num_vertices - num_edges + mesh.num_triangles
    if euler != 1:
        raise MeshError(f"Euler characteristic is {euler}, expected 1 for a disc")
    if boundary_edges.shape[0] != int(mesh.boundary.sum()):
        raise MeshError("boundary edge count does not match boundary vertex count")
    h = float(mesh.edge_lengths().max())
    if not math.isclose(h, mesh.h_max, rel_tol=1e-12):
        raise MeshError(f"stored h_max {mesh.h_max!r} differs from measured {h!r}")
    stats = {
        "vertices": mesh.num_vertices,
        "edges": num_edges,
        "triangles": mesh.num_triangles,
        "boundary_edges": int(boundary_edges.shape[0]),
        "interior_edges": int(interior_edges.shape[0]),
        "area": mesh.total_area(),
        "h_max": mesh.h_max,
        "min_angle": mesh.min_angle(),
    }
    if domain is not None:
        if abs(stats["area"] - domain.area) > 1e-12 * domain.area:
            raise MeshError(
                f"mesh area {stats['area']!r} does not match domain area {domain.area!r}"
            )
        if not domain.contains_points(mesh.vertices).all():
            raise MeshError("mesh vertex outside the domain")
    return stats
