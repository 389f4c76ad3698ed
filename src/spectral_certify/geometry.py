"""Convex planar geometry: polygons, offsets, nets, Voronoi cells, box sandwiches.

All polygons are closed convex regions stored as counterclockwise vertex
arrays.  Predicates use tolerances relative to the coordinate scale of the
object; the base relative tolerance is ``EPS_REL``.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import _kernels

EPS_REL = 1e-12

# Range of a polygon's coordinate scale s (its largest |coordinate|).  At the
# top, a product of two coordinates is at most s^2 = 1e300 and one of two
# coordinate differences 4e300, so sums of a million of them stay finite (the
# largest double is 1.8e308); at the bottom, EPS_REL s^2, the cross-product
# tolerance of a polygon about the origin (_tolerance), is the smallest
# normal double.  Products of three coordinates
# (the centroid) overflow from ~1e101 up, so the FEM meshes a copy of the
# domain scaled to unit size (fem.neumann_spectrum).
SCALE_MIN = math.sqrt(sys.float_info.min / EPS_REL)
SCALE_MAX = 1e150


class GeometryError(ValueError):
    """Raised when an input violates a geometric precondition."""


@dataclass(frozen=True)
class Point2:
    x: float
    y: float

    @property
    def array(self):
        return np.array([self.x, self.y])


def _as_points(points) -> np.ndarray:
    try:
        arr = np.asarray(points, dtype=float)
    except (TypeError, ValueError) as exc:
        raise GeometryError(f"expected an (n, 2) point array: {exc}") from None
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GeometryError(f"expected an (n, 2) point array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise GeometryError("point coordinates must be finite")
    return arr


def _halfplanes(v: np.ndarray, w: np.ndarray):
    """Unit normals n to the right of the edges v -> w and offsets c = n . v."""
    e = w - v
    lengths = np.hypot(e[:, 0], e[:, 1])
    normals = np.stack([e[:, 1], -e[:, 0]], axis=1) / lengths[:, None]
    return normals, (normals * v).sum(axis=1)


def _tolerance(rel: float, scale: float, r: float):
    """(t, L): the length tolerance t at relative tolerance rel, and the
    length L that scales it, of a polygon of scale s whose bounding box has
    half its larger side r.

    With u = 2^-53, a coordinate of magnitude <= s stands for its point to
    within u s and the difference of two rounds by at most 2 u r, so an
    edge vector is known to 4 u s a component and a length to well within
    rho = 2^-47 s = 64 u s.  A cross or dot product of two edges
    (components <= 2r) then moves by at most 4 (4 u s)(2r), and its two
    products and their sum round by 16 u r^2 more: in all 48 u s r.
    L = min(s, 2r) is the polygon's width, but no more than its scale, so
    t = max(rel L, rho) and the product tolerance t L clear these roundings
    (t L >= 64 u s min(s, 2r) >= 48 u s r, as r <= s).  Far from the
    origin they follow the polygon's own size; for a polygon about the
    origin (s <= 2r, so that its bounding box holds the origin or nearly
    does) L = s, and they are rel s and rel s^2, as rel >= 1e-12 > 2^-47.
    """
    L = min(scale, 2.0 * r)
    return max(rel * L, 2.0**-47 * scale), L


def _size_tolerance(v: np.ndarray, scale: float, rel: float):
    """_tolerance at rel for the polygon with vertex array v and coordinate
    scale: (t, L) from its scale and bounding box."""
    return _tolerance(rel, scale, 0.5 * float((v.max(axis=0) - v.min(axis=0)).max()))


def _inside(v: np.ndarray, scale: float, points: np.ndarray):
    """Mask of the points inside the convex polygon with counterclockwise
    vertices v and coordinate scale, to within its length tolerance at
    EPS_REL: geometry's one containment rule."""
    normals, offsets = _halfplanes(v, np.roll(v, -1, axis=0))
    return _kernels.points_in_halfplanes(points, normals, offsets, _size_tolerance(v, scale, EPS_REL)[0])


def _convex_cell(v: np.ndarray):
    """(vertices, area, scale) of the convex polygon with the finite (n, 2)
    vertex array v, or GeometryError: ConvexPolygon's checks.

    Each turn, the cross product of edges e = e_i and e' = e_i+1, has its own
    tolerance max(EPS_REL L^2, 2^-47 s min(L, |e| + |e'|), smallest normal),
    s and L as in _tolerance.  With u = 2^-53, edge components are known to
    4 u s (_tolerance), which moves the turn by <= 4 sqrt(2) u s (|e| + |e'|)
    to first order; its products and difference round by <= 2 u |e| |e'|
    <= 2 sqrt(2) u r (|e| + |e'|), as edges are <= 2 sqrt(2) r long.  As
    r <= s, a turn rounds by 6 sqrt(2), about 8, u s (|e| + |e'|) at most, and
    by 48 u s r, and 64 u s = 2^-47 s times min(L, |e| + |e'|) clears both.
    About the origin (L = s) it is EPS_REL s^2, as 2^-47 < EPS_REL.
    """
    n = v.shape[0]
    if n < 3:
        raise GeometryError("a polygon needs at least 3 vertices")
    scale = float(np.abs(v).max())
    # a zero scale (a point) fails as fewer than 3 distinct vertices below
    if scale > 0.0 and (scale < SCALE_MIN or scale > SCALE_MAX):
        raise GeometryError(
            f"largest |coordinate| {scale:.3g} is outside [{SCALE_MIN:.3g}, {SCALE_MAX:.3g}]"
        )
    vmin, vmax = v.min(axis=0), v.max(axis=0)
    r = 0.5 * float((vmax - vmin).max())
    tol_len, length = _tolerance(EPS_REL, scale, r)
    # the area floor and the largest turn tolerance (docstring)
    tol_cross = max(tol_len * length, sys.float_info.min)
    # drop consecutive duplicates (a closed chain, so compare to the previous)
    d = v - np.roll(v, 1, axis=0)
    v = v[np.hypot(d[:, 0], d[:, 1]) > tol_len]
    if v.shape[0] < 3:
        raise GeometryError("polygon degenerates to fewer than 3 distinct vertices")
    w = np.roll(v, -1, axis=0)
    e = w - v
    e_nxt = np.roll(e, -1, axis=0)
    cross = e[:, 0] * e_nxt[:, 1] - e[:, 1] * e_nxt[:, 0]
    span = np.minimum(length, np.hypot(e[:, 0], e[:, 1]) + np.hypot(e_nxt[:, 0], e_nxt[:, 1]))
    tol_turn = np.maximum(max(EPS_REL * length * length, sys.float_info.min), 2.0**-47 * scale * span)
    if (cross < -tol_turn).any():
        raise GeometryError("vertices are not in convex counterclockwise order")
    if np.count_nonzero(cross > tol_turn) < 3:
        raise GeometryError("polygon is degenerate (fewer than 3 strict corners)")
    d = v - v[0]
    d_nxt = np.roll(d, -1, axis=0)
    area2 = float((d[:, 0] * d_nxt[:, 1] - d_nxt[:, 0] * d[:, 1]).sum())
    # The shoelace sum is taken relative to the first vertex, so its rounding
    # follows the polygon's size r, not its place.  With u = 2^-53, a
    # difference |d| <= 2r rounds by at most 2 u r, which moves a term
    # d_i x d_i+1 by at most 16 u r^2; its two products (each <= 4 r^2) and
    # their difference (twice a triangle in the bounding box, <= 4 r^2) round
    # by 12 u r^2 more; each addition rounds by 8 u r^2, as a partial sum is
    # twice the area of a fan from the first vertex.  So the sum is known to
    # 36 u n r^2, and the area must clear twice that, within 2^-46 n r^2, as
    # well as the floor 2 tol_cross.  About the origin r <= s, so the floor,
    # 2 EPS_REL s^2, is the larger below 141 vertices.
    if area2 <= max(2.0 * tol_cross, 2.0**-46 * v.shape[0] * r * r):
        raise GeometryError("polygon area is not positive")
    v.setflags(write=False)
    return v, 0.5 * area2, scale


class ConvexPolygon:
    """Closed convex region given by counterclockwise vertices.

    Rejects clockwise, self-intersecting or degenerate (near zero area)
    input.  Consecutive duplicate vertices are dropped; collinear interior
    vertices are kept, so the vertex count may exceed the number of
    geometric corners.
    """

    def __init__(self, vertices):
        self.vertices, self._area, self._scale = _convex_cell(_as_points(vertices))

    @classmethod
    def many(cls, vertex_lists) -> list:
        """Polygons of a list of vertex lists; a GeometryError names the
        first bad list."""
        out = []
        for i, verts in enumerate(vertex_lists):
            try:
                out.append(cls(verts))
            except GeometryError as exc:
                raise GeometryError(f"cell {i}: {exc}") from None
        return out

    @property
    def n(self) -> int:
        return self.vertices.shape[0]

    @property
    def area(self) -> float:
        return self._area

    @property
    def scale(self) -> float:
        return self._scale

    @property
    def centroid(self) -> np.ndarray:
        v = self.vertices
        w = np.concatenate((v[1:], v[:1]))
        cross = v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1]
        return (v + w).T @ cross / (6.0 * self._area)

    @property
    def bounding_box(self):
        """((xmin, ymin), (xmax, ymax)) of the vertex set."""
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def edge_halfplanes(self):
        """Outward unit normals and offsets: inside iff n . p <= c for all edges."""
        v = self.vertices
        return _halfplanes(v, np.concatenate((v[1:], v[:1])))

    def contains_points(self, points):
        """Mask of the points inside (_inside)."""
        return _inside(self.vertices, self._scale, _as_points(points))

    def __repr__(self):
        return f"ConvexPolygon(n={self.n}, area={self._area:.6g})"


def regular_polygon(n: int, circumradius: float = 1.0) -> ConvexPolygon:
    """Regular n-gon about the origin with a vertex on the positive x axis."""
    if n < 3:
        raise GeometryError("need n >= 3")
    if circumradius <= 0:
        raise GeometryError("circumradius must be positive")
    ang = 2.0 * np.pi * np.arange(n) / n
    verts = np.stack([circumradius * np.cos(ang), circumradius * np.sin(ang)], axis=1)
    return ConvexPolygon(verts)


def diameter(P: ConvexPolygon) -> float:
    """Largest pairwise vertex distance (the set diameter, as P is convex):
    vertex i against i + s for one cyclic offset 1 <= s <= n/2 at a time,
    which meets every pair of vertices in O(n) memory."""
    v = P.vertices
    n = v.shape[0]
    twice = np.concatenate([v, v])
    d2 = 0.0
    for s in range(1, n // 2 + 1):
        d = v - twice[s : s + n]
        d2 = max(d2, float((d[:, 0] ** 2 + d[:, 1] ** 2).max()))
    return math.sqrt(d2)


def _clip_halfplane(verts, a: float, b: float, c: float, tol: float):
    """Clip a loop of (x, y) floats to a x + b y <= c; verts itself if none is cut."""
    vals = [a * x + b * y - c for x, y in verts]
    if max(vals) <= tol:
        return verts
    out = []
    n = len(verts)
    for i in range(n):
        j = (i + 1) % n
        di, dj = vals[i], vals[j]
        if di <= tol:
            out.append(verts[i])
        if (di <= tol) != (dj <= tol):
            t = di / (di - dj)
            (xi, yi), (xj, yj) = verts[i], verts[j]
            out.append((xi + t * (xj - xi), yi + t * (yj - yi)))
    return out


def inner_offset(P: ConvexPolygon, r: float) -> ConvexPolygon | None:
    """Inner parallel body: points of P at distance >= r from every edge line.

    Computed by shifting every edge half-plane inward by r and intersecting.
    Returns None when the offset region is empty or degenerate.
    """
    if not (r > 0.0) or not math.isfinite(r):
        raise GeometryError("offset distance must be positive and finite")
    normals, offsets = P.edge_halfplanes()
    verts = P.vertices.tolist()
    tol = EPS_REL * P.scale
    for (a, b), c in zip(normals.tolist(), offsets.tolist()):
        verts = _clip_halfplane(verts, a, b, c - r, tol * math.hypot(a, b))
        if len(verts) < 3:
            return None
    try:
        return ConvexPolygon(verts)
    except GeometryError:
        return None


# A net pass holds its sample grid of n points over a polygon with E edges as
# one meshgrid pair, their stacked copy and the inside points (48 bytes a
# point) and the n x E half-plane product with its mask (9E bytes a point).
# Both grids are charged whole, up front: over a rectangle (E = 4) this admits
# ~3.2M points; a 2487-cell net on rect:10:10 needs 0.78M, and a net peaks at
# ~55 traced bytes a point of both grids (the fine pass, whole).
NET_GRID_BYTES = 256 * 2**20


def _lattice(P: ConvexPolygon, pitch: float) -> np.ndarray:
    """The points of P on the lattice of the given pitch from the lower-left
    corner of its bounding box, in scan order (x, then y).

    The meshgrid lays them out x-major, y-minor, which is lexicographic
    order, as x0 + pitch * i strictly increases with i: rounding is
    monotone, and a step loses at most a few ulps, ~1e-15 * scale, while
    maximal_separated_net takes no pitch below 2^-40 * scale.
    """
    (x0, y0), (x1, y1) = P.bounding_box
    xs = x0 + pitch * np.arange(int(math.floor(float(x1 - x0) / pitch)) + 1)
    ys = y0 + pitch * np.arange(int(math.floor(float(y1 - y0) / pitch)) + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    return pts[P.contains_points(pts)]


def maximal_separated_net(P: ConvexPolygon, sep: float) -> np.ndarray:
    """Deterministic point net in P: pairwise distances >= sep, and every
    point of P (checked on a grid of pitch sep/16) lies within sep of a
    net point.

    A greedy pass over a grid of pitch sep/8 builds a maximal separated
    set; a second pass over the finer grid adds any sample farther than
    sep from the net, which preserves separation and enforces covering.
    """
    if P is None:
        raise GeometryError("cannot build a net over an empty region")
    if not (sep > 0.0) or not math.isfinite(sep):
        raise GeometryError("separation must be positive and finite")
    (x0, y0), (x1, y1) = P.bounding_box
    # points of both grids, at most; Python floats, so a tiny sep gives inf
    w, h = float(x1 - x0), float(y1 - y0)
    points = sum((w / p + 1.0) * (h / p + 1.0) for p in (sep / 8.0, sep / 16.0))
    if points * (48 + 9 * P.n) > NET_GRID_BYTES:
        raise GeometryError(f"separation {sep:.6g} is too small: net grids of {points:.3g} points")
    # a lattice step must stay thousands of ulps of the coordinates; on a
    # polygon about the origin the budget above already holds the
    # pitch over 5e-10 scale, as its area exceeds EPS_REL scale^2
    if sep / 16.0 < 2.0**-40 * P.scale:
        raise GeometryError(f"separation {sep:.6g} is below the resolution of coordinates near {P.scale:.6g}")
    sep = float(sep)
    net = _kernels.greedy_net(_lattice(P, sep / 8.0), np.empty((0, 2)), sep, False)
    if net.shape[0] == 0:
        net = P.centroid[None, :]
    return _kernels.greedy_net(_lattice(P, sep / 16.0), net, sep, True)


@dataclass
class VoronoiPartition:
    """Voronoi cells of a site set, clipped to a convex domain.

    Cells are convex, pairwise interior-disjoint, each contains its site,
    and together they tile the domain (areas checked to 1e-9 relative).
    """

    domain: ConvexPolygon
    sites: np.ndarray
    cells: list = field(default_factory=list)

    def __post_init__(self):
        self.sites = _as_points(self.sites)
        if len(self.cells) != self.sites.shape[0]:
            raise GeometryError("one cell per site required")
        total = sum(c.area for c in self.cells)
        if abs(total - self.domain.area) > 1e-9 * self.domain.area:
            raise GeometryError(
                f"cell areas sum to {total!r}, domain area is {self.domain.area!r}"
            )
        for i, (cell, site) in enumerate(zip(self.cells, self.sites)):
            if not _inside(cell.vertices, cell.scale, site[None, :])[0]:
                raise GeometryError(f"cell {i} does not contain its site")


def _close_pair(pts: np.ndarray, radius: float, close) -> bool:
    """Whether two rows with distinct indices have close(dx*dx + dy*dy) true;
    close must be false for d2 >= radius*radius as computed.

    The rows are sorted by x (stably), and each is measured against the
    later rows whose x is at most fl(x + radius), one offset at a time, in
    memory proportional to the rows.  A later row beyond that has
    x_j - x > radius exactly, so, rounding being monotone, dx >= radius and
    d2 >= fl(radius^2) as computed: close is false for it.
    """
    p = pts[np.argsort(pts[:, 0], kind="stable")]
    x = p[:, 0]
    ends = x.searchsorted(x + radius, "right")
    i = np.arange(x.size)
    for k in range(1, x.size):
        i = i[i + k < ends[i]]
        if i.size == 0:
            break
        d = p[i + k] - p[i]
        if close(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]).any():
            return True
    return False


def _outradius(verts, x: float, y: float) -> float:
    """Largest distance from (x, y) to a vertex, from dx*dx + dy*dy."""
    return math.sqrt(max((vx - x) * (vx - x) + (vy - y) * (vy - y) for vx, vy in verts))


def voronoi_partition(P: ConvexPolygon, sites) -> VoronoiPartition:
    """Clip the Voronoi diagram of the sites to P.

    Sites must be pairwise distinct and lie in P.  Each cell is cut by the
    bisectors nearest its site first; a bisector to a site at least twice
    the current cell outradius away contains the whole cell, so clipping
    stops there.  Each cell takes the sites in the order of a stable argsort
    of their d2 to its site.
    """
    pts = _as_points(sites)
    m = pts.shape[0]
    if m == 0:
        raise GeometryError("at least one site required")
    tol = EPS_REL * P.scale
    # within 2 tol, so that a pair at d2 = fl(tol^2) is inside the window
    if _close_pair(pts, 2.0 * tol, lambda d2: d2 <= tol * tol):
        raise GeometryError("sites must be pairwise distinct")
    if not P.contains_points(pts).all():
        raise GeometryError("every site must lie in the domain")
    coords = pts.tolist()
    norms = (pts**2).sum(axis=1).tolist()
    domain = P.vertices.tolist()
    cells = []
    for i in range(m):
        d = pts - pts[i]
        d2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
        order = np.argsort(d2, kind="stable")
        xi, yi = coords[i]
        verts = domain
        r_max = _outradius(verts, xi, yi)
        for d2j, j in zip(d2[order].tolist(), order.tolist()):
            if j == i:
                continue
            # sites come nearest first, so no later bisector can cut
            if math.sqrt(d2j) > 2.0 * r_max * (1.0 + 1e-9):
                break
            a = 2.0 * (coords[j][0] - xi)
            b = 2.0 * (coords[j][1] - yi)
            clipped = _clip_halfplane(verts, a, b, norms[j] - norms[i], tol * math.hypot(a, b))
            if len(clipped) < 3:
                raise GeometryError(f"Voronoi cell {i} degenerated during clipping")
            if clipped is not verts:
                verts = clipped
                r_max = _outradius(verts, xi, yi)
        cells.append(verts)
    try:
        cells = ConvexPolygon.many(cells)
    except GeometryError as exc:
        raise GeometryError(f"Voronoi {exc}") from None
    return VoronoiPartition(domain=P, sites=pts, cells=cells)


@dataclass
class Rectangle:
    """Rotated closed rectangle; the rotation is the direction of the
    half_width_a axis.  Normalized so half_width_a <= half_width_b and the
    rotation lies in [0, pi)."""

    center: Point2
    half_width_a: float
    half_width_b: float
    rotation: float

    def __post_init__(self):
        if not (self.half_width_a > 0 and self.half_width_b > 0):
            raise GeometryError("rectangle half-widths must be positive")
        if self.half_width_a > self.half_width_b:
            self.half_width_a, self.half_width_b = (
                self.half_width_b,
                self.half_width_a,
            )
            self.rotation += 0.5 * math.pi
        self.rotation = self.rotation % math.pi

    @property
    def axes(self):
        ca, sa = math.cos(self.rotation), math.sin(self.rotation)
        return np.array([ca, sa]), np.array([-sa, ca])

    def corners(self) -> np.ndarray:
        """The (4, 2) counterclockwise corners, unvalidated: a box out of
        the coordinate range or below its tolerances still has them."""
        u, v = self.axes
        c = self.center.array
        a, b = self.half_width_a, self.half_width_b
        return np.array([c + a * u + b * v, c - a * u + b * v, c - a * u - b * v, c + a * u - b * v])

    def polygon(self) -> ConvexPolygon:
        return ConvexPolygon(self.corners())

    def scaled(self, factor: float) -> "Rectangle":
        return Rectangle(
            self.center,
            factor * self.half_width_a,
            factor * self.half_width_b,
            self.rotation,
        )


def rectangle_from_polygon(P: ConvexPolygon) -> Rectangle | None:
    """Recognize P as a rectangle (4 corners, right angles, to 1e-9
    relative to P's size, _tolerance); None otherwise."""
    v = P.vertices
    if v.shape[0] != 4:
        return None
    tol, length = _size_tolerance(v, P.scale, 1e-9)
    e = np.roll(v, -1, axis=0) - v
    lengths = np.hypot(e[:, 0], e[:, 1])
    if abs(lengths[0] - lengths[2]) > tol or abs(lengths[1] - lengths[3]) > tol:
        return None
    if abs(float(e[0] @ e[1])) > tol * length:
        return None
    center = Point2(*v.mean(axis=0))
    rot = math.atan2(e[0, 1], e[0, 0])
    return Rectangle(center, 0.5 * lengths[0], 0.5 * lengths[1], rot)


@dataclass
class BoxSandwich:
    """Pair of concentric, co-aligned rectangles with inner subset of the
    domain subset of outer; outer = dilation_factor * inner."""

    inner: Rectangle
    outer: Rectangle
    dilation_factor: float

    def __post_init__(self):
        if self.dilation_factor < 1.0:
            raise GeometryError("dilation factor must be >= 1")
        ri, ro = self.inner, self.outer
        if (ri.center != ro.center) or ri.rotation != ro.rotation:
            raise GeometryError("sandwich rectangles must be concentric and co-aligned")
        for a, b in (
            (ro.half_width_a, ri.half_width_a),
            (ro.half_width_b, ri.half_width_b),
        ):
            if abs(a - self.dilation_factor * b) > 1e-9 * a:
                raise GeometryError("outer rectangle is not the stated dilation of inner")


def _moments(v: np.ndarray):
    """Mean and second moment about the origin of the uniform distribution
    on the polygon with counterclockwise vertices v, summed over the
    triangles (0, v_i, v_i+1): a triangle (0, a, b) has moment a x b / 6
    (a + b) and second moment a x b / 24 (a a^T + b b^T + (a + b)(a + b)^T)."""
    w = np.roll(v, -1, axis=0)
    cross = v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1]
    s = v + w
    area2 = cross.sum()
    second = (v.T * cross) @ v + (w.T * cross) @ w + (s.T * cross) @ s
    return s.T @ cross / (3.0 * area2), second / (12.0 * area2)


def rectangle_sandwich(P: ConvexPolygon) -> BoxSandwich:
    """Inner and outer rectangle for P with a dilation factor of 2 or 4.

    With g and S the centroid and covariance of the uniform distribution
    on P and E = {x : (x - g)^T S^-1 (x - g) <= 1}, every planar convex body
    has sqrt(2) E in P in sqrt(8) E (Kannan, Lovasz and Simonovits, Discrete
    Comput. Geom. 13, 1995).  The inner box lies along the principal axes
    of S with the standard deviations along them as half-widths, the
    largest such box in sqrt(2) E; it is clamped exactly into P corner by
    corner, against rounding.  The outer box is the inner one dilated by
    the smallest power of two containing all vertices: sqrt(8) E fits in
    2 sqrt(2) times the inner box, so the factor is 2 or 4; one above 8
    raises.

    The moments are taken on a copy shifted to a vertex and scaled by a
    power of two, and the clamp compares products of two coordinate
    differences, so P scaled by a power of two has the sandwich scaled by
    the same power exactly.
    """
    v = P.vertices
    d = v - v[0]
    e = math.frexp(float(np.abs(d).max()))[1]
    q = np.ldexp(d, -e)
    g, second = _moments(q)
    S = second - np.outer(g, g)
    # Below an anisotropy |(S00 - S11, 2 S01)| of 2^10 (n + s / 2^e) u tr S,
    # u = 2^-53 and s the scale of P, the axis direction is rounding noise (as
    # on every regular polygon), so it is taken as 0.  Each moment sum adds 3n
    # terms, of one sign on the diagonal (the fan from a vertex has cross >= 0)
    # and bounded by them off it, so it rounds by <= 3n u tr(second) <= 27n u tr S
    # (tr(second) = tr S + |g|^2 and P lies in g + sqrt(8) E); the shift to v_0
    # moves each vertex of the copy by <= u s / 2^e, so S by <= 4 u s / 2^e,
    # and tr S >= 2^-7 as the copy reaches 1/2 away from v_0.
    aniso = math.hypot(2.0 * S[0, 1], S[0, 0] - S[1, 1])
    noise = 2.0**-43 * (v.shape[0] + math.ldexp(P.scale, -e)) * (S[0, 0] + S[1, 1])
    isotropic = aniso <= noise
    rot = 0.0 if isotropic else 0.5 * math.atan2(2.0 * S[0, 1], S[0, 0] - S[1, 1])
    axes = np.array([[math.cos(rot), math.sin(rot)], [-math.sin(rot), math.cos(rot)]])
    # the variances along the axes, from the moments of the copy turned onto
    # them, so a thin polygon's small one does not cancel against the large
    h, second = _moments((q - g) @ axes.T)
    ha, hb = np.ldexp(np.sqrt(second.diagonal() - h * h), e).tolist()
    if isotropic:
        # one half-width, so that Rectangle does not turn the box by pi/2 on rounding
        ha = hb = min(ha, hb)
    c = v[0] + np.ldexp(g, e)
    # exact clamp: scale the corners (about c) toward c until all satisfy the
    # edge half-planes n . (x - v_i) <= 0 of P, n the unnormalized outward normals
    corners = (np.array([[1, 1], [-1, 1], [-1, -1], [1, -1]]) * [ha, hb]) @ axes
    edges = np.roll(v, -1, axis=0) - v
    normals = np.stack([edges[:, 1], -edges[:, 0]], axis=1)
    reach = corners @ normals.T
    slack = np.broadcast_to(((v - c) * normals).sum(axis=1), reach.shape)
    out = reach > 0
    lam = min(1.0, float((slack[out] / reach[out]).min()))
    if lam <= 0:
        raise GeometryError("inner rectangle collapsed while clamping")
    inner = Rectangle(Point2(*c.tolist()), lam * ha, lam * hb, rot)
    dilation = 1.0
    while True:
        # the box's corners, not a validated polygon: a box may reach past
        # the coordinate range or be thinner than a polygon's tolerances
        box = inner.scaled(dilation).corners()
        if _inside(box, float(np.abs(box).max()), v).all():
            break
        dilation *= 2.0
        if dilation > 8.0:
            raise GeometryError("dilation factor exceeded its guaranteed bound")
    return BoxSandwich(inner=inner, outer=inner.scaled(dilation), dilation_factor=dilation)


@dataclass
class PackingCheck:
    count: int
    ball_radius: float
    total_ball_area: float
    domain_area: float
    fits: bool


def ball_packing_count(P: ConvexPolygon, centers, r: float) -> PackingCheck:
    """Area comparison count * pi * r^2 <= area(P) for disjoint balls.

    Centers must be pairwise at least 2r apart (disjoint open balls); the
    comparison itself is exact, with no tolerance.
    """
    pts = _as_points(centers)
    if not (r > 0):
        raise GeometryError("ball radius must be positive")
    m = pts.shape[0]
    if _close_pair(pts, 2.0 * r, lambda d2: np.sqrt(d2) < 2.0 * r):
        raise GeometryError("ball centers closer than 2r: balls overlap")
    total = m * math.pi * r * r
    return PackingCheck(
        count=m,
        ball_radius=float(r),
        total_ball_area=total,
        domain_area=P.area,
        fits=total <= P.area,
    )


# ---------------------------------------------------------------------------
# serialization and drawing


def polygon_from_json(obj) -> ConvexPolygon:
    if isinstance(obj, str):
        try:
            obj = json.loads(obj)
        except (json.JSONDecodeError, RecursionError) as exc:
            # RecursionError: arrays or objects nested past the interpreter's limit
            raise GeometryError(f"polygon is not JSON: {exc}") from None
    if not isinstance(obj, dict) or "vertices" not in obj:
        raise GeometryError("polygon JSON must be an object with a 'vertices' key")
    return ConvexPolygon(obj["vertices"])


def svg_scene(domain: ConvexPolygon, cells=None, boxes=None) -> str:
    """Standalone 640-pixel-wide SVG drawing of a domain with optional
    cells, given by their (n, 2) vertex arrays, and boxes."""
    (x0, y0), (x1, y1) = domain.bounding_box
    if boxes:
        for box in boxes:
            bv = box.corners()
            x0 = min(x0, bv[:, 0].min())
            y0 = min(y0, bv[:, 1].min())
            x1 = max(x1, bv[:, 0].max())
            y1 = max(y1, bv[:, 1].max())
    span = max(x1 - x0, y1 - y0)
    pad = 0.05 * span
    x0, y0, x1, y1 = x0 - pad, y0 - pad, x1 + pad, y1 + pad
    width = 640
    scale = width / (x1 - x0)
    height = int(round((y1 - y0) * scale))

    def to_px(pts):
        pts = np.asarray(pts, dtype=float)
        px = (pts[:, 0] - x0) * scale
        py = (y1 - pts[:, 1]) * scale
        return np.stack([px, py], axis=1)

    def path(pts):
        return " ".join(f"{x:.2f},{y:.2f}" for x, y in to_px(pts))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    parts.append(
        f'<polygon points="{path(domain.vertices)}" fill="#f5f5f0" stroke="#222" stroke-width="2"/>'
    )
    for cell in [] if cells is None else cells:
        parts.append(f'<polygon points="{path(cell)}" fill="none" stroke="#3366aa" stroke-width="1"/>')
    if boxes:
        for box in boxes:
            parts.append(
                f'<polygon points="{path(box.corners())}" fill="none" '
                f'stroke="#aa3333" stroke-width="1.5" stroke-dasharray="6 3"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts)
