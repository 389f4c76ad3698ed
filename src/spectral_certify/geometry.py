"""Convex planar geometry: polygons, offsets, nets, Voronoi cells, box sandwiches.

All polygons are closed convex regions stored as counterclockwise vertex
arrays.  Predicates use tolerances relative to the coordinate scale of the
object; the base relative tolerance is ``EPS_REL``.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels

EPS_REL = 1e-12

# factor by which the inscribed box of the John ellipse shrinks relative to
# the enclosing ellipse: 1/2 from the planar John theorem, 1/sqrt(2) from
# inscribing a rectangle in an ellipse
JOHN_SHRINK = 0.5
BOX_IN_ELLIPSE = 1.0 / math.sqrt(2.0)


class GeometryError(ValueError):
    """Raised when an input violates a geometric precondition."""


@dataclass(frozen=True)
class Point2:
    x: float
    y: float

    def __iter__(self):
        return iter((self.x, self.y))

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


def _closed_chains(counts: np.ndarray):
    """First index of each of a run of closed vertex chains of the given
    lengths laid end to end, and the chain and successor of each vertex."""
    starts = np.cumsum(counts) - counts
    nxt = np.arange(1, starts[-1] + counts[-1] + 1)
    nxt[starts + counts - 1] = starts
    return starts, np.repeat(np.arange(counts.size), counts), nxt


def _convex_cells(v: np.ndarray, counts) -> list:
    """(vertices, area, scale) of each polygon of a batch given as one
    finite (N, 2) vertex array and the vertex count of each.  The checks
    are ConvexPolygon's, each elementwise or an exact per-polygon
    reduction, so a polygon comes out bit for bit as it does alone; a
    failure raises GeometryError without naming the polygon."""
    counts = np.asarray(counts, dtype=np.intp)
    if (counts < 3).any():
        raise GeometryError("a polygon needs at least 3 vertices")
    starts, owner, _ = _closed_chains(counts)
    scale = np.maximum(np.maximum.reduceat(np.abs(v).max(axis=1), starts), 1e-300)
    # drop consecutive duplicates (closed chains, so compare to the previous)
    prev = np.arange(-1, v.shape[0] - 1)
    prev[starts] = starts + counts - 1
    d = v - v[prev]
    keep = np.hypot(d[:, 0], d[:, 1]) > (EPS_REL * scale)[owner]
    v = v[keep]
    counts = np.bincount(owner[keep], minlength=counts.size)
    if (counts < 3).any():
        raise GeometryError("polygon degenerates to fewer than 3 distinct vertices")
    starts, owner, nxt = _closed_chains(counts)
    w = v[nxt]
    e = w - v
    e_nxt = e[nxt]
    cross = e[:, 0] * e_nxt[:, 1] - e[:, 1] * e_nxt[:, 0]
    tol_cross = EPS_REL * scale * scale
    tol = tol_cross[owner]
    if (cross < -tol).any():
        raise GeometryError("vertices are not in convex counterclockwise order")
    if (np.bincount(owner[cross > tol], minlength=counts.size) < 3).any():
        raise GeometryError("polygon is degenerate (fewer than 3 strict corners)")
    # the shoelace terms of the polygons of one vertex count are summed as the
    # rows of one array, which rounds as np.sum of each row does (reduceat does not)
    terms = v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1]
    area2 = np.empty(counts.size)
    for n in set(counts.tolist()):
        same = np.flatnonzero(counts == n)
        area2[same] = terms[starts[same, None] + np.arange(n)].sum(axis=1)
    if (area2 <= 2.0 * tol_cross).any():
        raise GeometryError("polygon area is not positive")
    v.setflags(write=False)
    ends = (starts + counts).tolist()
    cells = [v[lo:hi] for lo, hi in zip(starts.tolist(), ends)]
    return list(zip(cells, (0.5 * area2).tolist(), scale.tolist()))


class ConvexPolygon:
    """Closed convex region given by counterclockwise vertices.

    Rejects clockwise, self-intersecting or degenerate (near zero area)
    input.  Consecutive duplicate vertices are dropped; collinear interior
    vertices are kept, so the vertex count may exceed the number of
    geometric corners.
    """

    def __init__(self, vertices):
        verts = _as_points(vertices)
        ((self.vertices, self._area, self._scale),) = _convex_cells(verts, [verts.shape[0]])

    @classmethod
    def many(cls, vertex_lists) -> list:
        """Polygons of a list of vertex lists, validated as one batch: each
        is bit for bit ConvexPolygon(vertices), and a GeometryError names
        the first bad list."""
        try:
            counts = [len(v) for v in vertex_lists]
            if not counts:
                return []
            flat = np.array(list(itertools.chain.from_iterable(vertex_lists)), dtype=float)
            batch = _convex_cells(_as_points(flat), counts)
        except (TypeError, ValueError):  # GeometryError is a ValueError
            for i, verts in enumerate(vertex_lists):
                try:
                    cls(verts)
                except GeometryError as exc:
                    raise GeometryError(f"cell {i}: {exc}") from None
            raise
        out = []
        for fields in batch:
            P = cls.__new__(cls)
            P.vertices, P._area, P._scale = fields
            out.append(P)
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
        """Mask of the points inside, to within EPS_REL * scale."""
        pts = _as_points(points)
        normals, offsets = self.edge_halfplanes()
        return _kernels.points_in_halfplanes(pts, normals, offsets, EPS_REL * self._scale)

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


def diameters(cells) -> np.ndarray:
    """Largest pairwise vertex distance of each polygon (its diameter, as
    the polygons are convex); the polygons of one vertex count are
    measured together."""
    counts = np.array([P.n for P in cells], dtype=np.intp)
    out = np.empty(counts.size)
    for n in set(counts.tolist()):
        same = np.flatnonzero(counts == n)
        v = np.stack([cells[i].vertices for i in same.tolist()])
        d2 = ((v[:, :, None, :] - v[:, None, :, :]) ** 2).sum(axis=3)
        out[same] = np.sqrt(d2.max(axis=(1, 2)))
    return out


def diameter(P: ConvexPolygon) -> float:
    """Largest pairwise vertex distance (equals the set diameter for convex P)."""
    return float(diameters([P])[0])


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


# Sample grids are built a block of lattice columns at a time.  A block of n
# points over a polygon with E edges holds the meshgrid pair, their stacked
# copy and the inside points (48 bytes a point) and the n x E half-plane
# product with its mask (9E bytes a point).  A block may be a whole column and
# an uncapped pass joins all of its blocks, so both grids are charged whole, up
# front: over a rectangle (E = 4) this admits ~3.2M points; a 2487-cell net on
# rect:10:10 needs 0.78M, and a net peaks at ~26 traced bytes a grid point.
NET_GRID_BYTES = 256 * 2**20
# sample points in a block of lattice columns, unless one column holds more
NET_BLOCK = 1 << 12


def _lattice_blocks(P: ConvexPolygon, pitch: float):
    """Yield the points of P on the lattice of the given pitch from the
    lower-left corner of its bounding box, in scan order (x, then y), a
    block of whole columns at a time.

    The meshgrid lays them out x-major, y-minor, which is lexicographic
    order, as x0 + pitch * i strictly increases with i: rounding is
    monotone, and a step loses at most a few ulps, ~1e-15 * scale.  A
    ConvexPolygon has area > EPS_REL * scale^2, and so has its bounding box,
    w * h; NET_GRID_BYTES admits w * h / pitch^2 < 3.6M fine points (75
    bytes a point at E >= 3), so pitch > 5e-10 * scale.
    """
    (x0, y0), (x1, y1) = P.bounding_box
    xs = x0 + pitch * np.arange(int(math.floor(float(x1 - x0) / pitch)) + 1)
    ys = y0 + pitch * np.arange(int(math.floor(float(y1 - y0) / pitch)) + 1)
    step = max(1, NET_BLOCK // ys.size)
    for lo in range(0, xs.size, step):
        gx, gy = np.meshgrid(xs[lo : lo + step], ys, indexing="ij")
        pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
        yield pts[P.contains_points(pts)]


def _greedy_lattice(P: ConvexPolygon, pitch: float, net, sep: float, strict: bool, limit):
    """net followed by what a _kernels.greedy_net scan of P's lattice of the
    given pitch keeps.  A capped scan takes a block at a time, against the
    kept points within 2 sep of its x range, and stops in the block where the
    net passes limit.  An uncapped one needs every block, so it takes them as
    one array, indexed once: block by block, each block would be prefiltered
    against the kept points too, and that made the 394- and 1594-site nets of
    rect:10:10 at C = 0.5 and 0.25 take 74 and 323 ms against 58 and 221 ms
    (medians of 10 alternating runs on a 2-vCPU VM)."""
    blocks = _lattice_blocks(P, pitch)
    if limit is None:
        return _kernels.greedy_net(np.concatenate(list(blocks)), net, sep, strict)
    for block in blocks:
        if block.shape[0] == 0:
            continue
        x = net[:, 0]
        near = net[(x >= block[0, 0] - 2.0 * sep) & (x <= block[-1, 0] + 2.0 * sep)]
        room = limit - net.shape[0] + near.shape[0]
        kept = _kernels.greedy_net(block, near, sep, strict, limit=room)
        net = np.concatenate([net, kept[near.shape[0] :]])
        if net.shape[0] > limit:
            break
    return net


def maximal_separated_net(P: ConvexPolygon, sep: float, *, limit: int | None = None) -> np.ndarray:
    """Deterministic point net in P: pairwise distances >= sep, and every
    point of P (checked on a grid of pitch sep/16) lies within sep of a
    net point.

    A greedy pass over a grid of pitch sep/8 builds a maximal separated
    set; a second pass over the finer grid adds any sample farther than
    sep from the net, which preserves separation and enforces covering.
    With a limit, the passes stop once the net has limit + 1 points, and
    what they return is the first limit + 1 points of the full net.
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
    sep = float(sep)
    net = _greedy_lattice(P, sep / 8.0, np.empty((0, 2)), sep, False, limit)
    if net.shape[0] == 0:
        net = P.centroid[None, :]
    if limit is not None and net.shape[0] > limit:
        return net
    return _greedy_lattice(P, sep / 16.0, net, sep, True, limit)


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
        # each site against its own cell's edge half-planes, all cells at once,
        # as ConvexPolygon.contains_points tests them and with its tolerance
        _, owner, nxt = _closed_chains(np.array([c.n for c in self.cells]))
        v = np.concatenate([c.vertices for c in self.cells])
        normals, offsets = _halfplanes(v, v[nxt])
        tol = EPS_REL * np.array([c.scale for c in self.cells])[owner]
        outside = (normals * self.sites[owner]).sum(axis=1) > offsets + tol
        if outside.any():
            raise GeometryError(f"cell {owner[outside].min()} does not contain its site")


def _close_pair(pts: np.ndarray, radius: float, close) -> bool:
    """Whether two rows with distinct indices have close(dx*dx + dy*dy) true;
    close must be false for pairs farther apart than radius, so only pairs
    in neighbouring buckets of a grid are measured."""
    if pts.shape[0] < 2:
        return False
    grid = _kernels.BucketGrid(pts, *_kernels.bucket_frame(pts, radius))
    for i, j in grid.pairs(pts):
        d = pts[i] - pts[j]
        if (close(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) & (i != j)).any():
            return True
    return False


def _sorted_rings(pts: np.ndarray, sites: np.ndarray, i: np.ndarray, j: np.ndarray):
    """Yield, for each site sites[i] in turn, the d2 and j lists of its
    pairs (i, j), sorted by d2 and then j; d2 is dx*dx + dy*dy with
    dx = x_j - x_site, and i must not decrease."""
    d = pts[j] - pts[sites[i]]
    d2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
    order = np.lexsort((j, d2, i))
    d2, j = d2[order], j[order]
    bounds = np.flatnonzero(np.diff(i, prepend=-1, append=-1)).tolist()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        yield d2[lo:hi].tolist(), j[lo:hi].tolist()


def _rings(grid, pts: np.ndarray, sites: np.ndarray, reach: int):
    """For each of the sites in turn, the sorted d2 and j lists of the sites
    in the buckets within reach of it, sorted a chunk of grid pairs at a
    time; the last site of a chunk is held back, as its pairs may go on in
    the next."""
    held_i = held_j = np.empty(0, dtype=np.int64)
    for i, j in grid.pairs(pts[sites], reach):
        i, j = np.concatenate([held_i, i]), np.concatenate([held_j, j])
        if i.size == 0:
            continue
        done = i < i[-1]
        yield from _sorted_rings(pts, sites, i[done], j[done])
        held_i, held_j = i[~done], j[~done]
    yield from _sorted_rings(pts, sites, held_i, held_j)


def _outradius(verts, x: float, y: float) -> float:
    """Largest distance from (x, y) to a vertex, from dx*dx + dy*dy."""
    return math.sqrt(max((vx - x) * (vx - x) + (vy - y) * (vy - y) for vx, vy in verts))


def _by_distance(grid, pts: np.ndarray, i: int, ring, radius: float):
    """Yield (d2, j) over all sites in the order of a stable argsort of d2 to
    site i, from rings of buckets of doubling reach about site i; ring holds
    the sorted d2 and j lists of the first, the 3 x 3 buckets of a grid
    framed for radius."""
    reach = 1
    visited = 0
    while True:
        d2s, js = ring
        # every site at d2 < limit is in the ring, whatever the rounding of
        # the keys (see _kernels.bucket_frame)
        limit = math.inf if len(js) == len(pts) else (reach * radius) ** 2 * (1.0 - 1e-9)
        for d2, j in zip(d2s[visited:], js[visited:]):
            if d2 >= limit:
                break
            visited += 1
            yield d2, j
        if limit == math.inf:
            return
        reach *= 2
        ring = next(_rings(grid, pts, np.array([i]), reach))


# first rings reach about this many site spacings: few cells of an evenly
# spread net need a second ring
_RING_SPACINGS = 2.5


def voronoi_partition(P: ConvexPolygon, sites) -> VoronoiPartition:
    """Clip the Voronoi diagram of the sites to P.

    Sites must be pairwise distinct and lie in P.  Each cell is cut by the
    bisectors nearest its site first; a bisector to a site at least twice
    the current cell outradius away contains the whole cell, so clipping
    stops there.  Sites come from rings of buckets of a grid whose buckets
    are a few site spacings wide, so for evenly spread sites the per-cell
    work stays proportional to the number of Voronoi neighbours.
    """
    pts = _as_points(sites)
    m = pts.shape[0]
    if m == 0:
        raise GeometryError("at least one site required")
    tol = EPS_REL * P.scale
    if _close_pair(pts, tol, lambda d2: d2 <= tol * tol):
        raise GeometryError("sites must be pairwise distinct")
    if not P.contains_points(pts).all():
        raise GeometryError("every site must lie in the domain")
    radius = _RING_SPACINGS * math.sqrt(P.area / m)
    grid = _kernels.BucketGrid(pts, *_kernels.bucket_frame(pts, radius))
    coords = pts.tolist()
    norms = (pts**2).sum(axis=1).tolist()
    domain = P.vertices.tolist()
    cells = []
    for i, ring in enumerate(_rings(grid, pts, np.arange(m), 1)):
        xi, yi = coords[i]
        verts = domain
        r_max = _outradius(verts, xi, yi)
        for d2j, j in _by_distance(grid, pts, i, ring, radius):
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

    @property
    def area(self) -> float:
        return 4.0 * self.half_width_a * self.half_width_b

    @property
    def diameter(self) -> float:
        return 2.0 * math.hypot(self.half_width_a, self.half_width_b)

    def polygon(self) -> ConvexPolygon:
        u, v = self.axes
        c = self.center.array
        a, b = self.half_width_a, self.half_width_b
        verts = np.array(
            [c + a * u + b * v, c - a * u + b * v, c - a * u - b * v, c + a * u - b * v]
        )
        return ConvexPolygon(verts)

    def contains_points(self, points):
        """Mask of the points inside, to within EPS_REL times the
        rectangle's coordinate scale."""
        pts = _as_points(points)
        tol = EPS_REL * (abs(self.center.x) + abs(self.center.y) + self.half_width_b)
        u, v = self.axes
        rel = pts - self.center.array
        return (np.abs(rel @ u) <= self.half_width_a + tol) & (
            np.abs(rel @ v) <= self.half_width_b + tol
        )

    def scaled(self, factor: float) -> "Rectangle":
        return Rectangle(
            self.center,
            factor * self.half_width_a,
            factor * self.half_width_b,
            self.rotation,
        )


def rectangle_from_polygon(P: ConvexPolygon) -> Rectangle | None:
    """Recognize P as a rectangle (4 corners, right angles, to 1e-9
    relative); None otherwise."""
    v = P.vertices
    if v.shape[0] != 4:
        return None
    tol = 1e-9 * P.scale
    e = np.roll(v, -1, axis=0) - v
    lengths = np.hypot(e[:, 0], e[:, 1])
    if abs(lengths[0] - lengths[2]) > tol or abs(lengths[1] - lengths[3]) > tol:
        return None
    if abs(float(e[0] @ e[1])) > tol * P.scale:
        return None
    center = Point2(*v.mean(axis=0))
    rot = math.atan2(e[0, 1], e[0, 0])
    return Rectangle(center, 0.5 * lengths[0], 0.5 * lengths[1], rot)


@dataclass
class Ellipse:
    """Closed ellipse; rotation is the direction of the first semi-axis."""

    center: Point2
    semi_axis_a: float
    semi_axis_b: float
    rotation: float

    def __post_init__(self):
        if not (self.semi_axis_a > 0 and self.semi_axis_b > 0):
            raise GeometryError("ellipse semi-axes must be positive")

    def quadratic_form(self, points) -> np.ndarray:
        """(p-c)^T A (p-c); inside means <= 1."""
        pts = _as_points(points)
        ca, sa = math.cos(self.rotation), math.sin(self.rotation)
        rel = pts - self.center.array
        u = rel[:, 0] * ca + rel[:, 1] * sa
        v = -rel[:, 0] * sa + rel[:, 1] * ca
        return (u / self.semi_axis_a) ** 2 + (v / self.semi_axis_b) ** 2


# optimality gap at which Khachiyan's iteration stops, and its iteration cap
_MVEE_TOL = 1e-7
_MVEE_MAX_ITER = 100000


def mvee(points) -> Ellipse:
    """Minimum-volume enclosing ellipse by Khachiyan's multiplicative update.

    Iterates until the barycentric optimality gap drops below _MVEE_TOL, then
    inflates the result so every input point satisfies the quadratic form,
    making containment unconditional.  Raises on degenerate (collinear)
    input.
    """
    pts = _as_points(points)
    n, d = pts.shape
    if n < 3:
        raise GeometryError("need at least 3 points for an enclosing ellipse")
    centered = pts - pts.mean(axis=0)
    if np.linalg.matrix_rank(centered, tol=1e-12 * max(1.0, np.abs(pts).max())) < 2:
        raise GeometryError("points are collinear; enclosing ellipse is degenerate")
    q = np.column_stack([pts, np.ones(n)])
    u = np.full(n, 1.0 / n)
    dp1 = d + 1.0
    for _ in range(_MVEE_MAX_ITER):
        x = q.T @ (q * u[:, None])
        m_vals = (q @ np.linalg.inv(x) * q).sum(axis=1)
        j = int(np.argmax(m_vals))
        maximum = m_vals[j]
        if maximum <= dp1 * (1.0 + _MVEE_TOL):
            break
        # drop-weight steps on over-weighted support points keep the plain
        # multiplicative update from stalling on its sublinear tail
        support = u > 0
        j_min = int(np.flatnonzero(support)[np.argmin(m_vals[support])])
        minimum = m_vals[j_min]
        away_ok = (
            dp1 - minimum > maximum - dp1 and minimum > 1.0 and u[j_min] < 1.0
        )
        if away_ok:
            step = min(
                (dp1 - minimum) / (dp1 * (minimum - 1.0)),
                u[j_min] / (1.0 - u[j_min]),
            )
            u *= 1.0 + step
            u[j_min] = max(u[j_min] - step, 0.0)
            u /= u.sum()
        else:
            step = (maximum - dp1) / (dp1 * (maximum - 1.0))
            u *= 1.0 - step
            u[j] += step
    else:
        raise GeometryError("enclosing-ellipse iteration did not converge")
    c = u @ pts
    sigma = pts.T @ (pts * u[:, None]) - np.outer(c, c)
    shape = np.linalg.inv(sigma) / d
    # inflate so the quadratic form is <= 1 at every input point
    rel = pts - c
    forms = (rel @ shape * rel).sum(axis=1)
    worst = float(forms.max())
    if worst > 1.0:
        shape = shape / worst
    evals, evecs = np.linalg.eigh(shape)
    semi = 1.0 / np.sqrt(evals)
    # eigh sorts ascending, so the last eigenvalue is the short axis
    rot = math.atan2(evecs[1, 0], evecs[0, 0])
    return Ellipse(Point2(*c), float(semi[0]), float(semi[1]), rot % math.pi)


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


def rectangle_sandwich(P: ConvexPolygon) -> BoxSandwich:
    """Inner and outer rectangle for P with a bounded dilation factor.

    The inner box is inscribed in the half-scaled enclosing ellipse, then
    clamped exactly into P corner by corner; the outer box is the inner one
    dilated by the smallest power of two containing all vertices.  The
    dilation factor never exceeds 8 for convex input.
    """
    ell = mvee(P.vertices)
    center = ell.center
    ha = ell.semi_axis_a * JOHN_SHRINK * BOX_IN_ELLIPSE
    hb = ell.semi_axis_b * JOHN_SHRINK * BOX_IN_ELLIPSE
    rot = ell.rotation
    c = center.array
    if not P.contains_points(c[None, :])[0]:
        raise GeometryError("ellipse center fell outside the polygon")
    # exact clamp: scale corners toward the center until all satisfy the
    # edge half-planes of P
    ca, sa = math.cos(rot), math.sin(rot)
    u = np.array([ca, sa])
    v = np.array([-sa, ca])
    corners = np.array(
        [c + su * ha * u + sv * hb * v for su in (-1.0, 1.0) for sv in (-1.0, 1.0)]
    )
    normals, offsets = P.edge_halfplanes()
    lam = 1.0
    for corner in corners:
        dirs = normals @ (corner - c)
        slack = offsets - normals @ c
        pos = dirs > 0
        if pos.any():
            lam = min(lam, float((slack[pos] / dirs[pos]).min()))
    if lam <= 0:
        raise GeometryError("inner rectangle collapsed while clamping")
    inner = Rectangle(center, lam * ha, lam * hb, rot)
    dilation = 1.0
    while not inner.scaled(dilation).contains_points(P.vertices).all():
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


def polygon_to_json(P: ConvexPolygon) -> dict:
    return {"vertices": P.vertices.tolist()}


def polygon_from_json(obj) -> ConvexPolygon:
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict) or "vertices" not in obj:
        raise GeometryError("polygon JSON must be an object with a 'vertices' key")
    return ConvexPolygon(obj["vertices"])


def svg_scene(domain: ConvexPolygon, cells=None, boxes=None) -> str:
    """Standalone 640-pixel-wide SVG drawing of a domain with optional
    cells and boxes."""
    (x0, y0), (x1, y1) = domain.bounding_box
    if boxes:
        for box in boxes:
            bv = box.polygon().vertices
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
    if cells:
        for cell in cells:
            parts.append(
                f'<polygon points="{path(cell.vertices)}" fill="none" stroke="#3366aa" stroke-width="1"/>'
            )
    if boxes:
        for box in boxes:
            parts.append(
                f'<polygon points="{path(box.polygon().vertices)}" fill="none" '
                f'stroke="#aa3333" stroke-width="1.5" stroke-dasharray="6 3"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts)
