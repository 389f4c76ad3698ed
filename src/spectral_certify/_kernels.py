"""Hot numeric loops: P1 element matrices, the greedy net scan, half-plane
membership, and the bucket grid that is the proximity index of the net
scan, the Voronoi clip and the pair tests.

Callers look these up as module attributes (``_kernels.greedy_net``), so a
profiler can wrap them in place.
"""

from __future__ import annotations

import numpy as np

# read by the end-to-end benchmark's environment block; every kernel is numpy
NUMBA_ENABLED = False

# grid queries take this many query points at a time and hand back index
# pairs in chunks of about this many, so memory stays bounded
_QUERY_CHUNK = 4096
_PAIR_CHUNK = 1 << 16


def p1_element_matrices(coords):
    """Per-triangle area, stiffness block and consistent mass block.

    coords has shape (m, 3, 2); returns (areas, kloc, mloc) with shapes
    (m,), (m, 3, 3), (m, 3, 3).  Triangles must be positively oriented.
    """
    x = coords[:, :, 0]
    y = coords[:, :, 1]
    # gradient coefficients of the three barycentric hat functions
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    two_a = x[:, 0] * b[:, 0] + x[:, 1] * b[:, 1] + x[:, 2] * b[:, 2]
    areas = 0.5 * two_a
    kloc = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) / (
        2.0 * two_a
    )[:, None, None]
    pattern = np.array(
        [[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]
    )
    mloc = (areas / 12.0)[:, None, None] * pattern
    return areas, kloc, mloc


def bucket_frame(points, radius):
    """Origin and bucket width of a grid over points queried at distance radius.

    Keys are floor((p - origin) / width) with the origin at the lower-left
    corner of points, which keeps the rounding of the quotient small.  The
    width exceeds radius by a margin that covers that rounding for any
    spread, so two points within radius * r of each other always have keys
    at most r apart along each axis, and keys stay below ~1e15.
    """
    # column by column: an axis-0 reduction of an (n, 2) array is ~15x slower
    x, y = points.T
    origin = np.array([x.min(), y.min()])
    span = max(float(x.max() - origin[0]), float(y.max() - origin[1]))
    return origin, radius * (1.0 + 1e-9) + span * 1e-15


def _spans(lo, hi):
    """Owner index and value of every member of the ranges [lo[k], hi[k])."""
    counts = hi - lo
    owner = np.arange(counts.size).repeat(counts)
    shift = (lo - counts.cumsum() + counts).repeat(counts)
    return owner, np.arange(owner.size) + shift


class BucketGrid:
    """Points in square buckets, keyed from a common origin (bucket_frame).

    Buckets are numbered row-major over the bucket columns and rows that
    hold a point, so their numbers stay below n^2 whatever the keys, and
    the points of consecutive buckets of one column form one slice of the
    sorted order: order lists the point indices in it.
    """

    def __init__(self, points, origin, width):
        self.points = points
        self.origin = origin
        self.width = width
        kx, ky = self.keys(points)
        self._cols, col = np.unique(kx, return_inverse=True)
        self._rows, row = np.unique(ky, return_inverse=True)
        cell = col * self._rows.size + row
        self.order = np.argsort(cell, kind="stable")
        self._cells = cell[self.order]

    def keys(self, pts):
        """Column and row keys of the rows of pts."""
        k = np.floor((pts - self.origin) / self.width).astype(np.int64)
        return k[:, 0], k[:, 1]

    def slices(self, qkx, qky, reach):
        """(q, kx, lo, hi): for each query q and bucket column kx within
        reach of its keys that holds points, the slice [lo, hi) of the
        sorted order that holds the points of that column within reach."""
        cols, rows, cells = self._cols, self._rows, self._cells
        q, col = _spans(cols.searchsorted(qkx - reach), cols.searchsorted(qkx + reach, "right"))
        base = col * rows.size
        lo = cells.searchsorted(base + rows.searchsorted(qky - reach)[q])
        hi = cells.searchsorted(base + rows.searchsorted(qky + reach, "right")[q])
        return q, cols[col], lo, hi

    def neighbours(self):
        """(bucket, near): each point's bucket, numbered in sorted order, and
        for each bucket the slices [lo, hi) of the sorted order that hold its
        3 x 3 buckets, as six ints: left, own and right bucket column, empty
        where that column holds no point."""
        head = np.diff(self._cells, prepend=-1) != 0
        bucket = np.empty(self.order.size, dtype=np.int64)
        bucket[self.order] = head.cumsum() - 1
        kx, ky = self.keys(self.points[self.order[head]])
        q, col, lo, hi = self.slices(kx, ky, 1)
        near = np.zeros((kx.size, 6), dtype=np.int64)
        side = 2 * (col - kx[q] + 1)
        near[q, side], near[q, side + 1] = lo, hi
        return bucket, near

    def pairs(self, queries, reach=1):
        """Yield index arrays (i, j) that pair query i with every point j
        whose key is at most reach from the query's along each axis, a
        bounded number of pairs at a time."""
        for start in range(0, queries.shape[0], _QUERY_CHUNK):
            q, _, lo, hi = self.slices(*self.keys(queries[start : start + _QUERY_CHUNK]), reach)
            ends = (hi - lo).cumsum()
            total = ends[-1] if ends.size else 0
            cuts = ends.searchsorted(np.arange(_PAIR_CHUNK, total, _PAIR_CHUNK))
            for a, b in zip([0, *cuts.tolist()], [*cuts.tolist(), ends.size]):
                owner, j = _spans(lo[a:b], hi[a:b])
                yield q[a:b][owner] + start, self.order[j]


def _far(grid, pts, sep, strict, reach=1):
    """Mask of the rows of pts that no point of the grid within reach
    buckets rejects (distance < sep, or <= sep when strict)."""
    near = np.zeros(pts.shape[0], dtype=bool)
    gx, gy = grid.points.T
    for i, j in grid.pairs(pts, reach):
        dx = pts[i, 0] - gx[j]
        dy = pts[i, 1] - gy[j]
        dist = np.sqrt(dx * dx + dy * dy)
        near[i[(dist <= sep) if strict else (dist < sep)]] = True
    return ~near


def greedy_net(candidates, existing, sep, strict, *, limit=None):
    """Scan candidates in order, keeping those far enough from all kept points.

    A candidate is rejected when its distance sqrt(dx^2 + dy^2) to an already
    kept point is < sep (strict=False) or <= sep (strict=True); sep > 0.
    Returns existing with the accepted candidates appended, in scan order.
    With a limit, the scan stops once limit + 1 rows are kept, and the
    result is the first limit + 1 rows of the unlimited one (all of it
    when that is shorter).

    Rejection is final and the distance symmetric, so a candidate may be
    dropped by any kept point, on arrays; bucket grids (keys as
    bucket_frame gives them) propose the points to measure.  First every
    candidate is checked against existing, in its own bucket and then in
    the 3 x 3 around it.  The rest are indexed once: the first candidate
    still alive is accepted, rejects the candidates within sep in the
    3 x 3 buckets around it, and the scan moves on to the next one alive.
    """
    if limit is not None and existing.shape[0] > limit:
        return existing[: limit + 1].copy()
    if candidates.shape[0] == 0:
        return existing.copy()
    origin, width = bucket_frame(np.concatenate([candidates, existing]), sep)
    if existing.shape[0] > 0:
        grid = BucketGrid(existing, origin, width)
        # the own bucket settles most candidates (93% of a fine pass over a
        # net), so only the rest meet the whole 3 x 3
        for reach in (0, 1):
            candidates = candidates[_far(grid, candidates, sep, strict, reach)]
    grid = BucketGrid(candidates, origin, width)
    order = grid.order
    bucket, near = grid.neighbours()
    near = near.tolist()
    xs, ys = candidates.T.copy()
    alive = bytearray(b"\x01") * order.size
    marks = np.frombuffer(alive, dtype=np.uint8)
    room = order.size if limit is None else limit + 1 - existing.shape[0]
    kept = []
    i = alive.find(1)
    while i >= 0 and len(kept) < room:
        kept.append(i)
        a, b, c, d, e, f = near[bucket[i]]
        j = np.concatenate((order[a:b], order[c:d], order[e:f]))
        dx = xs[j] - xs[i]
        dy = ys[j] - ys[i]
        dist = np.sqrt(dx * dx + dy * dy)
        marks[j[(dist <= sep) if strict else (dist < sep)]] = 0
        i = alive.find(1, i + 1)
    return np.concatenate([existing, candidates[kept]])


def points_in_halfplanes(points, normals, offsets, tol):
    """Mask of points satisfying normals @ p <= offsets + tol for every row."""
    return (points @ normals.T <= offsets[None, :] + tol).all(axis=1)
