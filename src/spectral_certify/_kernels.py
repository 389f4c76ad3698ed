"""Hot numeric loops: P1 element matrices, the greedy net scan and
half-plane membership, and the k-d tree the net and Voronoi code share.

Callers look these up as module attributes (``_kernels.greedy_net``), so a
profiler can wrap them in place.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# read by the end-to-end benchmark's environment block; every kernel is numpy
NUMBA_ENABLED = False

# candidates become Python floats a chunk at a time: a 410k-point fine grid
# as one list of pairs takes ~60 MiB
_SCAN_CHUNK = 4096
# own bucket first: it is the likeliest to hold a rejecting point
_NEIGHBOURS = [(0, 0)] + [(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1) if i or j]


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


def greedy_net(candidates, existing, sep, strict, *, limit=None):
    """Scan candidates in order, keeping those far enough from all kept points.

    A candidate is rejected when its distance sqrt(dx^2 + dy^2) to an already
    kept point is < sep (strict=False) or <= sep (strict=True); sep > 0.
    Returns existing with the accepted candidates appended, in scan order.
    With a limit, the scan stops once limit + 1 rows are kept, and the
    result is the first limit + 1 rows of the unlimited one (all of it
    when that is shorter).

    Candidates that their nearest point of existing rejects are dropped first,
    on arrays (a k-d tree proposes that point, the rule above decides).  The
    rest are scanned with kept points bucketed in squares a little wider than
    sep, so only the 3x3 buckets around a candidate can hold a rejecting point.
    """
    if limit is not None and existing.shape[0] > limit:
        return existing[: limit + 1].copy()
    if existing.shape[0] > 0 and candidates.shape[0] > 0:
        d = candidates - existing[kdtree(existing).query(candidates)[1]]
        dist = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])
        candidates = candidates[(dist > sep) if strict else (dist >= sep)]
    if candidates.shape[0] == 0:
        return existing.copy()
    points = np.concatenate([candidates, existing])
    # keys relative to the lower-left corner keep the rounding of
    # (x - x0) / width small; the margin covers it for any point spread
    x0, y0 = points.min(axis=0).tolist()
    span = float((points.max(axis=0) - (x0, y0)).max())
    width = sep * (1.0 + 1e-9) + span * 1e-15
    buckets = {}

    def key(x, y):
        return math.floor((x - x0) / width), math.floor((y - y0) / width)

    def rejected(x, y, bx, by):
        for i, j in _NEIGHBOURS:
            for qx, qy in buckets.get((bx + i, by + j), ()):
                d = math.sqrt((x - qx) * (x - qx) + (y - qy) * (y - qy))
                if (d <= sep) if strict else (d < sep):
                    return True
        return False

    for x, y in existing.tolist():
        buckets.setdefault(key(x, y), []).append((x, y))
    room = math.inf if limit is None else limit + 1 - existing.shape[0]
    accepted = []
    chunks = (
        candidates[start : start + _SCAN_CHUNK].tolist()
        for start in range(0, candidates.shape[0], _SCAN_CHUNK)
    )
    for x, y in itertools.chain.from_iterable(chunks):
        bx, by = key(x, y)
        if not rejected(x, y, bx, by):
            buckets.setdefault((bx, by), []).append((x, y))
            accepted.append((x, y))
            if len(accepted) == room:
                break
    return np.concatenate([existing, np.array(accepted, dtype=float).reshape(-1, 2)])


def kdtree(points):
    """scipy's k-d tree over the points; scipy.spatial is imported on first
    use, because it adds ~0.1 s to the package import."""
    from scipy.spatial import cKDTree

    return cKDTree(points)


def points_in_halfplanes(points, normals, offsets, tol):
    """Mask of points satisfying normals @ p <= offsets + tol for every row."""
    return (points @ normals.T <= offsets[None, :] + tol).all(axis=1)
