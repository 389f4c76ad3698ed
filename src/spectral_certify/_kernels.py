"""Hot numeric loops: P1 element matrices, the greedy net scan and half-plane
membership.

Callers look these up as module attributes (``_kernels.greedy_net``), so a
profiler can wrap them in place.
"""

from __future__ import annotations

import numpy as np

# read by the end-to-end benchmark's environment block; every kernel is numpy
NUMBA_ENABLED = False


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


def greedy_net(candidates, existing, sep, strict):
    """Scan candidates in order, keeping those far enough from all kept points.

    A candidate is rejected when its distance sqrt(dx^2 + dy^2) to an already
    kept point is < sep (strict=False) or <= sep (strict=True), with
    dx = candidate - kept; sep > 0.  Returns existing with the accepted
    candidates appended, in scan order; candidates may come in any order.

    Rejection is final and the distance symmetric, so each existing point,
    and then each candidate as it is kept, rejects the alive candidates
    within sep at once, and the scan moves on to the next one alive.  A point
    measures only the candidates whose x is within reach of its own, found by
    bisection in one stable x-sort of the candidates.
    """
    order = np.argsort(candidates[:, 0], kind="stable")
    sorted_x = candidates[order, 0]
    xs, ys = candidates.T.copy()
    alive = bytearray(b"\x01") * order.size
    marks = np.frombuffer(alive, dtype=np.uint8)
    # A candidate outside the window has x beyond fl(x_p -+ reach), so
    # |x - x_p| > reach exactly and, rounding being monotone, |dx| >= reach
    # as computed.  reach is at least 2 sep and its square a normal double,
    # so fl(dx^2) >= reach^2 (1 - u), adding fl(dy^2) >= 0 loses nothing, and
    # the distance is at least 2 sep (1 - u)^2 > sep (u = 2^-53): no
    # candidate outside the window can be rejected.
    reach = max(2.0 * sep, 2.0**-511)

    def reject(x, y):
        lo = sorted_x.searchsorted(x - reach)
        hi = sorted_x.searchsorted(x + reach, "right")
        j = order[lo:hi]
        j = j[marks[j] != 0]
        dx = xs[j] - x
        dy = ys[j] - y
        dist = np.sqrt(dx * dx + dy * dy)
        marks[j[(dist <= sep) if strict else (dist < sep)]] = 0

    for x, y in existing.tolist():
        reject(x, y)
    kept = []
    i = alive.find(1)
    while i >= 0:
        kept.append(i)
        reject(xs[i], ys[i])
        i = alive.find(1, i + 1)
    return np.concatenate([existing, candidates[kept]])


def points_in_halfplanes(points, normals, offsets, tol):
    """Mask of points satisfying normals @ p <= offsets + tol for every row."""
    return (points @ normals.T <= offsets[None, :] + tol).all(axis=1)
