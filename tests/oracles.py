"""Reference implementations the tests check the package against.

None of these is reached by a command: each is a plain, dense or
closed-form restatement of something the package computes another way.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg


def toarray(A) -> np.ndarray:
    """Dense copy of a fem.SparseSymmetricMatrix (both triangles)."""
    return A.to_csr().toarray()


def dense_smallest(stiffness, mass, m: int):
    """Dense generalized eigensolve of the same pencil; reference for
    cross-checking the iterative path on small meshes."""
    n = stiffness.dimension
    if n > 2000:
        raise ValueError("dense fallback is for small problems only")
    vals, vecs = scipy.linalg.eigh(toarray(stiffness), toarray(mass))
    return vals[:m], vecs[:, :m]


def polygon_to_json(P) -> dict:
    """The object geometry.polygon_from_json reads back."""
    return {"vertices": P.vertices.tolist()}


def quadratic_form(ellipse, points) -> np.ndarray:
    """(p-c)^T A (p-c) of a geometry.Ellipse; inside means <= 1."""
    pts = np.asarray(points, dtype=float)
    ca, sa = math.cos(ellipse.rotation), math.sin(ellipse.rotation)
    rel = pts - ellipse.center.array
    u = rel[:, 0] * ca + rel[:, 1] * sa
    v = -rel[:, 0] * sa + rel[:, 1] * ca
    return (u / ellipse.semi_axis_a) ** 2 + (v / ellipse.semi_axis_b) ** 2
