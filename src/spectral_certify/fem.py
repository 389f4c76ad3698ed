"""P1 finite elements for the Neumann Laplacian on triangle meshes.

Assembly produces exact element integrals (piecewise-linear stiffness and
consistent mass), accumulated into a symmetric sparse format.  The
smallest eigenpairs come from shift-invert Lanczos (ARPACK) on an
explicit LU factorization of the positive definite K + M, symmetrically
ordered (reverse Cuthill-McKee, then minimum degree) and without
pivoting; since the discrete problem is a Galerkin restriction, every
computed eigenvalue overestimates its continuous counterpart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse

from . import _kernels
from .geometry import ConvexPolygon
from .mesh import MeshError, TriangleMesh, mesh_polygon
from .spectra import Spectrum

# fixed start-vector seed: spectra must not depend on interpreter state, so
# runs of the same problem are reproducible bit for bit
_START_SEED = 1234567

_RESIDUAL_TOL = 1e-8
_MAX_SWEEPS = 500


class EigensolverError(RuntimeError):
    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


@dataclass
class SparseSymmetricMatrix:
    """Symmetric matrix in coordinate form, one entry per symmetric pair of
    positions; from_coo keeps the upper triangle, coalesced and sorted."""

    dimension: int
    rows: np.ndarray
    cols: np.ndarray
    data: np.ndarray

    @classmethod
    def from_coo(cls, dimension, rows, cols, data):
        """Build from coordinate data of a symmetric matrix; duplicates are
        summed, then the upper triangle is kept."""
        full = scipy.sparse.coo_matrix(
            (np.asarray(data, dtype=float), (rows, cols)),
            shape=(dimension, dimension),
        ).tocsr()
        upper = scipy.sparse.triu(full).tocoo()
        return cls(dimension, upper.row, upper.col, upper.data)

    def to_csr(self) -> scipy.sparse.csr_matrix:
        """Full symmetric CSR matrix, sorted, in one COO to CSR conversion:
        each off-diagonal entry mirrored, exact zeros dropped."""
        off = self.rows != self.cols
        data = np.concatenate((self.data, self.data[off]))
        rows = np.concatenate((self.rows, self.cols[off]))
        cols = np.concatenate((self.cols, self.rows[off]))
        full = scipy.sparse.coo_matrix((data, (rows, cols)), shape=(self.dimension,) * 2).tocsr()
        full.eliminate_zeros()
        return full


def assemble(mesh: TriangleMesh):
    """Stiffness and consistent mass matrices of the P1 space on the mesh.

    Returns (K, M) as SparseSymmetricMatrix.  The stiffness matrix
    annihilates constants and the mass matrix entries sum to the mesh
    area, both exactly at the element level.
    """
    coords = mesh.triangle_coords()
    areas, kloc, mloc = _kernels.p1_element_matrices(coords)
    if (areas < 1e-14 * mesh.h_max**2).any():
        raise MeshError("degenerate triangle encountered during assembly")
    tris = mesh.triangles
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    n = mesh.num_vertices
    stiffness = SparseSymmetricMatrix.from_coo(n, rows, cols, kloc.ravel())
    mass = SparseSymmetricMatrix.from_coo(n, rows, cols, mloc.ravel())
    return stiffness, mass


def _residuals(K, M, vals, vecs):
    """Relative eigenpair residuals, safeguarded for the zero mode."""
    kx = K @ vecs
    mx = M @ vecs
    denom = np.maximum(np.linalg.norm(kx, axis=0), (1.0 + np.abs(vals)) * np.linalg.norm(mx, axis=0))
    mx *= vals
    kx -= mx
    return np.linalg.norm(kx, axis=0) / denom


def solve_smallest(K, M, m: int):
    """Smallest m eigenvalues of K x = mu M x by shift-invert Lanczos
    (ARPACK) at shift -1, which keeps the factored operator K + M
    positive definite for the singular Neumann stiffness.  K and M are the
    full symmetric CSR pencil, expected in _pencil's vertex order: K + M is
    factored once, as it arrives, by pivot-free LU in minimum degree order
    on top of it (from a large fan mesh's natural order minimum degree takes
    minutes), and the factor's own solve is the shift-invert operator.  A
    failed factorization raises EigensolverError.

    _MAX_SWEEPS bounds the ARPACK restart iterations, and a residual above
    _RESIDUAL_TOL raises.  Returns (values, vectors, residual), ascending,
    vectors in the order of K and M.  Deterministic: the start vector is
    seeded, so runs of the same problem agree bit for bit.
    """
    # The solver stack is imported where a solve first needs it, here and in
    # _pencil: certify, bounds and verify import fem but never solve.  At
    # module level scipy.sparse.csgraph would cost every process ~0.8 MiB
    # and 6-10 ms, and scipy.sparse.linalg with the scipy.linalg it loads
    # (LAPACK, ARPACK, SuperLU) 0.09 s and 10.3 MiB.  Names are looked up on
    # the module at call time, so that profilers can wrap them.
    import scipy.sparse.linalg

    n = K.shape[0]
    if not (1 <= m <= n // 2):
        raise ValueError("need 1 <= m <= dimension/2")
    # K is PSD and M is PD, so K + M is SPD and elimination without pivoting
    # is stable (Higham, Accuracy and Stability, 10.1).  A symmetric CSR
    # matrix is its own CSC transpose, so the sum is factored without a CSC
    # copy, and dies once the factor (which holds its own L and U) exists.
    try:
        lu = scipy.sparse.linalg.splu(
            (K + M).T,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise EigensolverError(f"LU of K + M (dimension {n}) failed: {exc}") from exc
    op_inv = scipy.sparse.linalg.LinearOperator((n, n), matvec=lu.solve, dtype=float)
    # not the constant vector: the operator fixes K's null vector (1-d Krylov space)
    v0 = np.random.default_rng(_START_SEED).standard_normal(n)
    try:
        vals, vecs = scipy.sparse.linalg.eigsh(
            K, k=m, M=M, sigma=-1.0, v0=v0, OPinv=op_inv, maxiter=_MAX_SWEEPS
        )
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        partial = _residuals(K, M, exc.eigenvalues, exc.eigenvectors)
        best = float(partial.max()) if partial.size else np.inf
        raise EigensolverError(
            f"ARPACK did not converge within {_MAX_SWEEPS} iterations: "
            f"{partial.size}/{m} eigenpairs converged, best residual {best:.3e}",
            best_residual=best,
        ) from exc
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    worst = float(_residuals(K, M, vals, vecs).max())
    if worst > _RESIDUAL_TOL:
        raise EigensolverError(
            f"eigenpair residual {worst:.3e} exceeds tolerance {_RESIDUAL_TOL:.1e}",
            best_residual=worst,
        )
    return vals, vecs, worst


def _pencil(P: ConvexPolygon, levels: int):
    """Mesh width and CSR K and M of P's mesh in the one vertex order of the
    solve, the reverse Cuthill-McKee order of M's pattern (which K + M
    shares): each assembled matrix is relabelled into it before its CSR
    conversion.  The order is read off a CSR of M's stored upper triangle U
    (it orders U + U^T) that dies at once.  The mesh dies once assembled,
    each assembled matrix once its CSR exists."""
    from scipy.sparse.csgraph import reverse_cuthill_mckee  # see solve_smallest

    mesh = mesh_polygon(P, levels)
    mesh_h, (stiffness, mass) = mesh.h_max, assemble(mesh)
    del mesh
    upper = (mass.data, (mass.rows, mass.cols))
    order = reverse_cuthill_mckee(scipy.sparse.csr_matrix(upper, shape=(mass.dimension,) * 2), symmetric_mode=False)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size, dtype=order.dtype)
    K = replace(stiffness, rows=rank[stiffness.rows], cols=rank[stiffness.cols]).to_csr()
    del stiffness
    return mesh_h, K, replace(mass, rows=rank[mass.rows], cols=rank[mass.cols]).to_csr()


def neumann_spectrum(P: ConvexPolygon, m: int, levels: int) -> Spectrum:
    """FEM approximation of the first m Neumann eigenvalues of P at the
    given uniform refinement level.  P is solved scaled by the power of 16
    that puts its bounding-box diagonal in [1, 16), as solve_smallest's
    shift and residual guard are in absolute units; a power of two scales
    exactly (K is unchanged, M scales by its square), so the values and
    mesh width scale back exactly."""
    (x0, y0), (x1, y1) = P.bounding_box
    factor = math.ldexp(1.0, -4 * ((math.frexp(math.hypot(x1 - x0, y1 - y0))[1] - 1) // 4))
    if factor != 1.0:
        P = ConvexPolygon(P.vertices * factor)
    mesh_h, K, M = _pencil(P, levels)
    vals, _, residual = solve_smallest(K, M, m)
    # the continuous zero mode rounds to a tiny number of either sign
    if abs(vals[0]) < 1e-10 * max(abs(vals).max(), 1.0):
        vals[0] = 0.0
    vals *= factor * factor
    return Spectrum(vals, f"fem({levels})", mesh_h=mesh_h / factor, solver_residual=residual)
