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

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

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
    """Symmetric matrix stored as its upper triangle in coordinate form,
    with entries coalesced and sorted lexicographically."""

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
        return cls(
            dimension=dimension,
            rows=upper.row.astype(np.int64),
            cols=upper.col.astype(np.int64),
            data=upper.data.astype(float),
        )

    def to_csr(self) -> scipy.sparse.csr_matrix:
        """Full symmetric CSR matrix (both triangles)."""
        upper = scipy.sparse.coo_matrix(
            (self.data, (self.rows, self.cols)),
            shape=(self.dimension, self.dimension),
        ).tocsr()
        diag = scipy.sparse.diags(upper.diagonal())
        return (upper + upper.T - diag).tocsr()

    def toarray(self) -> np.ndarray:
        return self.to_csr().toarray()


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
    denom = np.maximum(
        np.linalg.norm(kx, axis=0), (1.0 + np.abs(vals)) * np.linalg.norm(mx, axis=0)
    )
    return np.linalg.norm(kx - mx * vals, axis=0) / denom


def solve_smallest(
    stiffness: SparseSymmetricMatrix,
    mass: SparseSymmetricMatrix,
    m: int,
    residual_tol: float = _RESIDUAL_TOL,
    max_sweeps: int = _MAX_SWEEPS,
):
    """Smallest m eigenvalues of K x = mu M x by shift-invert Lanczos
    (ARPACK) at shift -1, which keeps the factored operator K + M
    positive definite for the singular Neumann stiffness.  K + M is
    factored once, by pivot-free LU in a symmetric fill-reducing order;
    a failed factorization raises EigensolverError.

    max_sweeps bounds the ARPACK restart iterations.  Returns (values,
    vectors, residual), ascending.  Deterministic: the start vector is
    seeded, so runs of the same problem agree bit for bit.
    """
    n = stiffness.dimension
    if not (1 <= m <= n // 2):
        raise ValueError("need 1 <= m <= dimension/2")
    K = stiffness.to_csr()
    M = mass.to_csr()
    # imported here: certify imports fem but never factors, and a module-level
    # import costs every process ~0.8 MiB and 6-10 ms
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    # K is PSD and M is PD, so A is SPD and elimination without pivoting is
    # stable (Higham, Accuracy and Stability, 10.1): minimum degree on A + A^T
    # after a bandwidth pre-order, without which MMD takes minutes on the fan
    # meshes.  splu is looked up on the module so that profilers can wrap it.
    A = K + M
    perm = reverse_cuthill_mckee(A, symmetric_mode=True)
    try:
        lu = scipy.sparse.linalg.splu(
            A[perm][:, perm].tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise EigensolverError(f"LU of K + M (dimension {n}) failed: {exc}") from exc

    def apply_inverse(x):
        y = np.empty_like(x)
        y[perm] = lu.solve(x[perm])
        return y

    op_inv = scipy.sparse.linalg.LinearOperator((n, n), matvec=apply_inverse, dtype=float)
    # not the constant vector: the operator fixes K's null vector (1-d Krylov space)
    v0 = np.random.default_rng(_START_SEED).standard_normal(n)
    try:
        vals, vecs = scipy.sparse.linalg.eigsh(
            K, k=m, M=M, sigma=-1.0, v0=v0, OPinv=op_inv, maxiter=max_sweeps
        )
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        partial = _residuals(K, M, exc.eigenvalues, exc.eigenvectors)
        best = float(partial.max()) if partial.size else np.inf
        raise EigensolverError(
            f"ARPACK did not converge within {max_sweeps} iterations: "
            f"{partial.size}/{m} eigenpairs converged, best residual {best:.3e}",
            best_residual=best,
        ) from exc
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    worst = float(_residuals(K, M, vals, vecs).max())
    if worst > residual_tol:
        raise EigensolverError(
            f"eigenpair residual {worst:.3e} exceeds tolerance {residual_tol:.1e}",
            best_residual=worst,
        )
    return vals, vecs, worst


def dense_smallest(stiffness, mass, m: int):
    """Dense generalized eigensolve of the same pencil; reference for
    cross-checking the iterative path on small meshes."""
    n = stiffness.dimension
    if n > 2000:
        raise ValueError("dense fallback is for small problems only")
    vals, vecs = scipy.linalg.eigh(stiffness.toarray(), mass.toarray())
    return vals[:m], vecs[:, :m]


def neumann_spectrum(P: ConvexPolygon, m: int, levels: int) -> Spectrum:
    """FEM approximation of the first m Neumann eigenvalues of P at the
    given uniform refinement level."""
    mesh = mesh_polygon(P, levels)
    stiffness, mass = assemble(mesh)
    vals, _, residual = solve_smallest(stiffness, mass, m)
    # the continuous zero mode rounds to a tiny number of either sign
    if abs(vals[0]) < 1e-10 * max(abs(vals).max(), 1.0):
        vals[0] = 0.0
    return Spectrum(
        values=vals,
        source=f"fem({levels})",
        mesh_h=mesh.h_max,
        refinement_level=levels,
        solver_residual=residual,
    )
