"""Element matrices, sparse assembly, and the Neumann eigensolver."""

import math

import numpy as np
import pytest
import scipy.sparse.linalg

from spectral_certify import _kernels
from spectral_certify.bounds import rectangle_spectrum
from spectral_certify.fem import (
    EigensolverError,
    SparseSymmetricMatrix,
    assemble,
    dense_smallest,
    neumann_spectrum,
    solve_smallest,
)
from spectral_certify.geometry import ConvexPolygon, regular_polygon
from spectral_certify.mesh import TriangleMesh, mesh_polygon

UNIT_SQUARE = ConvexPolygon([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])
SLIVER = ConvexPolygon([[-5.0, -0.5], [5.0, -0.5], [5.0, 0.5], [-5.0, 0.5]])


@pytest.fixture
def factor_spy(monkeypatch):
    """Records every LU factor and shift-invert operator solve_smallest
    builds, passing both through unchanged."""
    seen = {"lu": [], "op_inv": []}
    splu, eigsh = scipy.sparse.linalg.splu, scipy.sparse.linalg.eigsh

    def spy_splu(*args, **kwargs):
        seen["lu"].append(splu(*args, **kwargs))
        return seen["lu"][-1]

    def spy_eigsh(*args, **kwargs):
        seen["op_inv"].append(kwargs["OPinv"])
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", spy_splu)
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", spy_eigsh)
    return seen


def reference_triangle_mesh():
    return TriangleMesh(
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        triangles=np.array([[0, 1, 2]]),
        boundary=np.ones(3, dtype=bool),
        refinement_level=0,
        h_max=math.sqrt(2.0),
    )


class TestElementMatrices:
    def test_reference_triangle_exact(self):
        coords = np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]])
        areas, kloc, mloc = _kernels.p1_element_matrices(coords)
        assert areas[0] == pytest.approx(0.5, rel=1e-15)
        expected_k = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
        expected_m = (1.0 / 24.0) * np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])
        assert kloc[0] == pytest.approx(expected_k, abs=1e-15)
        assert mloc[0] == pytest.approx(expected_m, abs=1e-17)

    def test_translation_invariance(self):
        rng = np.random.default_rng(3)
        tri = np.array([[0.0, 0.0], [1.3, 0.1], [0.4, 0.9]])
        shift = rng.uniform(-5, 5, size=2)
        _, k1, m1 = _kernels.p1_element_matrices(tri[None])
        _, k2, m2 = _kernels.p1_element_matrices((tri + shift)[None])
        assert k1 == pytest.approx(k2, rel=1e-12)
        assert m1 == pytest.approx(m2, rel=1e-12)

    def test_stiffness_annihilates_constants(self):
        mesh = mesh_polygon(regular_polygon(5), 2)
        stiffness, _ = assemble(mesh)
        K = stiffness.to_csr()
        resid = np.abs(K @ np.ones(mesh.num_vertices)).max()
        assert resid <= 1e-10 * np.abs(K.data).max()

    def test_mass_sums_to_area(self):
        mesh = mesh_polygon(regular_polygon(7), 2)
        _, mass = assemble(mesh)
        assert mass.to_csr().sum() == pytest.approx(mesh.total_area(), rel=1e-12)

    def test_single_triangle_assembly_matches_local(self):
        mesh = reference_triangle_mesh()
        stiffness, mass = assemble(mesh)
        _, kloc, mloc = _kernels.p1_element_matrices(mesh.triangle_coords())
        assert stiffness.toarray() == pytest.approx(kloc[0], abs=1e-15)
        assert mass.toarray() == pytest.approx(mloc[0], abs=1e-17)


class TestSparseStorage:
    def test_duplicates_coalesced_and_upper_kept(self):
        # full symmetric input with split contributions, the way element
        # assembly emits it; mirrored entries must not be double counted
        rows = [0, 0, 1, 1, 0, 2, 1, 2, 0, 1, 2]
        cols = [1, 1, 0, 0, 2, 0, 2, 1, 0, 1, 2]
        data = [4.0, 1.5, 4.0, 1.5, -1.0, -1.0, 0.5, 0.5, 2.0, 3.0, 5.0]
        m = SparseSymmetricMatrix.from_coo(3, rows, cols, data)
        assert (m.rows <= m.cols).all()
        expected = np.array([[2.0, 5.5, -1.0], [5.5, 3.0, 0.5], [-1.0, 0.5, 5.0]])
        assert m.toarray() == pytest.approx(expected, rel=1e-15)

    def test_to_csr_is_symmetric(self):
        mesh = mesh_polygon(UNIT_SQUARE, 2)
        stiffness, mass = assemble(mesh)
        for mat in (stiffness, mass):
            csr = mat.to_csr()
            assert abs(csr - csr.T).max() == 0.0


class TestEigensolver:
    def test_matches_dense_reference(self):
        # the square, a 10:1 sliver and a 7-gon fan, each under the dense
        # solver's 2000 DOFs
        for polygon, levels in ((UNIT_SQUARE, 2), (SLIVER, 4), (regular_polygon(7), 4)):
            stiffness, mass = assemble(mesh_polygon(polygon, levels))
            vals, vecs, residual = solve_smallest(stiffness, mass, 8)
            dense_vals, _ = dense_smallest(stiffness, mass, 8)
            assert residual <= 1e-8
            scale = dense_vals.max()
            assert vals == pytest.approx(dense_vals, abs=1e-9 * scale)
            # returned vectors satisfy the pencil equation
            K = stiffness.to_csr()
            M = mass.to_csr()
            for i in range(8):
                r = np.linalg.norm(K @ vecs[:, i] - vals[i] * (M @ vecs[:, i]))
                assert r <= 1e-7 * max(1.0, abs(vals[i]))

    def test_galerkin_values_overestimate(self):
        # conforming discretization bounds every eigenvalue from above
        exact = rectangle_spectrum(0.5, 0.5, 6).values
        approx = neumann_spectrum(UNIT_SQUARE, 6, 4).values
        assert (approx >= exact - 1e-9).all()

    def test_values_decrease_under_refinement(self):
        prev = None
        for levels in (2, 3, 4):
            vals = neumann_spectrum(UNIT_SQUARE, 6, levels).values
            if prev is not None:
                assert (vals <= prev + 1e-10 * max(1.0, prev.max())).all()
            prev = vals

    def test_square_symmetric_pair(self):
        # the first nonzero eigenvalue of the square is double; the mesh
        # keeps the full symmetry so the FEM pair coincides to rounding
        vals = neumann_spectrum(UNIT_SQUARE, 4, 5).values
        assert vals[1] == pytest.approx(vals[2], rel=1e-6)

    def test_zero_mode_resolved(self):
        # the constant mode comes out nonnegative and many orders below
        # the first genuine eigenvalue
        spectrum = neumann_spectrum(regular_polygon(6), 5, 3)
        assert 0.0 <= spectrum.values[0] <= 1e-12 * spectrum.values[1]
        assert spectrum.source == "fem(3)"
        assert spectrum.refinement_level == 3
        assert spectrum.mesh_h > 0.0

    @pytest.mark.parametrize(
        "polygon, m, levels",
        [(regular_polygon(6), 5, 4), (UNIT_SQUARE, 8, 5), (regular_polygon(5), 8, 4)],
        ids=["regular_6", "square", "regular_5"],
    )
    def test_zero_mode_is_exactly_zero(self, polygon, m, levels):
        # these pencils round the constant mode to a tiny positive number
        assert neumann_spectrum(polygon, m, levels).values[0] == 0.0

    def test_rejects_oversized_block(self):
        mesh = mesh_polygon(UNIT_SQUARE, 1)
        stiffness, mass = assemble(mesh)
        with pytest.raises(ValueError):
            solve_smallest(stiffness, mass, mesh.num_vertices)

    def test_reports_stall(self):
        mesh = mesh_polygon(UNIT_SQUARE, 2)
        stiffness, mass = assemble(mesh)
        with pytest.raises(EigensolverError) as err:
            solve_smallest(stiffness, mass, 4, residual_tol=1e-300, max_sweeps=2)
        assert err.value.best_residual is not None
        assert err.value.best_residual > 0.0

    def test_reports_arpack_stall(self):
        # one restart is too few for six pairs: the error names the limit,
        # the converged count and the residual of the converged pairs
        mesh = mesh_polygon(regular_polygon(6), 3)
        stiffness, mass = assemble(mesh)
        with pytest.raises(EigensolverError, match=r"within 1 iterations: \d/6 eigenpairs") as err:
            solve_smallest(stiffness, mass, 6, max_sweeps=1)
        assert 0.0 < err.value.best_residual < math.inf

    def test_factor_is_symmetric_permutation(self, factor_spy):
        # pivot-free elimination of the SPD matrix K + M: rows and columns
        # are reordered alike (partial pivoting leaves the diagonal on
        # this coarse sliver mesh)
        stiffness, mass = assemble(mesh_polygon(SLIVER, 2))
        solve_smallest(stiffness, mass, 4)
        (lu,) = factor_spy["lu"]
        assert np.array_equal(lu.perm_r, lu.perm_c)

    def test_permuted_solve_inverts_k_plus_m(self, factor_spy):
        stiffness, mass = assemble(mesh_polygon(SLIVER, 4))
        solve_smallest(stiffness, mass, 4)
        (op_inv,) = factor_spy["op_inv"]
        A = stiffness.to_csr() + mass.to_csr()
        b = np.random.default_rng(5).standard_normal(stiffness.dimension)
        x = op_inv.matvec(b)
        assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)

    @pytest.mark.parametrize("polygon", [UNIT_SQUARE, SLIVER], ids=["square", "sliver_10x1"])
    def test_fill_below_default_ordering(self, factor_spy, polygon):
        # guards the symmetric ordering: a fall-back to splu's default
        # column ordering, or to no ordering, fails here
        stiffness, mass = assemble(mesh_polygon(polygon, 6))
        solve_smallest(stiffness, mass, 2)
        (lu,) = factor_spy["lu"]
        default = scipy.sparse.linalg.splu((stiffness.to_csr() + mass.to_csr()).tocsc())
        assert lu.L.nnz + lu.U.nnz < default.L.nnz + default.U.nnz

    def test_singular_factor_is_solver_error(self):
        # an index no element touches leaves an empty row in K + M, and
        # elimination without pivoting meets a zero pivot
        stiffness, mass = assemble(mesh_polygon(regular_polygon(5), 1))
        n = stiffness.dimension + 1
        padded = [
            SparseSymmetricMatrix(n, mat.rows, mat.cols, mat.data) for mat in (stiffness, mass)
        ]
        with pytest.raises(EigensolverError, match=f"dimension {n}") as err:
            solve_smallest(*padded, 2)
        assert err.value.best_residual is None

    def test_repeated_solves_bitwise_equal(self):
        first = neumann_spectrum(regular_polygon(6), 8, 4)
        second = neumann_spectrum(regular_polygon(6), 8, 4)
        assert np.array_equal(first.values, second.values)
        assert first.solver_residual == second.solver_residual

    def test_dense_guard(self):
        big = SparseSymmetricMatrix.from_coo(
            2001, np.arange(2001), np.arange(2001), np.ones(2001)
        )
        with pytest.raises(ValueError):
            dense_smallest(big, big, 2)
