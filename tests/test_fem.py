"""Element matrices, sparse assembly, and the Neumann eigensolver."""

import math
import weakref

import numpy as np
import pytest
import scipy.sparse.csgraph
import scipy.sparse.linalg

from spectral_certify import _kernels, fem
from spectral_certify.bounds import rectangle_spectrum
from spectral_certify.fem import (
    EigensolverError,
    SparseSymmetricMatrix,
    assemble,
    neumann_spectrum,
    solve_smallest,
)
from spectral_certify.geometry import ConvexPolygon, regular_polygon
from spectral_certify.mesh import TriangleMesh, mesh_polygon

from oracles import dense_smallest, toarray

UNIT_SQUARE = ConvexPolygon([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])
SLIVER = ConvexPolygon([[-5.0, -0.5], [5.0, -0.5], [5.0, 0.5], [-5.0, 0.5]])


@pytest.fixture
def factor_spy(monkeypatch):
    """Records every matrix solve_smallest factors, its LU factor and the
    shift-invert operator, passing each through unchanged."""
    seen = {"factored": [], "lu": [], "op_inv": []}
    splu, eigsh = scipy.sparse.linalg.splu, scipy.sparse.linalg.eigsh

    def spy_splu(*args, **kwargs):
        seen["factored"].append(args[0])
        seen["lu"].append(splu(*args, **kwargs))
        return seen["lu"][-1]

    def spy_eigsh(*args, **kwargs):
        seen["op_inv"].append(kwargs["OPinv"])
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", spy_splu)
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", spy_eigsh)
    return seen


def bandwidth(A) -> int:
    """The largest |i - j| over the stored entries of a sparse matrix."""
    coo = A.tocoo()
    return int(np.abs(coo.row.astype(np.int64) - coo.col).max())


def reference_triangle_mesh():
    return TriangleMesh(
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        triangles=np.array([[0, 1, 2]]),
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
        assert toarray(stiffness) == pytest.approx(kloc[0], abs=1e-15)
        assert toarray(mass) == pytest.approx(mloc[0], abs=1e-17)


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
        assert toarray(m) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize(
        "polygon, levels", [(UNIT_SQUARE, 2), (regular_polygon(256), 1)], ids=["square", "regular_256"]
    )
    def test_to_csr_is_upper_plus_transpose_minus_diagonal(self, polygon, levels):
        # one COO to CSR conversion gives bit for bit what three sparse
        # operations on the stored triangle give, exact zeros dropped alike
        for mat in assemble(mesh_polygon(polygon, levels)):
            upper = scipy.sparse.coo_matrix((mat.data, (mat.rows, mat.cols)), shape=(mat.dimension,) * 2).tocsr()
            expected = (upper + upper.T - scipy.sparse.diags(upper.diagonal())).tocsr()
            csr = mat.to_csr()
            assert np.array_equal(csr.indptr, expected.indptr)
            assert np.array_equal(csr.indices, expected.indices)
            assert csr.data.tobytes() == expected.data.tobytes()

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
            K, M = stiffness.to_csr(), mass.to_csr()
            vals, vecs, residual = solve_smallest(K, M, 8)
            dense_vals, _ = dense_smallest(stiffness, mass, 8)
            assert residual <= 1e-8
            scale = dense_vals.max()
            assert vals == pytest.approx(dense_vals, abs=1e-9 * scale)
            # returned vectors satisfy the pencil equation
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
        _, K, M = fem._pencil(UNIT_SQUARE, 1)
        with pytest.raises(ValueError):
            solve_smallest(K, M, K.shape[0])

    def test_reports_stall(self, monkeypatch):
        _, K, M = fem._pencil(UNIT_SQUARE, 2)
        monkeypatch.setattr(fem, "_RESIDUAL_TOL", 1e-300)
        monkeypatch.setattr(fem, "_MAX_SWEEPS", 2)
        with pytest.raises(EigensolverError) as err:
            solve_smallest(K, M, 4)
        assert err.value.best_residual is not None
        assert err.value.best_residual > 0.0

    def test_reports_arpack_stall(self, monkeypatch):
        # one restart is too few for six pairs: the error names the limit,
        # the converged count and the residual of the converged pairs
        _, K, M = fem._pencil(regular_polygon(6), 3)
        monkeypatch.setattr(fem, "_MAX_SWEEPS", 1)
        with pytest.raises(EigensolverError, match=r"within 1 iterations: \d/6 eigenpairs") as err:
            solve_smallest(K, M, 6)
        assert 0.0 < err.value.best_residual < math.inf

    def test_factor_is_symmetric_permutation(self, factor_spy):
        # pivot-free elimination of the SPD matrix K + M: rows and columns
        # are reordered alike (partial pivoting leaves the diagonal on
        # this coarse sliver mesh)
        _, K, M = fem._pencil(SLIVER, 2)
        solve_smallest(K, M, 4)
        (lu,) = factor_spy["lu"]
        assert np.array_equal(lu.perm_r, lu.perm_c)

    def test_permuted_solve_inverts_k_plus_m(self, factor_spy):
        _, K, M = fem._pencil(SLIVER, 4)
        solve_smallest(K, M, 4)
        (op_inv,) = factor_spy["op_inv"]
        A = K + M
        b = np.random.default_rng(5).standard_normal(K.shape[0])
        x = op_inv.matvec(b)
        assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)

    @pytest.mark.parametrize(
        "polygon, levels", [(UNIT_SQUARE, 4), (regular_polygon(256), 2)], ids=["square", "regular_256"]
    )
    def test_pencil_in_bandwidth_order(self, polygon, levels):
        # _pencil hands over K and M in one bandwidth-reducing vertex order
        stiffness, mass = assemble(mesh_polygon(polygon, levels))
        natural = stiffness.to_csr() + mass.to_csr()
        _, K, M = fem._pencil(polygon, levels)
        assert bandwidth(K + M) < bandwidth(natural)

    @pytest.mark.parametrize(
        "polygon, levels", [(UNIT_SQUARE, 4), (regular_polygon(256), 2)], ids=["square", "regular_256"]
    )
    def test_pencil_order_is_that_of_the_full_pattern(self, monkeypatch, polygon, levels):
        # the order _pencil reads off M's upper triangle is the reverse
        # Cuthill-McKee order of the full symmetric M
        orders = []
        rcm = scipy.sparse.csgraph.reverse_cuthill_mckee

        def recorded(graph, symmetric_mode=False):
            orders.append(rcm(graph, symmetric_mode=symmetric_mode))
            return orders[-1]

        monkeypatch.setattr(scipy.sparse.csgraph, "reverse_cuthill_mckee", recorded)
        fem._pencil(polygon, levels)
        _, mass = assemble(mesh_polygon(polygon, levels))
        (order,) = orders
        assert np.array_equal(order, rcm(mass.to_csr(), symmetric_mode=True))

    def test_factors_the_pencil_as_it_arrives(self, factor_spy):
        # solve_smallest factors K + M itself: no reordered copy
        _, K, M = fem._pencil(SLIVER, 3)
        solve_smallest(K, M, 4)
        (factored,) = factor_spy["factored"]
        expected = (K + M).tocsc()
        assert factored.format == "csc"
        assert np.array_equal(factored.indptr, expected.indptr)
        assert np.array_equal(factored.indices, expected.indices)
        assert factored.data.tobytes() == expected.data.tobytes()

    def test_shift_invert_operator_is_the_factor_solve(self, factor_spy):
        _, K, M = fem._pencil(SLIVER, 3)
        solve_smallest(K, M, 4)
        (lu,), (op_inv,) = factor_spy["lu"], factor_spy["op_inv"]
        b = np.random.default_rng(7).standard_normal(K.shape[0])
        assert op_inv.matvec(b).tobytes() == lu.solve(b).tobytes()

    def test_residuals_in_place_match_the_formula(self):
        # the residual check reuses its two products in place: same bits
        # as |K x - mu M x| over the safeguarded scale
        _, K, M = fem._pencil(SLIVER, 3)
        vals, vecs, worst = solve_smallest(K, M, 4)
        kx, mx = K @ vecs, M @ vecs
        denom = np.maximum(np.linalg.norm(kx, axis=0), (1.0 + np.abs(vals)) * np.linalg.norm(mx, axis=0))
        expected = np.linalg.norm(kx - mx * vals, axis=0) / denom
        assert fem._residuals(K, M, vals, vecs).tobytes() == expected.tobytes()
        assert worst == expected.max()

    @pytest.mark.parametrize("polygon", [UNIT_SQUARE, SLIVER], ids=["square", "sliver_10x1"])
    def test_fill_below_default_ordering(self, factor_spy, polygon):
        # guards the symmetric ordering: a fall-back to splu's default
        # column ordering, or to no ordering, fails here
        _, K, M = fem._pencil(polygon, 6)
        solve_smallest(K, M, 2)
        (lu,) = factor_spy["lu"]
        default = scipy.sparse.linalg.splu((K + M).tocsc())
        assert lu.L.nnz + lu.U.nnz < default.L.nnz + default.U.nnz

    def test_singular_factor_is_solver_error(self):
        # an index no element touches leaves an empty row in K + M, and
        # elimination without pivoting meets a zero pivot
        stiffness, mass = assemble(mesh_polygon(regular_polygon(5), 1))
        n = stiffness.dimension + 1
        padded = [
            SparseSymmetricMatrix(n, mat.rows, mat.cols, mat.data).to_csr() for mat in (stiffness, mass)
        ]
        with pytest.raises(EigensolverError, match=f"dimension {n}") as err:
            solve_smallest(*padded, 2)
        assert err.value.best_residual is None

    def test_mesh_and_assembled_pair_freed_before_factoring(self, monkeypatch):
        # no later step reads the mesh or the assembled upper triangles, so
        # neither may be alive when the LU of K + M starts
        refs = []
        alive_at_splu = []
        mesh_polygon, assemble, splu = fem.mesh_polygon, fem.assemble, scipy.sparse.linalg.splu

        def weak_mesh(*args):
            mesh = mesh_polygon(*args)
            refs.append(weakref.ref(mesh))
            return mesh

        def weak_assemble(mesh):
            pair = assemble(mesh)
            refs.extend(weakref.ref(mat) for mat in pair)
            return pair

        def checking_splu(*args, **kwargs):
            alive_at_splu.extend(ref() is not None for ref in refs)
            return splu(*args, **kwargs)

        monkeypatch.setattr(fem, "mesh_polygon", weak_mesh)
        monkeypatch.setattr(fem, "assemble", weak_assemble)
        monkeypatch.setattr(scipy.sparse.linalg, "splu", checking_splu)
        spectrum = neumann_spectrum(SLIVER, 4, 3)
        assert alive_at_splu == [False, False, False]
        assert spectrum.mesh_h == mesh_polygon(SLIVER, 3).h_max

    def test_repeated_solves_bitwise_equal(self):
        first = neumann_spectrum(regular_polygon(6), 8, 4)
        second = neumann_spectrum(regular_polygon(6), 8, 4)
        assert np.array_equal(first.values, second.values)
        assert first.solver_residual == second.solver_residual

    @pytest.mark.parametrize("size", [16.0**-3, 16.0**3])
    def test_power_of_two_scale_is_exact(self, size):
        # the solve runs on the unit square either way, so the values and
        # the mesh width scale back without rounding
        unit = neumann_spectrum(UNIT_SQUARE, 6, 3)
        scaled = neumann_spectrum(ConvexPolygon(UNIT_SQUARE.vertices * size), 6, 3)
        assert np.array_equal(scaled.values, unit.values / size**2)
        assert scaled.mesh_h == unit.mesh_h * size
        assert scaled.solver_residual == unit.solver_residual

    @pytest.mark.parametrize("size", [1e-3, 1e8])
    def test_values_scale_with_the_domain(self, size):
        # the shift and the residual guard are in absolute units, so these
        # sizes failed the residual check or lost digits unscaled
        unit = neumann_spectrum(UNIT_SQUARE, 6, 3)
        scaled = neumann_spectrum(ConvexPolygon(UNIT_SQUARE.vertices * size), 6, 3)
        assert scaled.values * size**2 == pytest.approx(unit.values, rel=1e-12)
        assert scaled.values[0] == 0.0

    def test_dense_guard(self):
        big = SparseSymmetricMatrix.from_coo(
            2001, np.arange(2001), np.arange(2001), np.ones(2001)
        )
        with pytest.raises(ValueError):
            dense_smallest(big, big, 2)
