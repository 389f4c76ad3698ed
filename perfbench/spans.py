"""Span recorder for the traced benchmark run.

Wrappers are installed at the module attributes each caller looks up
(``fem.solve_smallest``, ``certify.maximal_separated_net``,
``_kernels.greedy_net``, ``cli.minimal_constant`` ...), so nested calls
give nested spans.  A span is [name, start, end, parent index, op name].
Counts are taken by hooks at the same boundaries; the hooks run when the
op ends, outside every timed span, so their work (LU nnz, cell vertex
counts) is not charged to any layer.  Spans stay in memory until the
worker writes them out.
"""

from __future__ import annotations

import time
from collections import Counter


class _CountingLU:
    """Factor object handed back to solve_smallest: counts the columns of
    every right-hand side and passes the solve through."""

    def __init__(self, lu, counts):
        self._lu = lu
        self._counts = counts

    def solve(self, rhs, *args, **kwargs):
        self._counts["fem.lu_solve_columns"] += rhs.shape[1] if rhs.ndim == 2 else 1
        return self._lu.solve(rhs, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.maxima = {}
        self.op = None
        self._stack = []
        self._pending = []
        self._solves = set()

    # -- recording ----------------------------------------------------------

    def wrap(self, name, fn, hook=None):
        spans, stack, pending = self.spans, self._stack, self._pending

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            idx = len(spans)
            spans.append(rec)
            stack.append(idx)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                pending.append((hook, idx, args, kwargs, result))
            return result

        return traced

    def patch(self, module, attr, name, hook=None):
        setattr(module, attr, self.wrap(name, getattr(module, attr), hook))

    def begin_op(self, name):
        self.op = name

    def end_op(self):
        """Run the deferred count hooks of the op that just ended."""
        for hook, idx, args, kwargs, result in self._pending:
            hook(self, idx, args, kwargs, result)
        self._pending.clear()
        self.op = None

    def peak(self, key, value):
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def inside(self, idx, name) -> bool:
        """Whether span idx runs inside a span called name."""
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    # -- installation -------------------------------------------------------

    def install(self):
        import scipy.sparse.linalg

        from spectral_certify import _kernels, certify, cli, fem

        counts = self.counts

        def splu(*args, **kwargs):
            return _CountingLU(factorize(*args, **kwargs), counts)

        factorize = self.wrap("fem.factorize", scipy.sparse.linalg.splu, _on_factor)
        scipy.sparse.linalg.splu = splu

        patches = [
            (cli, "cmd_spectrum", "cli.spectrum", None),
            (cli, "cmd_sweep", "cli.sweep", None),
            (cli, "cmd_certify", "cli.certify", None),
            (cli, "neumann_spectrum", "fem.neumann_spectrum", _on_spectrum),
            (certify, "neumann_spectrum", "fem.neumann_spectrum", _on_spectrum),
            (fem, "mesh_polygon", "mesh.mesh_polygon", _on_mesh),
            (fem, "assemble", "fem.assemble", _on_assemble),
            (fem, "solve_smallest", "fem.solve_smallest", _on_solve),
            (_kernels, "p1_element_matrices", "kernels.p1_element_matrices", None),
            (_kernels, "greedy_net", "kernels.greedy_net", _on_greedy),
            (_kernels, "points_in_halfplanes", "kernels.points_in_halfplanes", _on_halfplanes),
            (certify, "inner_offset", "geometry.inner_offset", None),
            (certify, "maximal_separated_net", "geometry.maximal_separated_net", _on_net),
            (certify, "voronoi_partition", "geometry.voronoi_partition", _on_voronoi),
            (certify, "ball_packing_count", "geometry.ball_packing_count", None),
            (certify, "rectangle_sandwich", "geometry.rectangle_sandwich", None),
            (cli, "rectangle_sandwich", "geometry.rectangle_sandwich", None),
            (cli, "minimal_constant", "certify.minimal_constant", None),
            (cli, "construct_partition", "certify.construct_partition", _on_construct),
            (certify, "construct_partition", "certify.construct_partition", _on_construct),
            (cli, "certified_chain", "certify.certified_chain", None),
            (certify, "verify_certificate", "certify.verify_certificate", _on_verify),
            (cli, "quadratic_ratio_sweep", "certify.quadratic_ratio_sweep", None),
            (cli, "weak_chain_report", "certify.weak_chain_report", None),
        ]
        for module, attr, name, hook in patches:
            self.patch(module, attr, name, hook)

    # -- reduction ----------------------------------------------------------

    def summary(self) -> dict:
        """Self time per span name, call counts and the counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for (name, start, end, _, _), covered in zip(self.spans, child):
            out[f"{name}.self_s"] += end - start - covered
            out[f"{name}.calls"] += 1
        out.update(self.counts)
        out["fem.distinct_solves"] = len(self._solves)
        out.update(self.maxima)
        return dict(out)


# count hooks: (tracer, span index, call args, call kwargs, result)


def _on_spectrum(tr, idx, args, kwargs, result):
    P, _, levels = args
    tr._solves.add((P.vertices.tobytes(), int(levels)))


def _on_mesh(tr, idx, args, kwargs, mesh):
    tr.counts["mesh.triangles"] += mesh.num_triangles


def _on_assemble(tr, idx, args, kwargs, result):
    stiffness, _ = result
    tr.counts["fem.dofs"] += stiffness.dimension
    # nnz of the full symmetric matrix from its stored upper triangle
    tr.counts["fem.nnz"] += 2 * stiffness.data.size - int((stiffness.rows == stiffness.cols).sum())


def _on_solve(tr, idx, args, kwargs, result):
    tr.peak("fem.solver_residual_max", float(result[2]))


def _on_greedy(tr, idx, args, kwargs, kept):
    candidates, existing = args[0], args[1]
    tr.counts["kernels.greedy_net.candidates"] += candidates.shape[0]
    tr.counts["kernels.greedy_net.kept"] += kept.shape[0] - existing.shape[0]


def _on_halfplanes(tr, idx, args, kwargs, result):
    tr.counts["kernels.points_in_halfplanes.points"] += args[0].shape[0]


def _on_net(tr, idx, args, kwargs, net):
    tr.counts["geometry.net_sites"] += len(net)


def _on_voronoi(tr, idx, args, kwargs, part):
    tr.counts["geometry.voronoi_cell_vertices"] += sum(cell.n for cell in part.cells)


def _on_construct(tr, idx, args, kwargs, cert):
    if tr.inside(idx, "certify.minimal_constant"):
        tr.counts["certify.search_constructs"] += 1


def _on_verify(tr, idx, args, kwargs, chain):
    if tr.inside(idx, "certify.minimal_constant") and chain.holds_all:
        tr.counts["certify.search_verified"] += 1


def _on_factor(tr, idx, args, kwargs, lu):
    tr.counts["fem.lu_fill_nnz"] += lu.L.nnz + lu.U.nnz
