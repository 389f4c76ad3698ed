"""Container for computed Neumann eigenvalue lists.

Index 0 is the constant mode, so values[0] must vanish to numerical
precision and the sequence must ascend (modulo rounding ties).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class SpectrumError(ValueError):
    pass


@dataclass
class Spectrum:
    """Ascending Neumann eigenvalues with provenance.

    source is "closed_form" for analytic spectra, "fem(<level>)" for
    finite-element output; mesh_h and solver_residual are zero for
    closed forms.
    """

    values: np.ndarray
    source: str = "closed_form"
    mesh_h: float = 0.0
    solver_residual: float = 0.0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise SpectrumError("spectrum must be a nonempty 1-d array")
        if not np.isfinite(vals).all():
            raise SpectrumError("eigenvalues must be finite")
        if (vals < 0).any():
            raise SpectrumError("Neumann eigenvalues cannot be negative")
        if vals.size >= 2:
            if vals[0] >= 1e-8 * max(vals[1], 1.0):
                raise SpectrumError(
                    f"lowest eigenvalue {vals[0]!r} is not numerically zero"
                )
            gaps = np.diff(vals)
            floor = -1e-12 * np.maximum(1.0, vals[:-1])
            if (gaps < floor).any():
                raise SpectrumError("eigenvalues must be ascending")
        # a copy, taken after the checks so that their temporaries and it
        # never coexist; freezing it leaves the caller's array writeable
        self.values = vals.copy()
        self.values.setflags(write=False)

    def __len__(self):
        return self.values.size

    def __getitem__(self, k):
        return float(self.values[k])
