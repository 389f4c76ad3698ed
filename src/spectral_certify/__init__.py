"""Neumann spectra of planar convex domains with checkable certificates.

The package computes finite-element Neumann eigenvalues, evaluates
classical closed-form bounds, and constructs partition certificates for
the quadratic upper bound mu_k <= C (k/l)^2 mu_l on rectangles, with an
independent verification pass over every certificate field.
"""

__version__ = "0.1.0"
