"""Neumann spectra of planar convex domains with checkable certificates.

The package computes finite-element Neumann eigenvalues, evaluates
classical closed-form bounds, and constructs partition certificates for
the quadratic upper bound mu_k <= C (k/l)^2 mu_l on rectangles, with an
independent verification pass over every certificate field.
"""

__version__ = "0.1.0"

from .bounds import (
    kroger_area_upper,
    kroger_diameter_upper,
    partition_lower,
    payne_weinberger_lower,
    rectangle_spectrum,
    torus_spectrum,
)
from .certify import (
    CertificateFormatError,
    CertificationError,
    ChainLink,
    ChainReport,
    PartitionCertificate,
    certified_chain,
    construct_partition,
    minimal_constant,
    quadratic_ratio_sweep,
    verify_certificate,
    weak_chain_report,
)
from .fem import (
    EigensolverError,
    SparseSymmetricMatrix,
    assemble,
    dense_smallest,
    neumann_spectrum,
    solve_smallest,
)
from .geometry import (
    BoxSandwich,
    ConvexPolygon,
    Ellipse,
    GeometryError,
    PackingCheck,
    Point2,
    Rectangle,
    VoronoiPartition,
    ball_packing_count,
    diameter,
    inner_offset,
    maximal_separated_net,
    mvee,
    rectangle_from_polygon,
    rectangle_sandwich,
    regular_polygon,
    voronoi_partition,
)
from .mesh import MeshError, TriangleMesh, check_conforming, mesh_polygon, refine, triangulate
from .special import bessel_derivative_zero, bessel_j, bessel_j_derivative, bessel_zero
from .spectra import Spectrum, SpectrumError
