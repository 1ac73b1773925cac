"""Numerical toolkit for centrally harmonic Riemannian metrics.

Construct analytic metrics in coordinate charts, compute curvature to high
covariant order, integrate geodesic volume densities, evaluate and
cross-check the density-expansion coefficients, and build radial conformal
deformations with their diagnostics.  See hml.conventions for the sign
conventions everything is transcribed to.  The package exports its
submodules only; ``hml.cli`` and ``hml.manifest`` are imported by name.
"""

from . import (catalog, conformal, conventions, curvature, expansion,
               geodesics, jets, metric, series)

__version__ = "0.1.0"
