"""Numerical toolkit for centrally harmonic Riemannian metrics.

Construct analytic metrics in coordinate charts, compute curvature to high
covariant order, integrate geodesic volume densities, evaluate and
cross-check the density-expansion coefficients, and build radial conformal
deformations with their diagnostics.  See hml.conventions for the sign
conventions everything is transcribed to.
"""

from . import catalog, conformal, conventions, expansion, geodesics, jets
from .catalog import CatalogEntry, build
from .conformal import (AnalyticRadialFunction, PolynomialRadialFunction,
                        RadialFunction, Reparametrization, TrivializerRadialFunction,
                        completeness_and_blowup, deform_metric,
                        deformed_density, reparametrize, trivial_density_factor)
from .curvature import (CurvatureBundle, curvature, curvature_arrays,
                        einstein_defect, sectional_curvature)
from .expansion import (DensityExpansion, JacobiOperator, density_coefficients,
                        jacobi, leading_coefficient, verify_leading_coefficient)
from .geodesics import (DensityProfile, HarmonicityReport, PolarDensitySample,
                        SphereShapeSample,
                        centrally_harmonic_test, density_profile, eigen_spread,
                        g_unit_directions, radial_harmonic,
                        second_fundamental_form, shoot, unit_directions)
from .metric import (ChartMetric, DegenerateMetricError, DomainError,
                     OrderExceededError)
from .series import (RadialFit, TruncatedSeries, TruncationError,
                     fit_radial_expansion, rational_series)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
