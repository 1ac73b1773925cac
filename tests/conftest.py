import numpy as np
import pytest

from hml import catalog
from hml.conformal import deform_metric
from hml.manifest import _sphere_height_psi


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def euclid3():
    return catalog.euclidean(3)


@pytest.fixture(scope="session")
def euclid4():
    return catalog.euclidean(4)


@pytest.fixture(scope="session")
def sphere3():
    return catalog.sphere(3)


@pytest.fixture(scope="session")
def sphere4():
    return catalog.sphere(4)


@pytest.fixture(scope="session")
def round_sf3():
    return catalog.space_form(0.5, 0.5, 3)


@pytest.fixture(scope="session")
def hyperbolic3():
    return catalog.space_form(0.5, -0.5, 3)


@pytest.fixture(scope="session")
def fs2():
    return catalog.fubini_study(2)


@pytest.fixture(scope="session")
def deformed_sphere4():
    """sphere(4) under the poly factor [1.0, 0.25] in the squared pole height."""
    return deform_metric(catalog.sphere(4).metric, _sphere_height_psi([1.0, 0.25]))
