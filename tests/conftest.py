import pytest

from decomap import assets


@pytest.fixture(scope="session")
def hexagon6():
    return assets.hexagon_circle(1)


@pytest.fixture(scope="session")
def hexagon12():
    return assets.hexagon_circle(2)


@pytest.fixture(scope="session")
def hexagon96():
    return assets.hexagon_circle(16)


@pytest.fixture(scope="session")
def torus():
    return assets.standing_torus(36, 18)
