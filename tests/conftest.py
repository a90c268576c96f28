import pytest

from maxmin_auction import solve_a


@pytest.fixture(scope="session")
def c05():
    return solve_a(0.5)


@pytest.fixture(scope="session")
def c03():
    return solve_a(0.3)


@pytest.fixture(scope="session")
def c075():
    return solve_a(0.75)
