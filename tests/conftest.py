import pytest

from latinmagic import oracle_search


@pytest.fixture(scope="session")
def oracle3():
    return oracle_search(3)


@pytest.fixture(scope="session")
def oracle4():
    return oracle_search(4)
