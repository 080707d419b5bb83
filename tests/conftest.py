import pytest

from entclone.covariant import T_OPERATORS


@pytest.fixture(scope="session")
def t_ops():
    """The package's one operator set, for tests about t: calls with it and calls that leave t out share every cache."""
    return T_OPERATORS
