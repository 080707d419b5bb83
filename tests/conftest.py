import pytest

from entclone.covariant import T_OPERATORS


@pytest.fixture(scope="session")
def t_ops():
    """The package's one operator set, the only t its functions accept; calls with it equal calls that leave t out."""
    return T_OPERATORS
