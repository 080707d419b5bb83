import pytest

from entclone.covariant import build_t_operators


@pytest.fixture(scope="session")
def t_ops():
    """Commutant operators shared by every test module."""
    return build_t_operators()
