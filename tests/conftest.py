import pathlib

import pytest

from parmreach import reset_session

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(autouse=True)
def fresh_session():
    """Isolate every test: no interned variables, empty polynomial pool
    and caches."""
    reset_session()
    yield
    reset_session()


@pytest.fixture
def fig2_text() -> str:
    return (DATA / "fig2.pdtmc").read_text()
