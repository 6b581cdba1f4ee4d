import pathlib
import signal

import pytest

from parmreach import reset_session

DATA = pathlib.Path(__file__).parent / "data"

# Far above the slowest test (under 1 s), so only a hang reaches it.
TIME_LIMIT_S = 120


@pytest.fixture(autouse=True)
def fresh_session():
    """Isolate every test: no interned variables, empty polynomial pool
    and caches."""
    reset_session()
    yield
    reset_session()


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs past :data:`TIME_LIMIT_S` with a traceback
    of where it was, instead of letting the suite hang in silence."""
    if not hasattr(signal, "SIGALRM"):  # no alarms on Windows
        yield
        return

    def expired(signum, frame):
        raise TimeoutError(f"test ran past its {TIME_LIMIT_S} s limit")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def fig2_text() -> str:
    return (DATA / "fig2.pdtmc").read_text()
