import pytest

from contest_forge import compstat


@pytest.fixture(autouse=True)
def _forget_breakpoint_chains():
    """No test sees the breakpoint chains another test solved."""
    yield
    compstat._breakpoint_chain.cache_clear()
