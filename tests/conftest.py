import pytest

from kummercert.kummer import build_context
from kummercert.proofscript import build_script, load_shipped_script


@pytest.fixture(scope="session")
def ctx():
    return build_context()


@pytest.fixture(scope="session")
def shipped():
    return load_shipped_script()


@pytest.fixture(scope="session")
def script(ctx):
    return build_script(ctx)
