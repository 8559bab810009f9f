import pytest

from kummercert.kummer import build_model
from kummercert.proofscript import build_script, load_shipped_script


@pytest.fixture(scope="session")
def model():
    return build_model()


@pytest.fixture(scope="session")
def shipped():
    return load_shipped_script()


@pytest.fixture(scope="session")
def script(model):
    return build_script(model)
