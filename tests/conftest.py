"""Child interpreters started by the tests import the same loopalg as the tests."""

import os

import pytest

import loopalg

PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(loopalg.__file__)))


@pytest.fixture(autouse=True, scope="session")
def children_import_this_loopalg():
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = PACKAGE_ROOT + (os.pathsep + old if old else "")
    yield
    if old is None:
        del os.environ["PYTHONPATH"]
    else:
        os.environ["PYTHONPATH"] = old
