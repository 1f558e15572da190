import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import pytest

from angulated import linalg, validate_params


@pytest.fixture(scope="session")
def p449():
    return validate_params(4, 4, 9)


@pytest.fixture(scope="session")
def p223():
    return validate_params(2, 2, 3)


@pytest.fixture(scope="session")
def p234():
    return validate_params(2, 3, 4)


@pytest.fixture(scope="session", params=[(2, 2, 3), (2, 3, 4), (4, 4, 9)])
def any_params(request):
    return validate_params(*request.param)


@pytest.fixture
def solves(monkeypatch):
    """The number of unknowns of each `linalg.solve` call, in call order."""
    calls = []
    solve = linalg.solve

    def counted(rows, rhs, nunknowns):
        calls.append(nunknowns)
        return solve(rows, rhs, nunknowns)

    monkeypatch.setattr(linalg, "solve", counted)
    return calls
