import os

import numpy as np
import pytest

from verfair import RelevanceMatrix


@pytest.fixture(autouse=True)
def no_child_left():
    """Fails a test that leaves a forked child unreaped: the loader, `run`
    and `sweep` each reap their children before they return or raise."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def three_equal():
    """3x3 matrix where every item has average relevance 0.70."""
    return RelevanceMatrix(
        ("c1", "c2", "c3"), ("A", "B", "C"),
        np.array([[0.90, 0.70, 0.60],
                  [0.55, 0.70, 0.90],
                  [0.65, 0.70, 0.60]]))


@pytest.fixture
def three_equal_08():
    """3x3 matrix where every item has average relevance 0.80."""
    return RelevanceMatrix(
        ("c1", "c2", "c3"), ("A", "B", "C"),
        np.array([[0.90, 0.80, 0.70],
                  [0.90, 0.60, 0.80],
                  [0.60, 1.00, 0.90]]))
