import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def searched_pairs(monkeypatch):
    """The require_pair of every backtracking search, as the homogeneity
    oracle runs one per orbit of pairs, in order; clear the list to start a
    new count."""
    from coarsekit import multimaps

    calls = []
    search = multimaps._backtrack

    def recorded(X, Y, ctx, require_pair, cap):
        calls.append(require_pair)
        return search(X, Y, ctx, require_pair, cap)

    monkeypatch.setattr(multimaps, "_backtrack", recorded)
    return calls
