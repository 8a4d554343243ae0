import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def searched_pairs(monkeypatch):
    """The require_pair of every search_equivalence call that classify
    makes, in order; clear the list to start a new count."""
    from coarsekit import classify

    calls = []
    search = classify.search_equivalence

    def recorded(*args, **kwargs):
        calls.append(kwargs.get("require_pair"))
        return search(*args, **kwargs)

    monkeypatch.setattr(classify, "search_equivalence", recorded)
    return calls
