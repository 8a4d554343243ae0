"""Tower paths work on label rows alone: no n x n array is ever built.

Tower.level and Tower.dist_matrix are the only ways to get a dense array
from a tower, so with both raising, every tower algorithm below must still
give its answer.
"""

import random

import pytest

from coarsekit.balleans import (
    EntourageChain,
    Tower,
    format_ballean,
    gen_product,
    is_large,
    parse_ballean,
    spectrum,
    validate,
)
from coarsekit.classify import (
    build_equivalence,
    format_certificate,
    is_homogeneous,
    verify_certificate,
)
from coarsekit.coordinates import coordinatize, verify_coordinatization
from coarsekit.multimaps import search_equivalence

from families import random_tower


@pytest.fixture
def no_dense(monkeypatch):
    def refuse(self, *args):
        raise AssertionError("a tower path built a dense n x n array")

    monkeypatch.setattr(Tower, "dist_matrix", refuse)
    monkeypatch.setattr(Tower, "level", refuse)


def test_tower_paths_build_no_dense_array(no_dense):
    uneven = "ballean v1\npoints 6\nlevels 3\nlevel 1 cells: 0 | 1 2 | 3 4 5\nlevel 2 cells: 0 1 2 | 3 4 5\n"
    cube = parse_ballean(format_ballean(gen_product([2] * 6)))
    squares = parse_ballean(format_ballean(gen_product([4, 4, 4])))
    t = parse_ballean(uneven)
    assert isinstance(cube, Tower) and isinstance(t, Tower)
    assert validate(cube).valid and spectrum(t).lo == (1, 1, 2)

    cert = build_equivalence(cube, squares)
    assert cert is not None
    assert verify_certificate(format_certificate(cert)).ok
    cert = build_equivalence(t, gen_product([6]))
    assert verify_certificate(format_certificate(cert)).ok

    for tower in (cube, t):
        for base in range(tower.n):
            rep = verify_coordinatization(coordinatize(tower, base=base))
            assert rep.truncation_ok and rep.forward_ok and rep.image_upper_ok
            assert rep.ok or base != 0

    assert is_homogeneous(gen_product([2, 3]), max_shift=0).oracle
    assert is_homogeneous(t, max_shift=1).spectral
    assert is_large(cube, [0, 63]) == 5 and is_large(t, [0, 1, 3]) == 1
    assert search_equivalence(gen_product([2, 2]), gen_product([4]), 1) is not None


def test_is_large_on_towers_matches_the_dense_chain():
    rng = random.Random(66)
    for _ in range(300):
        t = random_tower(rng, max_n=16, max_levels=5)
        L = rng.sample(range(t.n), rng.randint(1, t.n))
        assert is_large(t, L) == is_large(EntourageChain(t.levels()), L), (t.labels, L)


def test_parse_and_spectrum_take_one_nesting_pass_per_level(monkeypatch):
    """Parsing a k-level cells: file checks each of its k level pairs once,
    in the tower's constructor, and spectrum() only reads what that pass
    counted."""
    from coarsekit import balleans

    texts = [
        format_ballean(gen_product([2] * 5)),
        "ballean v1\npoints 6\nlevels 3\nlevel 1 cells: 0 | 1 2 | 3 4 5\nlevel 2 cells: 0 1 2 | 3 4 5\n",
    ]
    calls = []
    split_point = balleans._split_point

    def counted(*args):
        calls.append(args)
        return split_point(*args)

    monkeypatch.setattr(balleans, "_split_point", counted)
    for text in texts:
        calls.clear()
        t = parse_ballean(text)
        spectrum(t)
        assert len(calls) == t.k
