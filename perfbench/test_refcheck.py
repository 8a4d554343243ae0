"""Tests of the reference checker on small hand-worked towers.

    python3 -m pytest -q perfbench/test_refcheck.py
"""

import os
import random
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402
import refcheck  # noqa: E402

# 4 points: {0,1} and {2,3} at level 1
PAIRS = [[0, 1, 2, 3], [0, 0, 1, 1], [0, 0, 0, 0]]
# the same shape with the level-1 classes {0,2} and {1,3}
CROSSED = [[0, 1, 2, 3], [0, 1, 0, 1], [0, 0, 0, 0]]
# one level: all 4 points in one class
FLAT = [[0, 1, 2, 3], [0, 0, 0, 0]]
# level 1 classes {0,1}, {2}, {3}
LOPSIDED = [[0, 1, 2, 3], [0, 0, 1, 2], [0, 0, 0, 0]]
# 8 points: level 1 {0,1} {2,3} {4,5,6,7}, level 2 {0..3} {4..7}
UNEVEN = [
    [0, 1, 2, 3, 4, 5, 6, 7],
    [0, 0, 1, 1, 2, 2, 2, 2],
    [0, 0, 0, 0, 1, 1, 1, 1],
    [0] * 8,
]
IDENTITY4 = [(x, x) for x in range(4)]


def test_level_dist_and_diameter():
    assert refcheck.level_dist(PAIRS, 2, 2) == 0
    assert refcheck.level_dist(PAIRS, 0, 1) == 1
    assert refcheck.level_dist(PAIRS, 1, 3) == 2
    assert refcheck.diameter(PAIRS, [2, 3]) == 1
    assert refcheck.diameter(PAIRS, [0, 1, 2]) == 2
    assert refcheck.diameter(PAIRS, [3]) == 0


def test_level_dist_rejects_a_top_that_splits_points():
    with pytest.raises(ValueError):
        refcheck.level_dist([[0, 1], [0, 1]], 0, 1)
    with pytest.raises(ValueError):
        refcheck.diameter(PAIRS, [])


def test_identity_has_zero_shifts():
    assert refcheck.relation_report(PAIRS, PAIRS, IDENTITY4) == (True, True, 0, 0)


def test_identity_across_crossed_classes_needs_shift_one():
    # {0,1} lands on points that meet only at the top of CROSSED, and back
    assert refcheck.relation_report(PAIRS, CROSSED, IDENTITY4) == (True, True, 1, 1)


def test_top_level_is_exempt_but_bottom_is_not():
    # PAIRS -> FLAT: level 1 of PAIRS may land on FLAT's top; FLAT's only
    # constrained level is its bottom
    assert refcheck.relation_report(PAIRS, FLAT, IDENTITY4) == (True, True, 0, 0)
    # a point with two images spreads its own level 0
    spread = IDENTITY4 + [(0, 3)]
    assert refcheck.relation_report(PAIRS, PAIRS, spread) == (True, True, 2, 2)


def test_relation_report_rejects_partial_relations():
    collapse = [(0, 0), (1, 0), (2, 1), (3, 1)]
    assert refcheck.relation_report(PAIRS, PAIRS, collapse) == (True, False, None, None)
    assert refcheck.relation_report(PAIRS, PAIRS, IDENTITY4[:3]) == (False, False, None, None)
    with pytest.raises(ValueError):
        refcheck.relation_report(PAIRS, PAIRS, [(0, 4)])


def test_is_bijection():
    assert refcheck.is_bijection(IDENTITY4, 4, 4)
    assert not refcheck.is_bijection([(0, 0), (1, 0), (2, 2), (3, 3)], 4, 4)
    assert not refcheck.is_bijection(IDENTITY4 + [(0, 1)], 4, 4)
    assert not refcheck.is_bijection(IDENTITY4, 4, 5)


def test_canonical_forms_decide_shift_zero():
    assert refcheck.shift0_equivalent(PAIRS, CROSSED)
    assert not refcheck.shift0_equivalent(PAIRS, LOPSIDED)
    assert not refcheck.shift0_equivalent(PAIRS, UNEVEN)
    # cut at the shallower top: FLAT constrains only the bottom level
    assert refcheck.shift0_equivalent(PAIRS, FLAT)
    assert refcheck.shift0_equivalent(LOPSIDED, FLAT)
    # a repeated level above the cut changes nothing
    assert refcheck.shift0_equivalent(PAIRS, [PAIRS[0], PAIRS[1], PAIRS[1], PAIRS[2]])
    assert refcheck.canonical_form(PAIRS, 2) == "((()())(()()))"


def test_spectrum_of_an_uneven_tower():
    assert refcheck.spectrum_bounds(UNEVEN) == ((2, 1, 2), (4, 2, 2))
    assert not refcheck.is_uniform(UNEVEN)
    assert refcheck.is_uniform(PAIRS)


def test_uniform_regroupings_by_width():
    assert refcheck.uniform_regroupings(UNEVEN, 1) == []
    assert refcheck.uniform_regroupings(UNEVEN, 2) == [(0, 2, 3)]
    assert refcheck.uniform_regroupings(UNEVEN, 3) == [(0, 3), (0, 2, 3)]
    assert not refcheck.spectrally_homogeneous(UNEVEN, 0)
    assert refcheck.spectrally_homogeneous(UNEVEN, 1)
    assert refcheck.uniform_regroupings([[0]], 1) == [(0,)]


def test_uneven_level_is_undone_by_merging():
    rng = random.Random(3)
    rows = inputs.insert_uneven_level(inputs.product_rows([4, 4]), 0, 2, rng)
    assert refcheck.depth(rows) == 3
    assert not refcheck.is_uniform(rows)
    assert refcheck.uniform_regroupings(rows, 2) == [(0, 2, 3)]
    with pytest.raises(ValueError):
        inputs.insert_uneven_level(inputs.product_rows([4, 4]), 1, 2, rng)


def test_relabelling_keeps_the_shape():
    rng = random.Random(5)
    rows = inputs.product_rows([2, 3, 2])
    moved = inputs.relabel(rows, rng)
    assert refcheck.shift0_equivalent(rows, moved)
    assert inputs.rows_key(rows) != inputs.rows_key(moved)


def test_ordinal_text_is_canonical():
    w = inputs.ONE
    w2 = ((inputs.natural(2), 1),)
    assert inputs.ordinal_text(((w, 2), (inputs.ZERO, 7))) == "w*2 + 7"
    assert inputs.ordinal_text(((inputs.natural(2), 1),)) == "w^2"
    assert inputs.ordinal_text(((w2, 4),)) == "w^(w^2)*4"
    assert inputs.ordinal_text(inputs.ZERO) == "0"
