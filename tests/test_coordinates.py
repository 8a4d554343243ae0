import random

import pytest

from coarsekit.balleans import FormatError, Tower, gen_product, spectrum
from coarsekit.coordinates import (
    CoordMap,
    coordinatize,
    format_coordmap,
    numbering,
    parse_coordmap,
    verify_coordinatization,
)


def three_point_tower():
    return Tower.from_partitions(3, [[[0], [1, 2]]])


def random_tower(rng, max_n=14, max_levels=5):
    n = rng.randint(1, max_n)
    labels = [list(range(n))]
    k = rng.randint(1, max_levels) if n > 1 else 1
    while len(labels) < k:
        prev = labels[-1]
        ids = sorted(set(prev))
        if len(ids) == 1:
            break
        groups = rng.randint(1, len(ids) - 1) if len(ids) > 1 else 1
        merge = {c: rng.randrange(groups) for c in ids}
        labels.append([merge[c] for c in prev])
    labels.append([0] * n)
    return Tower(labels)


# --- numbering ------------------------------------------------------------------

def test_numbering_on_product_reads_off_coordinates():
    t = gen_product([2, 2])
    _, nums = numbering(t)
    for p in range(4):
        assert nums[0][p] == p % 2
        assert nums[1][p] == p // 2


def test_numbering_three_point():
    _, nums = numbering(three_point_tower())
    assert nums[0][2] == 1
    assert nums[0][1] == 0
    assert nums[1][1] == 1


def test_numbering_minimum_gets_zero_everywhere():
    rng = random.Random(21)
    for _ in range(20):
        t = random_tower(rng)
        _, nums = numbering(t)
        for a in range(t.k):
            assert nums[a][0] == 0


def test_numbering_respects_custom_order():
    t = gen_product([2, 2])
    order = (3, 2, 1, 0)
    _, nums = numbering(t, order)
    for a in range(2):
        assert nums[a][3] == 0


# --- the recursion ---------------------------------------------------------------

def test_codes_four_point_tower():
    t = Tower.from_partitions(4, [[[0, 1], [2, 3]]])
    cm = coordinatize(t, base=0)
    assert cm.codes == ((0, 0), (1, 0), (0, 1), (1, 1))


def test_codes_three_point_base_zero():
    cm = coordinatize(three_point_tower(), base=0)
    assert cm.codes == ((0, 0), (0, 1), (1, 1))


def test_codes_three_point_base_one_collides():
    cm = coordinatize(three_point_tower(), base=1)
    assert cm.codes[1] == (0, 0)
    assert cm.codes[0] == (0, 0)
    assert cm.codes[2] == (1, 0)
    rep = verify_coordinatization(cm)
    assert rep.forward_ok
    assert not rep.min_base
    assert rep.inverse_shift == 2


def test_verify_four_point():
    t = Tower.from_partitions(4, [[[0, 1], [2, 3]]])
    rep = verify_coordinatization(coordinatize(t))
    assert rep.ok and rep.injective and rep.inverse_shift == 0
    # image is the whole 2 x 2 box
    assert set(coordinatize(t).codes) == {(a, b) for a in range(2) for b in range(2)}


def test_verify_three_point_min_base():
    cm = coordinatize(three_point_tower())
    rep = verify_coordinatization(cm)
    assert rep.ok
    assert set(cm.codes) == {(0, 0), (0, 1), (1, 1)}
    assert cm.kappa_lo == (1, 2)
    # the min-spectrum box {0} x {0,1} sits inside the image
    assert {(0, 0), (0, 1)} <= set(cm.codes)


def test_truncation_law_every_basepoint_random():
    rng = random.Random(22)
    for _ in range(40):
        t = random_tower(rng, max_n=10)
        for base in range(t.n):
            rep = verify_coordinatization(coordinatize(t, base=base))
            assert rep.truncation_ok and rep.forward_ok and rep.image_upper_ok


def test_min_base_laws_random():
    rng = random.Random(23)
    for _ in range(40):
        t = random_tower(rng, max_n=12)
        rep = verify_coordinatization(coordinatize(t))
        assert rep.ok, rep.failures


def test_order_equivariance():
    rng = random.Random(24)
    for _ in range(20):
        t = random_tower(rng, max_n=8)
        perm = list(range(t.n))
        rng.shuffle(perm)
        cm1 = coordinatize(t)
        cm2 = coordinatize(t, base=perm[0], order=perm)
        # per level and per ambient class, the renumbering is a bijection
        for a in range(t.k):
            trans = {}
            for y in range(t.n):
                key = (t.labels[a + 1][y], cm1.nums[a][y])
                val = cm2.nums[a][y]
                assert trans.setdefault(key, val) == val
            for parent in set(t.labels[a + 1]):
                vals = [v for (p, _), v in trans.items() if p == parent]
                assert len(vals) == len(set(vals))
        rep = verify_coordinatization(cm2)
        assert rep.ok, rep.failures


def test_non_minimal_base_measured_shift():
    # fibers can spread across the whole depth on tiny towers
    cm = coordinatize(three_point_tower(), base=1)
    assert verify_coordinatization(cm).inverse_shift == cm.tower.k


def test_coordinatize_validates_inputs():
    t = three_point_tower()
    with pytest.raises(IndexError):
        coordinatize(t, base=3)
    with pytest.raises(ValueError):
        coordinatize(t, order=[0, 0, 1])
    with pytest.raises(TypeError):
        coordinatize("nope")


# --- text format -------------------------------------------------------------------

def test_coordmap_round_trip():
    t = Tower.from_partitions(4, [[[0, 1], [2, 3]]])
    cm = coordinatize(t)
    text = format_coordmap(cm)
    base, codes = parse_coordmap(text)
    assert base == cm.base and codes == cm.codes
    assert format_coordmap(cm) == text


def test_coordmap_format_shape():
    cm = coordinatize(three_point_tower())
    lines = format_coordmap(cm).splitlines()
    assert lines[0] == "coordmap v1"
    assert lines[1] == "base 0"
    assert lines[2] == "code 0: 0 0"


@pytest.mark.parametrize(
    "text, line",
    [
        ("coordmap v1\nbase \u00b2\n", 2),
        ("coordmap v1\nbase 0\ncode \u00b9: 0\n", 3),
        ("coordmap v1\nbase 0\ncode 0: \u00b2 0\n", 3),
    ],
)
def test_coordmap_rejects_non_ascii_digits(text, line):
    with pytest.raises(FormatError) as e:
        parse_coordmap(text)
    assert e.value.line == line
