import random
import re
from dataclasses import replace

import pytest

from coarsekit.balleans import FormatError, Tower, gen_product, level_dist, spectrum
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


def agree_from(cm, x, y):
    k = cm.tower.k
    return next(b for b in range(k + 1) if cm.codes[x][b:k] == cm.codes[y][b:k])


def assert_named_pairs_fail(cm, rep):
    """Every pair a failure names really breaks its law."""
    for msg in rep.failures:
        got = re.match(r"forward coarseness fails on pair \((\d+), (\d+)\)$", msg)
        if got:
            x, y = map(int, got.groups())
            assert x < y and agree_from(cm, x, y) > level_dist(cm.tower, x, y), msg
        got = re.match(
            r"exact agreement fails on \((\d+), (\d+)\): distance (\d+), codes agree from (\d+)$", msg
        )
        if got:
            x, y, dist, frm = map(int, got.groups())
            assert x < y and dist == level_dist(cm.tower, x, y), msg
            assert frm == agree_from(cm, x, y) != dist, msg


def with_codes(cm, changes):
    codes = list(cm.codes)
    for y, code in changes.items():
        codes[y] = code
    return replace(cm, codes=tuple(codes))


def test_verify_flags_swapped_codes():
    cm = coordinatize(gen_product([2, 2, 2]))
    assert verify_coordinatization(cm).ok
    # 0 and 2 differ first at level 2: the swap tears both level-1 classes
    bad = with_codes(cm, {0: cm.codes[2], 2: cm.codes[0]})
    rep = verify_coordinatization(bad)
    assert not rep.truncation_ok and not rep.forward_ok and rep.exact_ok is False
    assert rep.injective and rep.image_upper_ok and not rep.ok
    assert_named_pairs_fail(bad, rep)


def test_verify_flags_raised_high_coordinate():
    cm = coordinatize(gen_product([2, 2, 2]))
    # point 1 takes point 5's code: a collision across the top level
    bad = with_codes(cm, {1: cm.codes[1][:2] + (1,)})
    assert bad.codes[1] == cm.codes[5]
    rep = verify_coordinatization(bad)
    assert not rep.forward_ok and rep.exact_ok is False and rep.injective is False
    assert rep.inverse_shift == 3 and not rep.ok
    assert_named_pairs_fail(bad, rep)


def test_verify_flags_merged_classes_only_under_exact_agreement():
    # codes that forget coordinate 1 keep forward coarseness but merge
    # level-2 classes that the tower keeps apart
    cm = coordinatize(gen_product([2, 2, 2]))
    bad = with_codes(cm, {y: (code[0], 0, code[2]) for y, code in enumerate(cm.codes)})
    rep = verify_coordinatization(bad)
    assert rep.forward_ok and rep.exact_ok is False and rep.injective is False
    assert rep.inverse_shift == 2
    assert_named_pairs_fail(bad, rep)


def pairwise_laws(cm):
    """The reference: forward coarseness, exact agreement and the inverse
    shift, checked pair by pair on the dense distance matrix."""
    d = cm.tower.dist_matrix()
    pairs = [(x, y) for x in range(cm.tower.n) for y in range(x + 1, cm.tower.n)]
    forward = all(agree_from(cm, x, y) <= d[x, y] for x, y in pairs)
    exact = all(agree_from(cm, x, y) == d[x, y] for x, y in pairs)
    shift = max((int(d[x, y]) for x, y in pairs if cm.codes[x] == cm.codes[y]), default=0)
    return forward, exact, shift


def test_verify_matches_pairwise_laws_on_random_corruptions():
    rng = random.Random(27)
    flipped = 0
    for _ in range(300):
        t = random_tower(rng, max_n=12)
        if t.k == 0:
            continue
        cm = coordinatize(t, base=rng.choice((0, rng.randrange(t.n))))
        if rng.random() < 0.8:
            y = rng.randrange(t.n)
            a = rng.randrange(t.k)
            code = list(cm.codes[y])
            code[a] += rng.choice((1, -1)) if code[a] else 1
            cm = with_codes(cm, {y: tuple(code)})
        rep = verify_coordinatization(cm)
        forward, exact, shift = pairwise_laws(cm)
        assert (rep.forward_ok, rep.inverse_shift) == (forward, shift), (t.labels, cm.codes)
        if rep.min_base:
            assert rep.exact_ok == exact, (t.labels, cm.codes)
        flipped += not forward or (rep.min_base and not exact)
        assert_named_pairs_fail(cm, rep)
    assert flipped > 100


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


def test_coordinatize_deeper_than_the_interpreter_stack():
    from families import deep_tower

    t = deep_tower(1200)
    assert t.k == 1199
    cm = coordinatize(t)
    assert cm.codes[0] == (0,) * t.k
    assert verify_coordinatization(cm).ok


def reference_numbering(tower, order):
    """The tables as first written: a rank table, the classes as lists, each
    class's least point by min(key=) and its block number by a sort."""
    rank = [0] * tower.n
    for i, p in enumerate(order):
        rank[p] = i
    c, nums = [], []
    for alpha, row in enumerate(tower.labels):
        mins = [min(members, key=rank.__getitem__) for members in tower.classes(alpha)]
        c.append(tuple(mins[v] for v in row))
        if alpha == tower.k:
            break
        up = tower.labels[alpha + 1]
        count = {}
        number = [0] * len(mins)
        for cid in sorted(range(len(mins)), key=lambda cid: rank[mins[cid]]):
            number[cid] = count.setdefault(up[mins[cid]], 0)
            count[up[mins[cid]]] += 1
        nums.append(tuple(number[v] for v in row))
    return tuple(c), tuple(nums)


def reference_code(tower, c, nums, x, y):
    """The recursion as the literal loop, each distance by Tower.dist."""
    vec = [0] * tower.k
    while (dist := tower.dist(x, y)) > 0:
        a = dist - 1
        vec[a] += nums[a][y]
        x = c[a][y]
    return tuple(vec)


def test_numbering_and_codes_match_the_reference_loop():
    from families import random_tower as family_tower

    rng = random.Random(47)
    numberings = coordmaps = 0
    for _ in range(200):
        t = family_tower(rng, 16, 10)
        shuffled = list(range(t.n))
        rng.shuffle(shuffled)
        for order in (tuple(range(t.n)), tuple(shuffled)):
            c, nums = reference_numbering(t, order)
            assert numbering(t, order) == (c, nums), (t.labels, order)
            numberings += 1
            for base in range(t.n):
                want = tuple(reference_code(t, c, nums, base, y) for y in range(t.n))
                assert coordinatize(t, base=base, order=order).codes == want, (t.labels, order, base)
                coordmaps += 1
    assert numberings == 400 and coordmaps > 3000
