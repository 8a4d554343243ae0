import io
import itertools
import random

import numpy as np
import pytest

from coarsekit import cli
from coarsekit.balleans import (
    EntourageChain,
    FormatError,
    Tower,
    ball,
    cellular_hull,
    cov,
    format_ballean,
    gen_interval,
    gen_product,
    is_cellular,
    is_large,
    level_dist,
    normalize,
    parse_ballean,
    product_point_index,
    product_point_tuple,
    spectrum,
    subspace,
    validate,
)
from coarsekit.classify import parse_certificate, regroup
from families import exhaustive_towers


def three_point_tower():
    return Tower.from_partitions(3, [[[0], [1, 2]]])


def random_tower(rng, max_n=12, max_levels=4):
    n = rng.randint(1, max_n)
    k = rng.randint(1, max_levels) if n > 1 else 1
    labels = [list(range(n))]
    while len(labels) < k:
        prev = labels[-1]
        ids = sorted(set(prev))
        if len(ids) == 1:
            break
        groups = max(1, rng.randint(1, len(ids) - 1))
        merge = {c: rng.randrange(groups) for c in ids}
        labels.append([merge[c] for c in prev])
    labels.append([0] * n)
    return Tower(labels)


# --- construction and validation ---------------------------------------------

def test_two_point_trivial_chain_valid():
    chain = EntourageChain([np.eye(2, dtype=bool), np.ones((2, 2), dtype=bool)])
    rep = validate(chain)
    assert rep.valid
    assert rep.absorption == (0, 1)


def test_symmetry_violation_reported():
    e1 = np.eye(2, dtype=bool)
    e1[0, 1] = True
    chain = EntourageChain([np.eye(2, dtype=bool), e1, np.ones((2, 2), dtype=bool)])
    rep = validate(chain)
    assert not rep.valid
    assert any("level 1" in s and "symmetric" in s for s in rep.issues)


def test_interval_absorption_witness():
    chain = gen_interval(8, [1, 3, 7])
    rep = validate(chain)
    assert rep.valid
    # radius-1 composed with itself is the radius-2 relation, inside radius 3
    assert rep.absorption[1] == 2


def test_validate_flags_bad_top_and_base():
    e0 = np.eye(3, dtype=bool)
    e0[0, 1] = e0[1, 0] = True
    half = np.eye(3, dtype=bool)
    chain = EntourageChain([e0, half | e0])
    rep = validate(chain)
    assert not rep.valid
    assert any("diagonal" in s for s in rep.issues)
    assert any("full relation" in s for s in rep.issues)


def test_validate_tower_matches_dense_chain():
    rng = random.Random(3)
    for _ in range(50):
        t = random_tower(rng)
        assert validate(t) == validate(EntourageChain(t.levels()))
        assert validate(t).absorption == tuple(range(t.num_levels))


def test_self_composition_exact_at_256_witnesses():
    # x = 256 and z = 257 share all 256 neighbours 0..255 but are not
    # related: (x, z) has 256 witnesses in the square, which a uint8
    # product wraps to 0, hiding the only non-transitive pair
    n = 258
    m = np.ones((n, n), dtype=bool)
    m[256, 257] = m[257, 256] = False
    chain = EntourageChain([np.eye(n, dtype=bool), m, np.ones((n, n), dtype=bool)])
    assert not is_cellular(chain)
    assert validate(chain).absorption == (0, 2, 2)


def test_tower_constructor_rejects_non_refinement():
    with pytest.raises(ValueError):
        Tower([[0, 1, 2], [0, 0, 1], [0, 1, 1], [0, 0, 0]])


# --- balls, cov, distances -----------------------------------------------------

def test_ball_examples():
    t = gen_product([2, 2, 2])
    assert ball(t, 5, 0) == {5}
    assert ball(t, 5, 3) == set(range(8))
    c = gen_interval(8, [1, 7])
    assert ball(c, 0, 1) == {0, 1}
    assert ball(c, 3, 1) == {2, 3, 4}
    with pytest.raises(IndexError):
        ball(c, 8, 1)
    with pytest.raises(IndexError):
        ball(t, 0, 4)


def test_cov_on_product_tower():
    t = gen_product([2, 2, 2])
    top = ball(t, 0, 3)
    assert cov(t, top, 0) == 8
    assert cov(t, ball(t, 0, 2), 0) == 4
    assert cov(t, ball(t, 0, 1), 1) == 1
    assert cov(t, top, 0).exact


def test_cov_exact_on_general_chain():
    c = gen_interval(10, [2, 9])
    # radius-2 balls cover 0..9 with ceil(10/5) = 2 balls
    r = cov(c, range(10), 1)
    assert r == 2 and r.exact


def test_cov_greedy_flag_past_limit():
    c = gen_interval(30, [1, 29])
    r = cov(c, range(30), 1)
    assert not r.exact
    assert r >= 10


def test_cov_rejects_empty():
    with pytest.raises(ValueError):
        cov(gen_product([2]), [], 0)


def test_level_dist():
    t = gen_product([2, 2, 2])
    a = product_point_index([2, 2, 2], (0, 0, 0))
    b = product_point_index([2, 2, 2], (1, 0, 0))
    c = product_point_index([2, 2, 2], (0, 1, 0))
    assert level_dist(t, a, a) == 0
    assert level_dist(t, a, b) == 1
    assert level_dist(t, a, c) == 2
    assert product_point_tuple([2, 2, 2], c) == (0, 1, 0)


def test_level_dist_is_ultrametric():
    rng = random.Random(0)
    for _ in range(30):
        t = random_tower(rng)
        d = t.dist_matrix()
        for x in range(t.n):
            for y in range(t.n):
                for z in range(t.n):
                    assert d[x, z] <= max(d[x, y], d[y, z])


# --- spectrum ------------------------------------------------------------------

def test_spectrum_of_products():
    s = spectrum(gen_product([2, 3]))
    assert s.lo == (2, 3) and s.hi == (2, 3) and s.uniform
    s4 = spectrum(gen_product([4]))
    assert s4.lo == s4.hi == (4,)


def test_spectrum_non_uniform():
    s = spectrum(three_point_tower())
    assert s.lo == (1, 2)
    assert s.hi == (2, 2)
    assert not s.uniform


def test_spectrum_matches_sizes_randomly():
    rng = random.Random(1)
    for _ in range(25):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(0, 4))]
        s = spectrum(gen_product(sizes))
        assert s.lo == tuple(sizes) and s.hi == tuple(sizes)


def reference_spectrum(t):
    """lo/hi as the min/max over points of the level-alpha classes inside
    the point's level-(alpha+1) class, counted from classes()."""
    lo, hi = [], []
    for alpha in range(t.k):
        fine = t.classes(alpha)
        per_point = []
        for cls in t.classes(alpha + 1):
            per_point += [sum(1 for c in fine if c[0] in cls)] * len(cls)
        lo.append(min(per_point))
        hi.append(max(per_point))
    return tuple(lo), tuple(hi)


def test_spectrum_matches_class_count_reference():
    """Every constructor path counts the spectrum and keeps the class tree
    in its nesting pass: direct rows, regroup, subspace, cellular_hull,
    from_partitions and the cells: and pairs: parsers."""
    rng = random.Random(9)
    towers = [*exhaustive_towers(6, 3), *(random_tower(rng, 40, 6) for _ in range(200))]
    assert any(not spectrum(t).uniform for t in towers[-200:])
    for t in towers[-200:-150]:
        inner = sorted(rng.sample(range(1, t.k), rng.randint(0, t.k - 1))) if t.k > 1 else []
        towers.append(regroup(t, [0, *inner, t.k]) if t.k else t)
        towers.append(subspace(t, rng.sample(range(t.n), rng.randint(1, t.n))))
        towers.append(cellular_hull(EntourageChain(t.levels())))
        parts = [[[p for p in range(t.n) if row[p] == c] for c in range(max(row) + 1)]
                 for row in t.labels[1:-1]]
        towers.append(Tower.from_partitions(t.n, parts))
        towers.append(parse_ballean(format_ballean(t)))
        towers.append(parse_ballean(as_pairs(format_ballean(t))))
    assert all(isinstance(t, Tower) for t in towers)
    for t in towers:
        lo, hi = reference_spectrum(t)
        s = spectrum(t)
        assert (s.lo, s.hi, s.uniform) == (lo, hi, lo == hi), t.labels
        assert len(t.parents) == t.k
        for a, parent in enumerate(t.parents):
            assert len(parent) == len(set(t.labels[a]))
            assert all(parent[t.labels[a][x]] == t.labels[a + 1][x] for x in range(t.n)), t.labels


def test_tower_class_sizes_partition():
    rng = random.Random(2)
    for _ in range(30):
        t = random_tower(rng)
        for i in range(t.num_levels):
            assert sum(len(c) for c in t.classes(i)) == t.n


# --- product and interval generators -------------------------------------------

def test_gen_product_empty():
    t = gen_product([])
    assert t.n == 1 and t.k == 0


def test_gen_product_cube_structure():
    t = gen_product([2, 2, 2])
    assert t.n == 8
    for j in range(4):
        assert len(t.classes(j)) == 2 ** (3 - j)
        assert all(len(c) == 2 ** j for c in t.classes(j))


def test_gen_product_mixed():
    t = gen_product([2, 3])
    assert t.n == 6
    assert len(t.classes(1)) == 3
    assert all(len(c) == 2 for c in t.classes(1))


def test_gen_product_keeps_unit_factors():
    t = gen_product([4, 1])
    assert t.k == 2
    assert spectrum(t).lo == (4, 1)


def test_gen_interval_trivial():
    c = gen_interval(4, [3])
    assert c.num_levels == 2
    assert np.array_equal(c.level(1), np.ones((4, 4), dtype=bool))


def test_gen_interval_precondition():
    with pytest.raises(ValueError):
        gen_interval(8, [3, 2, 7])
    with pytest.raises(ValueError):
        gen_interval(8, [1, 3])


# --- cellularity ----------------------------------------------------------------

def test_towers_are_cellular():
    assert is_cellular(gen_product([2, 3]))


def test_interval_not_cellular():
    assert not is_cellular(gen_interval(8, [1, 7]))


def test_cellular_hull_collapses_interval():
    hull = cellular_hull(gen_interval(8, [1, 7]))
    assert isinstance(hull, Tower)
    assert hull.num_levels == 2
    assert hull.labels[1] == (0,) * 8


def test_cellular_hull_idempotent_and_dominating():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(2, 10)
        radii = sorted(rng.sample(range(1, n), min(2, n - 1)))
        if radii[-1] < n - 1:
            radii.append(n - 1)
        c = gen_interval(n, radii)
        h = cellular_hull(c)
        assert cellular_hull(h) == h
        # domination: every original level lies inside some hull level, and
        # the closure of level i is reachable at an index <= i
        for i in range(c.num_levels):
            m = c.level(i)
            j = min(i, h.k)
            assert not (m & ~h.level(j)).any()


def test_subspace_identity():
    c = gen_interval(6, [2, 5])
    assert subspace(c, range(6)) == normalize(c)
    t = gen_product([2, 2])
    assert subspace(t, range(4)) == t


def test_subspace_restricts():
    t = gen_product([2, 2])
    s = subspace(t, [0, 1, 2])
    assert isinstance(s, Tower)
    assert s.n == 3
    assert s.labels[1] == (0, 0, 1)


def test_is_large():
    c = gen_interval(10, [3, 9])
    assert is_large(c, range(10)) == 0
    assert is_large(c, [0, 4, 8]) == 1
    assert is_large(c, [0]) == 2


def test_cov_monotone():
    rng = random.Random(4)
    for _ in range(20):
        t = random_tower(rng, max_n=10)
        pts = list(range(t.n))
        A = rng.sample(pts, rng.randint(1, t.n))
        B = sorted(set(A) | set(rng.sample(pts, rng.randint(1, t.n))))
        for a in range(t.num_levels - 1):
            assert cov(t, A, a + 1) <= cov(t, A, a)
            assert cov(t, A, a) <= cov(t, B, a)


# --- text format -----------------------------------------------------------------

def test_format_example_matches_spec_layout():
    text = format_ballean(gen_product([2, 2, 2]))
    assert text.splitlines() == [
        "ballean v1",
        "points 8",
        "levels 3",
        "level 1 cells: 0 1 | 2 3 | 4 5 | 6 7",
        "level 2 cells: 0 1 2 3 | 4 5 6 7",
    ]


def test_round_trip_towers():
    rng = random.Random(5)
    for _ in range(25):
        t = random_tower(rng)
        assert parse_ballean(format_ballean(t)) == t


def test_round_trip_chains():
    c = gen_interval(8, [2, 7])
    back = parse_ballean(format_ballean(c))
    assert back == c
    assert format_ballean(back) == format_ballean(c)


def test_parse_comments_and_errors():
    text = "ballean v1\npoints 4 # four points\nlevels 2\nlevel 1 cells: 0 1 | 2 3\n"
    t = parse_ballean(text)
    assert isinstance(t, Tower) and t.n == 4
    with pytest.raises(FormatError) as ei:
        parse_ballean("ballean v1\npoints 4\nlevels 2\nlevel 1 cells: 0 1 | 2\n")
    assert ei.value.line == 4
    with pytest.raises(FormatError):
        parse_ballean("ballean v2\n")
    with pytest.raises(FormatError) as ei:
        parse_ballean(
            "ballean v1\npoints 4\nlevels 3\n"
            "level 1 cells: 0 1 | 2 3\nlevel 2 cells: 0 2 | 1 3\n"
        )
    assert ei.value.line == 5


def test_parse_pairs_becomes_chain():
    text = "ballean v1\npoints 3\nlevels 2\nlevel 1 pairs: (0,1) (1,2)\n"
    c = parse_ballean(text)
    assert not isinstance(c, Tower)
    assert not is_cellular(c)


def test_parse_transitive_pairs_becomes_tower():
    text = "ballean v1\npoints 3\nlevels 2\nlevel 1 pairs: (0,1)\n"
    t = parse_ballean(text)
    assert isinstance(t, Tower)
    assert t.labels[1] == (0, 0, 1)


def as_pairs(text):
    """The same file with every cells: level spelled out as pairs:, which
    parse_ballean reads through the dense relation matrices."""
    out = []
    for line in text.splitlines():
        head, sep, body = line.partition(" cells:")
        if sep:
            pairs = [
                f"({a},{b})"
                for cell in body.split("|")
                for a, b in itertools.combinations(sorted(int(p) for p in cell.split()), 2)
            ]
            line = f"{head} pairs: {' '.join(pairs)}"
        out.append(line)
    return "\n".join(out) + "\n"


NON_NESTED_CELLS = [
    # level 1 not in level 2, an intermediate level (error on level 2's line)
    "ballean v1\npoints 4\nlevels 4\n"
    "level 1 cells: 0 1 | 2 3\nlevel 2 cells: 0 2 | 1 3\nlevel 3 cells: 0 1 2 3\n",
    # level 2 not in level 3, the top listed level
    "ballean v1\npoints 4\nlevels 4\n"
    "level 1 cells: 0 1 | 2 3\nlevel 2 cells: 0 1 | 2 3\nlevel 3 cells: 0 2 | 1 3\n",
    # the same with the level lines in reverse order
    "ballean v1\npoints 4\nlevels 4\n"
    "level 3 cells: 0 2 | 1 3\nlevel 2 cells: 0 1 | 2 3\nlevel 1 cells: 0 1 | 2 3\n",
]


def test_cells_files_parse_as_their_pairs_spelling():
    """Label rows read straight from cells: lines give the Tower, or the
    FormatError, that the dense path gives for the same levels."""
    rng = random.Random(6)
    texts = [
        "ballean v1\npoints 4 # four points\nlevels 2\nlevel 1 cells: 0 1 | 2 3\n",
        "ballean v1\npoints 3\nlevels 2\nlevel 1 cells: 0 | 1 2\n",
        "ballean v1\npoints 4\nlevels 3\n"
        "level 1 cells: 0 1 | 2 3\nlevel 2 cells: 0 2 | 1 3\n",
        format_ballean(gen_product([2, 2, 2])),
        *NON_NESTED_CELLS,
        *(format_ballean(t) for t in exhaustive_towers(4)),
        *(format_ballean(random_tower(rng)) for _ in range(25)),
    ]
    for text in texts:
        try:
            want = parse_ballean(as_pairs(text))
        except FormatError as e:
            with pytest.raises(FormatError) as ei:
                parse_ballean(text)
            assert (str(ei.value), ei.value.line) == (str(e), e.line)
        else:
            got = parse_ballean(text)
            assert isinstance(got, Tower) and got == want


def test_empty_cells_keep_their_ids_out_of_the_classes(tmp_path):
    """A cells: line may list empty cells, so its raw ids can exceed the
    number of classes, and here the number of points too."""
    text = "ballean v1\npoints 2\nlevels 3\nlevel 1 cells: 0 | | | | 1\nlevel 2 cells: 0 | 1\n"
    t = parse_ballean(text)
    assert isinstance(t, Tower)
    assert t.labels == ((0, 1), (0, 1), (0, 1), (0, 0))
    path = tmp_path / "empty.ballean"
    path.write_text(text)
    assert cli.run(["inspect", str(path)], io.StringIO(), io.StringIO()) == 0


def test_non_nested_cells_report_the_coarser_line():
    """The tower's own nesting check names the level; the parser maps it to
    the coarser level's line of the whole file, inside a certificate too."""
    cert = (
        "certificate v1\ntower X\nballean v1\npoints 4\nlevels 1\ntower Y\n"
        + NON_NESTED_CELLS[0]
        + "multimap v1\npair 0 0\nshift-fwd: 0 1\nshift-bwd: 0 1 2 3 4\nverified: pass s=0 t=0\n"
    )
    for text, msg, line in zip(
        [*NON_NESTED_CELLS, cert],
        ["level 1 is not contained in level 2"] + ["level 2 is not contained in level 3"] * 2
        + ["level 1 is not contained in level 2"],
        [5, 6, 4, 11],
    ):
        parse = parse_certificate if text is cert else parse_ballean
        with pytest.raises(FormatError) as ei:
            parse(text)
        assert str(ei.value) == f"line {line}: {msg}"


def test_mixed_cells_and_pairs_levels():
    """A file with both kinds of level reads every cells: level as a matrix:
    a cellular mix gives the all-cells Tower, a non-cellular one a chain
    holding the partition, and a non-nested one blames the coarser line."""
    for tower in [gen_product([2, 2, 2]), gen_product([3, 2]), *exhaustive_towers(4)]:
        lines = format_ballean(tower).splitlines()
        for i, line in enumerate(lines):
            if " cells:" in line:
                mixed = lines[:i] + as_pairs(line).splitlines() + lines[i + 1:]
                got = parse_ballean("\n".join(mixed) + "\n")
                assert isinstance(got, Tower) and got == tower
    got = parse_ballean(
        "ballean v1\npoints 4\nlevels 3\nlevel 1 pairs: (0,1) (1,2)\nlevel 2 cells: 0 1 2 | 3\n"
    )
    assert not isinstance(got, Tower) and not is_cellular(got)
    row = np.array([0, 0, 0, 1])
    assert np.array_equal(got.level(2), row[:, None] == row[None, :])
    for text, line in [
        ("ballean v1\npoints 4\nlevels 3\nlevel 1 pairs: (0,1) (2,3)\nlevel 2 cells: 0 2 | 1 3\n", 5),
        ("ballean v1\npoints 4\nlevels 3\nlevel 2 pairs: (0,2) (1,3)\nlevel 1 cells: 0 1 | 2 3\n", 4),
    ]:
        with pytest.raises(FormatError) as ei:
            parse_ballean(text)
        assert str(ei.value) == f"line {line}: level 1 is not contained in level 2"


@pytest.mark.parametrize(
    "text, line",
    [
        ("ballean v1\npoints \u00b2\nlevels 1\n", 2),
        ("ballean v1\npoints \u0663\nlevels 1\n", 2),
        ("ballean v1\npoints 2\nlevels \u00b2\n", 3),
        ("ballean v1\npoints 2\nlevels 2\nlevel \u00b9 cells: 0 | 1\n", 4),
        ("ballean v1\npoints 2\nlevels 2\nlevel 1 cells: 0 | \u00b9\n", 4),
        ("ballean v1\npoints 3\nlevels 2\nlevel 1 pairs: (0,\u00b9)\n", 4),
    ],
)
def test_parse_accepts_only_ascii_naturals(text, line):
    with pytest.raises(FormatError) as ei:
        parse_ballean(text)
    assert ei.value.line == line


# --- one squaring per level -------------------------------------------------------
#
# The references below are the boolean algorithms that validate, is_cellular
# and the reader's dense path used before they shared balleans._relprod:
# boolean matrix products, and components found by search.

def reference_validate(chain):
    if isinstance(chain, Tower):
        return True, (), tuple(range(chain.num_levels))
    issues, n = [], chain.n
    diag = np.eye(n, dtype=bool)
    for i in range(chain.num_levels):
        m = chain.level(i)
        missing = np.flatnonzero(~m[diag])
        if missing.size:
            issues.append(f"level {i}: not reflexive: missing ({missing[0]}, {missing[0]})")
        asym = np.argwhere(m & ~m.T)
        if asym.size:
            x, y = asym[0]
            issues.append(f"level {i}: not symmetric: contains ({x}, {y}) but not ({y}, {x})")
    for i in range(chain.num_levels - 1):
        extra = np.argwhere(chain.level(i) & ~chain.level(i + 1))
        if extra.size:
            x, y = extra[0]
            issues.append(f"level {i}: not contained in level {i + 1}: pair ({x}, {y})")
    stray = np.argwhere(chain.level(0) & ~diag)
    if stray.size:
        x, y = stray[0]
        issues.append(f"level 0: must be the diagonal: contains ({x}, {y})")
    hole = np.argwhere(~chain.level(chain.k))
    if hole.size:
        x, y = hole[0]
        issues.append(f"level {chain.k}: must be the full relation: missing ({x}, {y})")
    absorption = []
    for i in range(chain.num_levels):
        sq = chain.level(i) @ chain.level(i)
        j = next((j for j in range(i, chain.num_levels) if not (sq & ~chain.level(j)).any()), None)
        if j is None:
            x, y = np.argwhere(sq & ~chain.level(chain.k))[0]
            issues.append(f"level {i}: self-composition absorbed by no level: pair ({x}, {y})")
        absorption.append(j)
    return not issues, tuple(issues), tuple(absorption)


def reference_is_cellular(chain):
    return isinstance(chain, Tower) or not any(
        ((m @ m) & ~m).any() for m in chain.levels()
    )


def reference_components(m):
    labels, nxt = [-1] * m.shape[0], 0
    for s in range(m.shape[0]):
        if labels[s] == -1:
            labels[s], stack = nxt, [s]
            while stack:
                for y in np.flatnonzero(m[stack.pop()]):
                    if labels[y] == -1:
                        labels[y] = nxt
                        stack.append(int(y))
            nxt += 1
    return labels


def reference_hull(mats):
    rows = [reference_components(m) for m in mats]
    return Tower([r for i, r in enumerate(rows) if i == 0 or r != rows[i - 1]])


def outcome(f, *args):
    """f's result, or the message of the ValueError it raised."""
    try:
        return f(*args)
    except ValueError as e:
        return str(e)


def reference_read(mats):
    """What the reader made of a file whose levels are these matrices."""
    chain = EntourageChain(mats)
    if reference_is_cellular(chain):
        return Tower([reference_components(m) for m in mats])
    return chain


def random_valid_levels(rng, n, k, transitive):
    """k + 1 nested reflexive symmetric levels from the diagonal to the full
    relation; with transitive, every level is replaced by its closure."""
    levels = [np.eye(n, dtype=bool)]
    for _ in range(k - 1):
        m = levels[-1].copy()
        for _ in range(rng.randint(0, n)):
            a, b = rng.randrange(n), rng.randrange(n)
            m[a, b] = m[b, a] = True
        if transitive:
            row = np.array(reference_components(m))
            m = row[:, None] == row[None, :]
        levels.append(m)
    levels.append(np.ones((n, n), dtype=bool))
    return levels


def spelled(levels, rng):
    """A ballean file listing the middle levels, each equivalence relation
    as cells: or pairs: at random, every other level as pairs:."""
    n, k = levels[0].shape[0], len(levels) - 1
    out = ["ballean v1", f"points {n}", f"levels {k}"]
    order = list(range(1, k))
    rng.shuffle(order)
    for i in order:
        m = levels[i]
        if not ((m @ m) & ~m).any() and rng.random() < 0.5:
            cells = Tower([range(n), reference_components(m), [0] * n]).classes(1)
            out.append(f"level {i} cells: " + " | ".join(" ".join(map(str, c)) for c in cells))
        else:
            pairs = [(x, y) for x in range(n) for y in range(x + 1, n) if m[x, y]]
            out.append(f"level {i} pairs: " + " ".join(f"({x},{y})" for x, y in pairs))
    return "\n".join(out) + "\n"


def witness_258_levels():
    n = 258
    m = np.ones((n, n), dtype=bool)
    m[256, 257] = m[257, 256] = False
    return [np.eye(n, dtype=bool), m, np.ones((n, n), dtype=bool)]


def test_validate_and_cellularity_match_boolean_squaring():
    """validate, is_cellular and cellular_hull on valid chains, transitive
    or not, and on chains broken in reflexivity, symmetry, nesting, the
    diagonal bottom or the full top."""
    rng = random.Random(21)
    cases = [witness_258_levels()]
    for _ in range(300):
        n, k = rng.randint(1, 9), rng.randint(1, 4)
        cases.append(random_valid_levels(rng, n, k, rng.random() < 0.4))
    for _ in range(300):
        levels = [m.copy() for m in random_valid_levels(rng, rng.randint(1, 9), rng.randint(1, 4), False)]
        for _ in range(rng.randint(1, 3)):
            m = levels[rng.randrange(len(levels))]
            a, b = rng.randrange(m.shape[0]), rng.randrange(m.shape[0])
            m[a, b] = not m[a, b]
        cases.append(levels)
    kinds = set()
    for levels in cases:
        chain = EntourageChain(levels)
        rep = validate(chain)
        assert (rep.valid, rep.issues, rep.absorption) == reference_validate(chain)
        assert is_cellular(chain) == reference_is_cellular(chain)
        assert outcome(cellular_hull, chain) == outcome(reference_hull, levels)
        kinds.update(issue.split(": ")[1] for issue in rep.issues)
        kinds.add(f"cellular {is_cellular(chain)}")
    assert kinds == {
        "not reflexive", "not symmetric", "must be the diagonal", "must be the full relation",
        "self-composition absorbed by no level", "cellular True", "cellular False",
    } | {f"not contained in level {i}" for i in range(1, 5)}


def test_reader_matches_boolean_squaring():
    """pairs: files and mixed cells:/pairs: files read to the same type and
    the same labels or matrices as the boolean reference."""
    rng = random.Random(2100)
    cases = [witness_258_levels()]
    for _ in range(400):
        n, k = rng.randint(1, 12), rng.randint(2, 5)
        cases.append(random_valid_levels(rng, n, k, rng.random() < 0.5))
    kinds = set()
    for levels in cases:
        text = spelled(levels, rng)
        got, want = parse_ballean(text), reference_read(levels)
        assert type(got) is type(want) and got == want, text
        kinds.add((type(got).__name__, "pairs:" in text, "cells:" in text))
    assert {("Tower", True, True), ("EntourageChain", True, True), ("EntourageChain", True, False)} <= kinds


def test_one_squaring_per_level(monkeypatch, tmp_path):
    """The reader decides cellularity without squaring; inspect squares each
    level once, in validate."""
    from coarsekit import balleans

    calls = []
    relprod = balleans._relprod

    def counted(a, b):
        calls.append(a is b)
        return relprod(a, b)

    monkeypatch.setattr(balleans, "_relprod", counted)
    chain = gen_interval(40, [1, 5, 39])
    text = format_ballean(chain)
    assert not isinstance(parse_ballean(text), Tower)
    assert calls == []
    path = tmp_path / "path.ballean"
    path.write_text(text)
    out = io.StringIO()
    assert cli.run(["inspect", str(path)], out, io.StringIO()) == 0
    assert "cellular: no\n" in out.getvalue()
    assert calls == [True] * (chain.k + 1)


def test_cellular_hull_of_a_tower_reads_its_labels(monkeypatch):
    repeated = Tower([[0, 1, 2, 3], [0, 0, 1, 2], [0, 0, 1, 2], [0, 0, 1, 1], [0, 0, 1, 1], [0, 0, 0, 0]])
    cube = gen_product([2] * 12)
    towers = [repeated, cube, three_point_tower(), *exhaustive_towers(4)]
    # the hull of a non-tower chain holding the same levels is the reference
    wants = [cellular_hull(EntourageChain(t.levels())) for t in towers[:1] + towers[2:]]

    def no_matrix(self, i):
        raise AssertionError("a tower's hull built a relation matrix")

    monkeypatch.setattr(Tower, "level", no_matrix)
    hulls = [cellular_hull(t) for t in towers]
    assert hulls[1] == cube
    assert hulls[0].num_levels == 4
    for t, hull in zip(towers, hulls):
        assert hull == normalize(t)
    assert hulls[:1] + hulls[2:] == wants
