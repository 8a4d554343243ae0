import itertools
import random

import numpy as np
import pytest

from coarsekit import multimaps
from coarsekit.balleans import (
    EntourageChain,
    FormatError,
    Tower,
    gen_interval,
    gen_product,
    is_large,
    subspace,
)
from coarsekit.multimaps import (
    MultiMap,
    SearchCapExceeded,
    ShiftFn,
    check_coarse,
    check_equivalence,
    compose,
    equivalence_to_large_subsets,
    format_multimap,
    identity_map,
    inverse,
    min_shift,
    oscillation,
    parse_multimap,
    search_equivalence,
)
from coarsekit.classify import is_homogeneous
from families import random_tower


def tuple_index_map(x_tower, y_tower):
    return MultiMap(x_tower, y_tower, ((i, i) for i in range(x_tower.n)))


def one_point_tower(levels):
    return Tower([[0]] * (levels + 1)) if levels else Tower([[0]])


# --- oscillation ---------------------------------------------------------------

def test_oscillation_identity():
    t = gen_product([2, 2])
    for a in range(t.num_levels):
        assert np.array_equal(oscillation(identity_map(t), a), t.level(a))


def test_oscillation_constant_map():
    t = gen_product([2, 2])
    phi = MultiMap(t, t, ((x, 3) for x in range(4)))
    osc = oscillation(phi, 2)
    expect = np.zeros((4, 4), dtype=bool)
    expect[3, 3] = True
    assert np.array_equal(osc, expect)


def test_oscillation_full_relation():
    s = gen_product([2])
    t = gen_product([3])
    phi = MultiMap(s, t, itertools.product(range(2), range(3)))
    assert oscillation(phi, 1).all()


def test_oscillation_counts_do_not_wrap():
    # 256 sources on one target point: a uint8 product counts 256 x 256
    # witnesses for (0, 0) and wraps to 0
    phi = MultiMap(
        gen_product([256]), Tower([[0, 1], [0, 0]]), [(x, 0) for x in range(256)] + [(0, 1)]
    )
    assert oscillation(phi, 1)[0, 0]
    assert oscillation(phi, 1).all()


# --- coarseness checks -----------------------------------------------------------

def test_identity_is_id_coarse():
    t = gen_product([2, 3])
    rep = check_coarse(identity_map(t), ShiftFn.identity(t.k, t.k))
    assert rep.ok


def test_forward_tuple_index_pass():
    x, y = gen_product([2, 2]), gen_product([4, 1])
    rep = check_coarse(tuple_index_map(x, y), ShiftFn.identity(x.k, y.k))
    assert rep.ok


def test_inverse_tuple_index_needs_shift():
    x, y = gen_product([2, 2]), gen_product([4, 1])
    phi = tuple_index_map(x, y)
    rep = check_coarse(inverse(phi), ShiftFn.identity(y.k, x.k))
    assert not rep.ok
    assert rep.fail_level == 1
    u, v = rep.witness
    assert x.labels[1][u] != x.labels[1][v]
    # lifting level 1 to level 2 fixes it
    rep2 = check_coarse(inverse(phi), ShiftFn([0, 2, 2], x.k))
    assert rep2.ok


def test_check_equivalence_identity():
    t = gen_product([2, 2, 2])
    rep = check_equivalence(identity_map(t))
    assert rep.passed and rep.s == 0 and rep.t == 0


def test_check_equivalence_tuple_index():
    x, y = gen_product([2, 2]), gen_product([4, 1])
    rep = check_equivalence(tuple_index_map(x, y))
    assert rep.passed and (rep.s, rep.t) == (0, 1)


def test_check_equivalence_not_surjective():
    x = one_point_tower(1)
    y = Tower([[0, 1], [0, 0]])
    phi = MultiMap(x, y, [(0, 0)])
    rep = check_equivalence(phi)
    assert not rep.passed and rep.total and not rep.surjective


def test_shiftfn_validation():
    with pytest.raises(ValueError):
        ShiftFn([1, 0], 2)
    with pytest.raises(ValueError):
        ShiftFn([0, 3], 2)
    assert ShiftFn.constant(1, 2, 2).table == (1, 2, 2)
    assert ShiftFn.constant(0, 0, 3).table == (0,)


def test_monotone_in_shift():
    x, y = gen_product([2, 2]), gen_product([4, 1])
    phi = tuple_index_map(x, y)
    for s in range(3):
        for t in range(3):
            rep = check_equivalence(
                phi, ShiftFn.constant(s, x.k, y.k), ShiftFn.constant(t, y.k, x.k)
            )
            assert rep.passed == (t >= 1)


def dense(tower):
    return EntourageChain(tower.levels())


def random_relation(rng, X, Y):
    kind = rng.randrange(4)
    if kind == 0:  # a function, not necessarily surjective
        return {(x, rng.randrange(Y.n)) for x in range(X.n)}
    if kind == 1:  # total and surjective
        pairs = {(x, rng.randrange(Y.n)) for x in range(X.n)}
        return pairs | {(rng.randrange(X.n), y) for y in range(Y.n)}
    density = rng.random()
    return {(x, y) for x in range(X.n) for y in range(Y.n) if rng.random() < density}


def random_table(rng, source_k, target_k):
    return ShiftFn(sorted(rng.randint(0, target_k) for _ in range(source_k + 1)), target_k)


def test_tower_checks_match_dense_chains():
    """The label-native path on towers gives the whole report of the dense
    matrix path on the same levels, failing level and witness included."""
    rng = random.Random(23)
    for _ in range(2000):
        X = random_tower(rng, 12, 4)
        Y = random_tower(rng, 12, 4)
        pairs = random_relation(rng, X, Y)
        phi = MultiMap(X, Y, pairs)
        ref = MultiMap(dense(X), dense(Y), pairs)
        fwd = bwd = None
        if rng.random() < 0.5:
            fwd, bwd = random_table(rng, X.k, Y.k), random_table(rng, Y.k, X.k)
        assert check_equivalence(phi, fwd, bwd) == check_equivalence(ref, fwd, bwd)
        table = random_table(rng, X.k, Y.k)
        assert check_coarse(phi, table) == check_coarse(ref, table)


# --- compose / inverse ------------------------------------------------------------

def test_compose_inverse_properties():
    rng = random.Random(9)
    x = gen_product([2, 2])
    y = gen_product([4, 1])
    phi = MultiMap(x, y, {(rng.randrange(4), rng.randrange(4)) for _ in range(6)} | {(0, 1)})
    assert inverse(inverse(phi)) == phi
    assert compose(identity_map(y), phi) == phi
    assert compose(phi, identity_map(x)) == phi
    total_phi = MultiMap(x, y, set(phi.pairs) | {(i, 0) for i in range(4)})
    back = compose(inverse(total_phi), total_phi)
    assert all((i, i) in back.pairs for i in range(4))


def test_compose_mismatch_rejected():
    x = gen_product([2])
    z = gen_product([3])
    with pytest.raises(ValueError):
        compose(identity_map(z), identity_map(x))


def test_composition_law_random():
    rng = random.Random(11)
    x = gen_product([2, 2])
    y = gen_product([2, 2])
    z = gen_product([4, 1])
    for _ in range(20):
        phi = MultiMap(x, y, {(i, rng.randrange(4)) for i in range(4)})
        psi = MultiMap(y, z, {(i, rng.randrange(4)) for i in range(4)})
        f = ShiftFn.constant(rng.randrange(2), x.k, y.k)
        g = ShiftFn.constant(rng.randrange(2), y.k, z.k)
        if check_coarse(phi, f).ok and check_coarse(psi, g).ok:
            h = ShiftFn([g(f(a)) for a in range(x.num_levels)], z.k)
            assert check_coarse(compose(psi, phi), h).ok


def test_subspace_inclusion_is_zero_shift_embedding():
    rng = random.Random(13)
    for _ in range(10):
        t = gen_product([rng.randint(1, 3), rng.randint(1, 3)])
        pts = sorted(rng.sample(range(t.n), rng.randint(1, t.n)))
        sub = subspace(t, pts)
        incl = MultiMap(sub, t, ((i, p) for i, p in enumerate(pts)))
        assert check_coarse(incl, ShiftFn.constant(0, sub.k, t.k)).ok
        rep = check_coarse(inverse(incl), ShiftFn.constant(0, t.k, sub.k))
        assert rep.ok


# --- the oracle ---------------------------------------------------------------------

def test_search_identity_case():
    t = gen_product([2, 3])
    phi = search_equivalence(t, t, 0)
    assert phi is not None
    assert check_equivalence(phi).passed


def test_search_products_at_shifts():
    x, y = gen_product([2, 2]), gen_product([4, 1])
    assert search_equivalence(x, y, 0) is None
    phi = search_equivalence(x, y, 1)
    assert phi is not None
    rep = check_equivalence(phi)
    assert rep.passed and rep.s <= 1 and rep.t <= 1


def test_min_shift_examples():
    x = gen_product([2, 2])
    assert min_shift(x, x, 2) == 0
    assert min_shift(x, gen_product([4, 1]), 3) == 1
    # one point against two points with a duplicated discrete mid-level:
    # the image of the single point must be the whole 2-point space, whose
    # square escapes the discrete levels 0 and 1, so shift 2 is needed
    a = one_point_tower(2)
    b = Tower([[0, 1], [0, 1], [0, 0]])
    assert min_shift(a, b, 3) == 2


def test_search_respects_unequal_sizes_at_zero():
    assert search_equivalence(gen_product([2, 2]), gen_product([3, 3]), 0) is None
    # unequal sizes settle shift 0 before the pair universe is counted
    assert search_equivalence(gen_product([64, 2]), gen_product([64]), 0) is None


def test_search_finds_depth2_shift1_equivalence():
    # at depth 2 and shift 1 only the bottom-level and counting constraints
    # survive; (2,2) and (3,3) do admit a saturated equivalence
    phi = search_equivalence(gen_product([2, 2]), gen_product([3, 3]), 1)
    assert phi is not None
    rep = check_equivalence(phi)
    assert rep.passed and rep.s <= 1 and rep.t <= 1


def test_search_soundness_random():
    rng = random.Random(17)
    specs = [[2], [3], [2, 2], [4, 1], [2, 3], [1, 4]]
    for _ in range(25):
        x = gen_product(rng.choice(specs))
        y = gen_product(rng.choice(specs))
        s = rng.randrange(3)
        phi = search_equivalence(x, y, s)
        if phi is not None:
            rep = check_equivalence(phi)
            assert rep.passed and rep.s <= s and rep.t <= s


def test_search_pin():
    t = gen_product([2, 2])
    for x in range(4):
        for y in range(4):
            phi = search_equivalence(t, t, 1, require_pair=(x, y))
            assert phi is not None and (x, y) in phi.pairs


def test_search_cap():
    x = gen_product([2, 2, 2])
    with pytest.raises(SearchCapExceeded):
        search_equivalence(x, x, 1, node_cap=2)


def test_search_cap_env_override(monkeypatch):
    monkeypatch.setenv("COARSEKIT_SEARCH_CAP", "1")
    x = gen_product([2, 2, 2])
    with pytest.raises(SearchCapExceeded):
        search_equivalence(x, x, 1)
    monkeypatch.setenv("COARSEKIT_SEARCH_CAP", "100000")
    assert search_equivalence(x, x, 1) is not None


def brute_force_min_shifts(X, Y):
    """Over every relation in X x Y, the best achievable max(s, t); None if
    no total surjective relation passes at all.  Exponential; tiny only."""
    n, m = X.n, Y.n
    best = None
    for bits in range(1, 1 << (n * m)):
        pairs = [divmod(p, m) for p in range(n * m) if bits >> p & 1]
        phi = MultiMap(X, Y, pairs)
        if not (phi.is_total() and phi.is_surjective()):
            continue
        rep = check_equivalence(phi)
        got = max(rep.s, rep.t)
        if best is None or got < best:
            best = got
    return best


def test_search_complete_against_full_enumeration():
    towers = [
        one_point_tower(0),
        gen_product([2]),
        gen_product([3]),
        Tower([[0, 1, 2], [0, 0, 1], [0, 0, 0]]),
        gen_product([2, 2]),
        Tower([[0, 1, 2, 3], [0, 0, 1, 2], [0, 0, 0, 0]]),
    ]
    for X in towers:
        for Y in towers:
            if X.n * Y.n > 12:
                continue
            truth = brute_force_min_shifts(X, Y)
            for s in range(3):
                found = search_equivalence(X, Y, s)
                assert (found is not None) == (truth is not None and truth <= s), (
                    X, Y, s, truth,
                )


def test_search_on_general_chains():
    c1 = gen_interval(4, [1, 3])
    c2 = gen_interval(4, [1, 3])
    phi = search_equivalence(c1, c2, 0)
    assert phi is not None and check_equivalence(phi).passed
    c3 = gen_interval(5, [1, 4])
    assert search_equivalence(c1, c3, 0) is None


def test_search_depth_is_not_bounded_by_recursion():
    # the search goes n + m choices deep: one point against 1500 points
    one, line = Tower([[0]]), gen_product([1500])
    phi = search_equivalence(one, line, 1)
    assert phi is not None
    rep = check_equivalence(phi)
    assert rep.passed and rep.s <= 1 and rep.t <= 1


def test_search_witnesses_are_pinned():
    # the first witness in the search order, recorded once; a change of
    # candidate order or pruning that picks another witness fails here
    X = Tower([[row[p] for p in (5, 2, 7, 0, 3, 6, 1, 4)] for row in gen_product([2, 2, 2]).labels])
    t = gen_product([2, 3, 2])
    searches = [
        (search_equivalence(X, gen_product([4, 2]), 1),
         [(0, 0), (0, 2), (0, 3), (1, 4), (1, 6), (1, 7), (2, 1), (3, 5), (4, 4), (5, 1),
          (6, 5), (7, 0)]),
        (search_equivalence(t, t, 1, require_pair=(0, 5)),
         [(0, 4), (0, 5), (1, 0), (2, 1), (3, 1), (4, 2), (4, 3), (5, 2), (6, 6), (7, 6),
          (8, 7), (9, 7), (10, 8), (10, 9), (11, 10), (11, 11)]),
        (search_equivalence(t, t, 0, require_pair=(3, 10)),
         [(0, 6), (1, 7), (2, 11), (3, 10), (4, 8), (5, 9), (6, 0), (7, 1), (8, 2), (9, 3),
          (10, 4), (11, 5)]),
        (search_equivalence(gen_interval(5, [1, 4]), gen_interval(6, [2, 5]), 1),
         [(0, 0), (0, 2), (1, 0), (2, 1), (3, 1), (4, 3), (4, 4), (4, 5)]),
        (search_equivalence(gen_product([2, 3]), gen_product([3, 2]), 0), None),
    ]
    for phi, pairs in searches:
        assert (None if phi is None else sorted(phi.pairs)) == pairs


def relabel(rng, chain):
    perm = list(range(chain.n))
    rng.shuffle(perm)
    return Tower([[row[p] for p in perm] for row in chain.labels])


def reference_context(X, Y, s):
    """compat, pairs_of_x and pairs_of_y straight from the shift predicate:
    (x, y) and (x', y') fit together when the least levels a of (x, x') and
    b of (y, y') satisfy b <= fwd(a) and a <= bwd(b) for the constant-s
    tables both ways.

    On an invalid chain a pair that no level holds is at level k + 1, one
    above the top, and the tables run to level k + 1 on both sides: each
    maps it to the other side's k + 1, and each counts the other side's
    levels up to k + 1.  On levels up to k they give the same verdicts as
    the plain constant-s tables."""
    def least_levels(c):
        levels = c.levels()
        return [[next((i for i, level in enumerate(levels) if level[u, v]), c.k + 1)
                 for v in range(c.n)]
                for u in range(c.n)]

    dX, dY = least_levels(X), least_levels(Y)
    fwd = ShiftFn.constant(s, X.k, Y.k + 1).table + (Y.k + 1,)
    bwd = ShiftFn.constant(s, Y.k, X.k + 1).table + (X.k + 1,)
    n, m = X.n, Y.n
    pairs = [divmod(p, m) for p in range(n * m)]
    compat = tuple(
        sum(1 << q for q, (x2, y2) in enumerate(pairs)
            if dY[y][y2] <= fwd[dX[x][x2]] and dX[x][x2] <= bwd[dY[y][y2]])
        for x, y in pairs
    )
    pairs_of_x = tuple(sum(1 << p for p, (x, _) in enumerate(pairs) if x == u) for u in range(n))
    pairs_of_y = tuple(sum(1 << p for p, (_, y) in enumerate(pairs) if y == v) for v in range(m))
    return compat, pairs_of_x, pairs_of_y


def rng_relation(rng, n):
    return np.array([[rng.random() < 0.4 for _ in range(n)] for _ in range(n)])


def test_search_context_matches_the_shift_predicate():
    rng = random.Random(41)
    cases = [(Tower([[0]]), Tower([[0]]))]
    for _ in range(40):
        X = relabel(rng, random_tower(rng, 64, 4))
        Y = relabel(rng, random_tower(rng, max(1, 128 // X.n), 4))
        cases.append((X, Y) if rng.random() < 0.5 else (Y, X))
    for n, m in [(5, 7), (9, 4), (2, 12), (16, 16)]:
        cx = gen_interval(n, [r for r in (1, 3) if r < n - 1] + [n - 1])
        cy = gen_interval(m, [r for r in (2,) if r < m - 1] + [m - 1])
        cases += [(cx, cy), (cx, relabel(rng, random_tower(rng, 8, 3))), (gen_product([2, 2]), cy)]
    # invalid chains on either side: a top level that is not the full
    # relation, and random levels that are neither reflexive, symmetric
    # nor nested, so some pairs lie in no level
    eye = np.eye(4, dtype=bool)
    halves = np.kron(np.eye(2, dtype=bool), np.ones((2, 2), dtype=bool))
    open_top = EntourageChain([eye, halves])
    for _ in range(12):
        k, n = rng.randint(0, 3), rng.randint(1, 7)
        noise = EntourageChain([rng_relation(rng, n) for _ in range(k + 1)])
        other = rng.choice([open_top, gen_product([3]), relabel(rng, random_tower(rng, 8, 3)),
                            gen_interval(5, [2, 4])])
        cases += [(noise, other), (other, noise)]
    cases += [(open_top, gen_product([2, 2])), (gen_product([2, 3]), open_top), (open_top, open_top)]
    for X, Y in cases:
        for s in range(4):
            ctx = multimaps._build_context(X, Y, s)
            assert (ctx.compat, ctx.pairs_of_x, ctx.pairs_of_y) == reference_context(X, Y, s), (
                X, Y, s,
            )


def test_search_context_cache_is_bounded():
    multimaps._context_cache.cache_clear()
    t = gen_product([2, 3])
    searches = 3 * multimaps.CONTEXT_CACHE_SIZE
    for size in range(1, searches + 1):
        search_equivalence(t, gen_product([size]), 1)
        assert multimaps._context_cache.cache_info().currsize <= multimaps.CONTEXT_CACHE_SIZE
    info = multimaps._context_cache.cache_info()
    assert info.currsize == multimaps.CONTEXT_CACHE_SIZE and info.misses == searches


def test_homogeneity_builds_one_search_context(searched_pairs):
    multimaps._context_cache.cache_clear()
    rep = is_homogeneous(gen_product([2, 3, 2]), max_shift=0)
    assert rep.oracle is True
    info = multimaps._context_cache.cache_info()
    assert info.misses == 1 and info.hits == len(searched_pairs) - 1


# --- large-subset witnesses -----------------------------------------------------

def test_large_subset_witness():
    x, y = gen_product([2, 2]), gen_product([4, 1])
    phi = search_equivalence(x, y, 1)
    w = equivalence_to_large_subsets(phi)
    assert w.x_large_level is not None and w.y_large_level is not None
    assert w.report.passed
    assert is_large(x, w.large_x) == w.x_large_level
    rep = check_equivalence(phi)
    assert w.y_large_level <= rep.s
    assert w.x_large_level <= rep.t


# --- text format ------------------------------------------------------------------

def test_multimap_round_trip():
    x, y = gen_product([2, 2]), gen_product([4, 1])
    phi = tuple_index_map(x, y)
    text = format_multimap(phi)
    assert parse_multimap(text, x, y) == phi
    assert text.splitlines()[0] == "multimap v1"


def test_multimap_shift_tables_round_trip():
    x, y = gen_product([2, 2]), gen_product([4, 1])
    phi = tuple_index_map(x, y)
    fwd = ShiftFn.constant(0, x.k, y.k)
    bwd = ShiftFn.constant(1, y.k, x.k)
    text = format_multimap(phi, shifts=(fwd, bwd))
    assert "shift: 0 1 2" in text
    back, shifts = parse_multimap(text, x, y)
    assert back == phi
    assert shifts == (fwd.table, bwd.table)
    rep = check_equivalence(phi, ShiftFn(shifts[0], y.k), ShiftFn(shifts[1], x.k))
    assert rep.passed


@pytest.mark.parametrize(
    "text, line",
    [
        ("multimap v1\npair 0 \u00b2\n", 2),
        ("multimap v1\npair 0 0\nshift: 0 \u00b9\n", 3),
    ],
)
def test_multimap_rejects_non_ascii_digits(text, line):
    with pytest.raises(FormatError) as e:
        parse_multimap(text, gen_product([2, 2]), gen_product([4, 1]))
    assert e.value.line == line
