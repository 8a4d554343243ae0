import itertools
import random
from dataclasses import replace

import numpy as np
import pytest

from coarsekit.balleans import EntourageChain, Tower, gen_product, spectrum
from coarsekit.classify import (
    Certificate,
    build_equivalence,
    covering_invariants,
    cumulative_products,
    format_certificate,
    interleave,
    is_homogeneous,
    parse_certificate,
    point_transitive_map,
    regroup,
    uniformizing_regroup,
    verify_certificate,
)
from coarsekit.multimaps import (
    MultiMap,
    SearchCapExceeded,
    ShiftFn,
    check_equivalence,
    compose,
    inverse,
    search_equivalence,
)

from families import deep_tower, exhaustive_towers, random_tower


def three_point_tower():
    return Tower.from_partitions(3, [[[0], [1, 2]]])


# --- regroup -----------------------------------------------------------------

def test_regroup_spectrum_multiplies():
    t = gen_product([2, 2, 2, 2])
    r = regroup(t, [0, 2, 4])
    assert spectrum(r).lo == (4, 4)
    assert spectrum(r).uniform


def test_regroup_identity_and_collapse():
    t = gen_product([2, 3])
    assert regroup(t, [0, 1, 2]) == t
    flat = regroup(t, [0, 2])
    assert flat.num_levels == 2
    assert spectrum(flat).lo == (6,)


def test_regroup_rejects_bad_boundaries():
    t = gen_product([2, 2])
    with pytest.raises(ValueError):
        regroup(t, [0, 1])
    with pytest.raises(ValueError):
        regroup(t, [1, 2])
    with pytest.raises(ValueError):
        regroup(t, [0, 2, 2])


# --- interleave -----------------------------------------------------------------

def test_interleave_cube_against_squares():
    got = interleave(gen_product([2, 2, 2, 2]), gen_product([4, 4]))
    assert got == ((0, 2, 4), (0, 1, 2))


def test_interleave_identity():
    got = interleave(gen_product([2, 2]), gen_product([2, 2]))
    assert got == ((0, 1, 2), (0, 1, 2))


def test_interleave_mixed_orders():
    got = interleave(gen_product([2, 3]), gen_product([3, 2]))
    assert got == ((0, 2), (0, 2))


def test_interleave_unequal_totals():
    assert interleave(gen_product([2, 2]), gen_product([3, 3])) is None


def test_interleave_requires_uniform():
    with pytest.raises(ValueError):
        interleave(three_point_tower(), gen_product([3]))


def test_interleave_handles_unit_levels():
    got = interleave(gen_product([4, 1]), gen_product([4]))
    assert got is not None
    bx, by = got
    rx = regroup(gen_product([4, 1]), bx)
    ry = regroup(gen_product([4]), by)
    assert spectrum(rx).lo == spectrum(ry).lo


def test_interleave_identical_dup_levels_stay_identity():
    t = gen_product([2, 1, 2])
    assert interleave(t, t) == ((0, 1, 2, 3), (0, 1, 2, 3))


# --- uniformizing regroup ----------------------------------------------------------

def test_uniformizing_regroup_finest_first():
    t = gen_product([2, 2])
    assert uniformizing_regroup(t) == (0, 1, 2)


def test_uniformizing_regroup_nonuniform():
    # singleton split at level 1 is non-uniform; only the collapse works
    t = three_point_tower()
    assert uniformizing_regroup(t) == (0, 2)
    assert uniformizing_regroup(t, max_width=1) is None


def exhaustive_regroup(tower, max_width=None):
    """The reference: try every boundary set, most boundaries first, in
    itertools.combinations order, and take the first uniform one."""
    k = tower.k
    interior = list(range(1, k))
    for size in range(len(interior), -1, -1):
        for combo in itertools.combinations(interior, size):
            bounds = [0, *combo, k] if k > 0 else [0]
            if max_width is not None and any(
                b - a > max_width for a, b in zip(bounds, bounds[1:])
            ):
                continue
            if spectrum(regroup(tower, bounds)).uniform:
                return tuple(bounds)
    return None


def test_uniformizing_regroup_matches_exhaustive_search():
    rng = random.Random(606)
    towers = list(exhaustive_towers(6, 3))
    towers += [random_tower(rng, max_n=40, max_levels=9) for _ in range(600)]
    for t in towers:
        for width in (None, 1, 2, 3):
            assert uniformizing_regroup(t, max_width=width) == exhaustive_regroup(t, width), (
                t.labels, width,
            )


def block_test_regroup(tower, max_width=None):
    """The reference: the same dynamic program over the boundaries, with
    each block (a, b] checked on the label rows as one vectorized count."""
    k = tower.k
    width = k if max_width is None else max_width
    rows = [np.asarray(row) for row in tower.labels]

    def uniform(a, b):
        parent = np.empty(int(rows[a].max()) + 1, dtype=rows[b].dtype)
        parent[rows[a]] = rows[b]
        held = np.bincount(parent)
        return held.min() == held.max()

    paths = [None] * k + [(k,)]
    for a in range(k - 1, -1, -1):
        for b in range(a + 1, min(a + width, k) + 1):
            if paths[b] is not None and len(paths[b]) >= len(paths[a] or ()) and uniform(a, b):
                paths[a] = (a, *paths[b])
    return paths[0]


def test_uniformizing_regroup_matches_block_test_reference():
    rng = random.Random(1111)
    towers = [random_tower(rng, max_n=60, max_levels=16) for _ in range(300)]
    towers += [deep_tower(n) for n in (2, 3, 9, 30)]
    for t in towers:
        for width in (None, *range(t.k + 2)):
            assert uniformizing_regroup(t, max_width=width) == block_test_regroup(t, width), (
                t.labels, width,
            )


def test_uniformizing_regroup_deep_towers():
    assert uniformizing_regroup(gen_product([2] * 16)) == tuple(range(17))
    # level 1 splits one point off; every regrouping that keeps it is uneven
    t = Tower([list(range(6)), [0, 1, 1, 2, 2, 2]] + [[0, 0, 0, 1, 1, 1]] * 14 + [[0] * 6])
    assert uniformizing_regroup(t) == (0, *range(2, 17))
    assert uniformizing_regroup(t, max_width=1) is None
    assert uniformizing_regroup(t, max_width=2) == (0, *range(2, 17))


# --- build_equivalence ---------------------------------------------------------------

def test_build_identity_certificate():
    t = gen_product([2, 2])
    cert = build_equivalence(t, t)
    assert cert is not None
    assert (cert.s, cert.t) == (0, 0)
    phi = cert.multimap()
    assert phi.is_total() and phi.is_surjective()
    assert len(phi.pairs) == t.n


def test_build_cube_vs_squares():
    cert = build_equivalence(gen_product([2, 2, 2, 2]), gen_product([4, 4]))
    assert cert is not None
    rep = check_equivalence(cert.multimap(), cert.fwd_shift(), cert.bwd_shift())
    assert rep.passed
    assert (cert.s, cert.t) == (0, 1)
    assert cert.shift_fwd == (0, 1, 1, 2, 2)
    assert cert.shift_bwd == (0, 2, 4)


def test_build_deep_towers():
    t = gen_product([2] + [1] * 14)
    cert = build_equivalence(t, gen_product([2] + [1] * 14))
    assert cert is not None and (cert.s, cert.t) == (0, 0)
    assert verify_certificate(format_certificate(cert)).ok


def test_build_fails_on_unequal_totals():
    assert build_equivalence(gen_product([2, 2]), gen_product([3, 3])) is None
    assert search_equivalence(gen_product([2, 2]), gen_product([3, 3]), 0) is None


def test_build_single_point():
    a = Tower([[0]])
    b = Tower([[0], [0]])
    cert = build_equivalence(a, b)
    assert cert is not None and (cert.s, cert.t) == (0, 0)
    assert verify_certificate(cert).ok


def test_build_nonuniform_goes_through_regrouping():
    x = three_point_tower()
    y = Tower.from_partitions(3, [[[0, 1], [2]]])
    cert = build_equivalence(x, y)
    assert cert is not None
    assert verify_certificate(cert).ok


def test_build_respects_max_shift():
    x, y = gen_product([2, 2]), gen_product([4, 1])
    assert build_equivalence(x, y, max_shift=0) is None
    cert = build_equivalence(x, y, max_shift=1)
    assert cert is not None and max(cert.s, cert.t) == 1


def test_build_equal_spectra_random_towers_zero_shift():
    rng = random.Random(31)
    for _ in range(10):
        sizes = [rng.randint(2, 3) for _ in range(rng.randint(1, 3))]
        base = gen_product(sizes)
        perm = list(range(base.n))
        rng.shuffle(perm)
        relabeled = Tower([[row[perm[p]] for p in range(base.n)] for row in base.labels])
        cert = build_equivalence(base, relabeled)
        assert cert is not None and (cert.s, cert.t) == (0, 0)
        assert verify_certificate(cert).ok


def ordered_factorizations(n):
    """Every way to write n as an ordered product of factors >= 2."""
    if n == 1:
        return [()]
    return [(f, *rest) for f in range(2, n + 1) if n % f == 0 for rest in ordered_factorizations(n // f)]


def test_certificate_shift_against_least_oracle_shift():
    """On every ordered pair of distinct ordered factorizations of 4..16
    points, the certificate's shift is never below the least shift the
    oracle finds, trying the swapped orientation when one hits the node
    cap.  Where it is above, the pair is pinned: the certificate has 2 and
    the oracle 1."""
    pairs = [
        (a, b) for n in range(4, 17) for a in ordered_factorizations(n)
        for b in ordered_factorizations(n) if a != b
    ]
    assert len(pairs) == 152
    gaps = set()
    for a, b in pairs:
        X, Y = gen_product(a), gen_product(b)
        cert = build_equivalence(X, Y)
        top = max(cert.s, cert.t)
        for s in range(top + 1):
            found = None
            for P, Q in ((X, Y), (Y, X)):
                try:
                    found = search_equivalence(P, Q, s, node_cap=200_000) is not None
                    break
                except SearchCapExceeded:
                    continue
            assert found is not None, (a, b, s)
            if found:
                break
        assert found, (a, b)
        if s < top:
            gaps.add((a, b, top, s))
    assert gaps == {
        (a, b, 2, 1)
        for a, b in [
            ((2, 2, 3), (3, 2, 2)), ((2, 2, 3), (3, 4)), ((2, 3, 2), (4, 3)),
            ((3, 2, 2), (2, 2, 3)), ((3, 2, 2), (4, 3)), ((3, 4), (2, 2, 3)),
            ((4, 3), (2, 3, 2)), ((4, 3), (3, 2, 2)),
        ]
    }


# --- homogeneity -----------------------------------------------------------------------

def test_uniform_product_homogeneous_at_zero():
    rep = is_homogeneous(gen_product([2, 3, 2]), max_shift=0)
    assert rep.homogeneous and rep.spectral and rep.bound == 0
    assert rep.oracle is True
    for phi in rep.translations.values():
        assert check_equivalence(phi).passed


def test_three_point_not_homogeneous_at_zero():
    t = three_point_tower()
    rep = is_homogeneous(t, max_shift=0)
    assert not rep.spectral
    assert rep.oracle is False
    # the singleton class pins point 0, so already (0, 1) fails; the spec's
    # example pair (0, 2) fails too
    assert rep.failing_pair == (0, 1)
    assert search_equivalence(t, t, 0, require_pair=(0, 2)) is None


def test_three_point_homogeneous_at_one():
    rep = is_homogeneous(three_point_tower(), max_shift=1)
    assert rep.spectral and rep.bound == 1
    assert rep.oracle is True


def test_single_point_homogeneous():
    rep = is_homogeneous(Tower([[0]]))
    assert rep.homogeneous and rep.oracle is True


def test_homogeneity_oracle_cap():
    rep = is_homogeneous(gen_product([2, 2]), max_shift=1, oracle_cap=2)
    assert rep.oracle is None and rep.oracle_skipped


def per_pair_oracle(tower, shift):
    """The oracle as one search per unordered pair, the reference for
    is_homogeneous: (oracle, failing_pair, witnesses)."""
    witnesses = {}
    for x, y in itertools.combinations(range(tower.n), 2):
        phi = search_equivalence(tower, tower, shift, require_pair=(x, y))
        if phi is None:
            return False, (x, y), witnesses
        witnesses[(x, y)] = phi
    return True, None, witnesses


def test_shared_witnesses_match_the_per_pair_oracle(searched_pairs):
    rng = random.Random(12)
    towers = [*exhaustive_towers(6, 2), *(random_tower(rng, 9, 4) for _ in range(60))]
    for t in towers:
        for s in range(3):
            oracle, failing, ref = per_pair_oracle(t, s)
            searched_pairs.clear()
            rep = is_homogeneous(t, s)
            assert (rep.oracle, rep.failing_pair) == (oracle, failing), (t.labels, s)
            assert set(searched_pairs) <= {*ref, failing}
            if oracle:
                assert rep.witnesses.keys() == ref.keys()
            else:
                assert set(ref) <= set(rep.witnesses) and failing not in rep.witnesses
            table = ShiftFn.constant(s, t.k, t.k)
            checked = set()
            for key, phi in rep.witnesses.items():
                assert key[0] < key[1] and key in phi.pairs, (t.labels, s, key)
                if id(phi) not in checked:
                    checked.add(id(phi))
                    assert check_equivalence(phi, table, table).passed, (t.labels, s, key)
    # a witness of the 16-point cube moves many pairs at once
    searched_pairs.clear()
    rep = is_homogeneous(gen_product([2, 2, 2, 2]), 0)
    assert rep.oracle is True and len(searched_pairs) < len(rep.witnesses) == 120


def test_point_transitive_maps():
    t = gen_product([2, 2])
    assert point_transitive_map(t, 1, 1).pairs == frozenset((z, z) for z in range(4))
    phi = point_transitive_map(t, 0, 3)
    assert (0, 3) in phi.pairs
    rep = check_equivalence(phi, ShiftFn.identity(t.k, t.k), ShiftFn.identity(t.k, t.k))
    assert rep.passed and rep.s == 0 and rep.t == 0
    line = gen_product([3])
    swap = point_transitive_map(line, 0, 2)
    assert (0, 2) in swap.pairs and (2, 0) in swap.pairs and (1, 1) in swap.pairs
    assert check_equivalence(swap).passed


def test_translations_match_point_transitive_maps():
    """is_homogeneous's translations are point_transitive_map's bijections
    on the regrouped tower, carried over to the tower itself."""
    checked = 0
    for t in exhaustive_towers(6, 3):
        for s in range(max(t.k, 1)):
            rep = is_homogeneous(t, s, oracle_cap=0)
            if not rep.spectral:
                continue
            reg = regroup(t, rep.regrouping)
            for (x, y), phi in rep.translations.items():
                assert phi.source is t and phi.target is t
                assert phi.pairs == point_transitive_map(reg, x, y).pairs, (t.labels, s, x, y)
                checked += 1
    assert checked > 10_000


def test_point_transitive_requires_uniform():
    with pytest.raises(ValueError):
        point_transitive_map(three_point_tower(), 0, 2)


def test_homogeneity_preserved_through_certificates():
    # conjugating a translation through a certificate stays within the
    # translation shift plus both certificate shifts
    x, y = gen_product([2, 2]), gen_product([4, 1])
    cert = build_equivalence(x, y)
    phi = cert.multimap()
    inv = inverse(phi)
    for u in range(y.n):
        for v in range(y.n):
            xu = min(inv.image(u))
            xv = min(inv.image(v))
            t = point_transitive_map(x, xu, xv)
            psi = compose(phi, compose(t, inv))
            assert v in psi.image(u)
            rep = check_equivalence(psi)
            assert rep.passed
            assert rep.s <= 0 + cert.s + cert.t
            assert rep.t <= 0 + cert.s + cert.t


# --- covering invariants -----------------------------------------------------------

def test_covering_invariants_products():
    ci = covering_invariants(gen_product([2, 2]))
    assert ci.cumulative == (1, 2, 4) and ci.uniform
    ci41 = covering_invariants(gen_product([4, 1]))
    assert ci41.cumulative == (1, 4, 4) and ci41.uniform
    assert ci41.normalized == (1, 4)


def test_covering_invariants_nonuniform():
    ci = covering_invariants(three_point_tower())
    assert not ci.uniform
    assert ci.lo == (1, 2) and ci.hi == (2, 2)


def test_equal_endpoints_iff_build_succeeds():
    specs = [[2, 2], [4], [2, 3], [3, 2], [2, 2, 2], [8], [4, 2]]
    for a in specs:
        for b in specs:
            x, y = gen_product(a), gen_product(b)
            ia, ib = covering_invariants(x), covering_invariants(y)
            cert = build_equivalence(x, y)
            assert (cert is not None) == (ia.cumulative[-1] == ib.cumulative[-1])


# --- certificate serialization ------------------------------------------------------

def test_certificate_round_trip_bytes():
    cert = build_equivalence(gen_product([2, 2, 2, 2]), gen_product([4, 4]))
    text = format_certificate(cert)
    back = parse_certificate(text)
    assert format_certificate(back) == text
    assert verify_certificate(back).ok
    assert verify_certificate(text).ok


def test_certificate_tamper_detection():
    cert = build_equivalence(gen_product([2, 2]), gen_product([4, 1]))
    text = format_certificate(cert)
    lines = text.splitlines()
    drop = next(i for i, l in enumerate(lines) if l.startswith("pair "))
    tampered = "\n".join(lines[:drop] + lines[drop + 1:]) + "\n"
    res = verify_certificate(tampered)
    assert not res.ok
    assert "total" in res.reason or "surjective" in res.reason


def test_certificate_shift_line_not_trusted():
    cert = build_equivalence(gen_product([2, 2]), gen_product([4, 1]))
    text = format_certificate(cert).replace(
        f"verified: pass s={cert.s} t={cert.t}", "verified: pass s=0 t=0"
    )
    res = verify_certificate(text)
    assert not res.ok and "disagree" in res.reason


def test_verify_counts_do_not_wrap():
    # each level-1 class of X sends 16 points to each of 0 and 2 (or 1 and
    # 3), which sit in different level-1 classes of Y: 16 x 16 = 256
    # witnesses of the escaping pair, 0 in uint8 arithmetic
    X, Y = gen_product([32, 2]), gen_product([2, 2])
    pairs = tuple((x, (0 if x % 32 < 16 else 2) + x // 32) for x in range(64))
    cert = Certificate(X, Y, pairs, (0, 1, 2), (1, 2, 2), (), 0, 1)
    want = "forward coarseness fails: oscillation escapes at level 1, witness (0, 2)"
    res = verify_certificate(format_certificate(cert))
    assert not res.ok and res.reason == want
    dense = replace(cert, x_tower=EntourageChain(X.levels()), y_tower=EntourageChain(Y.levels()))
    assert verify_certificate(dense).reason == want


def test_cumulative_products_helper():
    assert cumulative_products([2, 3]) == (1, 2, 6)
    assert cumulative_products([]) == (1,)


def test_equivalence_implies_subspace_equivalence_and_invariants():
    # desk walk through the classification chain on small instances:
    # a certificate yields coarse bijections with large subspaces on both
    # sides, and the covering invariants share their endpoints
    from coarsekit.balleans import is_large, subspace
    from coarsekit.multimaps import equivalence_to_large_subsets

    cases = [
        (gen_product([2, 2]), gen_product([4, 1])),
        (gen_product([2, 2, 2]), gen_product([4, 2])),
        (gen_product([2, 3]), gen_product([6])),
    ]
    for x, y in cases:
        cert = build_equivalence(x, y)
        assert cert is not None
        w = equivalence_to_large_subsets(cert.multimap())
        assert w.report.passed
        assert is_large(y, w.large_y) is not None
        assert is_large(x, w.large_x) is not None
        # restricting the certificate map onto the large target subset gives
        # an equivalence of X with a subspace of Y
        sub_y = subspace(y, w.large_y)
        iy = {p: i for i, p in enumerate(w.large_y)}
        restricted = MultiMap(
            x, sub_y, ((a, iy[b]) for a, b in cert.pairs if b in iy)
        )
        rep = check_equivalence(restricted)
        assert rep.passed
        ix, iy_ = covering_invariants(x), covering_invariants(y)
        assert ix.cumulative[-1] == iy_.cumulative[-1]
