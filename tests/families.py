"""Exhaustive and random tower families for the acceptance suite.

All partitions are handled as canonical label rows (class ids by first
occurrence), which is exactly the Tower representation.
"""

import itertools
from functools import lru_cache

from coarsekit.balleans import Tower


@lru_cache(maxsize=None)
def all_partitions(n):
    """Every partition of 0..n-1 as a restricted-growth label row."""
    rows = []

    def rec(prefix, top):
        if len(prefix) == n:
            rows.append(tuple(prefix))
            return
        for v in range(top + 2):
            rec(prefix + [v], max(top, v))

    rec([], -1)
    return tuple(rows)


def refines(a, b):
    """Does partition row a refine partition row b?"""
    seen = {}
    for x in range(len(a)):
        if seen.setdefault(a[x], b[x]) != b[x]:
            return False
    return True


@lru_cache(maxsize=None)
def exhaustive_towers(max_n, max_intermediate=3):
    """All partition towers with at most max_n points and at most
    max_intermediate strictly-nested proper levels between the singleton
    bottom and the one-block top."""
    out = []
    for n in range(1, max_n + 1):
        if n == 1:
            out.append(Tower([[0]]))
            continue
        bottom = tuple(range(n))
        top = (0,) * n
        mids = [p for p in all_partitions(n) if p != bottom and p != top]
        coarser = {
            p: [q for q in mids if q != p and refines(p, q)] for p in mids
        }

        def chains(prefix):
            yield prefix
            if len(prefix) >= max_intermediate:
                return
            cands = mids if not prefix else coarser[prefix[-1]]
            for q in cands:
                yield from chains(prefix + [q])

        for chain in chains([]):
            out.append(Tower([bottom, *chain, top]))
    return tuple(out)


def balanced_groupings(atoms, size):
    """All partitions of the atom list into blocks of the given size."""
    if not atoms:
        yield []
        return
    first, rest = atoms[0], atoms[1:]
    for mates in itertools.combinations(rest, size - 1):
        taken = set(mates)
        remaining = [a for a in rest if a not in taken]
        block = (first, *mates)
        for more in balanced_groupings(remaining, size):
            yield [block] + more


def towers_for_spectrum(spec):
    """All labeled towers with the given uniform branching spectrum."""
    n = 1
    for v in spec:
        n *= v
    if not spec:
        yield Tower([[0]])
        return

    def rec(level_classes, todo):
        if not todo:
            yield []
            return
        size = todo[0]
        atoms = list(range(len(level_classes)))
        for grouping in balanced_groupings(atoms, size):
            new_classes = sorted(
                (tuple(sorted(p for a in block for p in level_classes[a])) for block in grouping),
                key=lambda cls: cls[0],
            )
            for more in rec(new_classes, todo[1:]):
                yield [new_classes] + more

    singletons = [(p,) for p in range(n)]
    for chain in rec(singletons, list(spec)):
        labels = [list(range(n))]
        for classes in chain:
            row = [0] * n
            for cid, members in enumerate(classes):
                for p in members:
                    row[p] = cid
            labels.append(row)
        yield Tower(labels)


@lru_cache(maxsize=None)
def uniform_spectra(max_n, max_k):
    """Every branching spectrum of length <= max_k with product <= max_n,
    the empty spectrum (one point, depth 0) included."""
    out = [()]
    def rec(prefix, prod):
        if prefix:
            out.append(tuple(prefix))
        if len(prefix) == max_k:
            return
        for v in range(1, max_n + 1):
            if prod * v <= max_n:
                rec(prefix + [v], prod * v)
    rec([], 1)
    return tuple(out)


@lru_cache(maxsize=None)
def uniform_towers(max_n, max_k):
    """All uniform towers with at most max_n points and top index at most
    max_k, grouped as (spectrum, tuple of towers)."""
    return tuple(
        (spec, tuple(towers_for_spectrum(spec)))
        for spec in uniform_spectra(max_n, max_k)
    )


def random_tower(rng, max_n, max_levels, allow_duplicates=True):
    """A random partition tower; occasionally repeats a level when
    duplicates are allowed (towers permit non-strict nesting)."""
    n = rng.randint(1, max_n)
    labels = [list(range(n))]
    k = rng.randint(1, max_levels) if n > 1 else rng.randint(0, 1)
    while len(labels) < k:
        prev = labels[-1]
        ids = sorted(set(prev))
        if allow_duplicates and rng.random() < 0.15:
            labels.append(list(prev))
            continue
        if len(ids) == 1:
            break
        groups = rng.randint(1, len(ids) - 1)
        merge = {c: rng.randrange(groups) for c in ids}
        labels.append([merge[c] for c in prev])
    if n > 1 or k >= 1:
        labels.append([0] * n)
    return Tower(labels)


@lru_cache(maxsize=None)
def deep_tower(n):
    """n points over n - 1 distinct levels: level i joins the last i + 1
    points, so point 0 joins only at the top."""
    return Tower([[min(x, n - 1 - i) for x in range(n)] for i in range(n)])


def ordered_factorizations(n):
    """Every way to write n as an ordered product of factors >= 2."""
    if n == 1:
        return [()]
    return [(f, *rest) for f in range(2, n + 1) if n % f == 0 for rest in ordered_factorizations(n // f)]


def factorization_pairs():
    """Every ordered pair of distinct ordered factorizations of one n, for
    n from 4 to 16."""
    return [
        (a, b) for n in range(4, 17) for a in ordered_factorizations(n)
        for b in ordered_factorizations(n) if a != b
    ]
