"""Reference checks for coarsekit outputs, written from the definitions.

This module imports nothing from coarsekit, so it can judge the outputs of
``coarsekit.multimaps`` and ``coarsekit.classify`` without sharing their
code.  A tower is given by its label rows: ``rows[i][x]`` names the
level-i class of point x, row 0 separates all points and the last row is
a single class.  A relation is a collection of (source, target) pairs.

Shift bookkeeping follows the ``coarsekit.multimaps`` docstring: the
constant family sends source level a to min(a + s, k_target); the top
source level is exempt unless it is also level 0, so the constrained
source levels are 0 .. max(k_source, 1) - 1.
"""

from __future__ import annotations

from itertools import combinations


def depth(rows) -> int:
    """Index of the top level."""
    return len(rows) - 1


def level_dist(rows, x: int, y: int) -> int:
    """The least level whose class holds both points."""
    for i, row in enumerate(rows):
        if row[x] == row[y]:
            return i
    raise ValueError("the top row does not join all points")


def diameter(rows, points) -> int:
    """The least level on which all the given points share one class; in
    the level ultrametric this is the largest pairwise distance."""
    points = list(points)
    if not points:
        raise ValueError("the diameter of an empty set is undefined")
    for i, row in enumerate(rows):
        first = row[points[0]]
        if all(row[p] == first for p in points):
            return i
    raise ValueError("the top row does not join all points")


def _least_constant_shift(src_rows, dst_rows, images) -> int:
    # the oscillation at source level a is the union of the images of each
    # level-a class, squared; it fits in target level j exactly when every
    # such union has diameter <= j
    worst = 0
    for a in range(max(depth(src_rows), 1)):
        unions: dict = {}
        for x, c in enumerate(src_rows[a]):
            unions.setdefault(c, set()).update(images[x])
        need = max(diameter(dst_rows, ys) for ys in unions.values())
        worst = max(worst, need - a)
    return worst


def relation_report(src_rows, dst_rows, pairs):
    """(total, surjective, s, t) for a relation between two towers: s and t
    are the least constant forward and backward shifts, or None when the
    relation is not total and surjective."""
    n, m = len(src_rows[0]), len(dst_rows[0])
    fwd = [set() for _ in range(n)]
    bwd = [set() for _ in range(m)]
    for x, y in pairs:
        if not (0 <= x < n and 0 <= y < m):
            raise ValueError(f"pair ({x}, {y}) out of range")
        fwd[x].add(y)
        bwd[y].add(x)
    total = all(fwd)
    surjective = all(bwd)
    if not (total and surjective):
        return total, surjective, None, None
    s = _least_constant_shift(src_rows, dst_rows, fwd)
    t = _least_constant_shift(dst_rows, src_rows, bwd)
    return total, surjective, s, t


def is_bijection(pairs, n: int, m: int) -> bool:
    pairs = set(pairs)
    return (
        n == m
        and len(pairs) == n
        and {x for x, _ in pairs} == set(range(n))
        and {y for _, y in pairs} == set(range(m))
    )


def canonical_form(rows, levels: int) -> str:
    """Aho-Hopcroft-Ullman encoding of the class tree cut to levels
    0 .. levels-1 under a single root; two towers cut at the same depth
    have equal forms exactly when a bijection matches their classes."""
    n = len(rows[0])
    codes = {x: "()" for x in range(n)}  # level-0 classes, keyed by point
    keys = list(range(n))                # the level-0 class of each point
    for i in range(1, levels):
        kids: dict = {}
        for x in range(n):
            kids.setdefault(rows[i][x], {})[keys[x]] = codes[keys[x]]
        codes = {c: "(" + "".join(sorted(v.values())) + ")" for c, v in kids.items()}
        keys = [rows[i][x] for x in range(n)]
    return "(" + "".join(sorted(codes[c] for c in set(keys))) + ")"


def shift0_equivalent(x_rows, y_rows) -> bool:
    """Whether a coarse equivalence with both shifts 0 exists.

    At shift 0 the bottom level forces a bijection that must respect
    every level below the shallower top; the levels from there up are
    exempt on both sides, so both class trees are cut at that depth."""
    if len(x_rows[0]) != len(y_rows[0]):
        return False
    cut = min(depth(x_rows), depth(y_rows))
    return canonical_form(x_rows, cut) == canonical_form(y_rows, cut)


def branching(rows):
    """Per level a, the sorted set of counts of level-a classes inside a
    level-(a+1) class: the spectrum's distinct values."""
    out = []
    for a in range(depth(rows)):
        kids: dict = {}
        for x in range(len(rows[0])):
            kids.setdefault(rows[a + 1][x], set()).add(rows[a][x])
        out.append(sorted({len(v) for v in kids.values()}))
    return out


def spectrum_bounds(rows):
    """(lo, hi): per-level least and largest branching counts."""
    counts = branching(rows)
    return tuple(c[0] for c in counts), tuple(c[-1] for c in counts)


def is_uniform(rows) -> bool:
    return all(len(c) == 1 for c in branching(rows))


def uniform_regroupings(rows, max_width: int):
    """Every boundary tuple 0 = b0 < ... < bm = k with all block widths at
    most max_width whose regrouped tower is uniform, by brute force."""
    k = depth(rows)
    if k == 0:
        return [(0,)]
    found = []
    interior = range(1, k)
    for size in range(k):
        for inner in combinations(interior, size):
            bounds = (0, *inner, k)
            if any(b - a > max_width for a, b in zip(bounds, bounds[1:])):
                continue
            if is_uniform([rows[b] for b in bounds]):
                found.append(bounds)
    return found


def spectrally_homogeneous(rows, shift: int) -> bool:
    """Some regrouping with blocks of width at most shift + 1 is uniform."""
    return bool(uniform_regroupings(rows, shift + 1))
