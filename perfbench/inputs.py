"""Seeded inputs: towers as label rows, their text form, and CNF ordinals.

Everything here is plain Python and imports nothing from coarsekit, so the
program under test only ever sees the rows and the text made here.
"""

from __future__ import annotations

import functools
import random


def product_rows(sizes):
    """Label rows of the product tower over ``sizes``, numbered as
    coarsekit.gen_product numbers its points: level j joins the points
    that agree on every coordinate from j up, coordinate 0 fastest."""
    n = 1
    for s in sizes:
        n *= s
    rows = []
    stride = 1
    for j in range(len(sizes) + 1):
        rows.append([p // stride for p in range(n)])
        if j < len(sizes):
            stride *= sizes[j]
    return rows


def insert_uneven_level(rows, below: int, factor: int, rng: random.Random):
    """Insert a level between ``below`` and ``below + 1`` that splits half
    of the level-(below+1) classes into groups of ``factor`` children and
    leaves the other half whole.  The result is non-uniform, and merging
    the new level back into its neighbours makes it uniform again."""
    n = len(rows[0])
    upper = rows[below + 1]
    kids: dict = {}
    for x in range(n):
        kids.setdefault(upper[x], []).append(rows[below][x])
    parents = sorted(kids)
    if len(parents) < 2:
        raise ValueError("an uneven level needs at least two classes above it")
    split = set(rng.sample(parents, len(parents) // 2))
    group = {}
    for p in parents:
        children = sorted(set(kids[p]))
        if len(children) % factor or len(children) == factor:
            raise ValueError("the split must leave at least two groups per class")
        for i, c in enumerate(children):
            group[c] = (p, i // factor) if p in split else (p, 0)
    ids: dict = {}
    new_row = [ids.setdefault(group[rows[below][x]], len(ids)) for x in range(n)]
    return rows[: below + 1] + [new_row] + rows[below + 1:]


def tower_rows(factors, uneven, rng: random.Random):
    """A product tower, with an uneven level (below, group size) inserted
    when ``uneven`` is not None."""
    rows = product_rows(factors)
    if uneven is not None:
        rows = insert_uneven_level(rows, uneven[0], uneven[1], rng)
    return rows


def relabel(rows, rng: random.Random):
    """Move every point to a seeded new index (a uniform permutation)."""
    n = len(rows[0])
    perm = list(range(n))
    rng.shuffle(perm)
    out = []
    for row in rows:
        new = [0] * n
        for x, p in enumerate(perm):
            new[p] = row[x]
        out.append(new)
    return out


def rows_key(rows) -> tuple:
    """A key equal for two label-row lists exactly when they describe the
    same partitions (class ids renumbered by first occurrence)."""
    out = []
    for row in rows:
        seen: dict = {}
        out.append(tuple(seen.setdefault(v, len(seen)) for v in row))
    return tuple(out)


def tower_text(rows) -> str:
    """The ``ballean v1`` text of a tower: interior levels as cells."""
    n, k = len(rows[0]), len(rows) - 1
    lines = ["ballean v1", f"points {n}", f"levels {k}"]
    for i in range(1, k):
        cells: dict = {}
        for x in range(n):
            cells.setdefault(rows[i][x], []).append(x)
        body = " | ".join(" ".join(map(str, c)) for c in sorted(cells.values()))
        lines.append(f"level {i} cells: {body}")
    return "\n".join(lines) + "\n"


# --- ordinals -----------------------------------------------------------------
#
# An ordinal below epsilon_0 is modelled as a tuple of (exponent, coefficient)
# terms with strictly decreasing exponents; 0 is the empty tuple.

ZERO = ()
ONE = ((ZERO, 1),)


def ord_cmp(a, b) -> int:
    for (ea, ca), (eb, cb) in zip(a, b):
        c = ord_cmp(ea, eb)
        if c:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    return (len(a) > len(b)) - (len(a) < len(b))


def natural(n: int):
    return ((ZERO, n),) if n else ZERO


def is_finite(a) -> bool:
    return not a or (len(a) == 1 and a[0][0] == ZERO)


def random_ordinal(rng: random.Random, depth: int):
    """A non-zero ordinal whose exponents nest at most ``depth`` deep."""
    if depth == 0:
        return natural(rng.randint(1, 9))
    exps: list = []
    count = rng.randint(1, 3)
    while len(exps) < count:
        e = random_ordinal(rng, depth - 1) if rng.random() < 0.7 else ZERO
        if all(ord_cmp(e, f) for f in exps):
            exps.append(e)
    exps.sort(key=functools.cmp_to_key(ord_cmp), reverse=True)
    return tuple((e, rng.randint(1, 9)) for e in exps)


def omega_power(rng: random.Random, depth: int):
    """w^d for a seeded non-zero d nested below ``depth``."""
    return ((random_ordinal(rng, depth - 1), 1),)


def ordinal_text(a) -> str:
    """Canonical text in coarsekit's grammar: w for omega, terms by
    decreasing exponent, coefficient 1 left out."""
    if not a:
        return "0"
    parts = []
    for e, c in a:
        if not e:
            parts.append(str(c))
            continue
        if e == ONE:
            base = "w"
        elif is_finite(e):
            base = f"w^{e[0][1]}"
        else:
            base = f"w^({ordinal_text(e)})"
        parts.append(base if c == 1 else f"{base}*{c}")
    return " + ".join(parts)
