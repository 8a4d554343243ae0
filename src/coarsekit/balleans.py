"""Finite balleans as nested chains of entourages.

A chain on points 0..n-1 is a sequence of reflexive symmetric relations
eps_0 <= eps_1 <= ... <= eps_k with eps_0 the diagonal and eps_k the full
relation; the index of a level plays the role of a radius.  When every
level is an equivalence relation the chain is cellular and is stored as a
Tower: a sequence of partitions, each coarsening the previous, running from
singletons up to a single block.

All values are immutable after construction and every operation here is
pure, so concurrent use needs no coordination.  The `ballean v1` format is
read on the line grammar of textio, and a file needing more than
BALLEAN_ENTRY_LIMIT entries is refused at its `points` line.
"""

from __future__ import annotations

import itertools
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .textio import FormatError, Lines, is_natural

#: general chains larger than this get a greedy upper bound from cov()
#: instead of the exact branch-and-bound set cover
EXACT_COVER_LIMIT = 24

#: the most entries a ballean may need: n * (k + 1) label entries for a
#: tower read or generated as labels, n * n * (k + 1) matrix cells once a
#: level is a relation matrix.  parse_ballean, gen_product and gen_interval
#: refuse more before allocating.  `coarsekit inspect` on the largest
#: accepted files peaks at 270 MB RSS (2**21 points, 1 level) and 266 MB
#: (2048 points, 2047 levels) on a 2-CPU x86 VM with Python 3.11;
#: `coarsekit homogeneous` peaks at 270 MB on the first, and at
#: `--max-shift 0` at 71 MB on cube 2**16 and 120 MB on cube 2**17.
BALLEAN_ENTRY_LIMIT = 1 << 22


def _relprod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The relational product of two boolean matrices: (x, z) holds when
    a[x, y] and b[y, z] for some y.  It runs as one float32 BLAS product,
    converting a level squared with itself once, and is exact at any n:
    every term is 0 or 1, and a float sum of non-negative terms is at least
    its largest term, so an entry is positive exactly when some term is 1."""
    fa = a.astype(np.float32)
    return (fa @ (fa if b is a else b.astype(np.float32))) > 0


def _as_bool_matrix(m, n):
    a = np.asarray(m, dtype=bool)
    if a.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} relation, got shape {a.shape}")
    return a


class EntourageChain:
    """A finite ballean: point count plus the nested levels as boolean
    relation matrices.  The constructor only checks shapes; semantic
    invariants are the business of validate()."""

    def __init__(self, levels: Sequence):
        levels = list(levels)
        if not levels:
            raise ValueError("a chain needs at least one level")
        n = np.asarray(levels[0], dtype=bool).shape[0]
        self.n = int(n)
        self._levels = tuple(_as_bool_matrix(m, self.n) for m in levels)
        for m in self._levels:
            m.setflags(write=False)

    @property
    def k(self) -> int:
        """Index of the top level."""
        return len(self._levels) - 1

    @property
    def num_levels(self) -> int:
        return len(self._levels)

    def level(self, i: int) -> np.ndarray:
        if not 0 <= i <= self.k:
            raise IndexError(f"level {i} out of range 0..{self.k}")
        return self._levels[i]

    def levels(self):
        return self._levels

    def __eq__(self, other):
        if not isinstance(other, EntourageChain):
            return NotImplemented
        return (
            self.n == other.n
            and self.num_levels == other.num_levels
            and all(np.array_equal(a, b) for a, b in zip(self.levels(), other.levels()))
        )

    def __repr__(self):
        return f"<EntourageChain n={self.n} levels=0..{self.k}>"


class Tower(EntourageChain):
    """A cellular chain stored as a partition chain and its class tree.

    labels[i][x] is the id of the level-i class containing x, with ids
    numbered by first occurrence.  Level 0 is the singleton partition and
    the top level is one block; consecutive levels may coincide.  The class
    tree links them: parents[i][c], for i < k, is the level-(i+1) class
    holding the level-i class c.
    """

    def __init__(self, labels: Sequence[Sequence[int]]):
        labels = tuple(_canonical_labels(row) for row in labels)
        if not labels:
            raise ValueError("a tower needs at least one level")
        n = len(labels[0])
        if n < 1:
            raise ValueError("a tower needs at least one point")
        if any(len(row) != n for row in labels):
            raise ValueError("all levels must label the same points")
        # canonical ids rise by one at each new class, so only n singletons
        # reach id n - 1, and only one block leaves every id 0
        if labels[0][-1] != n - 1:
            raise ValueError("level 0 must be the singleton partition")
        if any(labels[-1]):
            raise ValueError("the top level must be a single block")
        # one pass per level pair: the coarse class of every fine class both
        # checks the nesting and, counted per coarse class, gives the spectrum
        parents, lo, hi = [], [], []
        for i in range(len(labels) - 1):
            parent = [None] * (max(labels[i]) + 1)
            x = _split_point(labels[i], labels[i + 1], parent)
            if x is not None:
                raise NestingError(i, x)
            held = [0] * (max(labels[i + 1]) + 1)
            for p in parent:
                held[p] += 1
            lo.append(min(held))
            hi.append(max(held))
            parents.append(array("i", parent))
        self.n = n
        self.labels = labels
        self.parents = tuple(parents)
        self._spectrum = Spectrum(tuple(lo), tuple(hi), lo == hi)
        self._numbering_cache: dict = {}
        self._regroup_cache: dict = {}
        self._hash = hash(labels)

    @staticmethod
    def from_partitions(n: int, partitions: Sequence[Iterable[Iterable[int]]]) -> "Tower":
        """Build from the intermediate partitions only; singletons and the
        one-block top are appended automatically."""
        labels = [list(range(n))]
        for cells in partitions:
            row = [-1] * n
            for ci, cell in enumerate(cells):
                for x in cell:
                    if not 0 <= x < n:
                        raise ValueError(f"point {x} out of range")
                    if row[x] != -1:
                        raise ValueError(f"point {x} listed twice")
                    row[x] = ci
            if -1 in row:
                raise ValueError(f"point {row.index(-1)} missing from a partition")
            labels.append(row)
        labels.append([0] * n)
        if n == 1 and len(labels) == 2 and not partitions:
            labels = [[0]]
        return Tower(labels)

    @property
    def k(self) -> int:
        return len(self.labels) - 1

    @property
    def num_levels(self) -> int:
        return len(self.labels)

    def level(self, i: int) -> np.ndarray:
        if not 0 <= i <= self.k:
            raise IndexError(f"level {i} out of range 0..{self.k}")
        row = np.asarray(self.labels[i])
        m = row[:, None] == row[None, :]
        m.setflags(write=False)
        return m

    def levels(self):
        return tuple(self.level(i) for i in range(self.num_levels))

    def classes(self, i: int):
        """The level-i classes as tuples of points, ordered by minimum: the
        canonical ids number them so."""
        row = self.labels[i]
        cells = [[] for _ in range(max(row) + 1)]
        for x, c in enumerate(row):
            cells[c].append(x)
        return tuple(map(tuple, cells))

    def dist(self, x: int, y: int) -> int:
        """The level ultrametric: the least level at which the labels of x
        and y agree, found by bisection since agreement persists upwards."""
        labels = self.labels
        lo, hi = 0, len(labels) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            row = labels[mid]
            if row[x] == row[y]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def dist_matrix(self) -> np.ndarray:
        """level_dist for all pairs at once, in the smallest unsigned dtype:
        the distance of two points counts the proper levels separating them.
        A reference for tests; no tower algorithm builds it."""
        d = np.zeros((self.n, self.n), dtype=np.min_scalar_type(self.k))
        for row in self.labels[:-1]:
            r = np.asarray(row)
            d += r[:, None] != r[None, :]
        return d

    def __eq__(self, other):
        if isinstance(other, Tower):
            return self.labels == other.labels
        return super().__eq__(other)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"<Tower n={self.n} levels=0..{self.k}>"


class NestingError(ValueError):
    """A tower's label row at `level` does not refine the next one."""

    def __init__(self, level: int, x: int):
        super().__init__(f"level {level} does not refine level {level + 1} (class split at point {x})")
        self.level = level


def _split_point(fine, coarse, parent: list) -> Optional[int]:
    """The first point whose class in the label row fine is split by the
    label row coarse; None when fine refines coarse, and then parent[c] is
    the coarse class holding the fine class c.  parent comes as a list of
    None with an entry for every id of fine, in use or not."""
    for x, (a, b) in enumerate(zip(fine, coarse)):
        p = parent[a]
        if p is None:
            parent[a] = b
        elif p != b:
            return x
    return None


def _distinct_levels(rows) -> Tower:
    """The tower on canonical label rows, consecutive repeats dropped."""
    return Tower([row for i, row in enumerate(rows) if i == 0 or row != rows[i - 1]])


def _canonical_labels(row) -> tuple:
    """Renumber class ids by first occurrence."""
    return tuple(map(defaultdict(itertools.count().__next__).__getitem__, row))


# --- constructions -----------------------------------------------------------

def gen_product(sizes: Sequence[int]) -> Tower:
    """The finite asymptotic product: points are tuples in prod(sizes) and
    level j glues tuples agreeing on all coordinates >= j.  The branching
    spectrum equals ``sizes``; all sizes 2 gives the finite macro-cube."""
    sizes = [int(s) for s in sizes]
    if any(s < 1 for s in sizes):
        raise ValueError("all factor sizes must be positive")
    k = len(sizes)
    n = 1
    for s in sizes:
        n *= s
        if n * (k + 1) > BALLEAN_ENTRY_LIMIT:
            raise ValueError(f"the product exceeds the limit of {BALLEAN_ENTRY_LIMIT} label entries")
    labels = []
    stride = 1
    for j in range(k + 1):
        labels.append([p // stride for p in range(n)])
        if j < k:
            stride *= sizes[j]
    return Tower(labels)


def product_point_tuple(sizes: Sequence[int], p: int) -> tuple:
    """Decode a gen_product point index into its coordinate tuple
    (coordinate 0 varies fastest)."""
    out = []
    for s in sizes:
        out.append(p % s)
        p //= s
    return tuple(out)


def product_point_index(sizes: Sequence[int], coords: Sequence[int]) -> int:
    p = 0
    stride = 1
    for s, c in zip(sizes, coords):
        if not 0 <= c < s:
            raise ValueError(f"coordinate {c} out of range for factor {s}")
        p += c * stride
        stride *= s
    return p


def gen_interval(n: int, radii: Sequence[int]) -> EntourageChain:
    """The integer interval 0..n-1 with levels |x - y| <= r for each radius,
    the diagonal prepended.  Radii must strictly increase and the last must
    reach n - 1 so the top level is the full relation."""
    if n < 1:
        raise ValueError("need at least one point")
    radii = [int(r) for r in radii]
    if any(r < 1 for r in radii):
        raise ValueError("radii must be positive")
    if any(a >= b for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must strictly increase")
    if not radii or radii[-1] < n - 1:
        raise ValueError(f"last radius must be at least n - 1 = {n - 1}")
    if n * n * (len(radii) + 1) > BALLEAN_ENTRY_LIMIT:
        raise ValueError(f"the interval exceeds the limit of {BALLEAN_ENTRY_LIMIT} matrix entries")
    idx = np.arange(n)
    gap = np.abs(idx[:, None] - idx[None, :])
    return EntourageChain([gap == 0] + [gap <= r for r in radii])


# --- validation --------------------------------------------------------------

@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    issues: tuple
    absorption: tuple

    def __str__(self):
        if self.valid:
            ab = " ".join(f"j({i})={j}" for i, j in enumerate(self.absorption))
            return f"valid ({ab})" if ab else "valid"
        return "invalid: " + "; ".join(self.issues)


def validate(chain: EntourageChain) -> ValidationReport:
    """Check every chain invariant, reporting violations with witnesses, and
    record for each level the least level absorbing its self-composition.

    A Tower is valid by construction (its constructor enforces the chain
    invariants) and each of its levels, an equivalence relation, absorbs
    its own square, so no matrix is built for it."""
    if isinstance(chain, Tower):
        return ValidationReport(True, (), tuple(range(chain.num_levels)))
    issues = []
    n = chain.n
    diag = np.eye(n, dtype=bool)
    for i, m in enumerate(chain.levels()):
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
    for i, m in enumerate(chain.levels()):
        sq = _relprod(m, m)
        j = next(
            (j for j in range(i, chain.num_levels) if not (sq & ~chain.level(j)).any()),
            None,
        )
        if j is None:
            x, y = np.argwhere(sq & ~chain.level(chain.k))[0]
            issues.append(f"level {i}: self-composition absorbed by no level: pair ({x}, {y})")
        absorption.append(j)
    return ValidationReport(not issues, tuple(issues), tuple(absorption))


# --- basic operations --------------------------------------------------------

def ball(chain: EntourageChain, x: int, alpha: int) -> frozenset:
    """The set of points within the level-alpha entourage of x; for a tower
    this is the level-alpha class of x."""
    if not 0 <= x < chain.n:
        raise IndexError(f"point {x} out of range 0..{chain.n - 1}")
    if isinstance(chain, Tower):
        if not 0 <= alpha <= chain.k:
            raise IndexError(f"level {alpha} out of range 0..{chain.k}")
        c = chain.labels[alpha][x]
        return frozenset(p for p in range(chain.n) if chain.labels[alpha][p] == c)
    return frozenset(np.flatnonzero(chain.level(alpha)[x]).tolist())


class CovResult(int):
    """A covering number; ``exact`` is False when only the greedy upper
    bound was computed (large non-cellular chains)."""

    exact: bool

    def __new__(cls, value: int, exact: bool = True):
        self = super().__new__(cls, value)
        self.exact = exact
        return self


def cov(chain: EntourageChain, A: Iterable[int], alpha: int) -> CovResult:
    """Least number of level-alpha balls (centers anywhere) covering A.

    Exact for towers (count of classes meeting A) and for general chains
    with at most EXACT_COVER_LIMIT points; beyond that the greedy bound is
    returned with exact=False.
    """
    A = sorted(set(int(a) for a in A))
    if not A:
        raise ValueError("cov of the empty set is undefined")
    if any(not 0 <= a < chain.n for a in A):
        raise IndexError("point out of range")
    if isinstance(chain, Tower):
        if not 0 <= alpha <= chain.k:
            raise IndexError(f"level {alpha} out of range 0..{chain.k}")
        return CovResult(len({chain.labels[alpha][a] for a in A}))
    m = chain.level(alpha)
    pos = {a: i for i, a in enumerate(A)}
    target = (1 << len(A)) - 1
    balls = set()
    for x in range(chain.n):
        mask = 0
        for a in A:
            if m[x, a]:
                mask |= 1 << pos[a]
        if mask:
            balls.add(mask)
    balls = sorted(balls, key=lambda b: -bin(b).count("1"))
    # greedy pass for an upper bound
    covered, greedy = 0, 0
    while covered != target:
        best = max(balls, key=lambda b: bin(b & ~covered).count("1"))
        gain = bin(best & ~covered).count("1")
        if gain == 0:
            raise ValueError("set not coverable at this level (invalid chain)")
        covered |= best
        greedy += 1
    if chain.n > EXACT_COVER_LIMIT:
        return CovResult(greedy, exact=False)
    best_count = greedy

    per_point = [[b for b in balls if b >> i & 1] for i in range(len(A))]

    def dfs(covered: int, used: int):
        nonlocal best_count
        if covered == target:
            best_count = min(best_count, used)
            return
        if used + 1 >= best_count:
            return
        i = min(
            (i for i in range(len(A)) if not covered >> i & 1),
            key=lambda i: len(per_point[i]),
        )
        for b in per_point[i]:
            dfs(covered | b, used + 1)

    dfs(0, 0)
    return CovResult(best_count)


def level_dist(tower: Tower, x: int, y: int) -> int:
    """The least level whose class contains both points; an ultrametric."""
    if not isinstance(tower, Tower):
        raise TypeError("level_dist needs a cellular tower")
    if not (0 <= x < tower.n and 0 <= y < tower.n):
        raise IndexError("point out of range")
    return tower.dist(x, y)


@dataclass(frozen=True)
class Spectrum:
    """Per-level branching counts of a tower: lo[alpha] and hi[alpha] are
    the least and the most level-alpha classes inside one level-(alpha+1)
    class, and uniform says they agree at every level."""

    lo: tuple
    hi: tuple
    uniform: bool


def spectrum(tower: Tower) -> Spectrum:
    """The tower's branching counts, counted by its constructor in the same
    pass over each pair of consecutive levels that checks their nesting."""
    if not isinstance(tower, Tower):
        raise TypeError("spectrum needs a cellular tower")
    return tower._spectrum


# --- cellularity -------------------------------------------------------------

def is_cellular(chain: EntourageChain) -> bool:
    """True iff every level is transitive (an equivalence relation), read
    off validate, which squares each level once through one BLAS product: a
    level absorbs its own square exactly when it is transitive, on any
    chain, valid or not."""
    return validate(chain).absorption == tuple(range(chain.num_levels))


def _components_labels(m: np.ndarray) -> list:
    """Each point labelled by the least point of its component."""
    labels = [-1] * m.shape[0]
    for s in range(len(labels)):
        if labels[s] == -1:
            labels[s], stack = s, [s]
            while stack:
                for y in np.flatnonzero(m[stack.pop()]).tolist():
                    if labels[y] == -1:
                        labels[y] = s
                        stack.append(y)
    return labels


def cellular_hull(chain: EntourageChain) -> Tower:
    """Replace each level by its transitive closure and renormalize the
    chain (consecutive duplicate levels collapse)."""
    if isinstance(chain, Tower):
        return normalize(chain)
    return _distinct_levels([_components_labels(chain.level(i)) for i in range(chain.num_levels)])


def normalize(chain: EntourageChain) -> EntourageChain:
    """Drop consecutive duplicate levels; towers stay towers."""
    if isinstance(chain, Tower):
        return _distinct_levels(chain.labels)
    kept = [chain.level(0)]
    for i in range(1, chain.num_levels):
        if not np.array_equal(chain.level(i), kept[-1]):
            kept.append(chain.level(i))
    return EntourageChain(kept)


def subspace(chain: EntourageChain, A: Iterable[int]) -> EntourageChain:
    """The induced chain on A (each level restricted to A x A), points
    renumbered in increasing order, then normalized."""
    A = sorted(set(int(a) for a in A))
    if not A:
        raise ValueError("subspace of the empty set is undefined")
    if any(not 0 <= a < chain.n for a in A):
        raise IndexError("point out of range")
    if isinstance(chain, Tower):
        return _distinct_levels([_canonical_labels([row[a] for a in A]) for row in chain.labels])
    sel = np.ix_(A, A)
    return normalize(EntourageChain([chain.level(i)[sel] for i in range(chain.num_levels)]))


def is_large(chain: EntourageChain, L: Iterable[int]) -> Optional[int]:
    """The least level alpha with B(L, eps_alpha) = X, or None.  In a tower
    that is the least level whose every class meets L."""
    L = sorted(set(int(x) for x in L))
    if not L:
        raise ValueError("largeness of the empty set is undefined")
    if any(not 0 <= x < chain.n for x in L):
        raise IndexError("point out of range")
    if isinstance(chain, Tower):
        # canonical labels number the classes 0..max(row)
        return next(a for a, row in enumerate(chain.labels) if len({row[x] for x in L}) > max(row))
    for alpha in range(chain.num_levels):
        if chain.level(alpha)[L].any(axis=0).all():
            return alpha
    return None


# --- text format -------------------------------------------------------------
#
# ballean v1
# points 8
# levels 3
# level 1 cells: 0 1 | 2 3 | 4 5 | 6 7
# level 2 cells: 0 1 2 3 | 4 5 6 7
#
# Level 0 (singletons) and level K (one cell / full) are implicit.  General
# chains list the off-diagonal pairs of each level instead:
# level 1 pairs: (0,1) (2,5)
# '#' starts a comment.


def format_ballean(chain: EntourageChain) -> str:
    lines = ["ballean v1", f"points {chain.n}", f"levels {chain.k}"]
    if isinstance(chain, Tower):
        for i in range(1, chain.k):
            cells = " | ".join(" ".join(str(p) for p in cell) for cell in chain.classes(i))
            lines.append(f"level {i} cells: {cells}")
    else:
        for i in range(1, chain.k):
            pairs = np.argwhere(np.triu(chain.level(i), 1)).tolist()
            body = " ".join(f"({x},{y})" for x, y in pairs)
            lines.append(f"level {i} pairs: {body}".rstrip())
    return "\n".join(lines) + "\n"


def _parse_cells(body: str, n: int, lineno: int) -> list:
    """A `cells:` body as a label row (cell index per point)."""
    row = [-1] * n
    for ci, cell_text in enumerate(body.split("|")):
        for tok in cell_text.split():
            if not is_natural(tok):
                raise FormatError(f"bad point {tok!r}", lineno)
            p = int(tok)
            if not 0 <= p < n:
                raise FormatError(f"point {p} out of range 0..{n - 1}", lineno)
            if row[p] != -1:
                raise FormatError(f"point {p} listed twice", lineno)
            row[p] = ci
    if -1 in row:
        raise FormatError(f"point {row.index(-1)} missing", lineno)
    return row


def _parse_pairs(body: str, n: int, lineno: int) -> np.ndarray:
    """A `pairs:` body as a reflexive symmetric relation matrix."""
    m = np.eye(n, dtype=bool)
    for tok in body.split():
        if not (tok.startswith("(") and tok.endswith(")")):
            raise FormatError(f"bad pair {tok!r}", lineno)
        nums = [s.strip() for s in tok[1:-1].split(",")]
        if len(nums) != 2 or not all(is_natural(s) for s in nums):
            raise FormatError(f"bad pair {tok!r}", lineno)
        a, b = (int(s) for s in nums)
        if a == b:
            raise FormatError(f"diagonal pair {tok}", lineno)
        if not (0 <= a < n and 0 <= b < n):
            raise FormatError(f"pair {tok} out of range", lineno)
        m[a, b] = m[b, a] = True
    return m


def parse_ballean(text: str) -> EntourageChain:
    """Parse the ballean text format; returns a Tower when every level is
    an equivalence relation, a general EntourageChain otherwise."""
    return read_ballean(Lines(text))


def read_ballean(lines: Lines) -> EntourageChain:
    """Read a ballean block: the cursor's lines to the end of its range.

    A file whose levels are all `cells:` becomes label rows directly; the
    n x n relation matrices are built only when some level lists pairs.
    Such a level, reflexive and symmetric, is transitive exactly when each
    row x equals the row of its least member r(x), and r labels its classes:
    O(n^2) a level, no squaring.  (For y in row x = row r(x): symmetry puts
    r(x) in row y = row r(y), then r(y) in row r(x), so r(y) = r(x).)"""
    top_line = lines.header("ballean v1")
    points_line, n = lines.key("points")
    levels_line, k = lines.key("levels")
    if n < 1:
        raise FormatError("points must be at least 1", points_line)
    if k == 0 and n != 1:
        raise FormatError("levels 0 requires points 1", levels_line)
    seen: dict = {}
    while lines.more():
        lineno, rest = lines.prefixed("level ", "expected a 'level i cells:'/'level i pairs:' line")
        parts = rest.split(None, 1)
        if len(parts) != 2 or not is_natural(parts[0]):
            raise FormatError("expected 'level i cells:' or 'level i pairs:'", lineno)
        i = int(parts[0])
        if not 1 <= i <= k - 1:
            raise FormatError(f"level index {i} out of range 1..{k - 1}", lineno)
        if i in seen:
            raise FormatError(f"duplicate level {i}", lineno)
        kind, _, body = parts[1].partition(":")
        kind = kind.strip()
        if kind not in ("cells", "pairs"):
            raise FormatError("level body must be 'cells:' or 'pairs:'", lineno)
        seen[i] = (lineno, kind, body.strip())
    for i in range(1, k):
        if i not in seen:
            raise FormatError(f"missing level {i}", lines.here)
    dense = any(kind == "pairs" for _, kind, _ in seen.values())
    if n * (n if dense else 1) * (k + 1) > BALLEAN_ENTRY_LIMIT:
        raise FormatError(
            f"points and levels exceed the limit of {BALLEAN_ENTRY_LIMIT} "
            + ("matrix entries" if dense else "label entries"),
            points_line,
        )

    # level i + 1's line is blamed when level i is not contained in it; the
    # top level is implicit, so the header line stands for it
    level_line = [seen[i][0] for i in range(1, k)] + [top_line]
    middle = [
        (_parse_cells if kind == "cells" else _parse_pairs)(body, n, lineno)
        for lineno, kind, body in (seen[i] for i in range(1, k))
    ]
    if not dense:
        try:
            return Tower([range(n), *middle] + ([[0] * n] if k >= 1 else []))
        except NestingError as e:
            i = e.level
            raise FormatError(f"level {i} is not contained in level {i + 1}", level_line[i])

    mats = [np.eye(n, dtype=bool)]
    for level in middle:
        if isinstance(level, list):
            row = np.asarray(level)
            level = row[:, None] == row[None, :]
        mats.append(level)
    mats.append(np.ones((n, n), dtype=bool))
    for i in range(len(mats) - 1):
        if (mats[i] & ~mats[i + 1]).any():
            raise FormatError(f"level {i} is not contained in level {i + 1}", level_line[i])
    least = [m.argmax(axis=1) for m in mats]
    if all(np.array_equal(m[r], m) for m, r in zip(mats, least)):
        return Tower([r.tolist() for r in least])
    return EntourageChain(mats)
