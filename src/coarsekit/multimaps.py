"""Multi-maps between finite balleans and the equivalence oracle.

A multi-map is any relation between the point sets of two chains.  Its
oscillation at a source level collects all pairs of image points sitting
over entourage-related sources; the map is coarse for a shift function when
every oscillation lands inside the prescribed target level.

Shift bookkeeping, fixed here once:

* a shift table assigns a target level to every source level 0..k and must
  be monotone;
* the constant-shift family sends level a to min(a + s, k_target), except
  that the top source level (when it is not also level 0) maps straight to
  the top target level.  In a finite chain the top entourage is the full
  relation, so its oscillation always fits in the target's top; charging
  the depth difference to the shift would make equally-shaped towers of
  different depth look inequivalent for bookkeeping reasons alone.  The
  bottom level is never exempt, which keeps 0-shift equivalences exactly
  the level-respecting bijections.

Between two towers, where the top exemption frees every level from
min(kX, kY) up, a 0-shift equivalence is an isomorphism of the class trees
cut there.  search_equivalence decides it from canonical codes of the cut
trees (Aho, Hopcroft and Ullman, 1974) in O(n*k), with no node budget and
no pair limit, and returns the search's own first witness.  At shift >= 1
or on chains that are not cellular it searches, exhaustively: if any
equivalence with constant shifts <= s exists, one exists of the form
graph(f) union graph(g)^-1 for single-valued selections f, g (a subset of
an equivalence keeps totality and surjectivity witnesses by construction
and only shrinks oscillations), and the backtracking enumerates exactly
those.  The search does not recheck its witness; callers that need it
checked run check_equivalence on it.  Its pair ids decode into range, so
the witness, like inverse(phi), is built by MultiMap._trusted, unchecked.

The search runs on a context of bitmasks over the pair ids x*m + y: for
each pair the set of pairs it may share a relation with.  Whether two
pairs fit depends only on their two levels, and the constant-shift tables
admit one interval of target levels for each source level a.  So the
context is built from ball bitmasks: for each target point y a fit mask
per source level a (the points y' whose level from y lies in a's
interval), and for each source point x its shells (the points at exactly
level a from x) spread at stride m.  A shell times a fit mask puts one
copy of the m-bit fit in the block of each point of the shell, with no
carries, and compat of (x, y) is the sum over a of these products.  The
shells are built for every point up front; a row is built the first time
the search reads it and kept in the context, so a context holds only the
rows its searches read: a required pair's and one per search node.  A
tower's balls come from its class tree, so no n*n or (n*m)^2 matrix is
built for towers.  Viability is tested bit-parallel on the blocks of m
pair ids: one carry test finds every source whose block has no allowed
pair, and one OR-fold of the blocks finds every target with none.  The
depth-first search keeps its frames on an explicit stack, n + m deep at
most.  The 4096-pair limit and the node budget (COARSEKIT_SEARCH_CAP)
bound this search only.  A context belongs to the call that builds it and
to the witnesses that call returns; none is kept from one call to the next.

Coarseness checks between two towers climb the source's class tree through
the target's level ultrametric and build no matrices; any other pair of chains
goes through the dense oscillation matrices, which stay the reference.
The `multimap v1` format is read on the line grammar of textio.
"""

from __future__ import annotations

import functools
import itertools
import os
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .balleans import EntourageChain, Tower, _relprod, is_large, subspace
from .textio import FormatError, Lines, is_natural

DEFAULT_SEARCH_CAP = 10_000_000
PAIR_UNIVERSE_LIMIT = 4096


class SearchCapExceeded(RuntimeError):
    """The oracle hit its node budget before deciding either way."""

    def __init__(self, cap: int, message: Optional[str] = None):
        super().__init__(message or f"equivalence search exceeded {cap} nodes")
        self.cap = cap


def search_cap() -> int:
    """The oracle's node budget: COARSEKIT_SEARCH_CAP if set, else the default."""
    raw = os.environ.get("COARSEKIT_SEARCH_CAP")
    if raw is None:
        return DEFAULT_SEARCH_CAP
    if not is_natural(raw):
        raise ValueError(f"COARSEKIT_SEARCH_CAP must be a non-negative integer, got {raw!r}")
    return int(raw)


class MultiMap:
    """A relation between the points of two chains."""

    def __init__(self, source: EntourageChain, target: EntourageChain, pairs: Iterable):
        self.source = source
        self.target = target
        pairs = frozenset((int(x), int(y)) for x, y in pairs)
        for x, y in pairs:
            if not 0 <= x < source.n:
                raise ValueError(f"source point {x} out of range")
            if not 0 <= y < target.n:
                raise ValueError(f"target point {y} out of range")
        self.pairs = pairs
        self._matrix = None

    @classmethod
    def _trusted(cls, source: EntourageChain, target: EntourageChain, pairs: frozenset):
        """A map over pairs already known to lie in range: no check."""
        phi = cls.__new__(cls)
        phi.source, phi.target, phi.pairs, phi._matrix = source, target, pairs, None
        return phi

    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            m = np.zeros((self.source.n, self.target.n), dtype=bool)
            for x, y in self.pairs:
                m[x, y] = True
            m.setflags(write=False)
            self._matrix = m
        return self._matrix

    def image(self, x: int) -> frozenset:
        return frozenset(y for (a, y) in self.pairs if a == x)

    def is_total(self) -> bool:
        return {x for x, _ in self.pairs} == set(range(self.source.n))

    def is_surjective(self) -> bool:
        return {y for _, y in self.pairs} == set(range(self.target.n))

    def __eq__(self, other):
        if not isinstance(other, MultiMap):
            return NotImplemented
        return (
            self.pairs == other.pairs
            and self.source == other.source
            and self.target == other.target
        )

    def __repr__(self):
        return f"<MultiMap {self.source.n}->{self.target.n} pairs={len(self.pairs)}>"


def identity_map(chain: EntourageChain) -> MultiMap:
    return MultiMap(chain, chain, ((x, x) for x in range(chain.n)))


def inverse(phi: MultiMap) -> MultiMap:
    return MultiMap._trusted(phi.target, phi.source, frozenset((y, x) for x, y in phi.pairs))


def compose(psi: MultiMap, phi: MultiMap) -> MultiMap:
    """Relational composition: first phi, then psi."""
    if phi.target != psi.source:
        raise ValueError("compose needs phi's target to equal psi's source")
    by_mid: dict = {}
    for y, z in psi.pairs:
        by_mid.setdefault(y, []).append(z)
    pairs = {(x, z) for x, y in phi.pairs for z in by_mid.get(y, ())}
    return MultiMap(phi.source, psi.target, pairs)


class ShiftFn:
    """A monotone table: source level index -> target level index."""

    def __init__(self, table: Iterable[int], target_k: int):
        self.table = tuple(int(v) for v in table)
        self.target_k = int(target_k)
        if not self.table:
            raise ValueError("shift table must cover level 0")
        for v in self.table:
            if not 0 <= v <= self.target_k:
                raise ValueError(f"shift value {v} outside target levels 0..{self.target_k}")
        if any(a > b for a, b in zip(self.table, self.table[1:])):
            raise ValueError("shift table must be monotone non-decreasing")

    @staticmethod
    def constant(s: int, source_k: int, target_k: int) -> "ShiftFn":
        """The canonical family: level a -> min(a + s, target_k), top -> top."""
        if s < 0:
            raise ValueError("shift must be non-negative")
        if source_k == 0:
            return ShiftFn([min(s, target_k)], target_k)
        table = [min(a + s, target_k) for a in range(source_k)] + [target_k]
        return ShiftFn(table, target_k)

    @staticmethod
    def identity(source_k: int, target_k: int) -> "ShiftFn":
        return ShiftFn.constant(0, source_k, target_k)

    def __call__(self, alpha: int) -> int:
        return self.table[alpha]

    def __eq__(self, other):
        return (
            isinstance(other, ShiftFn)
            and self.table == other.table
            and self.target_k == other.target_k
        )

    def __repr__(self):
        return f"ShiftFn({list(self.table)})"


def oscillation(phi: MultiMap, alpha: int) -> np.ndarray:
    """All pairs Phi(x) x Phi(x') over (x, x') in the source level-alpha
    entourage, as a boolean relation on the target: two relational
    products, exact at any size as balleans._relprod argues."""
    p = phi.matrix()
    return _relprod(_relprod(p.T, phi.source.level(alpha)), p)


@dataclass(frozen=True)
class CoarseReport:
    ok: bool
    fail_level: Optional[int]
    witness: Optional[tuple]

    def __str__(self):
        if self.ok:
            return "coarse"
        return f"oscillation escapes at level {self.fail_level}, witness {self.witness}"


class _DenseFit:
    """Oscillations of a map between general chains, as matrices."""

    def __init__(self, phi: MultiMap):
        self.levels = phi.target.levels()
        self.oscs = [oscillation(phi, a) for a in range(phi.source.num_levels)]

    def fits(self, alpha: int, j: int) -> bool:
        """Does the level-alpha oscillation lie in target level j?"""
        return not (self.oscs[alpha] & ~self.levels[j]).any()

    def witness(self, alpha: int, j: int) -> tuple:
        """The least escaping pair in lexicographic order."""
        u, v = np.argwhere(self.oscs[alpha] & ~self.levels[j])[0]
        return int(u), int(v)


class _TowerFit:
    """Oscillations of a map between towers, up the source's class tree.

    The level-alpha oscillation is the union of phi(C) x phi(C) over the
    level-alpha classes C, so it lies in target level j exactly when the
    target labels at j are constant on every phi(C).  The least such j for
    one C is the diameter of phi(C) in the target's level ultrametric, and
    in an ultrametric the diameter of a union is the largest of the parts'
    diameters and the distances from one part's point to a point of each
    other part.  So the diameters climb the source's class tree, each class
    keeping one image point as its representative.  reach[alpha] is the
    largest such diameter at level alpha.
    """

    def __init__(self, phi: MultiMap):
        X, Y = phi.source, phi.target
        self.phi = phi
        dist = Y.dist
        # level 0: the classes are the points themselves
        rep = [None] * X.n
        diam = [0] * X.n
        for x, y in phi.pairs:
            r = rep[x]
            if r is None:
                rep[x] = y
            else:
                d = dist(r, y)
                if d > diam[x]:
                    diam[x] = d
        self.reach = [max(diam)]
        for parent in X.parents:
            up_rep = [None] * (max(parent) + 1)
            up_diam = [0] * len(up_rep)
            for p, r, d in zip(parent, rep, diam):
                if r is None:
                    continue
                q = up_rep[p]
                if q is None:
                    up_rep[p] = r
                else:
                    d = max(d, dist(q, r))
                if d > up_diam[p]:
                    up_diam[p] = d
            rep, diam = up_rep, up_diam
            self.reach.append(max(diam))

    def fits(self, alpha: int, j: int) -> bool:
        return self.reach[alpha] <= j

    def witness(self, alpha: int, j: int) -> tuple:
        """The least escaping pair (u, v), as the dense path's argwhere
        would give it: u is the least point of a failing image, v the least
        point outside u's level-j class in a failing image holding u."""
        cls, tgt = self.phi.source.labels[alpha], self.phi.target.labels[j]
        images: dict = {}
        for x, y in self.phi.pairs:
            images.setdefault(cls[x], set()).add(y)
        failing = [img for img in images.values() if len({tgt[y] for y in img}) > 1]
        u = min(min(img) for img in failing)
        v = min(y for img in failing if u in img for y in img if tgt[y] != tgt[u])
        return u, v


def _fit(phi: MultiMap):
    if isinstance(phi.source, Tower) and isinstance(phi.target, Tower):
        return _TowerFit(phi)
    return _DenseFit(phi)


def _coarse(fit, shift: ShiftFn) -> CoarseReport:
    for alpha, j in enumerate(shift.table):
        if not fit.fits(alpha, j):
            return CoarseReport(False, alpha, fit.witness(alpha, j))
    return CoarseReport(True, None, None)


def _least_shift(fit, source_k: int, target_k: int) -> int:
    """Least s such that the constant-s table makes the map coarse; only
    every proper source level plus the bottom is constrained (see module
    docstring)."""
    s = j = 0
    for alpha in range(max(source_k, 1)):
        while j <= target_k and not fit.fits(alpha, j):
            j += 1
        if j > target_k:
            raise ValueError("oscillation escapes even the top level; invalid target chain")
        s = max(s, j - alpha)
    return s


def check_coarse(phi: MultiMap, shift: ShiftFn) -> CoarseReport:
    """Does every oscillation fit in the shifted target level?  On failure,
    the least bad source level and its least escaping pair."""
    if len(shift.table) != phi.source.num_levels or shift.target_k != phi.target.k:
        raise ValueError("shift table does not match the chains")
    return _coarse(_fit(phi), shift)


@dataclass(frozen=True)
class EquivalenceReport:
    total: bool
    surjective: bool
    fwd: Optional[CoarseReport]
    bwd: Optional[CoarseReport]
    s: Optional[int]
    t: Optional[int]
    passed: bool

    def __str__(self):
        if self.passed:
            return f"pass s={self.s} t={self.t}"
        bits = []
        if not self.total:
            bits.append("not total")
        if not self.surjective:
            bits.append("not surjective")
        if self.fwd is not None and not self.fwd.ok:
            bits.append(f"forward: {self.fwd}")
        if self.bwd is not None and not self.bwd.ok:
            bits.append(f"backward: {self.bwd}")
        return "fail: " + "; ".join(bits)


def check_equivalence(
    phi: MultiMap, fwd: Optional[ShiftFn] = None, bwd: Optional[ShiftFn] = None
) -> EquivalenceReport:
    """Totality, surjectivity, and coarseness of the map and its inverse.

    When tables are given, coarseness is checked against them; the report
    always carries the least constant shifts (s, t) that suffice, or None
    for them when the map is not total/surjective (oscillations of an
    empty fiber say nothing useful).
    """
    total = phi.is_total()
    surjective = phi.is_surjective()
    fit_fwd = _fit(phi)
    fit_bwd = _fit(inverse(phi))
    fwd_rep = bwd_rep = None
    if fwd is not None:
        if len(fwd.table) != phi.source.num_levels or fwd.target_k != phi.target.k:
            raise ValueError("forward shift table does not match the chains")
        fwd_rep = _coarse(fit_fwd, fwd)
    if bwd is not None:
        if len(bwd.table) != phi.target.num_levels or bwd.target_k != phi.source.k:
            raise ValueError("backward shift table does not match the chains")
        bwd_rep = _coarse(fit_bwd, bwd)
    s = t = None
    if total and surjective:
        s = _least_shift(fit_fwd, phi.source.k, phi.target.k)
        t = _least_shift(fit_bwd, phi.target.k, phi.source.k)
    passed = (
        total
        and surjective
        and (fwd_rep.ok if fwd_rep is not None else True)
        and (bwd_rep.ok if bwd_rep is not None else True)
    )
    return EquivalenceReport(total, surjective, fwd_rep, bwd_rep, s, t, passed)


# --- the oracle ---------------------------------------------------------------

def _balls(chain: EntourageChain, stride: int) -> list:
    """balls[j][x]: the points x' whose pair (x, x') lies in one of the
    levels 0..j, as a bitmask with x' at bit x' * stride, for j = 0..k and
    for k + 1, the level of the pairs that no level of an invalid chain
    holds, where the ball is every point.  In a tower the ball is x's
    level-j class, ORed up the class tree; for any other chain it comes
    from the level rows."""
    n = chain.n
    bits = [1 << (x * stride) for x in range(n)]
    balls = []
    if isinstance(chain, Tower):
        masks = bits
        balls.append(bits)
        for parent, row in zip(chain.parents, chain.labels[1:]):
            kids, masks = masks, [0] * (max(parent) + 1)
            for mask, p in zip(kids, parent):
                masks[p] |= mask
            balls.append([masks[c] for c in row])
    else:
        reach = np.zeros((n, n, stride), dtype=bool)
        for level in chain.levels():
            reach[:, :, 0] |= level
            rows = np.packbits(reach.reshape(n, n * stride), axis=1, bitorder="little")
            w = rows.shape[1]
            raw = rows.tobytes()
            balls.append([int.from_bytes(raw[i:i + w], "little") for i in range(0, n * w, w)])
    balls.append([sum(bits)] * n)
    return balls


class _Rows(dict):
    """compat[p] for the pair id p = x*m + y, built on first read and kept:
    the sum over x's shells of the shell times y's fit at its level."""

    def __init__(self, shells: list, m: int):
        super().__init__()
        self.shells, self.m = shells, m

    def __missing__(self, p: int) -> int:
        x, y = divmod(p, self.m)
        row = 0
        for shell, fit in self.shells[x]:
            row += shell * fit[y]
        self[p] = row
        return row


@dataclass(frozen=True)
class _SearchContext:
    compat: _Rows      # per pair id read so far, bitmask of compatible pair ids
    pairs_of_x: tuple
    pairs_of_y: tuple
    ones: int          # bit x*m for every source x: the first bit of its block
    high: int          # bit x*m + m - 1 for every source x: the last bit of its block
    folds: tuple       # shifts m, 2m, 4m, ... that OR every block onto the first


def _build_context(X: EntourageChain, Y: EntourageChain, s: int) -> _SearchContext:
    n, m = X.n, Y.n
    if n * m > PAIR_UNIVERSE_LIMIT:
        raise SearchCapExceeded(
            PAIR_UNIVERSE_LIMIT,
            f"equivalence search over {n}*{m} = {n * m} pairs exceeds the limit "
            f"of {PAIR_UNIVERSE_LIMIT} pairs",
        )
    limX = max(X.k, 1)
    limY = max(Y.k, 1)
    topY = Y.k + 1
    # two pairs whose points lie at level a in X and at level b in Y may
    # share a relation when b <= a + s unless a is X's exempt top, and
    # a <= b + s unless b is Y's; so level a admits one interval of b
    spans = [
        (min(limY, max(a - s, 0)), topY if a >= limX else min(a + s, topY))
        for a in range(X.k + 2)
    ]
    ballY = _balls(Y, 1)
    fits = [
        [ball & ~inner for ball, inner in zip(ballY[hi], ballY[lo - 1] if lo else [0] * m)]
        for lo, hi in spans
    ]
    # the points at exactly level a from x, spread at stride m: times an
    # m-bit fit mask, each point x' gets its own copy in block x', no carries
    ballX = _balls(X, m)
    shells = []
    for x in range(n):
        inner, parts = 0, []
        for level, fit in zip(ballX, fits):
            ball = level[x]
            if ball != inner:
                parts.append((ball & ~inner, fit))
                inner = ball
        shells.append(parts)
    ones = sum(1 << (x * m) for x in range(n))
    pairs_of_x = tuple(((1 << m) - 1) << (x * m) for x in range(n))
    pairs_of_y = tuple(ones << y for y in range(m))
    folds = []
    while 1 << len(folds) < n:
        folds.append(m << len(folds))
    return _SearchContext(_Rows(shells, m), pairs_of_x, pairs_of_y, ones, ones << (m - 1), tuple(folds))


class _TreeCodes:
    """The shift-0 tables of a tower pair, whose class trees are cut at
    level c = max(min(kX, kY), 1): rows[i] holds tower i's label rows 0..c-1
    and a one-class row c.  A class below c gets the code of the sorted tuple
    of its children's codes, interned in tables both towers share, so equal
    codes at one level mean isomorphic subtrees; the towers are equivalent
    when their level-(c-1) codes agree as multisets.  paths[i][a][x]
    numbers the codes of x's classes at levels 0..a-1 the same way.  When Y
    is X, one pass serves both sides."""

    def __init__(self, X: Tower, Y: Tower):
        c = max(min(X.k, Y.k), 1)
        self.X, self.Y, self.c = X, Y, c
        code_of: dict = {}
        path_of: dict = {}
        self.rows, self.paths, tops = [], [], []
        for T in (X,) if Y is X else (X, Y):
            rows = T.labels[:c] + ((0,) * T.n,)
            codes = path = [0] * T.n   # the points, all alike, and no path yet
            paths = [path]
            for a in range(c):
                if a:
                    kids = [[] for _ in range(max(T.parents[a - 1]) + 1)]
                    for code, parent in zip(codes, T.parents[a - 1]):
                        kids[parent].append(code)
                    codes = [code_of.setdefault(tuple(sorted(kin)), len(code_of)) for kin in kids]
                path = [path_of.setdefault((p, codes[q]), len(path_of))
                        for p, q in zip(path, rows[a])]
                paths.append(path)
            self.rows.append(rows)
            self.paths.append(paths)
            tops.append(codes)
        if Y is X:
            self.rows, self.paths = self.rows * 2, self.paths * 2
        self.equivalent = Y is X or sorted(tops[0]) == sorted(tops[1])

    @functools.cached_property
    def groups(self) -> list:
        """groups[a] sends a level-a class of Y and a path to its points on it."""
        groups = [{} for _ in range(self.c + 1)]
        for a in range(1, self.c + 1):
            for y, key in enumerate(zip(self.rows[1][a], self.paths[1][a])):
                groups[a].setdefault(key, []).append(y)
        return groups

    def witness(self, *required: tuple) -> Optional[MultiMap]:
        """The least bijection, by the images of 0, 1, ... in turn, that
        matches the level partitions 0..c-1 and holds the required pairs,
        which some such bijection must hold together when there are several.

        Each point x gets the least y on its path that lies in the image of
        x's lowest mapped class and whose class one level below is unused:
        exactly the choices that extend to an isomorphism of the cut trees.
        Used classes stay used, so each group's head only moves forward and
        the pass is O(n*c)."""
        if not self.equivalent:
            return None
        c = self.c
        lx, ly = self.rows
        xpaths, ypaths = self.paths
        image = [{} for _ in range(c)] + [{0: 0}]
        used = [set() for _ in range(c)]
        heads: dict = {}

        def take(x, y, a):
            for b in range(a):
                image[b][lx[b][x]] = ly[b][y]
                used[b].add(ly[b][y])

        for rx, ry in required:
            if xpaths[c][rx] != ypaths[c][ry]:
                return None
            take(rx, ry, c)
        for x in range(self.X.n):
            if x in image[0]:
                continue
            a = 1
            while lx[a][x] not in image[a]:
                a += 1
            key = (image[a][lx[a][x]], xpaths[a][x])
            cands, i = self.groups[a][key], heads.get((a, key), 0)
            while ly[a - 1][cands[i]] in used[a - 1]:
                i += 1
            heads[(a, key)] = i
            take(x, cands[i], a)
        return MultiMap._trusted(self.X, self.Y, frozenset(image[0].items()))


def _orbit_oracle(T: Tower, s: int):
    """The homogeneity oracle of T at shift s: (failing, witness).  failing
    is the least pair x < y, in itertools.combinations order, that no
    self-equivalence within shift s moves one to the other, or None, and
    witness(x, y) builds one for any pair before it.  A tree automorphism g
    (x to x', then a swap of equal-code classes inside their level-d class)
    exchanges the pairs of one key (full[x], d, path_d[y]), d = T.dist(x, y),
    so all share the searched witness phi of the first, as g.phi.g^-1."""
    codes = _TreeCodes(T, T)
    full = codes.paths[0][codes.c]
    if s == 0:  # an automorphism can move x to y iff their full paths agree
        failing = next(((0, y) for y, path in enumerate(full) if path != full[0]), None)
        return failing, lambda x, y: codes.witness((x, y))

    def key(x, y):
        return full[x], (d := T.dist(x, y)), codes.paths[0][d][y]

    def witness(x, y):
        x0, y0, phi = orbits[key(x, y)]
        g = dict(codes.witness((x0, x), (y0, y)).pairs)
        return MultiMap._trusted(T, T, frozenset((g[a], g[b]) for a, b in phi.pairs))

    # the budget is read first, so a malformed one is refused before any limit
    cap, ctx, orbits = search_cap(), _build_context(T, T, s), {}
    for x, y in itertools.combinations(range(T.n), 2):
        if (k := key(x, y)) not in orbits:
            phi = _backtrack(T, T, ctx, (x, y), cap)
            if phi is None:
                return (x, y), witness
            orbits[k] = (x, y, phi)
    return None, witness


def search_equivalence(
    X: EntourageChain,
    Y: EntourageChain,
    max_shift: int,
    *,
    require_pair: Optional[tuple] = None,
) -> Optional[MultiMap]:
    """Decide whether a coarse equivalence with constant shifts <=
    max_shift in both directions exists; None is a proof none exists.

    At shift 0 between two towers the answer and the witness are read off
    the class trees (see _TreeCodes) in O(n*k), with no node budget and no
    pair limit.  Otherwise the search runs over selection pairs (see module
    docstring), choosing an image for each source point in order and then
    a preimage for each still-uncovered target point, backtracking on the
    pairwise shift constraints.  The first witness in this order is
    returned, so results are deterministic; the tree path returns that
    same witness.  require_pair forces a given (x, y) into the relation.
    """
    s = int(max_shift)
    if s < 0:
        raise ValueError("max_shift must be non-negative")
    if require_pair is not None:
        rx, ry = require_pair
        if not (0 <= rx < X.n and 0 <= ry < Y.n):
            raise ValueError("require_pair out of range")
    # read even where no search runs, so a malformed budget is always refused
    cap = search_cap()
    if s == 0 and isinstance(X, Tower) and isinstance(Y, Tower):
        return _TreeCodes(X, Y).witness(*(() if require_pair is None else (require_pair,)))
    # at shift 0 a witness is a bijection, so unequal sizes settle it
    if s == 0 and X.n != Y.n:
        return None
    return _backtrack(X, Y, _build_context(X, Y, s), require_pair, cap)


def _backtrack(
    X: EntourageChain, Y: EntourageChain, ctx: _SearchContext, require_pair: Optional[tuple], cap: int
) -> Optional[MultiMap]:
    """The exhaustive search of search_equivalence on X and Y's context ctx,
    for a valid require_pair; tests also run it at shift 0 between towers."""
    n, m = X.n, Y.n
    compat = ctx.compat
    pairs_of_x = ctx.pairs_of_x
    pairs_of_y = ctx.pairs_of_y
    ones, high, folds = ctx.ones, ctx.high, ctx.folds
    below_high = high - ones
    not_high = ~high
    last = m - 1
    full_y = (1 << m) - 1

    # covered sources are kept as bit x*m, the first bit of x's block of
    # pair ids, covered targets as bit y
    def viable(allowed, cov_x, cov_y):
        """Does every uncovered source and target keep an allowed pair?"""
        # the carry of below_high into a block's last bit marks a nonempty block
        held = (((allowed & not_high) + below_high) | allowed) & high
        if cov_x | held >> last != ones:
            return False
        for shift in folds:
            allowed |= allowed >> shift
        return (allowed | cov_y) & full_y == full_y

    def frame(allowed, cov_x, cov_y):
        """The candidates for the least uncovered source, or once every
        source is covered the least uncovered target, with the state."""
        pending = ones ^ cov_x
        if pending:
            x = ((pending & -pending).bit_length() - 1) // m
            cands = allowed & pairs_of_x[x]
        else:
            y = ((cov_y + 1) & ~cov_y).bit_length() - 1
            cands = allowed & pairs_of_y[y]
        return [cands, allowed, cov_x, cov_y]

    chosen: list = []
    allowed0 = (1 << (n * m)) - 1
    cov_x0 = cov_y0 = 0
    if require_pair is not None:
        rx, ry = require_pair
        p0 = rx * m + ry
        chosen = [p0]
        allowed0 &= compat[p0]
        cov_x0 |= 1 << (p0 - ry)
        cov_y0 |= 1 << ry
        if not viable(allowed0, cov_x0, cov_y0):
            return None
    if cov_x0 != ones or cov_y0 != full_y:
        # depth first with an explicit stack, as deep as n + m: each frame
        # above the first was entered through the pair at its place in chosen
        stack = [frame(allowed0, cov_x0, cov_y0)]
        nodes = 0
        while stack:
            top = stack[-1]
            cands = top[0]
            if not cands:
                stack.pop()
                if stack:
                    chosen.pop()
                continue
            nodes += 1
            if nodes > cap:
                raise SearchCapExceeded(cap)
            p = (cands & -cands).bit_length() - 1
            top[0] = cands & (cands - 1)
            py = p % m
            allowed = top[1] & compat[p]
            cov_x = top[2] | (1 << (p - py))
            cov_y = top[3] | (1 << py)
            if viable(allowed, cov_x, cov_y):
                chosen.append(p)
                if cov_x == ones and cov_y == full_y:
                    break
                stack.append(frame(allowed, cov_x, cov_y))
        else:
            return None
    return MultiMap._trusted(X, Y, frozenset(divmod(p, m) for p in chosen))


def min_shift(X: EntourageChain, Y: EntourageChain, cap: int) -> Optional[int]:
    """Least s <= cap at which search_equivalence succeeds, else None."""
    for s in range(cap + 1):
        if search_equivalence(X, Y, s) is not None:
            return s
    return None


# --- large-subset form of an equivalence --------------------------------------

@dataclass(frozen=True)
class LargeSubsetWitness:
    """A pair of large subsets with a coarse bijection between them,
    extracted from a multi-map equivalence (the two definitions of coarse
    equivalence agreeing at desk scale)."""

    large_x: tuple
    large_y: tuple
    bijection: tuple           # pairs (x, y), x in large_x, y in large_y
    x_large_level: int
    y_large_level: int
    report: EquivalenceReport  # of the bijection between the subspaces


def equivalence_to_large_subsets(phi: MultiMap) -> LargeSubsetWitness:
    if not (phi.is_total() and phi.is_surjective()):
        raise ValueError("needs a total surjective multi-map")
    # the least image of every source, in one pass over the pairs
    least = [phi.target.n] * phi.source.n
    for x, y in phi.pairs:
        if y < least[x]:
            least[x] = y
    # each least image's least source
    section = {}
    for x, y in enumerate(least):
        section.setdefault(y, x)
    large_y = sorted(section)
    large_x = sorted(section.values())
    bij = tuple(sorted((section[y], y) for y in large_y))
    lx = is_large(phi.source, large_x)
    ly = is_large(phi.target, large_y)
    sub_x = subspace(phi.source, large_x)
    sub_y = subspace(phi.target, large_y)
    ix = {x: i for i, x in enumerate(large_x)}
    iy = {y: i for i, y in enumerate(large_y)}
    bij_map = MultiMap(sub_x, sub_y, ((ix[x], iy[y]) for x, y in bij))
    rep = check_equivalence(bij_map)
    return LargeSubsetWitness(tuple(large_x), tuple(large_y), bij, lx, ly, rep)


# --- text format ---------------------------------------------------------------

def format_multimap(phi: MultiMap, shifts=()) -> str:
    """The pair list, optionally followed by `shift:` table lines."""
    lines = ["multimap v1"]
    lines.extend(f"pair {x} {y}" for x, y in sorted(phi.pairs))
    for shift in shifts:
        lines.append("shift: " + " ".join(map(str, shift.table)))
    return "\n".join(lines) + "\n"


def parse_multimap(text: str, source: EntourageChain, target: EntourageChain):
    """Read back a multi-map; trailing `shift:` tables, if present, are
    returned alongside it as plain tuples.  A pair out of range is blamed
    on its own line."""
    lines = Lines(text)
    lines.header("multimap v1")
    pairs = []
    while lines.more() and not lines.peek().startswith("shift:"):
        pairs.append(lines.pair())
    shifts = []
    while lines.more():
        shifts.append(
            lines.naturals_line(
                "shift:", "expected 'shift: a0 a1 ...'", "pair lines must precede shift tables"
            )
        )
    for lineno, (x, y) in pairs:
        for side, point, chain in (("source", x, source), ("target", y, target)):
            if not 0 <= point < chain.n:
                raise FormatError(f"{side} point {point} out of range", lineno)
    phi = MultiMap(source, target, (p for _, p in pairs))
    return (phi, tuple(shifts)) if shifts else phi
