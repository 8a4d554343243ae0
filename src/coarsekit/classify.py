"""Spectra interleaving, equivalence certificates, and homogeneity.

Two uniform towers of the same total size can be regrouped, level blocks
on each side, so that the regrouped branching spectra agree level by
level; coordinatizing both regrouped towers onto the common product then
yields a bijection whose shift tables come straight from the block
boundaries.  The certificate records the towers, the multi-map, the shift
tables, a construction transcript and the verified minimal shifts, and can
be re-verified from its serialized body alone.  Its text is read on the
line grammar of textio: the towers as ballean blocks and the pairs as
multimap pair lines, with the line numbers of the whole file.

Homogeneity at shift s has two independent readings kept side by side: the
spectral one (some regrouping with blocks of width at most s+1 is uniform)
and the oracle one (for every ordered pair of points some self-equivalence
within shift s moves one to the other).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from .balleans import Tower, format_ballean, read_ballean, spectrum
from .coordinates import CoordMap, coordinatize
from .multimaps import (
    EquivalenceReport,
    MultiMap,
    ShiftFn,
    check_equivalence,
    format_multimap,
    inverse,
    search_equivalence,
)
from .textio import FormatError, Lines, is_natural

HOMOGENEITY_ORACLE_CAP = 24


def regroup(tower: Tower, boundaries: Sequence[int]) -> Tower:
    """Keep only the levels at the given boundary indices, which strictly
    increase from 0 to the top index; spectrum entries multiply within each
    block.  Keeping every level returns the tower itself."""
    if not isinstance(tower, Tower):
        raise TypeError("regroup needs a cellular tower")
    bounds = tuple(int(b) for b in boundaries)
    if not bounds or bounds[0] != 0 or bounds[-1] != tower.k:
        raise ValueError(f"boundaries must run from 0 to {tower.k}")
    if any(a >= b for a, b in zip(bounds, bounds[1:])):
        raise ValueError("boundaries must strictly increase")
    if len(bounds) == tower.num_levels:
        return tower
    got = tower._regroup_cache.get(bounds)
    if got is None:
        got = Tower([tower.labels[b] for b in bounds])
        tower._regroup_cache[bounds] = got
    return got


def cumulative_products(values: Sequence[int]) -> tuple:
    out = [1]
    for v in values:
        out.append(out[-1] * v)
    return tuple(out)


def interleave(X: Tower, Y: Tower):
    """Block boundaries making two uniform towers' regrouped spectra equal
    level by level, chosen greedily with the earliest possible matches.
    None when the cumulative products end at different totals.  Towers of
    depth 0 can only be aligned with each other."""
    sx, sy = spectrum(X), spectrum(Y)
    if not sx.uniform or not sy.uniform:
        raise ValueError("interleave needs uniform towers; regroup to uniform first")
    cx = cumulative_products(sx.lo)
    cy = cumulative_products(sy.lo)
    if cx[-1] != cy[-1]:
        return None
    if (X.k == 0) != (Y.k == 0):
        return None
    bx, by = [0], [0]
    i = j = 0
    while i < X.k or j < Y.k:
        a = cx[i + 1] if i < X.k else None
        b = cy[j + 1] if j < Y.k else None
        if a is not None and b is not None and a == b:
            i += 1
            j += 1
            bx.append(i)
            by.append(j)
        elif b is None or (a is not None and a < b):
            i += 1
        else:
            j += 1
    if len(bx) > 1:
        # trailing unit-branching levels leave the last match short of the
        # top; both cumulative values there already equal the total
        bx[-1] = X.k
        by[-1] = Y.k
    return tuple(bx), tuple(by)


def uniformizing_regroup(tower: Tower, max_width: Optional[int] = None):
    """The finest regrouping whose spectrum is uniform, optionally with all
    block widths bounded, and the lexicographically first among the finest;
    None when no such regrouping exists.

    A block (a, b] is uniform when every level-b class holds the same number
    of level-a classes, which depends on a and b alone.  So the answer is a
    longest path from boundary 0 to k through uniform blocks: a dynamic
    program over the k + 1 boundaries.  Climbing the class tree from a, it
    counts only the classes that hold several level-a classes: the merges."""
    k = tower.k
    width = k if max_width is None else int(max_width)
    if width >= 1 and spectrum(tower).uniform:
        return tuple(range(k + 1))
    # merges[j][q]: the level-j classes beyond one in the level-(j+1) class q
    merges = [{q: h - 1 for q, h in Counter(row).items() if h > 1} for row in tower.parents]
    # paths[a]: the finest uniform boundaries from a to k; b rises and only a
    # longer path replaces the one kept, so the least next boundary wins ties
    paths: list = [None] * k + [(k,)]
    for a in range(k - 1, -1, -1):
        extra: Counter = Counter()
        for b in range(a + 1, min(a + width, k) + 1):
            # extra[q]: the level-a classes beyond one in the level-b class q
            up = Counter(merges[b - 1])
            for c, e in extra.items():
                up[tower.parents[b - 1][c]] += e
            extra = up
            if paths[b] is not None and len(paths[b]) >= len(paths[a] or ()):
                classes = len(tower.parents[b]) if b < k else 1
                if not extra or (len(extra) == classes and len(set(extra.values())) == 1):
                    paths[a] = (a, *paths[b])
    return paths[0]


@dataclass(frozen=True)
class Certificate:
    """A serialized coarse-equivalence witness: the two towers, the
    multi-map, monotone shift tables both ways, the construction
    transcript, and the verified minimal constant shifts."""

    x_tower: Tower
    y_tower: Tower
    pairs: tuple
    shift_fwd: tuple
    shift_bwd: tuple
    transcript: tuple
    s: int
    t: int

    def multimap(self) -> MultiMap:
        return MultiMap(self.x_tower, self.y_tower, self.pairs)

    def fwd_shift(self) -> ShiftFn:
        return ShiftFn(self.shift_fwd, self.y_tower.k)

    def bwd_shift(self) -> ShiftFn:
        return ShiftFn(self.shift_bwd, self.x_tower.k)


def _boundary_shift_table(src_bounds, dst_bounds, src_k):
    table = []
    for alpha in range(src_k + 1):
        j = next(i for i, b in enumerate(src_bounds) if b >= alpha)
        table.append(dst_bounds[j])
    return tuple(table)


def build_equivalence(
    X: Tower, Y: Tower, max_shift: Optional[int] = None
) -> Optional[Certificate]:
    """Construct and pre-verify a certificate between two towers, or None.

    Non-uniform towers are first regrouped to uniform (the finest such
    regrouping); the uniformized pair is interleaved onto a common
    spectrum; minimum-basepoint codes of both regrouped towers then match
    bijectively through the common product.  Fails only when the point
    counts differ, or when max_shift is given and the verified shifts
    exceed it.
    """
    if not (isinstance(X, Tower) and isinstance(Y, Tower)):
        raise TypeError("build_equivalence needs cellular towers")
    if X.n != Y.n:
        return None
    transcript = []
    if X.n == 1:
        phi = MultiMap(X, Y, [(0, 0)])
        fwd = tuple(Y.k for _ in range(X.k + 1))
        bwd = tuple(X.k for _ in range(Y.k + 1))
        rep = check_equivalence(phi, ShiftFn(fwd, Y.k), ShiftFn(bwd, X.k))
        transcript.append("single-point towers: trivial pairing")
        return Certificate(X, Y, tuple(sorted(phi.pairs)), fwd, bwd, tuple(transcript), rep.s, rep.t)
    # with no width bound the one-block regrouping is uniform, so these exist
    ubx = uniformizing_regroup(X)
    uby = uniformizing_regroup(Y)
    if list(ubx) != list(range(X.k + 1)):
        transcript.append("X uniformized at boundaries " + ",".join(map(str, ubx)))
    if list(uby) != list(range(Y.k + 1)):
        transcript.append("Y uniformized at boundaries " + ",".join(map(str, uby)))
    il = interleave(regroup(X, ubx), regroup(Y, uby))
    if il is None:
        return None
    bx = tuple(ubx[i] for i in il[0])
    by = tuple(uby[j] for j in il[1])
    RX, RY = regroup(X, bx), regroup(Y, by)
    sx, sy = spectrum(RX), spectrum(RY)
    if sx.lo != sy.lo:
        raise AssertionError("interleave produced unequal spectra")
    transcript.append("interleaved boundaries X=" + ",".join(map(str, bx)))
    transcript.append("interleaved boundaries Y=" + ",".join(map(str, by)))
    transcript.append("common spectrum " + ",".join(map(str, sx.lo)))
    cmx = coordinatize(RX)
    cmy = coordinatize(RY)
    transcript.append(f"basepoints X={cmx.base} Y={cmy.base}")
    to_y = {code: y for y, code in enumerate(cmy.codes)}
    if len(to_y) != Y.n:
        raise AssertionError("uniform tower code table is not injective")
    pairs = tuple(sorted((x, to_y[cmx.codes[x]]) for x in range(X.n)))
    fwd = _boundary_shift_table(bx, by, X.k)
    bwd = _boundary_shift_table(by, bx, Y.k)
    phi = MultiMap(X, Y, pairs)
    rep = check_equivalence(phi, ShiftFn(fwd, Y.k), ShiftFn(bwd, X.k))
    if not rep.passed:
        raise AssertionError(f"constructed certificate failed verification: {rep}")
    if max_shift is not None and max(rep.s, rep.t) > max_shift:
        return None
    return Certificate(X, Y, pairs, fwd, bwd, tuple(transcript), rep.s, rep.t)


def _transposition(cm: CoordMap, x: int, y: int) -> list:
    """The pairs of the self-bijection of a uniform tower that swaps the
    codes of x and y coordinatewise, conjugated through its code table cm."""
    to_point = {code: p for p, code in enumerate(cm.codes)}
    cx, cy = cm.codes[x], cm.codes[y]

    def tau(code):
        out = []
        for v, va, vb in zip(code, cx, cy):
            if v == va:
                out.append(vb)
            elif v == vb:
                out.append(va)
            else:
                out.append(v)
        return tuple(out)

    return [(z, to_point[tau(code)]) for z, code in enumerate(cm.codes)]


def point_transitive_map(tower: Tower, x: int, y: int) -> MultiMap:
    """A self-bijection moving x to y on a uniform tower: conjugate a
    coordinatewise transposition through the minimum-basepoint codes.
    Passes check_equivalence with identity shift tables."""
    spec = spectrum(tower)
    if not spec.uniform:
        raise ValueError("point-transitive translations need a uniform tower")
    if not (0 <= x < tower.n and 0 <= y < tower.n):
        raise IndexError("point out of range")
    return MultiMap(tower, tower, _transposition(coordinatize(tower), x, y))


@dataclass(frozen=True)
class HomogeneityReport:
    """Both verdicts at the checked shift.

    spectral: some regrouping with blocks of width <= shift+1 is uniform;
    when it is, regrouping/bound carry the witness and its implied shift.
    oracle: every unordered pair of points is connected by a
    self-equivalence within the shift (None when skipped by the size cap);
    witnesses/failing_pair carry the evidence.  homogeneous repeats the
    spectral verdict, which is the headline criterion.

    witnesses are shared: the oracle searches only pairs no earlier witness
    moves, and keys each witness under every (a, b) it holds with a < b and
    its inverse under every (b, a) it holds with a > b, so some values are
    inverses.  After "yes" every pair is a key; after "no" the keys are the
    pairs moved by the witnesses found before failing_pair.
    """

    shift: int
    spectral: bool
    regrouping: Optional[tuple]
    bound: Optional[int]
    oracle: Optional[bool]
    oracle_skipped: bool
    failing_pair: Optional[tuple]
    witnesses: dict
    translations: dict

    @property
    def homogeneous(self) -> bool:
        return self.spectral


def is_homogeneous(
    tower: Tower,
    max_shift: Optional[int] = None,
    oracle_cap: int = HOMOGENEITY_ORACLE_CAP,
) -> HomogeneityReport:
    if not isinstance(tower, Tower):
        raise TypeError("is_homogeneous needs a cellular tower")
    shift = max(tower.k - 1, 0) if max_shift is None else int(max_shift)
    bounds = uniformizing_regroup(tower, max_width=shift + 1)
    spectral = bounds is not None
    bound = max((b - a for a, b in zip(bounds, bounds[1:])), default=1) - 1 if spectral else None
    translations: dict = {}
    if spectral:
        # the regrouped tower is uniform; its translations act on the tower
        cm = coordinatize(regroup(tower, bounds))
        for x, y in itertools.combinations(range(min(tower.n, 6)), 2):
            translations[(x, y)] = MultiMap(tower, tower, _transposition(cm, x, y))
    oracle = failing = None
    skipped = tower.n > oracle_cap
    witnesses: dict = {}
    if not skipped:
        oracle = True
        # a pair that a witness or its inverse (also a witness at constant
        # shift) moves would pass its search, so the first failing pair stays
        for x, y in itertools.combinations(range(tower.n), 2):
            if (x, y) in witnesses:
                continue
            phi = search_equivalence(tower, tower, shift, require_pair=(x, y))
            if phi is None:
                oracle, failing = False, (x, y)
                break
            witnesses.update({p: phi for p in phi.pairs if p[0] < p[1] and p not in witnesses})
            back = [(b, a) for a, b in phi.pairs if a > b and (b, a) not in witnesses]
            if back:
                witnesses.update(dict.fromkeys(back, inverse(phi)))
    return HomogeneityReport(
        shift, spectral, bounds, bound, oracle, skipped, failing, witnesses, translations
    )


@dataclass(frozen=True)
class CoveringInvariants:
    lo: tuple
    hi: tuple
    uniform: bool
    cumulative: tuple   # prefix products of the min spectrum
    normalized: tuple   # the cumulative values as a sorted set

    def __str__(self):
        u = "uniform" if self.uniform else "non-uniform"
        return (
            f"{u}; lo={self.lo} hi={self.hi}; "
            f"cumulative={self.cumulative}; normalized={self.normalized}"
        )


def covering_invariants(tower: Tower) -> CoveringInvariants:
    spec = spectrum(tower)
    cum = cumulative_products(spec.lo)
    return CoveringInvariants(
        spec.lo, spec.hi, spec.uniform, cum, tuple(sorted(set(cum)))
    )


# --- certificate text format -----------------------------------------------------
#
# certificate v1
# tower X
# <ballean block>
# tower Y
# <ballean block>
# multimap v1
# pair x y ...
# shift-fwd: 0 1 2
# shift-bwd: 0 1 2
# transcript: free text
# verified: pass s=0 t=0


def format_certificate(cert: Certificate) -> str:
    parts = ["certificate v1\n"]
    parts.append("tower X\n")
    parts.append(format_ballean(cert.x_tower))
    parts.append("tower Y\n")
    parts.append(format_ballean(cert.y_tower))
    parts.append(format_multimap(cert.multimap()))
    parts.append("shift-fwd: " + " ".join(map(str, cert.shift_fwd)) + "\n")
    parts.append("shift-bwd: " + " ".join(map(str, cert.shift_bwd)) + "\n")
    for line in cert.transcript:
        parts.append(f"transcript: {line}\n")
    parts.append(f"verified: pass s={cert.s} t={cert.t}\n")
    return "".join(parts)


def _read_tower(lines: Lines) -> Tower:
    first = lines.here
    got = read_ballean(lines)
    if not isinstance(got, Tower):
        raise FormatError("certificate towers must be cellular", first)
    return got


def parse_certificate(text: str) -> Certificate:
    """Read a certificate back; ranges and shift tables are left to
    verify_certificate."""
    lines = Lines(text)
    lines.header("certificate v1")
    # every section marker is located before any block is read, so a missing
    # one is reported ahead of an error inside a block
    ix = lines.find("tower X", lines.pos)
    iy = lines.find("tower Y", ix + 1)
    im = lines.find("multimap v1", iy + 1)
    if ix != lines.pos:
        raise FormatError("expected 'tower X'", lines.here)
    tx = _read_tower(lines.block(ix + 1, iy))
    ty = _read_tower(lines.block(iy + 1, im))
    lines.pos = im + 1
    pairs = []
    while lines.peek().startswith("pair "):
        pairs.append(lines.pair()[1])
    fwd = lines.naturals_line("shift-fwd:", "expected a list of naturals")
    bwd = lines.naturals_line("shift-bwd:", "expected a list of naturals")
    transcript = []
    while lines.peek().startswith("transcript:"):
        transcript.append(lines.prefixed("transcript:")[1])
    lineno, body = lines.prefixed("verified: pass")
    parts = body.split()
    if (
        len(parts) != 2
        or not parts[0].startswith("s=")
        or not parts[1].startswith("t=")
        or not is_natural(parts[0][2:])
        or not is_natural(parts[1][2:])
    ):
        raise FormatError("expected 'verified: pass s=N t=N'", lineno)
    s, t = int(parts[0][2:]), int(parts[1][2:])
    lines.end()
    return Certificate(tx, ty, tuple(sorted(set(pairs))), fwd, bwd, tuple(transcript), s, t)


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: str
    report: Optional[EquivalenceReport]


def verify_certificate(cert) -> VerifyResult:
    """Re-derive pass/fail purely from the certificate body; the embedded
    'verified' line is compared against, never trusted."""
    if isinstance(cert, str):
        cert = parse_certificate(cert)
    try:
        phi = cert.multimap()
        fwd = cert.fwd_shift()
        bwd = cert.bwd_shift()
        if len(cert.shift_fwd) != cert.x_tower.num_levels:
            return VerifyResult(False, "forward shift table does not cover the source levels", None)
        if len(cert.shift_bwd) != cert.y_tower.num_levels:
            return VerifyResult(False, "backward shift table does not cover the source levels", None)
    except ValueError as e:
        return VerifyResult(False, str(e), None)
    rep = check_equivalence(phi, fwd, bwd)
    if not rep.total:
        return VerifyResult(False, "multi-map is not total", rep)
    if not rep.surjective:
        return VerifyResult(False, "multi-map is not surjective", rep)
    if not rep.fwd.ok:
        return VerifyResult(False, f"forward coarseness fails: {rep.fwd}", rep)
    if not rep.bwd.ok:
        return VerifyResult(False, f"backward coarseness fails: {rep.bwd}", rep)
    if (rep.s, rep.t) != (cert.s, cert.t):
        return VerifyResult(
            False,
            f"recomputed shifts s={rep.s} t={rep.t} disagree with the embedded s={cert.s} t={cert.t}",
            rep,
        )
    return VerifyResult(True, f"pass s={rep.s} t={rep.t}", rep)
