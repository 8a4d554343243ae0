"""Ball coordinatization of a cellular tower into a product tower.

Fix a well-order on the points.  Within each level-(alpha+1) class the
level-alpha classes get numbered injectively: the class of the block
minimum is 0, the rest follow by ascending class minimum.  The code of a
point y relative to a basepoint x is then built by the recursion

    f_x(y) = 0                                         if d(x, y) = 0
    f_x(y) = f_{c_a(y)}(y) + n_a(y) * delta_a          otherwise,

where d is the level ultrametric, a = d(x, y) - 1, c_a(y) is the least
element of y's level-a class and delta_a is the unit vector at coordinate
a.  The recursion terminates because d(c_a(y), y) <= a < d(x, y).

Each step makes one recursive call, so the recursion runs as the loop
x <- c_a(y) while d(x, y) > 0, the same steps in the same order at any
depth.  The next distance is read off the c table: x = c_a(y) is the least
element of y's level-j class exactly for j from d(x, y) up to a.  The
closed "truncation law" (coordinate alpha equals n_alpha(y) below d(x, y)
and 0 from there up) is kept separate as a verification oracle, never as
the construction.  The `coordmap v1` format is read on the line grammar
of textio.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .balleans import Tower, _split_point, gen_product, spectrum
from .textio import FormatError, Lines, is_natural, naturals


def _resolve_order(tower: Tower, order: Optional[Sequence[int]]) -> tuple:
    if order is None:
        return tuple(range(tower.n))
    order = tuple(int(p) for p in order)
    if sorted(order) != list(range(tower.n)):
        raise ValueError("order must be a permutation of the points")
    return order


def numbering(tower: Tower, order: Optional[Sequence[int]] = None):
    """Representative and numbering tables, cached on the tower per order
    because one tower is coordinatized against many bases and partners.

    Returns (c, nums): c[alpha][y] is the order-least element of y's
    level-alpha class for alpha in 0..k, and nums[alpha][y] numbers the
    level-alpha classes inside y's level-(alpha+1) class for alpha in
    0..k-1, the block minimum's class getting 0 and the rest following by
    ascending class minimum.  One walk over the points in order per parent
    table gives both: it meets each class first at its least point, and the
    classes of one block in ascending order of those.
    """
    if not isinstance(tower, Tower):
        raise TypeError("numbering needs a cellular tower")
    order = _resolve_order(tower, order)
    cached = tower._numbering_cache.get(order)
    if cached is not None:
        return cached
    c, nums = [], []
    for row, parent in zip(tower.labels, tower.parents):
        least = [None] * len(parent)
        number = [0] * len(parent)
        count = [0] * (max(parent) + 1)
        for p in order:
            cid = row[p]
            if least[cid] is None:
                least[cid] = p
                number[cid] = count[parent[cid]]
                count[parent[cid]] += 1
        c.append(tuple(map(least.__getitem__, row)))
        nums.append(tuple(map(number.__getitem__, row)))
    c.append((order[0],) * tower.n)
    got = (tuple(c), tuple(nums))
    tower._numbering_cache[order] = got
    return got


@dataclass(frozen=True)
class CoordMap:
    """A coordinatization: code tables for one tower, basepoint and order,
    landing in the product tower over the max branching spectrum."""

    tower: Tower
    base: int
    order: tuple
    nums: tuple          # nums[alpha][y], alpha in 0..k-1
    codes: tuple         # codes[y] is a tuple of k coordinates
    kappa_lo: tuple
    kappa_hi: tuple

    @property
    def target(self) -> Tower:
        return gen_product(self.kappa_hi)


def coordinatize(
    tower: Tower, base: Optional[int] = None, order: Optional[Sequence[int]] = None
) -> CoordMap:
    """Run the recursion for every point against the given basepoint
    (default: the order-least point, which makes the code injective)."""
    if not isinstance(tower, Tower):
        raise TypeError("coordinatize needs a cellular tower")
    order = _resolve_order(tower, order)
    if base is None:
        base = order[0]
    base = int(base)
    if not 0 <= base < tower.n:
        raise IndexError("basepoint out of range")
    c, nums = numbering(tower, order)
    k = tower.k

    # each step for y descends to a strictly lower level and makes the one
    # recursive call as the next turn of the loop; d(x, y) is the lowest j
    # of the run of levels from a down where c[j][y] is still x
    def code_rel(y: int) -> tuple:
        vec = [0] * k
        dist = tower.dist(base, y)
        while dist > 0:
            a = dist - 1
            vec[a] += nums[a][y]
            x = c[a][y]
            dist = a
            while dist > 0 and c[dist - 1][y] == x:
                dist -= 1
        return tuple(vec)

    codes = tuple(map(code_rel, range(tower.n)))
    spec = spectrum(tower)
    return CoordMap(tower, base, order, nums, codes, spec.lo, spec.hi)


@dataclass(frozen=True)
class CoordReport:
    """What verify_coordinatization established.

    truncation_ok: the closed-form law agrees with the recursion.
    forward_ok: entourage-related points share all coordinates from that
        level up (the code map is 0-shift coarse into the product).
    min_base: whether the basepoint is the order-least point; the three
        exactness fields are only checked (non-None) in that case.
    exact_ok: code agreement from level alpha up implies the points share
        their level-alpha class.
    injective: the code table is injective.
    image_lower_ok / image_upper_ok: the image contains the full box over
        the min spectrum and sits inside the box over the max spectrum.
    inverse_shift: largest level-diameter of a code-collision fiber (0 when
        injective), the measured inverse defect for off-minimum basepoints.
    """

    truncation_ok: bool
    forward_ok: bool
    min_base: bool
    exact_ok: Optional[bool]
    injective: Optional[bool]
    image_lower_ok: Optional[bool]
    image_upper_ok: bool
    inverse_shift: int
    failures: tuple

    @property
    def ok(self) -> bool:
        core = self.truncation_ok and self.forward_ok and self.image_upper_ok
        if self.min_base:
            core = core and self.exact_ok and self.injective and self.image_lower_ok
        return core


def _clash(fine, coarse) -> Optional[tuple]:
    """A pair (x, y), x < y, in one class of the partition fine but not of
    coarse, both given as class ids per point; None when fine refines coarse."""
    y = _split_point(fine, coarse, [None] * (max(fine) + 1))
    return None if y is None else (fine.index(fine[y]), y)


def verify_coordinatization(cm: CoordMap) -> CoordReport:
    """Check the laws in O(n*k) on the label rows.  The points whose codes
    agree from coordinate a up form the suffix partition at a, numbered from
    the top level down.  Forward coarseness says each level-a partition
    refines the suffix partition at a, exact agreement that they are equal.
    A failure names one pair on which its law fails."""
    tower = cm.tower
    n, k = tower.n, tower.k
    d = tower.dist
    failures = []

    truncation_ok = True
    for y in range(n):
        dist = d(cm.base, y)
        want = tuple(cm.nums[a][y] if a < dist else 0 for a in range(k))
        if cm.codes[y] != want:
            truncation_ok = False
            failures.append(f"truncation law fails at point {y}: {cm.codes[y]} vs {want}")
            break

    forward_pair = exact_pair = None
    ids = [0] * n
    for a in range(k - 1, -1, -1):
        seen: dict = {}
        ids = [seen.setdefault((code[a], i), len(seen)) for code, i in zip(cm.codes, ids)]
        row = tower.labels[a]
        forward_pair = forward_pair or _clash(row, ids)
        exact_pair = exact_pair or forward_pair or _clash(ids, row)
    forward_ok = forward_pair is None
    if not forward_ok:
        failures.append(f"forward coarseness fails on pair {forward_pair}")

    image_upper_ok = all(
        all(0 <= v < s for v, s in zip(code, cm.kappa_hi)) for code in cm.codes
    )
    if not image_upper_ok:
        failures.append("a code escapes the max-spectrum box")

    fibers: dict = {}
    for y, code in enumerate(cm.codes):
        fibers.setdefault(code, []).append(y)
    # in an ultrametric a set's diameter is the largest distance from one member
    inverse_shift = max(d(members[0], y) for members in fibers.values() for y in members)

    min_base = cm.base == cm.order[0]
    exact_ok = injective = image_lower_ok = None
    if min_base:
        exact_ok = exact_pair is None
        if not exact_ok:
            x, y = exact_pair
            agree_from = next(b for b in range(k + 1) if cm.codes[x][b:k] == cm.codes[y][b:k])
            failures.append(
                f"exact agreement fails on ({x}, {y}): distance {d(x, y)}, codes agree from {agree_from}"
            )
        injective = len(fibers) == n
        if not injective:
            failures.append("code table is not injective")
        image_lower_ok = math.prod(cm.kappa_lo) <= n
        if not image_lower_ok:
            failures.append("min-spectrum box larger than the point set")
        else:
            box = itertools.product(*(range(s) for s in cm.kappa_lo))
            missing = next((t for t in box if t not in fibers), None)
            if missing is not None:
                image_lower_ok = False
                failures.append(f"min-spectrum box tuple {missing} missing from the image")
    return CoordReport(
        truncation_ok,
        forward_ok,
        min_base,
        exact_ok,
        injective,
        image_lower_ok,
        image_upper_ok,
        inverse_shift,
        tuple(failures),
    )


# --- text format ----------------------------------------------------------------
#
# coordmap v1
# base 0
# code 0: 0 0
# code 1: 1 0


def format_coordmap(cm: CoordMap) -> str:
    lines = ["coordmap v1", f"base {cm.base}"]
    for y, code in enumerate(cm.codes):
        body = " ".join(str(v) for v in code)
        lines.append(f"code {y}: {body}".rstrip())
    return "\n".join(lines) + "\n"


def parse_coordmap(text: str):
    """Read back a code table as (base, codes); the tower itself is not
    part of the format."""
    lines = Lines(text)
    lines.header("coordmap v1")
    lineno, body = lines.prefixed("base ", "expected 'base x'")
    if not is_natural(body):
        raise FormatError("expected 'base x'", lineno)
    base = int(body)
    codes = {}
    while lines.more():
        lineno, rest = lines.prefixed("code ", "expected 'code y: v0 v1 ...'")
        head, _, body = rest.partition(":")
        if not is_natural(head.strip()):
            raise FormatError("expected 'code y: v0 v1 ...'", lineno)
        y = int(head)
        if y in codes:
            raise FormatError(f"duplicate code line for point {y}", lineno)
        code = naturals(body)
        if code is None:
            raise FormatError("coordinates must be naturals", lineno)
        codes[y] = code
    if sorted(codes) != list(range(len(codes))):
        raise FormatError("code lines must cover points 0..n-1", lines.here)
    return base, tuple(codes[y] for y in range(len(codes)))
