"""Exact ordinal arithmetic below epsilon_0 in Cantor normal form.

An ordinal is held as a sequence of (exponent, coefficient) terms with
strictly decreasing exponents and positive integer coefficients; the empty
sequence is 0.  Every ordinal has exactly one such representation, so
equality is structural.  Alongside the arithmetic the module provides the
tail, the cardinal tail (as a symbolic three-valued cardinal), additive
indecomposability, the cofinality class, and the dichotomy that sorts a
symmetric-interval ballean over an indecomposable ordinal into the
"cardinal line" or "macro cube" camp.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from operator import index

from .textio import is_natural

#: the deepest nesting of parenthesized exponents parse_ordinal accepts.
#: Parsing, formatting, comparison and the arithmetic recurse once per
#: level, at up to four interpreter frames a level; all of them still run
#: at depth 200 from a shallow stack, so 100 leaves the callers' frames
#: room under the default recursion limit.
ORDINAL_DEPTH_LIMIT = 100


class OrdinalSyntaxError(ValueError):
    """Raised by parse_ordinal; carries the 0-based offset of the bad token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


@functools.total_ordering
class Ordinal:
    """An ordinal below epsilon_0 in Cantor normal form.

    ``terms`` is a tuple of (exponent, coefficient) pairs where each exponent
    is itself an Ordinal, exponents strictly decrease, and coefficients are
    >= 1.  Instances are immutable and hashable.  The order is the
    lexicographic order of ``terms``: the first differing exponent decides,
    then its coefficient, and a proper prefix is smaller.  + and * delegate
    to ord_add and ord_mul.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=()):
        terms = tuple((e, index(c)) for e, c in terms)
        for e, c in terms:
            if not isinstance(e, Ordinal):
                raise TypeError("exponents must be Ordinal instances")
            if c < 1:
                raise ValueError("coefficients must be positive")
        for (e1, _), (e2, _) in zip(terms, terms[1:]):
            if not e2 < e1:
                raise ValueError("exponents must strictly decrease")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_hash", hash(terms))

    def __setattr__(self, name, value):
        raise AttributeError("Ordinal is immutable")

    @staticmethod
    def from_int(n: int) -> "Ordinal":
        if n < 0:
            raise ValueError("ordinals are non-negative")
        return Ordinal(((ZERO, n),)) if n else ZERO

    def is_zero(self) -> bool:
        return not self.terms

    def is_finite(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0].is_zero())

    def as_int(self):
        """The integer value, or None when the ordinal is infinite."""
        if self.is_zero():
            return 0
        if self.is_finite():
            return self.terms[0][1]
        return None

    def __eq__(self, other):
        return isinstance(other, Ordinal) and self.terms == other.terms

    def __lt__(self, other):
        if not isinstance(other, Ordinal):
            return NotImplemented
        return self.terms < other.terms

    def __hash__(self):
        return self._hash

    def __add__(self, other):
        return ord_add(self, _coerce(other))

    def __radd__(self, other):
        return ord_add(_coerce(other), self)

    def __mul__(self, other):
        return ord_mul(self, _coerce(other))

    def __rmul__(self, other):
        return ord_mul(_coerce(other), self)

    def __repr__(self):
        return f"Ordinal({format_ordinal(self)!r})"

    def __str__(self):
        return format_ordinal(self)


def _coerce(x) -> Ordinal:
    if isinstance(x, Ordinal):
        return x
    if isinstance(x, int):
        return Ordinal.from_int(x)
    raise TypeError(f"cannot interpret {x!r} as an ordinal")


ZERO = Ordinal()
ONE = Ordinal(((ZERO, 1),))
OMEGA = Ordinal(((ONE, 1),))


def ord_cmp(a: Ordinal, b: Ordinal) -> int:
    """Compare two ordinals: -1, 0 or 1, in the term-tuple order of Ordinal."""
    return (a.terms > b.terms) - (a.terms < b.terms)


def ord_add(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal addition (non-commutative; small left terms are absorbed)."""
    if b.is_zero():
        return a
    if a.is_zero():
        return b
    eb = b.terms[0][0]
    kept = [t for t in a.terms if eb < t[0]]
    rest = [t for t in a.terms if t[0] == eb]
    if rest:
        merged = (eb, rest[0][1] + b.terms[0][1])
        return Ordinal(tuple(kept) + (merged,) + b.terms[1:])
    return Ordinal(tuple(kept) + b.terms)


def ord_mul(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal multiplication (non-commutative; left-distributive)."""
    if a.is_zero() or b.is_zero():
        return ZERO
    ea, ca = a.terms[0]
    total = ZERO
    for eb, cb in b.terms:
        if eb.is_zero():
            # a * finite: scale the leading coefficient, keep a's lower terms
            piece = Ordinal(((ea, ca * cb),) + a.terms[1:])
        else:
            piece = Ordinal(((ord_add(ea, eb), cb),))
        total = ord_add(total, piece)
    return total


def tail(gamma: Ordinal) -> Ordinal:
    """The least alpha with gamma = beta + alpha for some beta < gamma."""
    if gamma.is_zero():
        raise ValueError("tail is undefined for 0: no decomposition with beta < gamma")
    smallest_exp = gamma.terms[-1][0]
    return Ordinal(((smallest_exp, 1),))


@dataclass(frozen=True, order=True, slots=True, repr=False)
class CardinalSym:
    """Symbolic cardinal: a finite value, aleph0, or aleph1.

    Totally ordered by (rank, value): Finite(n) < Finite(m) iff n < m, and
    every finite value (rank 0) sits below ALEPH0 (rank 1) < ALEPH1 (rank 2).
    """

    _rank: int
    _n: int = 0

    @staticmethod
    def finite(n: int) -> "CardinalSym":
        n = index(n)
        if n < 0:
            raise ValueError("finite cardinals are non-negative")
        return CardinalSym(0, n)

    @property
    def is_finite(self) -> bool:
        return self._rank == 0

    @property
    def value(self):
        """The integer value of a finite cardinal, else None."""
        return self._n if self._rank == 0 else None

    def __str__(self):
        if self._rank == 0:
            return str(self._n)
        return "aleph0" if self._rank == 1 else "aleph1"

    def __repr__(self):
        return f"CardinalSym({self})"


ALEPH0 = CardinalSym(1)
ALEPH1 = CardinalSym(2)


def cardinal_tail(gamma: Ordinal) -> CardinalSym:
    """Cardinality correction of the tail: |tail| if the tail is a cardinal,
    else the next cardinal up.  At this countable scale the tail is a
    cardinal exactly when it is finite or equals omega."""
    t = tail(gamma)
    if t.is_finite():
        return CardinalSym.finite(t.as_int())
    if t == OMEGA:
        return ALEPH0
    return ALEPH1


def is_additively_indecomposable(gamma: Ordinal) -> bool:
    """True iff alpha + beta < gamma for all alpha, beta < gamma
    (equivalently: the CNF is a single term with coefficient 1)."""
    if gamma.is_zero():
        raise ValueError("indecomposability is considered for gamma > 0")
    return len(gamma.terms) == 1 and gamma.terms[0][1] == 1


class CofClass(enum.Enum):
    ZERO = "Zero"
    ONE = "One"
    OMEGA = "Omega"

    def __str__(self):
        return self.value


def cofinality_class(gamma: Ordinal) -> CofClass:
    """0 -> Zero, successors -> One, limits -> Omega (all limits below
    epsilon_0 have countable cofinality)."""
    if gamma.is_zero():
        return CofClass.ZERO
    if gamma.terms[-1][0].is_zero():
        return CofClass.ONE
    return CofClass.OMEGA


class BalleanClass(enum.Enum):
    CARDINAL_LINE = "CardinalLine"
    MACRO_CUBE = "MacroCube"

    def __str__(self):
        return self.value


def classify_cardinal_ballean(gamma: Ordinal) -> BalleanClass:
    """For indecomposable gamma = w^d: CardinalLine iff gamma = beta * omega
    is solvable, which happens exactly when d is a successor."""
    if gamma.is_zero() or not is_additively_indecomposable(gamma):
        raise ValueError(
            "the symmetric-interval chain over a decomposable ordinal is not a "
            "ballean; classification needs gamma = w^d"
        )
    delta = gamma.terms[0][0]
    if cofinality_class(delta) is CofClass.ONE:
        return BalleanClass.CARDINAL_LINE
    return BalleanClass.MACRO_CUBE


# --- text format ------------------------------------------------------------
#
# expr := term ('+' term)*
# term := 'w' ('^' '(' expr ')' | '^' atom)? ('*' nat)? | nat
# atom := 'w' | nat
#
# ASCII 'w' stands for omega.  Sums need not be sorted; they are normalized
# through ord_add, so "1 + w" parses to w.


@dataclass
class _Scanner:
    text: str
    pos: int = 0
    depth: int = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise OrdinalSyntaxError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def nat(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        # empty, or more digits than int() converts
        if not is_natural(self.text[start:self.pos]):
            raise OrdinalSyntaxError("expected a natural number", start)
        return int(self.text[start:self.pos])


def _parse_atom(s: _Scanner) -> Ordinal:
    if s.peek() == "w":
        s.pos += 1
        return OMEGA
    return Ordinal.from_int(s.nat())


def _parse_term(s: _Scanner) -> Ordinal:
    ch = s.peek()
    if ch == "w":
        s.pos += 1
        exponent = ONE
        if s.peek() == "^":
            s.pos += 1
            if s.peek() == "(":
                s.depth += 1
                if s.depth > ORDINAL_DEPTH_LIMIT:
                    raise OrdinalSyntaxError(
                        f"exponents nested deeper than {ORDINAL_DEPTH_LIMIT}", s.pos
                    )
                s.pos += 1
                exponent = _parse_expr(s)
                s.expect(")")
                s.depth -= 1
            else:
                exponent = _parse_atom(s)
        coeff = 1
        if s.peek() == "*":
            s.pos += 1
            s.skip_ws()
            at = s.pos
            coeff = s.nat()
            if coeff == 0:
                raise OrdinalSyntaxError("coefficient 0 is not allowed", at)
        if exponent.is_zero():
            return Ordinal.from_int(coeff)
        return Ordinal(((exponent, coeff),))
    if "0" <= ch <= "9":
        return Ordinal.from_int(s.nat())
    raise OrdinalSyntaxError("expected 'w' or a natural number", s.pos)


def _parse_expr(s: _Scanner) -> Ordinal:
    total = _parse_term(s)
    while s.peek() == "+":
        s.pos += 1
        total = ord_add(total, _parse_term(s))
    return total


def parse_ordinal(text: str) -> Ordinal:
    """Parse the ASCII ordinal grammar; raises OrdinalSyntaxError with the
    offending offset on malformed input."""
    s = _Scanner(text)
    value = _parse_expr(s)
    if s.peek():
        raise OrdinalSyntaxError("unexpected trailing input", s.pos)
    return value


def format_ordinal(x: Ordinal) -> str:
    """Canonical rendering; parse_ordinal(format_ordinal(x)) == x."""
    if x.is_zero():
        return "0"
    parts = []
    for e, c in x.terms:
        if e.is_zero():
            parts.append(str(c))
            continue
        if e == ONE:
            base = "w"
        elif e.is_finite():
            base = f"w^{e.as_int()}"
        else:
            base = f"w^({format_ordinal(e)})"
        parts.append(base if c == 1 else f"{base}*{c}")
    return " + ".join(parts)
