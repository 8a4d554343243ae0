import random

import numpy

import pytest
from hypothesis import given, settings, strategies as st

from coarsekit.ordinals import (
    ALEPH0,
    ALEPH1,
    OMEGA,
    ONE,
    ZERO,
    BalleanClass,
    CardinalSym,
    CofClass,
    Ordinal,
    OrdinalSyntaxError,
    cardinal_tail,
    classify_cardinal_ballean,
    cofinality_class,
    format_ordinal,
    is_additively_indecomposable,
    ord_add,
    ord_cmp,
    ord_mul,
    parse_ordinal,
    tail,
)

W = OMEGA


def fin(n):
    return Ordinal.from_int(n)


def w_pow(e, c=1):
    e = e if isinstance(e, Ordinal) else fin(e)
    if e.is_zero():
        return fin(c)
    return Ordinal(((e, c),))


# --- brute-force oracle family: exponents <= 3, coefficients <= 3 -----------

from ordinal_oracles import bounded_family, decomposition_witnesses, tail_table

FAMILY = bounded_family()
ORACLE_TAIL = tail_table(FAMILY)
DECOMPOSITION_WITNESSED = decomposition_witnesses(FAMILY)


def oracle_tail(gamma):
    return ORACLE_TAIL.get(gamma)


def add_times(a, n):
    """a added to itself n times, an ord_mul-independent route to a * n."""
    total = ZERO
    for _ in range(n):
        total = ord_add(total, a)
    return total


# --- parsing and formatting --------------------------------------------------

def test_parse_canonical_sum():
    x = parse_ordinal("w^2*3 + w + 4")
    assert x.terms == ((fin(2), 3), (ONE, 1), (ZERO, 4))


def test_parse_normalizes_absorption():
    assert parse_ordinal("1 + w") == W
    assert parse_ordinal("w + w") == w_pow(1, 2)
    assert parse_ordinal("w + 1 + w") == w_pow(1, 2)


def test_parse_incomplete_exponent():
    with pytest.raises(OrdinalSyntaxError) as ei:
        parse_ordinal("w^")
    assert ei.value.position == 2


def test_parse_rejects_zero_coefficient():
    with pytest.raises(OrdinalSyntaxError):
        parse_ordinal("w*0")


def test_parse_trailing_garbage():
    with pytest.raises(OrdinalSyntaxError):
        parse_ordinal("w )")


def test_parse_nested_exponent():
    assert parse_ordinal("w^(w^2 + 1)*2 + 5") == Ordinal(
        ((ord_add(w_pow(2), ONE), 2), (ZERO, 5))
    )


def test_format_examples():
    assert format_ordinal(ZERO) == "0"
    assert format_ordinal(Ordinal(((ONE, 1), (ZERO, 5)))) == "w + 5"
    assert format_ordinal(w_pow(W)) == "w^(w)"
    assert format_ordinal(w_pow(2, 3)) == "w^2*3"


def ordinals(max_depth=3):
    """Hypothesis strategy for CNF ordinals with nesting depth <= max_depth."""
    def build(depth):
        if depth == 0:
            return st.integers(0, 9).map(fin)
        exponent = build(depth - 1)
        term = st.tuples(exponent, st.integers(1, 4))
        def assemble(ts):
            total = ZERO
            for e, c in ts:
                total = ord_add(total, Ordinal(((e, c),)) if not e.is_zero() else fin(c))
            return total
        return st.lists(term, max_size=3).map(assemble)
    return build(max_depth)


@given(ordinals())
@settings(max_examples=300, deadline=None)
def test_format_parse_round_trip(x):
    assert parse_ordinal(format_ordinal(x)) == x


# --- arithmetic --------------------------------------------------------------

def test_add_absorbs():
    assert ord_add(ONE, W) == W
    assert ord_add(W, ONE) == Ordinal(((ONE, 1), (ZERO, 1)))


def test_mul_noncommutative():
    assert ord_mul(fin(2), W) == W
    assert ord_mul(W, fin(2)) == w_pow(1, 2)


def test_operators_coerce_naturals_only():
    assert str(OMEGA + 1) == "w + 1"
    assert 1 + OMEGA == OMEGA
    assert 2 * OMEGA == OMEGA
    assert str(OMEGA * 2) == "w*2"
    for bad in (1.5, "w"):
        with pytest.raises(TypeError):
            OMEGA + bad
    with pytest.raises(ValueError):
        OMEGA + (-1)


def test_mul_omega_plus_one_by_omega():
    a = ord_add(W, ONE)
    assert ord_mul(a, W) == w_pow(2)
    # supremum oracle: (w+1)*n, computed by repeated addition, stays strictly
    # below w^2 and escapes every smaller family member
    for n in range(1, 30):
        assert ord_cmp(add_times(a, n), w_pow(2)) < 0
    for c in FAMILY:
        if ord_cmp(c, w_pow(2)) < 0 and not c.is_zero():
            assert any(ord_cmp(add_times(a, n), c) > 0 for n in range(1, 30))


def test_mul_against_repeated_addition():
    rng = random.Random(7)
    for _ in range(100):
        a = FAMILY[rng.randrange(len(FAMILY))]
        n = rng.randrange(0, 6)
        assert ord_mul(a, fin(n)) == add_times(a, n)


@given(ordinals(2), ordinals(2), ordinals(2))
@settings(max_examples=200, deadline=None)
def test_algebraic_laws(a, b, c):
    assert ord_add(ord_add(a, b), c) == ord_add(a, ord_add(b, c))
    assert ord_mul(ord_mul(a, b), c) == ord_mul(a, ord_mul(b, c))
    assert ord_mul(a, ord_add(b, c)) == ord_add(ord_mul(a, b), ord_mul(a, c))


@given(ordinals(2), ordinals(2), ordinals(2))
@settings(max_examples=200, deadline=None)
def test_monotonicity(a, b, c):
    if ord_cmp(b, c) < 0:
        assert ord_cmp(ord_add(a, b), ord_add(a, c)) < 0
        if not a.is_zero():
            assert ord_cmp(ord_mul(a, b), ord_mul(a, c)) < 0


def test_cmp_is_total_order_on_family():
    for x in FAMILY[:40]:
        for y in FAMILY[:40]:
            c = ord_cmp(x, y)
            assert c == -ord_cmp(y, x)
            if c == 0:
                assert x == y


# --- tail, cardinal tail, indecomposability ----------------------------------

def test_tail_examples():
    assert tail(ord_add(W, fin(5))) == ONE
    assert tail(w_pow(1, 2)) == W
    assert tail(w_pow(W)) == w_pow(W)


def test_tail_rejects_zero():
    with pytest.raises(ValueError):
        tail(ZERO)
    with pytest.raises(ValueError):
        cardinal_tail(ZERO)


def test_tail_matches_bruteforce_oracle():
    for gamma in FAMILY:
        if gamma.is_zero():
            continue
        assert tail(gamma) == oracle_tail(gamma), format_ordinal(gamma)


def test_cardinal_tail_examples():
    assert cardinal_tail(ord_add(W, fin(5))) == CardinalSym.finite(1)
    assert cardinal_tail(ord_add(w_pow(2), W)) == ALEPH0
    assert cardinal_tail(w_pow(W)) == ALEPH1


def test_cardinal_sym_order():
    assert CardinalSym.finite(2) < CardinalSym.finite(5) < ALEPH0 < ALEPH1
    assert not ALEPH0 < CardinalSym.finite(10**9)


def test_finite_cardinal_stores_a_plain_int():
    assert str(CardinalSym.finite(True)) == "1"
    assert type(CardinalSym.finite(numpy.int64(3)).value) is int


@pytest.mark.parametrize(
    "build",
    [
        lambda: Ordinal(((ZERO, 2.7),)),
        lambda: Ordinal(((ZERO, "3"),)),
        lambda: Ordinal.from_int(2.0),
        lambda: CardinalSym.finite(2.5),
        lambda: CardinalSym.finite("3"),
    ],
    ids=["float-coefficient", "str-coefficient", "float-from-int", "float-cardinal", "str-cardinal"],
)
def test_constructors_reject_non_integers(build):
    # int() would truncate 2.7 to 2 and read "3" as 3; a float cardinal
    # would print as 2.5 and sort among the integers
    with pytest.raises(TypeError):
        build()


def test_indecomposable():
    assert is_additively_indecomposable(W)
    assert not is_additively_indecomposable(w_pow(1, 2))
    assert is_additively_indecomposable(w_pow(W))
    # witness check: decomposable members really decompose below themselves
    for gamma in FAMILY:
        if gamma.is_zero():
            continue
        if not is_additively_indecomposable(gamma):
            assert gamma in DECOMPOSITION_WITNESSED
        assert (gamma == tail(gamma)) == is_additively_indecomposable(gamma)


# --- cofinality and the cardinal-ballean dichotomy ---------------------------

def test_cofinality_class():
    assert cofinality_class(ZERO) is CofClass.ZERO
    assert cofinality_class(ord_add(W, fin(3))) is CofClass.ONE
    assert cofinality_class(w_pow(2)) is CofClass.OMEGA


def test_classify_examples():
    assert classify_cardinal_ballean(W) is BalleanClass.CARDINAL_LINE
    assert classify_cardinal_ballean(w_pow(2)) is BalleanClass.CARDINAL_LINE
    assert classify_cardinal_ballean(w_pow(W)) is BalleanClass.MACRO_CUBE
    assert classify_cardinal_ballean(ONE) is BalleanClass.MACRO_CUBE


def test_classify_rejects_decomposable():
    with pytest.raises(ValueError):
        classify_cardinal_ballean(ord_add(W, ONE))


def bounded_beta_search(gamma, family):
    return any(
        ord_cmp(beta, gamma) <= 0 and ord_mul(beta, W) == gamma for beta in family
    )


def test_classify_matches_bounded_search():
    for gamma in FAMILY:
        if gamma.is_zero() or not is_additively_indecomposable(gamma):
            continue
        found = bounded_beta_search(gamma, FAMILY)
        verdict = classify_cardinal_ballean(gamma)
        assert found == (verdict is BalleanClass.CARDINAL_LINE), format_ordinal(gamma)


def test_classify_macrocube_beyond_family():
    # w^w and w^(w*2): no beta with finite exponents satisfies beta * w = gamma
    for gamma in (w_pow(W), w_pow(w_pow(1, 2))):
        assert classify_cardinal_ballean(gamma) is BalleanClass.MACRO_CUBE
        assert not bounded_beta_search(gamma, FAMILY)
    assert classify_cardinal_ballean(w_pow(ord_add(W, ONE))) is BalleanClass.CARDINAL_LINE
    assert ord_mul(w_pow(W), W) == w_pow(ord_add(W, ONE))


def nested(depth):
    return "w^(" * depth + "1" + ")" * depth


def test_exponent_nesting_up_to_the_depth_limit():
    from coarsekit.ordinals import ORDINAL_DEPTH_LIMIT

    g = parse_ordinal(nested(ORDINAL_DEPTH_LIMIT))
    depth = ORDINAL_DEPTH_LIMIT - 1  # the innermost w^(1) is w
    assert format_ordinal(g) == "w^(" * depth + "w" + ")" * depth
    assert parse_ordinal(format_ordinal(g)) == g
    assert ord_mul(g, g) == Ordinal(((ord_add(g.terms[0][0], g.terms[0][0]), 1),))
    assert ord_add(g, g) == Ordinal(((g.terms[0][0], 2),))
    assert classify_cardinal_ballean(g) is BalleanClass.MACRO_CUBE
    with pytest.raises(OrdinalSyntaxError) as e:
        parse_ordinal(nested(ORDINAL_DEPTH_LIMIT + 1))
    assert e.value.position == 3 * ORDINAL_DEPTH_LIMIT + 2  # the opening parenthesis
    assert str(ORDINAL_DEPTH_LIMIT) in str(e.value)
