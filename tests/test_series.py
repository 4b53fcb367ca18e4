import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_mul
from qpchar.series import (
    NonPositiveExponent,
    OutOfTruncation,
    SeriesKey,
    TruncatedSeries,
    TruncationMismatch,
    add,
    coeff,
    geometric_inverse_factor,
    make_one,
    make_zero,
    monomial,
    mul,
    qpoch_inverse,
)

TRUNC = 4

keys_st = st.tuples(st.integers(0, TRUNC), st.integers(0, 3), st.integers(0, 3))
series_st = st.dictionaries(keys_st, st.integers(-9, 9), max_size=8).map(
    lambda d: TruncatedSeries(TRUNC, d)
)


# --- constructors -----------------------------------------------------------

def test_make_zero_is_empty():
    z = make_zero(5)
    assert z.trunc == 5
    assert len(z) == 0


def test_coeff_of_zero_is_zero_everywhere():
    z = make_zero(5)
    for key in [(0, 0, 0), (3, 1, 2), (5, 0, 0)]:
        assert z.coeff(key) == 0


def test_make_one():
    one = make_one(3)
    assert one.coeff((0, 0, 0)) == 1
    assert one.coeff((1, 1, 1)) == 0
    assert len(one) == 1


def test_make_one_constant_only_truncation():
    assert make_one(0).coeff((0, 0, 0)) == 1


def test_negative_truncation_rejected():
    with pytest.raises(ValueError):
        make_zero(-1)


@pytest.mark.parametrize("trunc", [2.0, "2", None, True, False])
def test_non_int_truncation_rejected(trunc):
    with pytest.raises(TypeError):
        TruncatedSeries(trunc)


def test_zero_coefficients_never_stored():
    s = TruncatedSeries(3, {(1, 0, 0): 0, (2, 1, 0): 5})
    assert len(s) == 1


def test_negative_exponents_rejected():
    with pytest.raises(ValueError):
        TruncatedSeries(3, {(1, -1, 0): 1})


def test_key_beyond_truncation_rejected():
    with pytest.raises(OutOfTruncation):
        TruncatedSeries(3, {(4, 0, 0): 1})


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        TruncatedSeries(3, {(1, 0, 0): 1.5})


def test_immutability():
    s = make_one(2)
    with pytest.raises(AttributeError):
        s.trunc = 7


# --- add / mul --------------------------------------------------------------

def test_add_cancellation_removes_term():
    a = monomial(3, 1, 1, 0, 2)
    b = monomial(3, 1, 1, 0, -2)
    assert len(add(a, b)) == 0


def test_add_keeps_distinct_keys():
    s = add(monomial(3, 1, 0, 0), monomial(3, 0, 0, 1))
    assert s.coeff((1, 0, 0)) == 1
    assert s.coeff((0, 0, 1)) == 1


def test_add_truncation_mismatch():
    with pytest.raises(TruncationMismatch):
        add(make_one(3), make_one(4))


def test_mul_truncation_mismatch():
    with pytest.raises(TruncationMismatch):
        mul(make_one(3), make_one(4))


def test_mul_monomials():
    s = mul(monomial(2, 1, 1, 0), monomial(2, 1, 0, 1))
    assert s.sorted_terms() == [(SeriesKey(2, 1, 1), 1)]


def test_mul_discards_beyond_truncation():
    s = mul(monomial(2, 2, 0, 0), monomial(2, 1, 0, 0))
    assert len(s) == 0


def test_mul_hand_expansion():
    # (1 + q y1)^2 = 1 + 2 q y1 + q^2 y1^2
    f = add(make_one(2), monomial(2, 1, 1, 0))
    sq = mul(f, f)
    assert sq.sorted_terms() == [
        (SeriesKey(0, 0, 0), 1),
        (SeriesKey(1, 1, 0), 2),
        (SeriesKey(2, 2, 0), 1),
    ]


@given(series_st, series_st)
def test_mul_matches_brute_convolution(a, b):
    expected = brute_mul(a.terms, b.terms, TRUNC)
    assert dict(mul(a, b).terms) == expected


# --- algebraic laws ---------------------------------------------------------

@settings(max_examples=100)
@given(series_st, series_st)
def test_add_commutative(a, b):
    assert add(a, b) == add(b, a)


@settings(max_examples=100)
@given(series_st, series_st)
def test_mul_commutative(a, b):
    assert mul(a, b) == mul(b, a)


@settings(max_examples=100)
@given(series_st, series_st, series_st)
def test_add_associative(a, b, c):
    assert add(add(a, b), c) == add(a, add(b, c))


@settings(max_examples=100)
@given(series_st, series_st, series_st)
def test_mul_associative(a, b, c):
    assert mul(mul(a, b), c) == mul(a, mul(b, c))


@settings(max_examples=100)
@given(series_st, series_st, series_st)
def test_mul_distributes_over_add(a, b, c):
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


@given(series_st)
def test_additive_identity(s):
    assert add(s, make_zero(TRUNC)) == s


@given(series_st)
def test_multiplicative_identity(s):
    assert mul(make_one(TRUNC), s) == s


# --- factor constructors ----------------------------------------------------

def test_geometric_factor_basic():
    s = geometric_inverse_factor(3, 1, 1, 0)
    assert s.sorted_terms() == [
        (SeriesKey(0, 0, 0), 1),
        (SeriesKey(1, 1, 0), 1),
        (SeriesKey(2, 2, 0), 1),
        (SeriesKey(3, 3, 0), 1),
    ]


def test_geometric_factor_step_two():
    s = geometric_inverse_factor(3, 2, 1, 3)
    assert s.sorted_terms() == [
        (SeriesKey(0, 0, 0), 1),
        (SeriesKey(2, 1, 3), 1),
    ]


def test_geometric_factor_trunc_zero():
    assert geometric_inverse_factor(0, 1, 0, 0) == make_one(0)


def test_geometric_factor_rejects_nonpositive_step():
    with pytest.raises(NonPositiveExponent):
        geometric_inverse_factor(3, 0, 1, 0)


def test_qpoch_inverse_depth_zero_is_one():
    assert qpoch_inverse(4, 0) == make_one(4)


def test_qpoch_inverse_depth_one():
    # 1/(1-q)
    assert qpoch_inverse(3, 1).counts_by_q() == [1, 1, 1, 1]


def _bounded_partition_count(m, max_part):
    # independent enumeration: partitions of m into parts <= max_part
    if m == 0:
        return 1
    return sum(
        _bounded_partition_count(m - p, p) for p in range(1, min(m, max_part) + 1)
    )


def test_qpoch_inverse_counts_bounded_partitions():
    for r in range(4):
        got = qpoch_inverse(5, r).counts_by_q()
        want = [_bounded_partition_count(m, r) for m in range(6)]
        assert got == want
    assert qpoch_inverse(3, 2).counts_by_q() == [1, 1, 2, 2]


# --- coeff contract ---------------------------------------------------------

def test_coeff_within_truncation():
    one = make_one(2)
    assert coeff(one, (0, 0, 0)) == 1
    assert coeff(one, (1, 1, 1)) == 0


def test_coeff_beyond_truncation_raises():
    with pytest.raises(OutOfTruncation):
        coeff(make_one(2), (3, 0, 0))


# --- serialization order ----------------------------------------------------

def test_sorted_terms_is_lexicographic():
    s = TruncatedSeries(3, {(2, 0, 1): 4, (0, 0, 0): 1, (2, 0, 0): 3, (1, 2, 0): 2})
    assert [tuple(k) for k, _ in s.sorted_terms()] == [
        (0, 0, 0),
        (1, 2, 0),
        (2, 0, 0),
        (2, 0, 1),
    ]


def test_first_mismatch():
    a = TruncatedSeries(3, {(0, 0, 0): 1, (2, 0, 1): 4, (3, 1, 1): 5})
    b = TruncatedSeries(3, {(0, 0, 0): 1, (1, 2, 0): 2, (2, 0, 1): 4})
    assert a.first_mismatch(a) is None
    assert a.first_mismatch(b) == ((1, 2, 0), 0, 2)
    assert b.first_mismatch(a) == ((1, 2, 0), 2, 0)
    with pytest.raises(TruncationMismatch):
        a.first_mismatch(make_zero(2))
