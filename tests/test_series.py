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
    divide_geometric,
)

TRUNC = 4

keys_st = st.tuples(st.integers(0, TRUNC), st.integers(0, 3), st.integers(0, 3))
series_st = st.dictionaries(keys_st, st.integers(-9, 9), max_size=8).map(
    lambda d: TruncatedSeries(TRUNC, d)
)


def _one(trunc):
    return TruncatedSeries(trunc, {(0, 0, 0): 1})


def _term(trunc, q_deg, y1_deg, y2_deg, c=1):
    # the single term c * q^q_deg y1^y1_deg y2^y2_deg
    return TruncatedSeries(trunc, {(q_deg, y1_deg, y2_deg): c})


# --- constructors -----------------------------------------------------------

def test_empty_series_is_zero():
    z = TruncatedSeries(5)
    assert z.trunc == 5
    assert len(z) == 0


def test_coeff_of_zero_is_zero_everywhere():
    z = TruncatedSeries(5)
    for key in [(0, 0, 0), (3, 1, 2), (5, 0, 0)]:
        assert z.coeff(key) == 0


def test_constant_one():
    one = _one(3)
    assert one.coeff((0, 0, 0)) == 1
    assert one.coeff((1, 1, 1)) == 0
    assert len(one) == 1


def test_constant_one_at_truncation_zero():
    assert _one(0).coeff((0, 0, 0)) == 1


def test_negative_truncation_rejected():
    with pytest.raises(ValueError):
        TruncatedSeries(-1)


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
    s = _one(2)
    with pytest.raises(AttributeError):
        s.trunc = 7


# --- add / mul --------------------------------------------------------------

def test_add_cancellation_removes_term():
    a = _term(3, 1, 1, 0, 2)
    b = _term(3, 1, 1, 0, -2)
    assert len(a + b) == 0


def test_add_keeps_distinct_keys():
    s = _term(3, 1, 0, 0) + _term(3, 0, 0, 1)
    assert s.coeff((1, 0, 0)) == 1
    assert s.coeff((0, 0, 1)) == 1


def test_add_truncation_mismatch():
    with pytest.raises(TruncationMismatch):
        _one(3) + _one(4)


def test_mul_truncation_mismatch():
    with pytest.raises(TruncationMismatch):
        _one(3) * _one(4)


def test_mul_monomials():
    s = _term(2, 1, 1, 0) * _term(2, 1, 0, 1)
    assert s.sorted_terms() == [(SeriesKey(2, 1, 1), 1)]


def test_mul_discards_beyond_truncation():
    s = _term(2, 2, 0, 0) * _term(2, 1, 0, 0)
    assert len(s) == 0


def test_mul_hand_expansion():
    # (1 + q y1)^2 = 1 + 2 q y1 + q^2 y1^2
    f = _one(2) + _term(2, 1, 1, 0)
    sq = f * f
    assert sq.sorted_terms() == [
        (SeriesKey(0, 0, 0), 1),
        (SeriesKey(1, 1, 0), 2),
        (SeriesKey(2, 2, 0), 1),
    ]


@given(series_st, series_st)
def test_mul_matches_brute_convolution(a, b):
    expected = brute_mul(a.terms, b.terms, TRUNC)
    assert dict((a * b).terms) == expected


# --- algebraic laws ---------------------------------------------------------

@settings(max_examples=100)
@given(series_st, series_st)
def test_add_commutative(a, b):
    assert a + b == b + a


@settings(max_examples=100)
@given(series_st, series_st)
def test_mul_commutative(a, b):
    assert a * b == b * a


@settings(max_examples=100)
@given(series_st, series_st, series_st)
def test_add_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@settings(max_examples=100)
@given(series_st, series_st, series_st)
def test_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=100)
@given(series_st, series_st, series_st)
def test_mul_distributes_over_add(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(series_st)
def test_additive_identity(s):
    assert s + TruncatedSeries(TRUNC) == s


@given(series_st)
def test_multiplicative_identity(s):
    assert _one(TRUNC) * s == s


# --- divide_geometric -------------------------------------------------------

def _layers(s: TruncatedSeries) -> list[dict]:
    layers = [{} for _ in range(s.trunc + 1)]
    for (q, u, v), c in s.terms.items():
        layers[q][(u, v)] = c
    return layers


def _series(layers: list[dict]) -> TruncatedSeries:
    return TruncatedSeries(
        len(layers) - 1,
        {(q, u, v): c for q, layer in enumerate(layers) for (u, v), c in layer.items()},
    )


def _geometric(trunc, m, a, b):
    # 1 / (1 - q^m y1^a y2^b), divided out of the series 1
    layers = _layers(_one(trunc))
    divide_geometric(layers, m, a, b)
    return _series(layers)


def test_geometric_factor_basic():
    assert _geometric(3, 1, 1, 0).sorted_terms() == [
        (SeriesKey(0, 0, 0), 1),
        (SeriesKey(1, 1, 0), 1),
        (SeriesKey(2, 2, 0), 1),
        (SeriesKey(3, 3, 0), 1),
    ]


def test_geometric_factor_step_two():
    assert _geometric(5, 2, 1, 3).sorted_terms() == [
        (SeriesKey(0, 0, 0), 1),
        (SeriesKey(2, 1, 3), 1),
        (SeriesKey(4, 2, 6), 1),
    ]


def test_geometric_factor_trunc_zero():
    assert _geometric(0, 1, 0, 0) == _one(0)


def test_geometric_factor_rejects_nonpositive_step():
    for m in (0, -1):
        with pytest.raises(NonPositiveExponent):
            divide_geometric(_layers(_one(3)), m, 1, 0)


@pytest.mark.parametrize("a,b", [(-1, 0), (0, -1)])
def test_divide_geometric_rejects_negative_color(a, b):
    with pytest.raises(ValueError):
        divide_geometric(_layers(_one(3)), 1, a, b)


@pytest.mark.parametrize(
    "m,a,b",
    [(1.0, 1, 0), (True, 1, 0), (1, 0.5, 0), (1, True, 0), (1, 0, 2.0), (1, 0, False)],
)
def test_divide_geometric_rejects_non_int_exponent(m, a, b):
    layers = _layers(_one(3))
    with pytest.raises(TypeError):
        divide_geometric(layers, m, a, b)
    assert layers == _layers(_one(3))


@given(
    series_st,
    st.integers(1, TRUNC + 1),
    st.integers(0, 3),
    st.integers(0, 3),
)
def test_divide_geometric_undone_by_factor(s, m, a, b):
    layers = _layers(s)
    divide_geometric(layers, m, a, b)
    factor = {(0, 0, 0): 1, (m, a, b): -1}
    assert brute_mul(_series(layers).terms, factor, TRUNC) == s.terms


def _qpoch_inverse(trunc, r):
    # 1 / ((1-q)(1-q^2)...(1-q^r)); r = 0 gives 1
    layers = _layers(_one(trunc))
    for i in range(1, r + 1):
        divide_geometric(layers, i, 0, 0)
    return _series(layers)


def test_qpoch_inverse_depth_zero_is_one():
    assert _qpoch_inverse(4, 0) == _one(4)


def test_qpoch_inverse_depth_one():
    # 1/(1-q)
    assert _qpoch_inverse(3, 1).counts_by_q() == [1, 1, 1, 1]


def _bounded_partition_count(m, max_part):
    # independent enumeration: partitions of m into parts <= max_part
    if m == 0:
        return 1
    return sum(
        _bounded_partition_count(m - p, p) for p in range(1, min(m, max_part) + 1)
    )


def test_qpoch_inverse_counts_bounded_partitions():
    for r in range(4):
        got = _qpoch_inverse(5, r).counts_by_q()
        want = [_bounded_partition_count(m, r) for m in range(6)]
        assert got == want
    assert _qpoch_inverse(3, 2).counts_by_q() == [1, 1, 2, 2]


# --- coeff contract ---------------------------------------------------------

def test_coeff_within_truncation():
    one = _one(2)
    assert one.coeff((0, 0, 0)) == 1
    assert one.coeff((1, 1, 1)) == 0


def test_coeff_beyond_truncation_raises():
    with pytest.raises(OutOfTruncation):
        _one(2).coeff((3, 0, 0))


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
        a.first_mismatch(TruncatedSeries(2))
