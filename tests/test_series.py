import copy
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import colored_partition_counts
from qpchar.fermionic import ModuleSpec, character_fermionic
from qpchar.pbw_oracle import pbw_enumerated, product_side
from qpchar.qp_enum import enumerate_basis
from qpchar.series import (
    OutOfTruncation,
    TruncatedSeries,
    TruncationMismatch,
    _coefficient_bound,
    _from_packed,
    _pack,
    _slot_width,
    _slots,
)


def _one(trunc):
    return TruncatedSeries(trunc, {(0, 0, 0): 1})


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


@pytest.mark.parametrize("key", [(1.5, 0, 0), (1, True, 0), (1, 0, False)])
def test_non_int_exponents_rejected(key):
    with pytest.raises(TypeError):
        TruncatedSeries(3, {key: 1})


@pytest.mark.parametrize("c", [True, False])
def test_bool_coefficients_rejected(c):
    with pytest.raises(TypeError):
        TruncatedSeries(3, {(1, 0, 0): c})


@pytest.mark.parametrize(
    "terms",
    [[(1, 0, 0)], [((1, 0, 0), 1)], "", "abc", 3, {(1, 0, 0)}],
    ids=["list", "list-of-pairs", "empty-str", "str", "int", "set"],
)
def test_non_mapping_terms_rejected(terms):
    with pytest.raises(TypeError, match="terms must be a mapping"):
        TruncatedSeries(3, terms)


def test_mapping_proxy_terms_accepted():
    s = _one(2)
    assert TruncatedSeries(2, s.terms) == s


def test_immutability():
    s = _one(2)
    with pytest.raises(AttributeError):
        s.trunc = 7


def test_terms_are_read_only():
    s = _one(1)
    with pytest.raises(TypeError):
        s.terms[(1, 0, 0)] = 5
    with pytest.raises(TypeError):
        del s.terms[(0, 0, 0)]
    assert s == _one(1)
    assert dict(s.terms) == {(0, 0, 0): 1}
    assert s.terms.get((0, 0, 0)) == 1 and s.terms.get((1, 0, 0)) is None


CLONES = [("pickle", lambda s: pickle.loads(pickle.dumps(s))), ("copy", copy.copy),
          ("deepcopy", copy.deepcopy)]
# a series built by the constructor, and the four methods' results, which
# are stored unchecked (the two kernels' from packed totals); each clone is
# rebuilt through the checking constructor, so it checks the stored terms
SOURCES = [("", lambda: TruncatedSeries(3, {(0, 0, 0): 1, (2, 1, 1): -4, (3, 0, 2): 2 ** 70})),
           ("-fermionic", lambda: character_fermionic(ModuleSpec(2), 8)),
           ("-enumerate", lambda: enumerate_basis(ModuleSpec(), 8)),
           ("-pbw-product", lambda: product_side(8)),
           ("-pbw-enumerate", lambda: pbw_enumerated(8))]


@pytest.mark.parametrize(
    "clone,make",
    [pytest.param(clone, make, id=name + source) for source, make in SOURCES for name, clone in CLONES],
)
def test_round_trip_keeps_value_and_read_only_terms(clone, make):
    s = make()
    t = clone(s)
    assert t == s and t.trunc == s.trunc and dict(t.terms) == dict(s.terms)
    with pytest.raises(TypeError):
        t.terms[(1, 0, 0)] = 5
    with pytest.raises(AttributeError):
        t.trunc = 7


def test_keys_stored_as_given():
    key = (1, 0, 0)
    s = TruncatedSeries(1, {key: 3})
    (stored,) = s.terms
    assert stored is key
    assert s.sorted_terms()[0][0] is key


# --- coeff contract ---------------------------------------------------------

def test_coeff_within_truncation():
    one = _one(2)
    assert one.coeff((0, 0, 0)) == 1
    assert one.coeff((1, 1, 1)) == 0


def test_coeff_beyond_truncation_raises():
    with pytest.raises(OutOfTruncation):
        _one(2).coeff((3, 0, 0))


@pytest.mark.parametrize(
    "key,error",
    [
        ((-1, 0, 0), ValueError),
        ((1, -1, 0), ValueError),
        ((1.0, 1, 0), TypeError),
        ((True, 1, 0), TypeError),
        ((1, 1, False), TypeError),
        ((1, 1), ValueError),
        ((1, 1, 1, 1), ValueError),
        (None, TypeError),
    ],
)
def test_coeff_checks_key_as_constructor_does(key, error):
    # the stored term at (1, 1, 0) must not answer for a float or bool key;
    # every refusal names the key
    s = TruncatedSeries(2, {(1, 1, 0): 7})
    with pytest.raises(error, match=re.escape(repr(key))):
        s.coeff(key)
    with pytest.raises(error, match=re.escape(repr(key))):
        TruncatedSeries(2, {key: 1})


# a one-shot iterator would be used up by the check and then miss the
# stored term; each case makes its own key, as a shared iterator runs dry
NOT_TUPLE_KEYS = [pytest.param(lambda: [2, 1, 1], id="list"), pytest.param(lambda: range(3), id="range"),
                  pytest.param(lambda: iter((2, 1, 1)), id="fresh_iterator")]


@pytest.mark.parametrize("make", NOT_TUPLE_KEYS)
def test_coeff_refuses_key_that_is_not_a_tuple(make):
    s = TruncatedSeries(2, {(2, 1, 1): 2, (0, 1, 2): 4})
    key = make()
    with pytest.raises(TypeError, match=re.escape(repr(key))):
        s.coeff(key)


def test_constructor_refuses_key_that_is_not_a_tuple():
    # a range key would be stored, then miss coeff((0, 1, 2)) and equality
    key = range(3)
    with pytest.raises(TypeError, match=re.escape(repr(key))):
        TruncatedSeries(5, {key: 4, (1, 0, 0): 1})


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
    with pytest.raises(TypeError, match="expected TruncatedSeries, got dict"):
        a.first_mismatch({(0, 0, 0): 1})


def test_equality_with_non_series_is_false():
    one = _one(2)
    assert one.__eq__(1) is NotImplemented
    assert not one == 1 and one != 1


def test_repr_names_truncation_and_term_count():
    assert repr(_one(2)) == "TruncatedSeries(trunc=2, 1 terms)"


# --- the packed form of the kernels -------------------------------------------

def test_coefficient_bound_is_largest_six_root_coefficient():
    for qmax in range(25):
        bound = _coefficient_bound(qmax)
        assert bound == max(colored_partition_counts(qmax)), qmax
        assert bound == max(product_side(qmax).counts_by_q()), qmax


@pytest.mark.parametrize("qmax,width", [(0, 1), (1, 3), (16, 23), (24, 30), (40, 41)])
def test_slot_width_is_bit_length_of_bound(qmax, width):
    assert _slot_width(qmax) == width
    assert 2 ** (width - 1) <= _coefficient_bound(qmax) < 2 ** width


def test_from_packed_builds_the_series_of_its_slots():
    trunc, width = 3, 4
    packed = _pack([0, 5, 0, 15], width)
    assert list(_slots(packed, width)) == [(1, 5), (3, 15)]
    # zero slots and a zero total store nothing
    terms = {(0, 0, 0): 1, (1, 1, 2): 5, (3, 1, 2): 15}
    s = _from_packed(trunc, width, {(0, 0): 1, (1, 2): packed, (2, 0): 0})
    assert s == TruncatedSeries(trunc, terms) and dict(s.terms) == terms
    with pytest.raises(TypeError):
        s.terms[(0, 0, 0)] = 2
    assert _from_packed(trunc, width, {}) == TruncatedSeries(trunc)
    # the top bit of slot trunc is inside; one bit past it is a carry
    # beyond the truncation
    assert _from_packed(trunc, width, {(0, 0): 1 << width * (trunc + 1) - 1}).coeff((3, 0, 0)) == 8
    with pytest.raises(OutOfTruncation):
        _from_packed(trunc, width, {(1, 0): 1, (0, 0): 1 << width * (trunc + 1)})


@st.composite
def slot_lists(draw):
    """(trunc, width, cs): trunc + 1 slot values below 2^width, often with
    a run of empty low slots, or one of the edge shapes: all empty, only
    slot 0, only slot trunc, or slot trunc full."""
    width, trunc = draw(st.integers(1, 45)), draw(st.integers(0, 40))
    full = (1 << width) - 1
    value = st.one_of(st.just(0), st.just(1), st.just(full), st.integers(0, full))
    cs = [0] * (trunc + 1)
    shape = draw(st.sampled_from(["low run", "empty", "slot 0", "slot trunc", "full slot trunc"]))
    if shape == "low run":
        lo = draw(st.integers(0, trunc + 1))
        cs[lo:] = draw(st.lists(value, min_size=trunc + 1 - lo, max_size=trunc + 1 - lo))
    elif shape == "slot 0":
        cs[0] = draw(st.integers(1, full))
    elif shape == "slot trunc":
        cs[trunc] = draw(st.integers(1, full))
    elif shape == "full slot trunc":
        cs[trunc] = full
    return trunc, width, cs


@settings(max_examples=500, deadline=None)
@given(slot_lists(), st.tuples(st.integers(0, 80), st.integers(0, 120)))
def test_codec_round_trips_every_slot(case, uv):
    trunc, width, cs = case
    packed = _pack(cs, width)
    # the int with slot j at bits j * width up, built without the codec
    assert packed == int("".join(format(c, f"0{width}b") for c in reversed(cs)), 2)
    nonzero = [(j, c) for j, c in enumerate(cs) if c]
    assert list(_slots(packed, width)) == nonzero
    u, v = uv
    assert _from_packed(trunc, width, {uv: packed}) == TruncatedSeries(trunc, {(j, u, v): c for j, c in nonzero})
