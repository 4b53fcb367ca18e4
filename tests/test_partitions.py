import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import colored_partition_counts, total_exponent
from qpchar.partitions import (
    _partitions_of,
    conjugate,
    diag_energy_from_charges,
    diag_energy_from_dual,
    mixed_energy_from_charges,
    mixed_energy_from_dual,
    validate_partition,
)

partitions_st = st.lists(st.integers(1, 15), max_size=10).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def test_partitions_of_lists_each_partition_once_in_reverse_lex_order():
    counts = colored_partition_counts(12, colors=1)
    for n in range(13):
        listed = list(_partitions_of(n))
        for p in listed:
            validate_partition(p)  # a tuple of weakly decreasing positive ints
            assert sum(p) == n
        # strictly decreasing as tuples: distinct, in reverse lexicographic order
        assert all(a > b for a, b in zip(listed, listed[1:]))
        assert len(listed) == counts[n]


def test_validate_partition_accepts_valid():
    for p in [(), (1,), (5, 5, 2), (3, 1)]:
        validate_partition(p)


# a list, and a one-shot iterator that the energies would read a second
# time; each case makes its own iterator, as one shared between cases runs dry
NOT_TUPLES = [pytest.param(lambda: [2, 1], id="list"),
              pytest.param(lambda: iter((2, 1)), id="fresh_iterator")]


def _make(p):
    return p() if callable(p) else p


@pytest.mark.parametrize("bad", [(1, 2), (0,), (-1,), (2, 0), (True,), (2, True), (1.0,),
                                 *NOT_TUPLES])
def test_validate_partition_rejects(bad):
    with pytest.raises(ValueError):
        validate_partition(_make(bad))


@pytest.mark.parametrize("p", [(3, 0), (-1,), (True,), (1, 2)])
def test_conjugate_rejects_non_partitions(p):
    with pytest.raises(ValueError):
        conjugate(p)


@pytest.mark.parametrize("p", [(1, 2), (True,), (-1,), (3, 0), (1.0,), *NOT_TUPLES])
@pytest.mark.parametrize(
    "energy",
    [
        diag_energy_from_charges,
        diag_energy_from_dual,
        lambda p: mixed_energy_from_charges(p, (3,)),
        lambda p: mixed_energy_from_charges((1,), p),
        lambda p: mixed_energy_from_dual(p, (1,)),
        lambda p: mixed_energy_from_dual((1,), p),
    ],
    ids=["diag_charges", "diag_dual", "mixed_charges_n1", "mixed_charges_n2",
         "mixed_dual_r1", "mixed_dual_r2"],
)
def test_energy_conversions_reject_non_partitions(energy, p):
    with pytest.raises(ValueError):
        energy(_make(p))


def test_conjugate_examples():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()
    assert conjugate((2, 2, 1)) == (3, 2)


@settings(max_examples=1000, deadline=None)
@given(partitions_st)
def test_conjugate_involution_and_sum(p):
    dual = conjugate(p)
    validate_partition(dual)
    assert conjugate(dual) == p
    assert sum(dual) == sum(p)


def test_diag_energy_from_charges_examples():
    assert diag_energy_from_charges((2, 1)) == 5
    assert diag_energy_from_charges((7,)) == 7
    assert diag_energy_from_charges(()) == 0


def test_diag_energy_from_dual_examples():
    assert diag_energy_from_dual((2, 1)) == 5
    assert diag_energy_from_dual((3,)) == 9
    assert diag_energy_from_dual(()) == 0


@settings(max_examples=1000, deadline=None)
@given(partitions_st)
def test_diag_energies_agree_under_conjugation(p):
    assert diag_energy_from_charges(p) == diag_energy_from_dual(conjugate(p))


def test_mixed_energy_from_charges_examples():
    assert mixed_energy_from_charges((1,), (3,)) == 3
    assert mixed_energy_from_charges((), (5, 2)) == 0
    assert mixed_energy_from_charges((2, 1), (4, 1)) == 9


def test_mixed_energy_from_dual_examples():
    assert mixed_energy_from_dual((1,), (1, 1, 1)) == 3
    assert mixed_energy_from_dual((1,), (1,)) == 1
    assert mixed_energy_from_dual((), (9, 4)) == 0


@settings(max_examples=1000, deadline=None)
@given(partitions_st, partitions_st)
def test_mixed_energies_agree_under_conjugation(n1, n2):
    assert mixed_energy_from_charges(n1, n2) == mixed_energy_from_dual(conjugate(n1), conjugate(n2))


def test_total_exponent_examples():
    assert total_exponent((1,), (1, 1, 1)) == 1
    assert total_exponent((2,), (1, 1, 1)) == 1
    assert total_exponent((), ()) == 0


@settings(max_examples=1000, deadline=None)
@given(partitions_st, partitions_st)
def test_total_exponent_positive_definite(r1, r2):
    e = total_exponent(r1, r2)
    assert e == diag_energy_from_dual(r1) + diag_energy_from_dual(r2) - mixed_energy_from_dual(r1, r2)
    assert e >= 0
    assert (e == 0) == (r1 == () and r2 == ())
    # each block (a; x, y, z) is a^2/4 + sum of (x - a/2)^2, hence the floor
    assert 4 * e >= sum(x * x for x in r1)

